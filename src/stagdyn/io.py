"""Output emission: CSV energy log and self-describing binary snapshots.

Energy log: one row per step with a header row, comma-separated, values
printed with 17 significant digits (bit-faithful round trip), columns
``k, t, kinetic, stored, dissipated_step, external_work_step, a_coeff,
residual``.

Snapshot format (little-endian): a 16-byte header ``magic "STGD", version
u32, field_count u32, dim u32``; then per field ``name_length u32, name
bytes, count u64, count IEEE-754 doubles`` row-major.
"""

import os
import struct

import numpy as np

from .errors import StagdynError

ENERGY_COLUMNS = ("k", "t", "kinetic", "stored", "dissipated_step",
                  "external_work_step", "a_coeff", "residual")

# one energy-log row: the same text as format(v, ".17g") per value
_ROW = "%d" + ",%.17g" * (len(ENERGY_COLUMNS) - 1) + "\n"

SNAPSHOT_MAGIC = b"STGD"
SNAPSHOT_VERSION = 1


class EnergyLogWriter:
    """Streams ledger rows to a CSV file."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(ENERGY_COLUMNS) + "\n")

    def write(self, ledger):
        self._fh.write(_ROW % (
            ledger.step, ledger.time, ledger.kinetic, ledger.stored,
            ledger.dissipated_step, ledger.external_work_step,
            ledger.stability_coeff, ledger.residual))

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_energy_log(path):
    """Energy log as a dict of column arrays; a row that is short, long or
    not numeric raises :class:`StagdynError` naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != ENERGY_COLUMNS:
            raise StagdynError(f"unexpected energy-log header {header}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != len(ENERGY_COLUMNS):
                raise StagdynError(f"energy log line {line_no}: expected "
                                   f"{len(ENERGY_COLUMNS)} numbers, got "
                                   f"{line.strip()!r}")
            rows.append(row)
    cols = {name: np.array([r[i] for r in rows])
            for i, name in enumerate(ENERGY_COLUMNS)}
    cols["k"] = cols["k"].astype(int)
    return cols


def write_snapshot(path, fields, dim):
    """Write named float64 arrays in the flat binary snapshot format."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                             len(fields), dim))
        for name, arr in fields.items():
            data = np.ascontiguousarray(arr, dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<Q", data.size))
            fh.write(data)


def _read_exact(fh, size, what):
    # checked before reading, so a corrupt size allocates nothing
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise StagdynError(f"truncated snapshot: {what}")
    return fh.read(size)


def read_snapshot(path):
    """Read a snapshot; returns (fields dict, dim).

    A file cut short anywhere raises :class:`StagdynError`.
    """
    with open(path, "rb") as fh:
        head = _read_exact(fh, 16, "header")
        magic, version, count, dim = struct.unpack("<4sIII", head)
        if magic != SNAPSHOT_MAGIC:
            raise StagdynError(f"bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise StagdynError(f"unsupported snapshot version {version}")
        fields = {}
        for i in range(count):
            (nlen,) = struct.unpack(
                "<I", _read_exact(fh, 4, f"name length of field {i}"))
            name = _read_exact(fh, nlen, f"name of field {i}").decode("utf-8")
            (n,) = struct.unpack(
                "<Q", _read_exact(fh, 8, f"count of field {name!r}"))
            buf = _read_exact(fh, 8 * n, f"data of field {name!r}")
            fields[name] = np.frombuffer(buf, dtype="<f8").copy()
    return fields, dim


def snapshot_fields(state, disc, names):
    """Assemble the requested state fields for a snapshot."""
    out = {}
    for name in names:
        if name == "u":
            out["u"] = state.u
        elif name == "v":
            out["v"] = state.v
        elif name == "sigma":
            out["sigma"] = disc.sigma_physical(state.sigma)
        elif name == "z":
            out["z"] = state.z
        else:
            raise StagdynError(f"unknown snapshot field {name!r}")
    return out
