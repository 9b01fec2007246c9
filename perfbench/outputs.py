"""Read back a run's energy log and snapshots and check them.

The readers here are written against the formats the README documents,
not imported from stagdyn, so a bug in the program's own writer and
reader pair cannot hide.  Each check returns a list of problems; an empty
list means the output passed.
"""

import math
import os
import struct

import numpy as np

ENERGY_COLUMNS = ("k", "t", "kinetic", "stored", "dissipated_step",
                  "external_work_step", "a_coeff", "residual")
A_COEFF_SLACK = 1e-12


def read_energy_log(path):
    """Header and rows of the CSV energy log (rows as lists of floats)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = tuple(lines[0].split(",")) if lines else ()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    return header, rows


def check_energy_log(path, steps, t_end, eta, energy_tol):
    """Row count, finiteness, the energy identity and ``a_coeff >= eta``.

    ``steps`` is the number of ``on_step`` callbacks the run made; it must
    equal the row count and ``round(t_end / tau)`` with tau read from the
    first row.  ``energy_tol`` is the config's ``energy_tolerance``, scaled
    by ``max(1, largest |energy|)``.
    """
    try:
        header, rows = read_energy_log(path)
    except (OSError, ValueError) as exc:
        return [f"energy log unreadable: {exc}"]
    if header != ENERGY_COLUMNS:
        return [f"energy log header {header}"]
    problems = []
    if len(rows) != steps:
        problems.append(f"energy log has {len(rows)} rows for {steps} steps")
    if any(len(r) != len(ENERGY_COLUMNS) for r in rows):
        return problems + ["energy log row with a wrong field count"]
    if not rows:
        return problems + ["energy log is empty"]
    cols = np.array(rows).T
    if not np.all(np.isfinite(cols)):
        return problems + ["non-finite value in the energy log"]
    k, t, kinetic, stored, _, _, a_coeff, residual = cols
    if not np.array_equal(k, np.arange(len(rows))):
        problems.append("step column is not 0, 1, 2, ...")
    tau = t[0]
    if not np.allclose(t, (k + 1) * tau, rtol=1e-9, atol=0.0):
        problems.append("time column is not (k + 1) * tau")
    if round(t_end / tau) != steps:
        problems.append(f"{steps} steps but t_end / tau = {t_end / tau:.6g}")
    scale = max(1.0, float(np.max(np.abs(kinetic) + np.abs(stored))))
    worst = float(np.max(np.abs(residual)))
    if worst > energy_tol * scale:
        problems.append(f"|residual| {worst:.3e} above {energy_tol:g} x "
                        f"{scale:.3g}")
    lowest = float(np.min(a_coeff))
    if lowest < eta - A_COEFF_SLACK:
        problems.append(f"a_coeff {lowest:.6g} below eta = {eta:g}")
    return problems


def read_snapshot(path):
    """Fields and dimension of one ``snapshot_XXXXXX.bin`` file."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, count, dim = struct.unpack_from("<4sIII", data, 0)
    if magic != b"STGD" or version != 1:
        raise ValueError(f"bad snapshot header {magic!r} v{version}")
    pos = 16
    fields = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + nlen].decode("utf-8")
        pos += 4 + nlen
        (n,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if pos + 8 * n > len(data):
            raise ValueError(f"truncated field {name!r}")
        fields[name] = np.frombuffer(data, dtype="<f8", count=n, offset=pos)
        pos += 8 * n
    if pos != len(data):
        raise ValueError("trailing bytes after the last field")
    return fields, dim


def snapshot_steps(steps, every):
    return [0] + [k for k in range(1, steps + 1) if k % every == 0]


def check_snapshots(out_dir, steps, every, dim, sizes, keep_z=True):
    """Every expected snapshot exists, parses, has the configured field
    sizes and holds only finite values.  Returns (problems, z fields); only
    the internal variable is kept, and only if asked, so the check adds
    little to the process's peak RSS."""
    expected = snapshot_steps(steps, every)
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("snapshot_"))
    want = [f"snapshot_{k:06d}.bin" for k in expected]
    if names != want:
        return [f"snapshots {names[:3]}... != expected {want[:3]}... "
                f"({len(names)} vs {len(want)})"], []
    problems, zs = [], []
    for name in names:
        try:
            fields, fdim = read_snapshot(os.path.join(out_dir, name))
        except (OSError, ValueError, struct.error) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if fdim != dim:
            problems.append(f"{name}: dim {fdim} != {dim}")
        got = {f: a.size for f, a in fields.items()}
        if got != sizes:
            problems.append(f"{name}: field sizes {got} != {sizes}")
        if not all(np.all(np.isfinite(a)) for a in fields.values()):
            problems.append(f"{name}: non-finite values")
        if keep_z:
            zs.append(fields["z"])
    return problems, zs


def node_weights_1d(nx, h):
    """Trapezoid weights of the 1D node layout (half cells at the ends)."""
    w = np.full(nx + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def check_mass(z, weights, rel_tol=1e-12):
    """The weighted diffusant content sum(w * z) stays at its initial value
    over the snapshots' ``z`` fields, and the content field actually moved
    (the check is not vacuous)."""
    mass = [math.fsum(weights * zi) for zi in z]
    scale = max(1.0, max(math.fsum(weights * np.abs(zi)) for zi in z))
    problems = []
    drift = max(abs(m - mass[0]) for m in mass)
    if drift > rel_tol * scale:
        problems.append(f"weighted mass drifts by {drift:.3e}")
    if max(float(np.max(np.abs(zi - z[0]))) for zi in z) < 1e-8:
        problems.append("diffusant content never moved")
    return problems


def check_irreversible(z, slack=1e-12):
    """Damage never heals between the snapshots' ``z`` fields (it is
    non-increasing), starts undamaged, and some damage actually occurs."""
    problems = []
    if float(np.max(np.abs(z[0] - 1.0))) > slack:
        problems.append("initial damage field is not 1")
    for i in range(1, len(z)):
        rise = float(np.max(z[i] - z[i - 1]))
        if rise > slack:
            problems.append(f"damage heals by {rise:.3e} at snapshot {i}")
            break
    if float(np.min(z[-1])) > 1.0 - 1e-6:
        problems.append("no damage occurred")
    return problems
