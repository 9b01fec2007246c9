"""Regenerate the reference outputs of the shipped configs.

Runs every ``configs/*.cfg`` through ``stagdyn run`` and keeps, in
``tests/data/reference/<config>/``, its energy log and its last snapshot
(for the configs that write snapshots), and prints the move of each file
it replaces with other bytes (:func:`describe_mismatch`).  ``host.json``
records the numpy version and the CPU the references were made with: the
bytes are a promise for one host, since numpy's SIMD ``sin`` and ``exp``
may round differently on another CPU.  ``tests/test_reference_outputs.py``
compares reruns against these files, and reports a mismatch the same way.

Usage, from the repository root::

    PYTHONPATH=src python tests/data/reference/regenerate.py
"""

import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from stagdyn import io as sdio

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[2]


def host():
    """The numpy version and the CPU model of this machine."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"numpy": np.__version__, "cpu": cpu}


def kept(out_dir):
    """The energy log and the last snapshot of a run's output directory."""
    snaps = sorted(p for p in os.listdir(out_dir) if p.startswith("snapshot_"))
    return ["energy.csv"] + snaps[-1:]


def relative_moves(ref, new):
    """Largest |new - ref| per column or field, over its largest |ref|.
    The energy log's ``residual``, round-off about zero, is measured
    against the energy scale, the largest ``kinetic + stored``."""
    moves = {}
    for key, r in ref.items():
        n = new.get(key)
        if n is None or n.shape != r.shape:
            moves[key] = f"shape {None if n is None else n.shape} != {r.shape}"
            continue
        against = ref["kinetic"] + ref["stored"] if key == "residual" else r
        scale = float(np.max(np.abs(against))) or 1.0
        moves[key] = float(np.max(np.abs(n - r))) / scale
    return moves


def describe_mismatch(ref_path, new_path):
    if ref_path.suffix == ".csv":
        ref, new = (sdio.read_energy_log(p) for p in (ref_path, new_path))
    else:
        ref, new = (sdio.read_snapshot(p)[0] for p in (ref_path, new_path))
    moves = ", ".join(f"{k} {v:.3e}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in relative_moves(ref, new).items())
    return f"{ref_path.parent.name}/{ref_path.name} moved: {moves}"


def mismatches(ref_dir, new_dir, names):
    """The move of each of the files ``names`` whose bytes differ."""
    return [describe_mismatch(ref_dir / name, new_dir / name)
            for name in names
            if (ref_dir / name).read_bytes() != (new_dir / name).read_bytes()]


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, "-m", "stagdyn.cli", "run",
                            str(cfg), "--quiet", "--out-dir", out],
                           env=env, check=True)
            dest = HERE / cfg.stem
            moved = mismatches(dest, pathlib.Path(out),
                               [n for n in kept(out) if (dest / n).exists()])
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for name in kept(out):
                shutil.copyfile(os.path.join(out, name), dest / name)
            print(f"{cfg.stem}: {', '.join(kept(out))}")
            for line in moved:
                print(f"  {line}")
    (HERE / "host.json").write_text(json.dumps(host(), indent=2) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
