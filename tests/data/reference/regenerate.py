"""Regenerate the reference outputs of the shipped configs.

Runs every ``configs/*.cfg`` through ``stagdyn run`` and keeps, in
``tests/data/reference/<config>/``, its energy log and its last snapshot
(for the configs that write snapshots).  ``host.json`` records the numpy
version and the CPU the references were made with: the bytes are a promise
for one host, since numpy's SIMD ``sin`` and ``exp`` may round differently
on another CPU.  ``tests/test_reference_outputs.py`` compares reruns
against these files.

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
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for name in kept(out):
                shutil.copyfile(os.path.join(out, name), dest / name)
            print(f"{cfg.stem}: {', '.join(kept(out))}")
    (HERE / "host.json").write_text(json.dumps(host(), indent=2) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
