"""The shipped configs against their committed reference outputs.

``tests/data/reference/<config>/`` holds the energy log and the last
snapshot of each ``configs/*.cfg`` run, made by
``tests/data/reference/regenerate.py``.  A rerun must reproduce them byte
for byte, at one BLAS thread and at two, print the summary its energy log
holds, and keep the invariants the benchmark checks
(``perfbench/outputs.py``).  A change that
moves an output regenerates the references and states the move, which
``regenerate.describe_mismatch`` measures, there and in the failure
message here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stagdyn import cli
from stagdyn import io as sdio
from stagdyn.config import build_simulation, integrator_config, parse_config
from stagdyn.integrator import run_simulation

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "data" / "reference"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = load("reference_regenerate", REFERENCE / "regenerate.py")
outputs = load("perfbench_outputs", ROOT / "perfbench" / "outputs.py")


def host_mismatch():
    recorded = json.loads((REFERENCE / "host.json").read_text("utf-8"))
    here = regenerate.host()
    return [f"references made with {key} {recorded[key]!r}, this host has "
            f"{here[key]!r}" for key in recorded if recorded[key] != here[key]]


def summary_of_log(path):
    """The values of the summary ``stagdyn run`` prints, as it prints
    them, read off the energy log it wrote."""
    log = sdio.read_energy_log(path)
    return [f"steps: {len(log['k'])}  t_end: {log['t'][-1]:.6g}",
            f"final energy: {log['kinetic'][-1] + log['stored'][-1]:.12g}",
            f"max |residual|: {np.max(np.abs(log['residual'])):.3e}",
            f"min a: {np.min(log['a_coeff']):.6g}"]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_rerun_matches_reference_bytes(cfg, tmp_path, capsys):
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    summary = capsys.readouterr().out
    # the summary, kept as running values, is what the log holds
    for part in summary_of_log(tmp_path / "energy.csv"):
        assert part in summary, (part, summary)
    ref_dir = REFERENCE / cfg.stem
    assert sorted(os.listdir(ref_dir)) == regenerate.kept(tmp_path)
    moved = regenerate.mismatches(ref_dir, tmp_path,
                                  sorted(os.listdir(ref_dir)))
    assert not moved, "\n".join(moved + host_mismatch())


def test_reference_mismatch_reports_the_move(tmp_path):
    # one ulp in one row is a mismatch, and the message measures it; a
    # residual that flips sign is a round-off move of the energy, not a
    # move of order 1 of the residual's own maximum
    ref = REFERENCE / "maxwell_creep_1d" / "energy.csv"
    log = sdio.read_energy_log(ref)
    lines = ref.read_text("utf-8").splitlines(keepends=True)
    cols = lines[5].rstrip("\n").split(",")
    cols[3] = repr(float(np.nextafter(float(cols[3]), np.inf)))
    cols[7] = repr(-float(np.max(np.abs(log["residual"]))))
    lines[5] = ",".join(cols) + "\n"
    moved = tmp_path / "energy.csv"
    moved.write_text("".join(lines), "utf-8")
    assert moved.read_bytes() != ref.read_bytes()
    message = regenerate.describe_mismatch(ref, moved)
    stored, residual = (float(message.split(f"{key} ")[1].split(",")[0])
                        for key in ("stored", "residual"))
    assert 0.0 < stored < 1e-15
    assert 0.0 < residual < 1e-15
    assert "kinetic 0.000e+00" in message


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    script = (
        "import sys\n"
        "from stagdyn.cli import main\n"
        "for cfg in sys.argv[2:]:\n"
        "    out = sys.argv[1] + '/' + cfg.rsplit('/', 1)[1]\n"
        "    assert main(['run', cfg, '--quiet', '--out-dir', out]) == 0\n")
    trees = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)]
            + [str(c) for c in CONFIGS],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) >= 2 * len(CONFIGS)
    assert trees[0] == trees[1]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_shipped_run_keeps_the_benchmark_invariants(cfg, tmp_path):
    config = parse_config(cfg.read_text(encoding="utf-8"))
    disc, material, loading, state = build_simulation(config)
    icfg = integrator_config(config, disc, material, state)
    zs = [state.z]
    log_path = tmp_path / "energy.csv"
    with sdio.EnergyLogWriter(log_path) as log:
        def on_step(st, ledger):
            log.write(ledger)
            zs.append(st.z)

        run_simulation(disc, material, loading, icfg, state, on_step=on_step)
    steps = len(zs) - 1
    assert steps == round(icfg.t_end / icfg.tau)
    assert outputs.check_energy_log(log_path, steps, icfg.t_end, icfg.eta,
                                    icfg.energy_tol) == []
    if material.name == "biot":
        g = config.grid
        weights = outputs.node_weights_1d(g["nx"], g["h"])
        assert outputs.check_mass([zs[0], zs[-1]], weights) == []
    if material.name == "damage":
        assert outputs.check_irreversible(zs) == []
