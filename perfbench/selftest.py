"""Self-test: the benchmark's schema holds and its checks are not vacuous.

    python3 perfbench/run.py --self-test

1. Smoke-runs every workload with a tiny ``t_end`` in both trace modes and
   validates each result object against ``BENCHMARK.json``.
2. Feeds corrupted energy logs and snapshots to the output checks and
   requires every one to be flagged.
3. Requires the tracer to fail on a wrapped function that does not exist
   (leaving nothing patched) and on expected spans that never fire.
"""

import dataclasses
import json
import math
import shutil

import numpy as np

import layers
import outputs

# t_end and snapshot interval of the smoke runs: a few dozen steps and
# enough snapshots for the mass and damage checks to see motion
SMOKE = {"plate2d": (0.1, 10), "seepage1d": (0.5, 10), "fracture1d": (0.2, 10)}


class _Report:
    def __init__(self):
        self.failures = 0

    def expect(self, label, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {label}"
              + (f": {detail}" if detail and not ok else ""))
        self.failures += not ok


def _schema(result, spec):
    """Problems with one result object against a BENCHMARK.json list."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1):
        problems.append(f"status {result['correct']} {result['attempted']} "
                        f"{result['failed']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(got.items())} != "
                        f"{sorted(want.items())}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not (
                isinstance(m["value"], (int, float))
                and math.isfinite(m["value"])):
            problems.append(f"{name} = {m}")
    json.dumps(result, allow_nan=False)
    return problems


def _corrupt_log(src, dst, edit):
    lines = src.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    dst.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                   encoding="utf-8")


def _log_checks(report, sim, wl, eta, tol):
    log = sim.out_dir / wl.get("output", "energy_log", "energy.csv")
    bad = sim.out_dir / "corrupt.csv"
    good = outputs.check_energy_log(log, sim.steps, wl.t_end, eta, tol)
    report.expect(f"{wl.name}: intact energy log passes", not good, good)
    col = {c: i for i, c in enumerate(outputs.ENERGY_COLUMNS)}

    def setter(column, value, row=-1):
        def edit(rows):
            rows[row][col[column]] = value
        return edit

    corruptions = {
        "a row dropped": lambda rows: rows.pop(),
        "a row repeated": lambda rows: rows.append(rows[-1]),
        "NaN kinetic energy": setter("kinetic", "nan"),
        "residual above tolerance": setter("residual", repr(100 * tol)),
        "negative residual beyond tolerance": setter("residual",
                                                     repr(-100 * tol), 0),
        "a_coeff below eta": setter("a_coeff", repr(eta - 1e-9)),
        "steps out of order": setter("k", "0"),
        "time column off": setter("t", "0.5", 1),
    }
    for label, edit in corruptions.items():
        _corrupt_log(log, bad, edit)
        found = outputs.check_energy_log(bad, sim.steps, wl.t_end, eta, tol)
        report.expect(f"{wl.name}: corrupt log flagged ({label})", bool(found))
    short = outputs.check_energy_log(log, sim.steps + 1, wl.t_end, eta, tol)
    report.expect(f"{wl.name}: step count mismatch flagged", bool(short))


def _snapshot_checks(report, run, stagdyn, sim, wl):
    problems, snaps = outputs.check_snapshots(sim.out_dir, sim.steps,
                                              wl.snapshot_every, wl.dim,
                                              wl.sizes())
    report.expect(f"{wl.name}: intact snapshots pass", not problems, problems)
    last = sorted(sim.out_dir.glob("snapshot_*.bin"))[-1]
    data = last.read_bytes()
    last.write_bytes(data[:-8])
    problems, _ = outputs.check_snapshots(sim.out_dir, sim.steps,
                                          wl.snapshot_every, wl.dim,
                                          wl.sizes())
    report.expect(f"{wl.name}: truncated snapshot flagged", bool(problems))
    last.write_bytes(data)
    missing = outputs.check_snapshots(
        sim.out_dir, sim.steps + wl.snapshot_every, wl.snapshot_every,
        wl.dim, wl.sizes())[0]
    report.expect(f"{wl.name}: missing snapshot flagged", bool(missing))

    def tweaked(delta):
        """Last snapshot's middle z set to the previous one's plus delta."""
        z = snaps[-1].copy()
        z[len(z) // 2] = snaps[-2][len(z) // 2] + delta
        return snaps[:-1] + [z]

    if wl.check == "mass":
        disc = stagdyn.build(stagdyn.Grid(dim=1, nx=wl.nx, h=wl.length / wl.nx,
                                          bc=("dirichlet", "dirichlet")),
                             rho=1.0, moduli={"modulus": 1.0})
        w = outputs.node_weights_1d(wl.nx, wl.length / wl.nx)
        report.expect("mass weights match the program's layout",
                      np.array_equal(w, disc.zs_weights))
        report.expect("seepage1d: intact mass passes",
                      not outputs.check_mass(snaps, w))
        report.expect("seepage1d: mass drift flagged",
                      bool(outputs.check_mass(tweaked(1e-9), w)))
        report.expect("seepage1d: frozen content flagged",
                      bool(outputs.check_mass(snaps[:1] * 3, w)))
    elif wl.check == "irreversible":
        report.expect("fracture1d: intact damage passes",
                      not outputs.check_irreversible(snaps))
        report.expect("fracture1d: healing flagged",
                      bool(outputs.check_irreversible(tweaked(1e-9))))
        report.expect("fracture1d: no damage flagged",
                      bool(outputs.check_irreversible(snaps[:1] * 3)))


def _tracer_checks(report, stagdyn):
    original = stagdyn.integrator.advance
    bogus = ("integrator.no_such_step", "stagdyn.integrator", None,
             "no_such_step", "span", None)
    layers.WRAPPED.append(bogus)
    try:
        with layers.Tracer().installed():
            pass
        raised = False
    except layers.TraceError:
        raised = True
    finally:
        layers.WRAPPED.remove(bogus)
    report.expect("tracer fails on a function that no longer exists", raised)
    report.expect("tracer restores what it patched before failing",
                  stagdyn.integrator.advance is original)
    try:
        layers.Tracer().check_required()
        raised = False
    except layers.TraceError:
        raised = True
    report.expect("tracer fails when expected spans never fire", raised)


def self_test(stagdyn, run):
    report = _Report()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    smoke = {name: dataclasses.replace(wl, t_end=SMOKE[name][0],
                                       snapshot_every=SMOKE[name][1])
             for name, wl in run.WORKLOADS.items()}

    for name, wl in smoke.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.measure(stagdyn, wl, seed=7, seconds=0.0,
                                    trace=trace)
            problems = _schema(result, spec[key])
            report.expect(f"{name} --trace {trace}: result matches "
                          "BENCHMARK.json", not problems, problems)

    case_root = run.RUNS / "selftest"
    shutil.rmtree(case_root, ignore_errors=True)
    try:
        with layers.Probe().installed() as probe:
            for name in ("seepage1d", "fracture1d"):
                wl = smoke[name]
                amp = float(wl.get("loading", "initial_amplitude"))
                sim = run.simulate(stagdyn, wl, amp, case_root / name, probe,
                                   keep=True)
                report.expect(f"{name}: smoke run passes its checks", sim.ok,
                              sim.problems)
                eta = float(wl.get("integrator", "eta", 0.1))
                tol = float(wl.get("integrator", "energy_tolerance", 1e-9))
                _log_checks(report, sim, wl, eta, tol)
                _snapshot_checks(report, run, stagdyn, sim, wl)
    finally:
        run.remove_run_dir(case_root)
    _tracer_checks(report, stagdyn)

    print(f"self-test: {report.failures} failure(s)")
    return 1 if report.failures else 0
