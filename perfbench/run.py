"""End-to-end and per-layer benchmark of ``stagdyn run``.

    python3 perfbench/run.py --workload plate2d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Each workload takes a shipped ``configs/*.cfg``, resizes it, draws the
initial-stress amplitude from ``--seed`` within +-2 % of the shipped value
and runs it in-process through ``stagdyn.cli.main(["run", cfg, ...])``, the
path a user takes: config parse and build, the auto-tau stability estimate,
the step loop with the energy log, and snapshots.  Load model: closed
loop, one client, one process, one thread (BLAS pinned to 1, malloc
thresholds fixed: see ``pin_malloc``).  Simulations repeat until
``--seconds`` have passed; every one is read back and checked (see
``outputs.py``).  The first is a warm-up; the medians of the others are
reported, with every time taken at a reference host speed measured
alongside the program (see ``gauge.py`` and ``end_to_end``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced simulations, wraps the public functions of each module
(``layers.py``) during the traced ones and prints the per-layer metrics,
plus a 2D stencil ladder.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are for people.
"""

import ctypes
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def pin_malloc():
    """Fix glibc's malloc thresholds before numpy allocates anything.

    By default glibc serves large blocks with mmap, raises that threshold
    as such blocks are freed and trims the heap top past twice it, so how
    often a freed field array goes back to the kernel, to be faulted in
    again by the next step, depends on the process's allocation history.
    On the 2D workload that flips between runs of the same code (about 740
    or 1550 page faults a step, a fifth of the step time on a small VM).
    Fixed thresholds keep freed arrays in the heap for reuse: every run
    then allocates the same way, with almost no faults.  Returns whether
    the pin took (it needs glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 256 << 20))


MALLOC_PINNED = pin_malloc()

import argparse
import gc
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402  (after the BLAS pin)

from gauge import Gauge  # noqa: E402
from layers import Probe, Tracer  # noqa: E402
from outputs import (  # noqa: E402
    check_energy_log,
    check_irreversible,
    check_mass,
    check_snapshots,
    node_weights_1d,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RUNS = HERE / "_runs"

AMPLITUDE_BAND = 0.02      # seed draws the amplitude within +-2 %
TAIL_BEYOND = 10           # the tail percentile leaves this many steps beyond
LADDER = (64, 128, 256)
LADDER_SECONDS = 0.3


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """A shipped config, resized; ``check`` names the physics check and
    ``gauge`` the host-speed kernel that resembles the workload."""

    name: str
    config: str
    nx: int
    ny: int
    t_end: float
    snapshot_every: int
    check: str
    gauge: str
    text: str = ""
    values: dict = field(default_factory=dict)

    def load(self):
        path = CONFIGS / self.config
        self.text = path.read_text(encoding="utf-8")
        self.values = config_values(self.text)

    def get(self, section, key, default=None):
        return self.values.get((section, key), default)

    @property
    def dim(self):
        return int(self.get("grid", "dim"))

    @property
    def length(self):
        return int(self.get("grid", "nx")) * float(self.get("grid", "h"))

    def sizes(self):
        """Field sizes of the (v, sigma, z) layouts from the grid alone."""
        nx, ny = self.nx, self.ny
        if self.dim == 1:
            return {"v": nx, "sigma": nx + 1, "z": nx + 1}
        n_s = 2 * nx * ny + (nx + 1) * (ny + 1)
        return {"v": (nx + 1) * ny + nx * (ny + 1), "sigma": n_s, "z": n_s}

    def case_text(self, amplitude):
        changes = {
            ("grid", "nx"): str(self.nx),
            ("grid", "h"): repr(self.length / self.nx),
            ("integrator", "t_end"): repr(self.t_end),
            ("loading", "initial_amplitude"): repr(amplitude),
            ("output", "snapshot_every"): str(self.snapshot_every),
            ("output", "snapshot_fields"): "v sigma z",
        }
        if self.dim == 2:
            changes[("grid", "ny")] = str(self.ny)
        return edit_config(self.text, changes)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("plate2d", "viscoplastic_2d.cfg", 128, 128, 2.0, 25, "",
                 "array"),
        Workload("seepage1d", "biot_seepage_1d.cfg", 50, 1, 15.0, 200, "mass",
                 "small"),
        Workload("fracture1d", "damage_1d.cfg", 256, 1, 5.0, 200,
                 "irreversible", "small"),
    )
}


def config_values(text):
    """``(section, key) -> raw value`` of an INI-style config text."""
    out, section = {}, None
    for line in text.splitlines():
        s = line.split("#", 1)[0].strip()
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1].strip()
        elif "=" in s:
            key, _, val = s.partition("=")
            out[(section, key.strip())] = val.strip()
    return out


def edit_config(text, changes):
    """Set ``(section, key)`` values, appending keys a section lacks."""
    pending = dict(changes)
    out, section = [], None

    def flush(sec):
        for (s, k) in [c for c in pending if c[0] == sec]:
            out.append(f"{k} = {pending.pop((s, k))}")

    for line in text.splitlines():
        s = line.split("#", 1)[0].strip()
        if s.startswith("[") and s.endswith("]"):
            flush(section)
            section = s[1:-1].strip()
        elif "=" in s and (section, s.partition("=")[0].strip()) in pending:
            key = s.partition("=")[0].strip()
            line = f"{key} = {pending.pop((section, key))}"
        out.append(line)
    flush(section)
    if pending:
        raise KeyError(f"config has no section for {sorted(pending)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# one simulation
# ---------------------------------------------------------------------------

@dataclass
class Sim:
    ok: bool
    problems: list
    steps: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    loop_s: float = 0.0
    latencies_us: list = field(default_factory=list)
    stamps_ns: list = field(default_factory=list)  # start, setup end, steps
    end_ns: int = 0
    snapshot_bytes: list = field(default_factory=list)
    out_dir: Path = None


def remove_run_dir(path):
    """Delete one run's outputs, and the runs directory once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUNS.rmdir()
    except OSError:  # another run still uses it
        pass


def import_stagdyn():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "stagdyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no stagdyn package under {SRC}")
    if not CONFIGS.is_dir():
        raise SystemExit(f"error: no configs directory at {CONFIGS}")
    sys.path.insert(0, str(SRC))
    import stagdyn
    import stagdyn.cli  # noqa: F401  (binds the names the tracer patches)
    if Path(stagdyn.__file__).resolve().parent != (SRC / "stagdyn").resolve():
        raise SystemExit(f"error: stagdyn imported from {stagdyn.__file__}")
    return stagdyn


def simulate(stagdyn, wl, amplitude, case_dir, probe, tracer=None,
             keep=False):
    """Run one case through the CLI entry point, then check its output."""
    case_dir.mkdir(parents=True)
    cfg_path = case_dir / "case.cfg"
    cfg_path.write_text(wl.case_text(amplitude), encoding="utf-8")
    out_dir = case_dir / "out"
    probe.reset()
    gc.collect()
    rc = None
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter_ns()
        try:
            rc = stagdyn.cli.main(["run", str(cfg_path), "--quiet",
                                   "--out-dir", str(out_dir)])
        except Exception:  # a crash is a failed run, reported below
            traceback.print_exc(file=sys.stderr)
        t1 = perf_counter_ns()
    if rc != 0 or not probe.step_end:
        return Sim(False, [f"exit code {rc}"])

    setup_end = probe.setup_end()
    stamps = [setup_end] + probe.step_end
    sim = Sim(ok=True, problems=[], steps=len(probe.step_end),
              setup_s=(setup_end - t0) * 1e-9, wall_s=(t1 - t0) * 1e-9,
              loop_s=(stamps[-1] - setup_end) * 1e-9,
              latencies_us=[(b - a) * 1e-3
                            for a, b in zip(stamps, stamps[1:])],
              stamps_ns=[t0] + stamps, end_ns=t1)

    eta = float(wl.get("integrator", "eta", 0.1))
    tol = float(wl.get("integrator", "energy_tolerance", 1e-9))
    sim.problems += check_energy_log(out_dir / wl.get("output", "energy_log",
                                                      "energy.csv"),
                                     sim.steps, wl.t_end, eta, tol)
    problems, snaps = check_snapshots(out_dir, sim.steps, wl.snapshot_every,
                                      wl.dim, wl.sizes(),
                                      keep_z=bool(wl.check))
    sim.problems += problems
    if snaps and wl.check == "mass":
        sim.problems += check_mass(snaps, node_weights_1d(
            wl.nx, wl.length / wl.nx))
    elif snaps and wl.check == "irreversible":
        sim.problems += check_irreversible(snaps)
    sim.snapshot_bytes = [p.stat().st_size
                          for p in out_dir.glob("snapshot_*.bin")]
    sim.ok = not sim.problems
    if keep:
        sim.out_dir = out_dir
    else:
        shutil.rmtree(case_dir)
    return sim


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise SystemExit(f"error: {n} steps leave no tail of {TAIL_BEYOND}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl, timed, gauge):
    """Medians over the timed simulations, every time taken at the
    reference host speed (see ``gauge.py``).

    Per simulation: ``setup_s`` runs from the call of ``cli.main`` to the
    end of the last stability estimate before the first step, ``wall_s``
    to the return of ``cli.main``; the step latencies give the median, the
    tail and the loop throughput ``DOFs x steps / loop time``.  The tail is
    printed but not gated: it spreads between runs as wide as the bound on
    the 2D workload, whose tail steps write snapshots.  Setup and
    wall are converted at the host speed measured inside them, each step
    at the speed measured around it; an interval too short to hold enough
    gauge calls takes the whole run's.
    """
    good = [s for s in timed if s.ok]
    if not good:
        raise SystemExit(f"error: no timed simulation of {wl.name} passed")
    dofs = sum(wl.sizes().values())
    run_speed = gauge.speed(good[0].stamps_ns[0], good[-1].end_ns)
    per = {k: [] for k in ("setup_s", "wall_s", "step_p50_us", "step_tail_us",
                           "dof_steps_per_s", "speed")}
    for sim in good:
        start, setup_end, *steps = sim.stamps_ns
        lat = [gauge.step_at_reference(a, b, run_speed) * 1e6
               for a, b in zip([setup_end] + steps, steps)]
        tail_us, pct = tail(lat)
        per["setup_s"].append(gauge.at_reference(start, setup_end, run_speed))
        per["wall_s"].append(gauge.at_reference(start, sim.end_ns, run_speed))
        per["step_p50_us"].append(statistics.median(lat))
        per["step_tail_us"].append(tail_us)
        per["dof_steps_per_s"].append(dofs * len(lat) / (sum(lat) * 1e-6))
        per["speed"].append(gauge.speed(start, sim.end_ns, run_speed))
    med = {k: statistics.median(v) for k, v in per.items()}
    metrics = {
        "setup_s": (med["setup_s"], "s"),
        "wall_s": (med["wall_s"], "s"),
        "step_p50_us": (med["step_p50_us"], "us"),
        "dof_steps_per_s": (med["dof_steps_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    n = f"median of {len(good)} simulations"
    timed_as = {k: statistics.median(getattr(s, k) for s in good)
                for k in ("setup_s", "wall_s")}
    notes = {
        "setup_s": f"{n}; {timed_as['setup_s']:.6g} s as timed",
        "wall_s": f"{n}; {timed_as['wall_s']:.6g} s as timed, host at "
                  f"{med['speed']:.4g} x reference speed",
        "step_p50_us": f"{n} of {len(lat)} steps; tail p{pct:.2f} = "
                       f"{med['step_tail_us']:.6g} us, {TAIL_BEYOND} steps "
                       "beyond",
        "dof_steps_per_s": f"{n}: {dofs} DOFs x {len(lat)} steps / loop "
                           "time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(wl, tracer, traced, untraced, ladder):
    """Per-layer metrics from the traced simulations (see layers.py)."""
    good = [s for s in traced if s.ok]
    if not good or not any(s.ok for s in untraced):
        raise SystemExit("error: no traced and untraced pair of simulations")
    runs = len(good)
    steps = sum(s.steps for s in good)
    t = tracer
    split = t.advance_split()
    advance_ns = split["integrator.advance"]
    children_ns = sum(v for k, v in split.items() if k != "integrator.advance")
    loop_ns = sum(s.loop_s for s in good) * 1e9
    if not 0 <= children_ns <= advance_ns <= loop_ns:
        raise SystemExit(f"error: spans do not account for the loop: children "
                         f"{children_ns} advance {advance_ns} loop {loop_ns}")
    solver_calls, solver_ns = t.outermost("solvers.")
    n_e = t.count("grid.apply_E", "step") / steps
    n_et = t.count("grid.apply_E_adjoint", "step") / steps
    sizes = wl.sizes()
    kernels_ns = sum(t.time_ns(f"kernels.{k}", "step") for k in
                     ("grad_1d", "grad_1d_t", "grad_2d", "grad_2d_t",
                      "radial_return"))
    snaps = [b for s in good for b in s.snapshot_bytes]

    def us(name):
        return t.time_ns(name, "step") / steps * 1e-3

    metrics = {
        "integrator.cfl_s": (t.time_ns("integrator.max_stable_timestep")
                             / runs * 1e-9, "s"),
        "integrator.cfl_calls": (t.count("integrator.max_stable_timestep")
                                 / runs, "count"),
        "integrator.cfl_iters": (t.count("grid.apply_E", "cfl") / runs,
                                 "count"),
        "integrator.advance_us": (advance_ns / steps * 1e-3, "us"),
        "integrator.advance_self_us": ((advance_ns - children_ns) / steps
                                       * 1e-3, "us"),
        "integrator.step_sigma_us": (us("integrator.step_sigma"), "us"),
        "integrator.step_internal_us": (us("integrator.step_internal"), "us"),
        "integrator.step_velocity_us": (us("integrator.step_velocity"), "us"),
        "integrator.energy_audit_us": (us("integrator.energy_audit"), "us"),
        "integrator.energy_audit_share": (split["integrator.energy_audit"]
                                          / advance_ns, "frac"),
        "materials.phi_calls_per_step": (t.count("materials.phi", "step")
                                         / steps, "count"),
        "materials.dphi_dsigma_calls_per_step": (
            t.count("materials.dphi_dsigma", "step") / steps, "count"),
        "materials.true_stress_calls_per_step": (
            t.count("materials.true_stress", "step") / steps, "count"),
        "solvers.calls_per_step": (solver_calls / steps, "count"),
        "solvers.share_of_internal": (
            solver_ns / split["integrator.step_internal"], "frac"),
        "grid.lap_z_per_step": (t.count("grid.lap_z", "step") / steps,
                                "count"),
        "grid.div_z_per_step": (t.count("grid.div_z", "step") / steps,
                                "count"),
        "grid.E_calls_per_step": (n_e, "count"),
        "grid.E_adjoint_calls_per_step": (n_et, "count"),
        "grid.stencil_bytes_per_step": (
            (n_e + n_et) * 8 * (sizes["v"] + sizes["sigma"]), "B"),
        "kernels.us_per_step": (kernels_ns / steps * 1e-3, "us"),
        "kernels.radial_return_calls_per_step": (
            t.count("kernels.radial_return", "step") / steps, "count"),
        "io.log_write_us": (t.time_ns("io.EnergyLogWriter.write") / steps
                            * 1e-3, "us"),
        "io.snapshot_ms": (t.time_ns("io.write_snapshot")
                           / t.count("io.write_snapshot") * 1e-6, "ms"),
        "io.snapshot_bytes": (statistics.mean(snaps), "B"),
        "config.parse_build_s": ((t.time_ns("config.parse_config")
                                  + t.time_ns("config.build_simulation"))
                                 / runs * 1e-9, "s"),
        "trace.overhead_frac": (
            statistics.median(s.wall_s for s in good)
            / statistics.median(s.wall_s for s in untraced if s.ok) - 1.0,
            "frac"),
    }
    for n, ns_per_dof in ladder.items():
        metrics[f"grid.stencil_ns_per_dof.{n}"] = (ns_per_dof, "ns")
    notes = {
        "grid.stencil_bytes_per_step": "computed from array sizes: "
                                       "(E + E*) calls x 8 B x (n_v + n_s)",
        "integrator.cfl_s": "per simulation, all calls",
        "integrator.cfl_calls": "per simulation",
        "integrator.cfl_iters": "grid.apply_E calls inside CFL spans, per "
                                "simulation",
        "config.parse_build_s": "per simulation",
        "trace.overhead_frac": f"median wall of {runs} traced vs "
                               f"{len(untraced)} untraced simulations",
    }
    return metrics, notes


def stencil_ladder(stagdyn):
    """ns per DOF of one apply_E plus one apply_E_adjoint, 2D clamped."""
    rng = np.random.default_rng(0)
    out = {}
    for n in LADDER:
        disc = stagdyn.build(
            stagdyn.Grid(dim=2, nx=n, ny=n, h=1.0 / n,
                         bc=("dirichlet",) * 4),
            rho=1.0, moduli={"bulk_modulus": 1.0, "shear_modulus": 0.6})
        v = rng.standard_normal(disc.n_v)
        s = rng.standard_normal(disc.n_s)
        samples = []
        deadline = perf_counter() + LADDER_SECONDS
        while len(samples) < 9 or perf_counter() < deadline:
            t0 = perf_counter_ns()
            disc.apply_E(v)
            disc.apply_E_adjoint(s)
            samples.append(perf_counter_ns() - t0)
        out[n] = statistics.median(samples) / (disc.n_v + disc.n_s)
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(stagdyn, wl):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.partition(":")[2].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        caches[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = \
            _read(idx / "size")
    llc = caches.get("L3 Unified") or caches.get("L2 Unified")
    sizes = wl.sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": stagdyn.kernels.get_backend(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_pinned": MALLOC_PINNED,
        "largest_field_bytes": 8 * max(sizes.values()),
        "ladder_field_bytes": {n: 8 * (2 * n * n + (n + 1) * (n + 1))
                               for n in LADDER},
        "bandwidth_note": (
            f"the last-level cache reads {llc}; arrays of 4x that size do "
            "not fit a small shared host, so none is used and no metric "
            "here measures memory bandwidth; the arrays used are "
            "largest_field_bytes and ladder_field_bytes"),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def measure(stagdyn, wl, seed, seconds, trace):
    """Run simulations for ``seconds`` and return (result, notes)."""
    rng = random.Random(seed)
    shipped = float(wl.get("loading", "initial_amplitude"))
    run_dir = RUNS / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = Tracer() if trace else None
    gauge = None if trace else Gauge(wl.gauge)
    untraced, traced = [], []
    try:
        ladder = stencil_ladder(stagdyn) if trace else {}
        start = perf_counter()
        with Probe().installed() as probe, gauge or nullcontext():
            i, took = 0, []
            # start another simulation only if half a typical one fits
            while (i < 2 or perf_counter() - start
                   + 0.5 * statistics.median(took) <= seconds):
                t0 = perf_counter()
                amp = shipped * (1.0 + rng.uniform(-AMPLITUDE_BAND,
                                                   AMPLITUDE_BAND))
                use = tracer if trace and i % 2 else None
                sim = simulate(stagdyn, wl, amp, run_dir / f"case{i}",
                               probe, tracer=use)
                for p in sim.problems:
                    print(f"FAIL {wl.name} simulation {i}: {p}",
                          file=sys.stderr)
                (traced if use else untraced).append(sim)
                took.append(perf_counter() - t0)
                i += 1
    finally:
        remove_run_dir(run_dir)

    sims = untraced + traced
    failed = sum(not s.ok for s in sims)
    if failed == len(sims):
        raise SystemExit(f"error: all {failed} simulations of {wl.name} "
                         "failed")
    if trace:
        tracer.check_required()
        metrics, notes = per_layer(wl, tracer, traced, untraced, ladder)
    else:  # the first simulation is a warm-up
        metrics, notes = end_to_end(wl, untraced[1:], gauge)
    return {
        "correct": failed == 0,
        "attempted": len(sims),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }, notes


def report(wl_name, result, notes, env):
    print(f"workload {wl_name}: {result['attempted']} simulations, "
          f"{result['failed']} failed, failed_frac = "
          f"{result['failed'] / result['attempted']:.4g}")
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="smoke-run every workload and prove the checks fail "
                        "on corrupted output")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    stagdyn = import_stagdyn()
    for wl in WORKLOADS.values():
        wl.load()
    if args.self_test:
        from selftest import self_test
        return self_test(stagdyn, sys.modules[__name__])
    wl = WORKLOADS[args.workload]
    result, notes = measure(stagdyn, wl, args.seed, args.seconds, args.trace)
    report(wl.name, result, notes, environment(stagdyn, wl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
