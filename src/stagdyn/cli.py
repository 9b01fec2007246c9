"""Command-line interface.

Subcommands:

* ``run <config>``: drive a simulation, writing the energy log and
  optional snapshots.
* ``cfl <config>``: print the stability bound, the Rayleigh quotient and
  the estimate's Lanczos iteration count and relative residual.
* ``converge <config> --levels n``: temporal refinement study with the
  config's own integrator settings.
* ``check``: headless invariant suite.

Exit codes: 0 success, 1 check-suite failure, 2 CFL violation or
instability, 3 inner-solver failure, 4 enforced energy-inequality
violation, 5 I/O error, 64 usage/config errors.
"""

import argparse
import contextlib
import math
import os
import sys

from . import io as sdio
from .config import (
    build_simulation,
    integrator_config,
    parse_config,
)
from .errors import (
    CflViolationError,
    ConfigError,
    EnergyInequalityError,
    InstabilityError,
    StagdynError,
)
from .integrator import cfl_admissible, max_stable_timestep, run_simulation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CFL = 2
EXIT_SOLVER = 3
EXIT_ENERGY = 4
EXIT_IO = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="stagdyn",
                description="staggered explicit/implicit elastodynamics "
                            "with dissipative internal variables")
    sub = p.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a simulation")
    run_p.add_argument("config")
    run_p.add_argument("--quiet", action="store_true",
                       help="print no summary")
    run_p.add_argument("--out-dir",
                       help="override the configured output directory")
    run_p.set_defaults(func=cmd_run)

    cfl_p = sub.add_parser("cfl", help="print tau_max and lambda")
    cfl_p.add_argument("config")
    cfl_p.set_defaults(func=cmd_cfl)

    conv_p = sub.add_parser("converge", help="temporal refinement study")
    conv_p.add_argument("config")
    conv_p.add_argument("--levels", type=int, default=3)
    conv_p.set_defaults(func=cmd_converge)

    check_p = sub.add_parser("check", help="run the invariant suite")
    check_p.add_argument("--seed", type=int, default=1234,
                         help="seed of the randomized checks")
    check_p.add_argument("--quiet", action="store_true",
                         help="print failures only")
    check_p.set_defaults(func=cmd_check)
    return p


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return parse_config(text)


def cmd_run(args):
    cfg = _load_config(args.config)
    disc, material, loading, state = build_simulation(cfg)
    icfg = integrator_config(cfg, disc, material, state)

    out_dir = cfg.output["out_dir"] if args.out_dir is None else args.out_dir
    log_path = os.path.join(out_dir, cfg.output["energy_log"])
    every = cfg.output["snapshot_every"]
    fields = cfg.output["snapshot_fields"]
    logs = []
    seen = {"steps": 0, "last": None, "res": 0.0, "a": math.inf}

    def snap(st):
        path = os.path.join(out_dir, f"snapshot_{st.k:06d}.bin")
        sdio.write_snapshot(path, sdio.snapshot_fields(st, disc, fields),
                            disc.dim)

    with contextlib.ExitStack() as stack:
        def on_step(st, ledger):
            if not logs:
                # the first step passed the CFL check: a run that stops
                # before it writes nothing
                os.makedirs(out_dir, exist_ok=True)
                logs.append(stack.enter_context(
                    sdio.EnergyLogWriter(log_path)))
                if every:
                    snap(state)
            logs[0].write(ledger)
            if every and st.k % every == 0:
                snap(st)
            seen["steps"] += 1
            seen["last"] = ledger
            seen["res"] = max(seen["res"], abs(ledger.residual))
            seen["a"] = min(seen["a"], ledger.stability_coeff)

        run_simulation(disc, material, loading, icfg, state, on_step=on_step)

    if not args.quiet:
        last = seen["last"]
        print(f"steps: {seen['steps']}  t_end: {last.time:.6g}  "
              f"tau: {icfg.tau:.6g}")
        print(f"estimate: {icfg.cfl_iters} Lanczos iterations, "
              f"relative residual {icfg.cfl_residual:.3e}")
        print(f"final energy: {last.total:.12g}  "
              f"max |residual|: {seen['res']:.3e}  "
              f"min a: {seen['a']:.6g}")
        print(f"energy log: {log_path}")
    return EXIT_OK


def cmd_cfl(args):
    cfg = _load_config(args.config)
    disc, material, loading, state = build_simulation(cfg)
    eta = cfg.integrator["eta"]
    info = {}
    tau_max, lam = max_stable_timestep(disc, material, state.z, eta,
                                       info=info)
    print(f"lambda: {lam:.12g}")
    print(f"tau_max(eta={eta:g}): {tau_max:.12g}")
    print(f"estimate: {info['iters']} Lanczos iterations, "
          f"relative residual {info['residual']:.3e}")
    if cfg.integrator["tau"] != "auto":
        tau = cfg.integrator["tau"]
        verdict = "OK" if cfl_admissible(tau, tau_max) else "VIOLATION"
        print(f"configured tau: {tau:.12g}  -> {verdict}")
    return EXIT_OK


def cmd_converge(args):
    from .oracle import (oracle_refusal, temporal_finest_grid,
                         temporal_self_convergence)

    cfg = _load_config(args.config)
    if args.levels < 3:
        print("error: --levels must be >= 3", file=sys.stderr)
        return EXIT_USAGE
    disc, material, loading, state = build_simulation(cfg)
    icfg = integrator_config(cfg, disc, material, state)
    taus = [icfg.tau / 2 ** i for i in range(args.levels)]
    if oracle_refusal(disc, material, loading) is None:
        study = temporal_self_convergence
    else:
        study = temporal_finest_grid
    report = study(disc, material, loading, state, icfg, taus)
    print(report.table())
    for row in report.rows():
        print(row)
    return EXIT_OK


def cmd_check(args):
    from .checks import run_checks

    failures = run_checks(seed=args.seed, quiet=args.quiet)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CflViolationError, InstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CFL
    except EnergyInequalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENERGY
    except StagdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
