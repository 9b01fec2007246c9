"""Headless invariant suite behind the ``check`` subcommand.

Mirrors the core property tests without requiring pytest: each check
verifies a structural invariant of the discretization, the solvers or the
integrator on small deterministic instances.  Checks raise
:class:`CheckFailure` explicitly instead of using ``assert``, so they
still run under ``python -O``.
"""

import numpy as np

from . import kernels
from .errors import StagdynError
from .grid import Grid, build
from .integrator import (
    IntegratorConfig,
    Loading,
    advance,
    cfl_admissible,
    initial_state,
    max_stable_timestep,
    no_loading,
    run_simulation,
)
from .materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)
from .oracle import (
    MAX_ORACLE_DOFS,
    brute_force_prox,
    dense_generalized_rayleigh,
    dense_operator,
    gradient_check,
    ledger_defects,
    manufactured_wave_study,
    reference_ledger,
    scan_internal_objective,
)


class CheckFailure(StagdynError):
    """An invariant of the check suite does not hold."""


def _require(ok, message):
    if not ok:
        raise CheckFailure(message)


def _disc_1d(nx=24, h=1.0 / 24.0, c=1.0, bc=("dirichlet", "dirichlet")):
    return build(Grid(dim=1, nx=nx, h=h, bc=bc), 1.0, {"modulus": c})


def _disc_2d(bc=("dirichlet", "neumann", "traction", "dirichlet"), n=(5, 4)):
    return build(Grid(dim=2, nx=n[0], ny=n[1], h=0.2, bc=bc), 1.0,
                 {"bulk_modulus": 1.0, "shear_modulus": 0.6})


def check_adjointness(rng):
    # 7 x 7 cells: 64-byte vertex rows and padded copies in the stencils
    for d in (_disc_1d(bc=("neumann", "traction")), _disc_2d(),
              _disc_2d(n=(7, 7))):
        for _ in range(50):
            v = rng.standard_normal(d.n_v)
            s = rng.standard_normal(d.n_s)
            lhs = d.sdot(s, d.apply_E(v))
            rhs = float(np.sum(d.apply_E_adjoint(s) * v))
            _require(abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs)),
                     f"<s, E v> = {lhs:.17g} but <E* s, v> = {rhs:.17g}")


def check_laplacian_stress(rng):
    for d in (_disc_1d(), _disc_2d()):
        a = rng.standard_normal(d.n_s)
        b = rng.standard_normal(d.n_s)
        la = d.laplacian_stress(a)
        _require(d.sdot(la, a) <= 1e-12, "stress laplacian not negative "
                 "semidefinite")
        lab = d.sdot(la, b)
        _require(abs(lab - d.sdot(a, d.laplacian_stress(b)))
                 <= 1e-12 * max(1.0, abs(lab)),
                 "stress laplacian not symmetric")


def check_gradients(rng):
    d = _disc_1d(nx=6)
    mats = [ElasticMaterial(),
            PlasticCreepMaterial(viscosity=0.6, sigma_y=0.2, hardening=0.3),
            BiotMaterial(biot_modulus=0.5, biot_coefficient=0.4,
                         capillarity=0.05),
            DamageMaterial(eps0=0.3, eps=0.1, g_c=1.0, viscosity=0.4)]
    for m in mats:
        err = gradient_check(m, d, samples=2, seed=int(rng.integers(1 << 30)))
        _require(err <= 1e-6, f"{m.name}: gradient error {err:.3e}")


def check_prox_scans(rng):
    d = _disc_1d(nx=2, h=1.0)
    m = PlasticCreepMaterial(viscosity=0.7, sigma_y=0.3, hardening=0.2)
    for _ in range(10):
        sigma = rng.standard_normal(d.n_s)
        zk = 0.3 * rng.standard_normal(d.n_s)
        tau = float(rng.uniform(0.05, 0.4))
        z, _ = m.internal_step(d, sigma, zk, tau)
        ref = scan_internal_objective(m, d, sigma, zk, tau, 1)
        _require(abs(z[1] - ref) < 1e-6,
                 f"return map {z[1]:.9g} vs scanned minimizer {ref:.9g}")


def check_elastic_conservation(rng):
    d = _disc_1d(nx=50, h=0.02)
    m = ElasticMaterial()
    x = np.linspace(0, 1, d.n_s)
    st = initial_state(d, m, sigma=np.sin(np.pi * x))
    e0 = m.phi(d, st.sigma, st.z)
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    cfg = IntegratorConfig(tau=0.9 * tau_max, t_end=500 * 0.9 * tau_max,
                           tau_max=tau_max)
    _, ledgers = run_simulation(d, m, no_loading(d), cfg, st)
    drift = max(abs(l.total - e0) for l in ledgers)
    _require(drift <= 1e-10 * e0, f"energy drift {drift:.3e}")


def check_energy_inequality(rng):
    d = _disc_1d(nx=30, h=1.0 / 30.0)
    mats = [PlasticCreepMaterial(viscosity=0.5, sigma_y=0.05),
            BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                         capillarity=0.02, mobility=0.5),
            DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)]
    x = np.linspace(0, 1, d.n_s)
    for m in mats:
        st = initial_state(d, m, sigma=0.4 * np.sin(np.pi * x))
        e0 = max(1.0, m.phi(d, st.sigma, st.z))
        tau_max, _ = max_stable_timestep(d, m, m.z_init(d), 0.1)
        cfg = IntegratorConfig(tau=tau_max, t_end=150 * tau_max,
                               tau_max=tau_max)
        _, ledgers = run_simulation(d, m, no_loading(d), cfg, st)
        res = max(abs(l.residual) for l in ledgers)
        _require(res <= 1e-9 * e0, f"{m.name}: energy residual {res:.3e}")
        a_min = min(l.stability_coeff for l in ledgers)
        _require(a_min >= 0.1 - 1e-12,
                 f"{m.name}: stability coefficient {a_min:.9g} < eta")


def check_healing_bound(rng):
    # healing stiffens a damaged start: at tau = the bound measured there
    # the run stays stable, and tau holds at the state it ends in, which
    # irreversible mode, the same energy, probes as it is
    d = _disc_1d(nx=32, h=1.0 / 32.0, bc=("neumann", "neumann"))
    heal, irr = (DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                                mode=mode)
                 for mode in ("healing", "unidirectional"))
    x = np.linspace(0, 1, d.n_s)
    st = initial_state(d, heal, sigma=0.05 * np.exp(-60.0 * (x - 0.45) ** 2),
                       z=np.full(d.zs_n, 0.2))
    tau, _ = max_stable_timestep(d, heal, st.z, 0.1)
    final, ledgers = run_simulation(d, heal, no_loading(d), IntegratorConfig(
        tau=tau, t_end=100 * tau, tau_max=tau), st)
    for l in ledgers:
        tol = 1e-9 * max(1.0, abs(l.energy_prev))
        _require(abs(l.residual) <= tol and l.total <= l.energy_prev + tol,
                 f"step {l.step}: energy {l.energy_prev:.6g} -> "
                 f"{l.total:.6g}, residual {l.residual:.3e}")
    bound, _ = max_stable_timestep(d, irr, final.z, 0.1)
    _require(final.z.max() <= 1.0 and cfl_admissible(tau, bound),
             f"max z {final.z.max():.17g}; tau {tau:.6g}, bound at the "
             f"final state {bound:.6g}")


def check_biot_mass_conservation(rng):
    d = _disc_1d(nx=20, h=0.05)
    m = BiotMaterial(biot_modulus=0.5, biot_coefficient=0.5, capillarity=0.02)
    z = m.z_init(d) + 0.2 * rng.standard_normal(d.zs_n)
    total0 = d.zdot(z, np.ones_like(z))
    for _ in range(30):
        z, _ = m.internal_step(d, rng.standard_normal(d.n_s), z, 0.05)
    drift = abs(d.zdot(z, np.ones_like(z)) - total0)
    _require(drift <= 1e-10 * max(1.0, abs(total0)),
             f"diffusant mass drift {drift:.3e}")


def check_damage_structure(rng):
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    for d in (_disc_1d(nx=12, h=1.0 / 12.0), _disc_2d()):
        alpha = np.ones(d.zs_n)
        for _ in range(50):
            sigma = 0.6 * rng.standard_normal(d.n_s)
            nxt, _ = m.internal_step(d, sigma, alpha, 0.05)
            _require(np.all(nxt <= alpha + 1e-12), f"{d.dim}D damage healed")
            alpha = nxt
        _require(np.all(alpha >= -1e-12), f"{d.dim}D damage below zero")
        _require(np.any(alpha < 1.0 - 1e-3), f"{d.dim}D damage never grew")
    # the worst case: white-noise stress on a partly damaged field, where
    # the step without its lower bound ends below zero
    d = _disc_1d(nx=256, h=1.0 / 256.0)
    alpha = rng.uniform(0.3, 1.0, d.zs_n)
    sigma = 3.0 * rng.standard_normal(d.n_s)
    sigma[::7] = 25.0  # these points go to 0 whatever the draw
    nxt, _ = m.internal_step(d, sigma, alpha, 0.004)
    _require(np.all(nxt <= alpha), "rough-stress damage healed")
    _require(np.all(nxt >= 0.0), "rough-stress damage below zero: "
             f"min {float(nxt.min()):.3g}")
    _require(np.any(nxt == 0.0), "rough-stress damage never reached zero")


def check_damage_direct_solve(rng):
    # the step against a dense KKT solve of the Hessian plus the rate
    # term's diagonal 2 a+-: points held at a bound stay there, the others
    # solve their rows of the dense operator and every multiplier pushes
    # out of the box.  1D solves by elimination, at the shipped size and
    # the benchmark's: the bands are the step's whole operator, so a wrong
    # band solves a wrong system exactly and passes its own KKT test, and
    # only the dense solve can tell.  2D runs projected CG to its
    # tolerance.  A warm 1D step starts from a previous increment that is
    # 0 at some points, under a weaker stress, and ends on both bounds.
    d1 = [_disc_1d(nx=nx, h=1.0 / nx, bc=("dirichlet", "neumann"))
          for nx in (64, 256)]
    cases = [(d, name, 1e-12) for d in d1
             for name in ("smooth", "rough", "healing")]
    cases += [(_disc_2d(), name, 1e-10) for name in ("rough", "healing")]
    cases += [(d, "warm", 1e-12) for d in d1]
    for d, name, gate in cases:
        n, tau, x = d.zs_n, 0.02, np.linspace(0.0, 1.0, d.zs_n)
        where = f"nx = {d.grid.nx}" if d.dim == 1 else "in 2D"
        if name == "smooth":
            sigma = 2.0 * np.cos(np.pi * x) + 1.0
            z_k = 0.8 + 0.15 * np.cos(2.0 * np.pi * x)
        else:
            sigma = rng.standard_normal(d.n_s)
            sigma *= 2.0 if name == "warm" else 6.0
            sigma[:n:7] = 25.0  # these points (in 2D, xx at centers) go to 0
            z_k = rng.uniform(0.3, 1.0, n)
        z_prev = None if name != "warm" else z_k + np.where(
            rng.random(n) < 0.5, rng.uniform(0.0, 0.3, n), 0.0)
        heal = name == "healing"
        m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                           mode="healing" if heal else "unidirectional")
        z, _ = m.internal_step(d, sigma, z_k, tau, z_prev=z_prev)
        a_plus = 1.0 / (m.eps1 * tau) if heal else m.eps1 / tau
        A = dense_operator(m._quad_operator(d, m.compliance_density(d, sigma)),
                           n) + np.diag(2.0 * np.where(z < z_k, m.eps1 / tau,
                                                       a_plus))
        b = -m.dphi_dz(d, sigma, z_k)
        upper = np.maximum(1.0 - z_k, 0.0) if heal else np.zeros(n)
        at_zero, at_top = z == 0.0, z == z_k + upper
        free = ~(at_zero | at_top)
        _require(np.any(free) and not np.all(free) and (
            z_prev is None or np.any(at_zero) and np.any(at_top)),
                 f"{name} damage step: no free or no bound point {where}")
        ref = np.where(at_zero, -z_k, upper)
        ref[free] = np.linalg.solve(A[np.ix_(free, free)], b[free]
                                    - A[np.ix_(free, ~free)] @ ref[~free])
        err = float(np.max(np.abs(z_k + ref - z)))
        _require(err <= gate, f"{name} damage step vs dense KKT solve: "
                 f"max error {err:.3e} {where}")
        g = A @ ref - b
        tol = 1e-9 * max(1.0, float(np.max(np.abs(b))))
        _require(np.all(g[at_zero] >= -tol) and np.all(g[at_top] <= tol),
                 f"{name} damage step: a multiplier of the wrong sign "
                 f"{where}")


def check_cfl_estimator(rng):
    # the finest 1D grid the dense oracle reaches: its top modes are the
    # most tightly clustered, where an early stop shows
    nx = MAX_ORACLE_DOFS - 1
    d = _disc_1d(nx=nx, h=1.0 / nx, c=2.0)
    m = ElasticMaterial()
    _, lam = max_stable_timestep(d, m, m.z_init(d), 0.0)
    lam_ref = dense_generalized_rayleigh(d, m, m.z_init(d))
    _require(abs(lam - lam_ref) <= 1e-6 * lam_ref
             and lam >= lam_ref * (1.0 - 1e-12),
             f"Lanczos CFL estimate {lam:.12g} vs dense {lam_ref:.12g}")


def check_ledger_reference(rng):
    # every material, with the 2D trace coupling of Biot and both 2D
    # branches of the plastic dissipation (Maxwell, where the trace
    # creeps, and trace-free flow), under a boundary drive and a body force
    d1 = _disc_1d(nx=20, h=0.05, bc=("traction", "dirichlet"))
    d2 = _disc_2d()
    biot = dict(biot_modulus=0.4, biot_coefficient=0.4, l_coefficient=0.1,
                capillarity=0.02, mobility=0.5)
    cases = [
        (d1, "left", ElasticMaterial()),
        (d1, "left", PlasticCreepMaterial(viscosity=0.5)),
        (d2, "bottom", PlasticCreepMaterial(viscosity=0.4)),
        (d2, "bottom", PlasticCreepMaterial(viscosity=0.4, sigma_y=0.1,
                                            hardening=(0.2, 0.1))),
        (d1, "left", DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4,
                                    viscosity=0.3)),
        (d1, "left", BiotMaterial(**biot)),
        (d2, "bottom", BiotMaterial(**biot)),
    ]
    for d, side, m in cases:
        sigma = 0.5 * rng.standard_normal(d.n_s)
        st = initial_state(d, m, sigma=sigma)
        loading = Loading(body_force=np.where(d.v_active, 0.01, 0.0),
                          traction=lambda t: 0.2 * np.sin(4.0 * t),
                          traction_pattern=d.traction_pattern(side))
        tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
        cfg = IntegratorConfig(tau=0.9 * tau_max, t_end=0.9 * tau_max)
        for _ in range(10):
            prev = st
            st, ledger = advance(prev, d, m, loading, cfg)
            _, info = m.internal_step(d, st.sigma, prev.z, cfg.tau)
            ref = reference_ledger(prev, st, d, m, loading, cfg.tau,
                                   step_info=info)
            rel, res = ledger_defects(ledger, ref)
            _require(rel <= 1e-13 and res <= 1e-15,
                     f"{m.name} {d.dim}D step {ledger.step}: ledger vs "
                     f"full evaluation: relative {rel:.3e}, residual "
                     f"{res:.3e}")


def check_wave_convergence_2d(rng):
    # the 2D exact standing wave at n = 8, 16, 32 (about 0.1 s)
    rep = manufactured_wave_study(levels=3, n0=8, dim=2,
                                  courant=0.5 / np.sqrt(2.0))
    _require(1.8 <= rep.fitted_order <= 2.2,
             f"2D standing wave: joint order {rep.fitted_order:.3f}, "
             f"errors {rep.errors}")


def check_radial_return(rng):
    for _ in range(30):
        trial = float(rng.standard_normal() * 2.0)
        sy = float(rng.uniform(0.0, 1.0))
        fac = float(rng.uniform(0.5, 3.0))
        scale = kernels.radial_return(np.array([abs(trial)]), sy, fac)[0]
        got = scale * trial
        ref = brute_force_prox(
            lambda x: sy * abs(x) + 0.5 * fac * x * x - trial * x, -6.0, 6.0)
        _require(abs(got - ref) < 1e-6,
                 f"radial return {got:.9g} vs scanned minimizer {ref:.9g}")


ALL_CHECKS = [
    ("adjointness", check_adjointness),
    ("laplacian-stress", check_laplacian_stress),
    ("material-gradients", check_gradients),
    ("prox-vs-scan", check_prox_scans),
    ("radial-return", check_radial_return),
    ("elastic-conservation", check_elastic_conservation),
    ("wave-convergence-2d", check_wave_convergence_2d),
    ("energy-inequality", check_energy_inequality),
    ("healing-bound", check_healing_bound),
    ("ledger-reference", check_ledger_reference),
    ("biot-mass-conservation", check_biot_mass_conservation),
    ("damage-structure", check_damage_structure),
    ("damage-direct-solve", check_damage_direct_solve),
    ("cfl-estimator", check_cfl_estimator),
]


def run_checks(seed=1234, quiet=False, out=print):
    """Run every invariant check; returns the number of failures."""
    failures = 0
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        try:
            fn(rng)
        except Exception as exc:  # report and continue
            failures += 1
            out(f"FAIL {name}: {exc}")
        else:
            if not quiet:
                out(f"PASS {name}")
    return failures
