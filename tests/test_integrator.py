"""Integrator tests: substep examples, energy ledger, CFL estimator."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn import cli, integrator, kernels
from stagdyn.errors import (
    CflViolationError,
    ConfigError,
    EnergyInequalityError,
    InstabilityError,
    NonFiniteFieldError,
    SolverError,
)
from stagdyn.grid import BC_KINDS, Grid, build
from stagdyn.integrator import (
    IntegratorConfig,
    Loading,
    advance,
    energy_audit,
    initial_state,
    max_stable_timestep,
    no_loading,
    run_simulation,
    step_sigma,
    step_internal,
    step_velocity,
    stability_coefficient,
    _above,
    _top_ritz,
)
from stagdyn.materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)
from stagdyn.oracle import (
    MAX_ORACLE_DOFS,
    dense_generalized_rayleigh,
    dense_operator,
    ledger_defects,
    reference_ledger,
)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def disc_1d(nx=50, h=0.02, c=1.0, rho=1.0, bc=("dirichlet", "dirichlet")):
    return build(Grid(dim=1, nx=nx, h=h, bc=bc), rho, {"modulus": c})


def disc_2d(nx=6, ny=6, h=0.2, K=1.0, G=0.6, rho=1.0, bc=("dirichlet",) * 4):
    return build(Grid(dim=2, nx=nx, ny=ny, h=h, bc=bc), rho,
                 {"bulk_modulus": K, "shear_modulus": G})


def bump_sigma(disc, amplitude=1.0, seed=None):
    """Smooth stress bump (1D) or seeded random active stress field."""
    if seed is not None:
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(disc.n_s)
        s[~disc.s_active] = 0.0
        return s
    x = np.linspace(0.0, 1.0, disc.n_s)
    return amplitude * np.exp(-60.0 * (x - 0.45) ** 2)


def cfg_for(disc, material, steps, z_probe=None, frac=0.9, **kw):
    probe = material.z_init(disc) if z_probe is None else z_probe
    tau_max, _ = max_stable_timestep(disc, material, probe, 0.1)
    tau = frac * tau_max
    return IntegratorConfig(tau=tau, t_end=steps * tau, **kw)


# ---------------------------------------------------------------------------
# substep examples
# ---------------------------------------------------------------------------

def test_step_sigma_zero_rate():
    d = disc_1d(nx=4)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=np.arange(d.n_s, dtype=float))
    st.k = 3  # past bootstrap
    cfg = IntegratorConfig(tau=0.1, t_end=1.0)
    out = step_sigma(st, d, no_loading(d), cfg)
    assert_allclose(out, st.sigma)
    # inputs are not mutated
    assert st.v.base is None and np.all(st.v == 0.0)


def test_step_sigma_hand_case():
    d = build(Grid(dim=1, nx=2, h=1.0, bc=("dirichlet", "dirichlet")), 1.0,
              {"modulus": 1.0})
    m = ElasticMaterial()
    st = initial_state(d, m, v=np.array([1.0, 1.0]))
    st.k = 1  # full step
    cfg = IntegratorConfig(tau=0.1, t_end=1.0)
    assert_allclose(step_sigma(st, d, no_loading(d), cfg), [0.1, 0.0, -0.1])


def test_step_sigma_rejects_nonfinite():
    d = disc_1d(nx=4)
    m = ElasticMaterial()
    st = initial_state(d, m)
    st.v[0] = np.nan
    with pytest.raises(NonFiniteFieldError):
        step_sigma(st, d, no_loading(d), IntegratorConfig(tau=0.1, t_end=1.0))


def test_step_velocity_hand_case():
    d = build(Grid(dim=1, nx=2, h=1.0, bc=("dirichlet", "dirichlet")), 1.0,
              {"modulus": 1.0})
    m = ElasticMaterial()
    st = initial_state(d, m)
    s_next = np.array([0.0, 1.0, 0.0])
    cfg = IntegratorConfig(tau=0.1, t_end=1.0)
    v, u, s_true, _ = step_velocity(st, s_next, st.z, d, m, no_loading(d),
                                    cfg)
    # exact transpose of the forward stencil: the tension peak accelerates
    # both cells toward the middle node
    assert_allclose(v, [0.1, -0.1])
    assert_allclose(u, [0.01, -0.01])
    assert_allclose(s_true, s_next)  # elastic: S = Sigma


def test_step_velocity_force_balance():
    d = disc_1d(nx=8)
    m = ElasticMaterial()
    rng = np.random.default_rng(0)
    s_next = rng.standard_normal(d.n_s)
    loading = Loading(body_force=d.apply_E_adjoint(s_next))
    st = initial_state(d, m, v=rng.standard_normal(d.n_v))
    cfg = IntegratorConfig(tau=0.2, t_end=1.0)
    v, _, _, _ = step_velocity(st, s_next, st.z, d, m, loading, cfg)
    assert_allclose(v, st.v, atol=1e-14)


def test_advance_null_dynamics():
    d = disc_1d(nx=5)
    m = PlasticCreepMaterial(viscosity=1.0)
    st = initial_state(d, m)
    cfg = IntegratorConfig(tau=0.05, t_end=1.0)
    nxt, ledger = advance(st, d, m, no_loading(d), cfg)
    assert nxt.k == 1
    assert_allclose(nxt.v, 0.0)
    assert_allclose(nxt.sigma, 0.0)
    assert_allclose(nxt.z, 0.0)
    assert ledger.total == 0.0


def test_bootstrap_half_step():
    # first sigma update must use tau/2
    d = disc_1d(nx=4, c=2.0)
    m = ElasticMaterial()
    v0 = np.linspace(-1, 1, d.n_v)
    st = initial_state(d, m, v=v0)
    cfg = IntegratorConfig(tau=0.1, t_end=1.0)
    out = step_sigma(st, d, no_loading(d), cfg)
    assert_allclose(out, 0.05 * d.apply_C(d.apply_E(v0)))
    assert_allclose(st.v_prev, -v0)


# ---------------------------------------------------------------------------
# energy behavior
# ---------------------------------------------------------------------------

def material_zoo_1d():
    return [
        ("maxwell", PlasticCreepMaterial(viscosity=0.5)),
        ("zener", PlasticCreepMaterial(viscosity=0.5, hardening=0.6)),
        ("viscoplastic", PlasticCreepMaterial(viscosity=0.5, sigma_y=0.05)),
        ("biot", BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                              l_coefficient=0.1, zeta_eq=0.0,
                              capillarity=0.02, mobility=0.5)),
        ("damage", DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4,
                                  viscosity=0.3)),
    ]


def test_elastic_conservation_short():
    d = disc_1d(nx=50, h=0.02, c=1.3)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=bump_sigma(d))
    e0 = m.phi(d, st.sigma, st.z)  # v0 = 0: physical initial energy
    cfg = cfg_for(d, m, steps=2000)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    totals = np.array([l.total for l in ledgers])
    assert np.max(np.abs(totals - e0)) <= 1e-10 * abs(e0)
    # residual is round-off-level every step, including the bootstrap
    assert max(abs(l.residual) for l in ledgers) <= 1e-12 * max(1.0, e0)


def test_elastic_conservation_neumann_2d():
    d = disc_2d(bc=("neumann", "dirichlet", "neumann", "dirichlet"))
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=bump_sigma(d, seed=3))
    e0 = m.phi(d, st.sigma, st.z)
    cfg = cfg_for(d, m, steps=500)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    totals = np.array([l.total for l in ledgers])
    assert np.max(np.abs(totals - e0)) <= 1e-10 * max(1.0, abs(e0))


def test_bootstrap_identity_with_nonzero_v0():
    # the step-0 ledger uses the exact half-step identity, so the residual
    # is round-off even when v0 != 0 (where naive telescoping fails)
    d = disc_1d(nx=20, h=0.05)
    rng = np.random.default_rng(4)
    for name, m in [("elastic", ElasticMaterial())] + material_zoo_1d():
        st = initial_state(d, m, v=0.3 * rng.standard_normal(d.n_v),
                           sigma=bump_sigma(d, seed=5))
        cfg = cfg_for(d, m, steps=1)
        _, ledger = advance(st, d, m, no_loading(d), cfg)
        assert abs(ledger.residual) <= 1e-11 * max(1.0, ledger.energy_prev), name


@pytest.mark.parametrize("name,material", material_zoo_1d())
def test_energy_identity_dissipative_1d(name, material):
    d = disc_1d(nx=50, h=0.02)
    st = initial_state(d, material, sigma=0.4 * bump_sigma(d))
    e0 = material.phi(d, st.sigma, st.z)
    cfg = cfg_for(d, material, steps=300)
    ledgers = []
    run_simulation(d, material, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    tol = 1e-9 * max(1.0, abs(e0))
    for l in ledgers:
        assert abs(l.residual) <= tol, (name, l.step, l.residual)
        assert l.dissipated_step >= -1e-13, name


def test_dissipated_nonnegative_and_energy_decay_maxwell():
    d = disc_1d(nx=40, h=0.025)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=bump_sigma(d))
    cfg = cfg_for(d, m, steps=400)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert all(l.dissipated_step >= 0.0 for l in ledgers)
    # with F = 0, D = 0 the total energy is nonincreasing
    totals = [ledgers[0].energy_prev] + [l.total for l in ledgers]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-11 * max(1.0, abs(a))


def test_energy_identity_with_traction_drive():
    # ramp drive G(t) = r*t on the left boundary node: the ledger work
    # term accounts for it exactly (elastic material, equality)
    d = disc_1d(nx=30, h=1.0 / 30.0, bc=("traction", "dirichlet"))
    m = ElasticMaterial()
    loading = Loading(body_force=d.zeros_v(),
                      traction=lambda t: 0.3 * t,
                      traction_pattern=d.traction_pattern("left"))
    st = initial_state(d, m)
    cfg = cfg_for(d, m, steps=200)
    ledgers = []
    run_simulation(d, m, loading, cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert max(abs(l.residual) for l in ledgers) <= 1e-11
    # energy actually flows in
    assert ledgers[-1].total > 1e-6


def test_energy_identity_body_force():
    d = disc_1d(nx=30, h=1.0 / 30.0)
    m = PlasticCreepMaterial(viscosity=0.4)
    f = 0.2 * d.mass / d.rho  # constant unit-density force
    loading = Loading(body_force=f)
    st = initial_state(d, m)
    cfg = cfg_for(d, m, steps=200)
    ledgers = []
    run_simulation(d, m, loading, cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert max(abs(l.residual) for l in ledgers) <= 1e-10


def test_substep_ordering_regression():
    # computing the internal step from the stale proto-stress (swapped
    # order) changes the result for a nonlinear material; advance() must
    # use the updated proto-stress
    d = disc_1d(nx=10, h=0.1)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.12)
    st = initial_state(d, m, sigma=1.0 * bump_sigma(d),
                       v=0.5 * np.sin(np.linspace(0, 3, d.n_v)))
    st.k = 2  # full-step regime
    cfg = IntegratorConfig(tau=0.05, t_end=1.0)
    sig_next = step_sigma(st, d, no_loading(d), cfg)
    z_correct, _ = step_internal(st, sig_next, m, d, cfg)
    z_swapped, _ = m.internal_step(d, st.sigma, st.z, cfg.tau)
    assert not np.allclose(z_correct, z_swapped, atol=1e-12)
    nxt, _ = advance(st, d, m, no_loading(d), cfg)
    assert_allclose(nxt.z, z_correct, atol=0.0)


def test_advance_is_deterministic():
    d = disc_1d(nx=20)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.1)
    st = initial_state(d, m, sigma=bump_sigma(d, seed=11))
    cfg = cfg_for(d, m, steps=50)
    l1 = []
    run_simulation(d, m, no_loading(d), cfg, st.copy(),
                   on_step=lambda _, l: l1.append(l))
    l2 = []
    run_simulation(d, m, no_loading(d), cfg, st.copy(),
                   on_step=lambda _, l: l2.append(l))
    for a, b in zip(l1, l2):
        assert a.kinetic == b.kinetic
        assert a.residual == b.residual


def test_run_memory_does_not_grow_with_step_count():
    # the run keeps nothing per step: 900 more steps add no traced memory
    # (a kept ledger list would add about 0.4 KB a step)
    d = disc_1d(nx=20)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=bump_sigma(d))
    peaks = []
    for steps in (300, 1200):
        cfg = cfg_for(d, m, steps=steps)
        tracemalloc.start()
        try:
            run_simulation(d, m, no_loading(d), cfg, st.copy())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 32 * 1024, peaks


def test_advance_shares_the_previous_fields_and_never_writes_them():
    # the new state's v_prev / z_prev are the old state's v / z (no
    # copies), which stay intact through further steps
    d = disc_1d(nx=20)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.1)
    st = initial_state(d, m, sigma=bump_sigma(d, seed=12))
    cfg = cfg_for(d, m, steps=5)
    states = [st]
    for _ in range(5):
        states.append(advance(states[-1], d, m, no_loading(d), cfg)[0])
    saved = [(s.u.copy(), s.v.copy(), s.sigma.copy(), s.z.copy())
             for s in states]
    for _ in range(3):
        states.append(advance(states[-1], d, m, no_loading(d), cfg)[0])
    for prev, nxt in zip(states, states[1:]):
        assert nxt.v_prev is prev.v and nxt.z_prev is prev.z
    for s, fields in zip(states, saved):
        for a, b in zip((s.u, s.v, s.sigma, s.z), fields):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("material", [
    PlasticCreepMaterial(viscosity=0.5),
    DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3),
], ids=["maxwell", "damage"])
def test_advanced_state_is_read_only(material):
    # an in-place edit would leave the values an advanced state carries
    # for the next ledger stale, so it raises; the same edit on a copy
    # runs, and the next ledger is the full-evaluation one
    d, m = disc_1d(nx=30, h=1.0 / 30.0), material
    loading = no_loading(d)
    st = initial_state(d, m, sigma=0.5 * bump_sigma(d))
    cfg = cfg_for(d, m, steps=10)
    for _ in range(5):
        st, _ = advance(st, d, m, loading, cfg)
    names = ["u", "v", "sigma", "z", "dphi_mid"]
    if m.dphi_dsigma_shift is None:
        names.append("dphi_end")
    for name in names:
        arr = getattr(st, name)
        with pytest.raises(ValueError, match="read-only"):
            arr *= 1.1
    for name in ("u", "v", "sigma", "z"):
        edited = st.copy()
        arr = getattr(edited, name)
        arr *= 1.1
        nxt, ledger = advance(edited, d, m, loading, cfg)
        _, info = step_internal(edited, nxt.sigma, m, d, cfg)
        rel, res = ledger_defects(ledger, reference_ledger(
            edited, nxt, d, m, loading, cfg.tau, step_info=info))
        assert rel <= 1e-13 and res <= 1e-15, (name, rel, res)


# ---------------------------------------------------------------------------
# CFL estimator and stability coefficient
# ---------------------------------------------------------------------------

def test_tau_max_elastic_1d_value():
    # rho=1, C=4, h=0.1: tau_max(eta -> 0) -> h sqrt(rho/C) = 0.05
    d = disc_1d(nx=100, h=0.1, c=4.0)
    m = ElasticMaterial()
    tau_max, lam = max_stable_timestep(d, m, m.z_init(d), 0.0)
    assert abs(tau_max - 0.05) <= 1e-3 * 0.05
    assert tau_max >= 0.05  # discrete sup is below the continuum bound


def test_cfl_estimate_of_a_broken_stencil_fails_within_its_budget(
        monkeypatch):
    # a ghost column left unzeroed breaks the exact (E, E*) adjointness:
    # the estimate gives up after 2 n + 8 iterations, n the active stress
    # DOFs, instead of waiting for a fixed cap far beyond them
    def ghost_rows_unzeroed(f, scratch):
        n, m = f.shape
        g = scratch[:n * (m + 1) + 1]
        g[0] = 0.0
        g[1:].reshape(n, m + 1)[:, :m] = f
        return g

    d = disc_2d(nx=8, ny=8, h=1.0 / 8.0)
    d._scratch.fill(0.0)  # the stale ghost values, reproducibly
    m = ElasticMaterial()
    budget = 2 * int(np.count_nonzero(d.s_active)) + 8
    real_E = d.apply_E
    calls = []
    monkeypatch.setattr(d, "apply_E", lambda v: calls.append(1) or real_E(v))
    monkeypatch.setattr(kernels, "_ghost_rows", ghost_rows_unzeroed)
    with pytest.raises(SolverError, match=f"in {budget} iterations"):
        max_stable_timestep(d, m, m.z_init(d), 0.1)
    assert len(calls) == budget  # one E per iteration


def test_tau_max_scaling_with_modulus():
    d1 = disc_1d(nx=40, h=0.1, c=1.0)
    d4 = disc_1d(nx=40, h=0.1, c=4.0)
    m = ElasticMaterial()
    t1, _ = max_stable_timestep(d1, m, m.z_init(d1), 0.0)
    t4, _ = max_stable_timestep(d4, m, m.z_init(d4), 0.0)
    assert_allclose(t1 / t4, 2.0, rtol=1e-5)


@pytest.mark.parametrize("make", [
    lambda: (disc_1d(nx=12, h=0.1, c=2.0), ElasticMaterial()),
    lambda: (disc_1d(nx=10, h=0.1), PlasticCreepMaterial(viscosity=0.5,
                                                         hardening=0.3)),
    lambda: (disc_1d(nx=10, h=0.1), BiotMaterial(biot_modulus=0.4,
                                                 biot_coefficient=0.5)),
    lambda: (disc_1d(nx=10, h=0.1), DamageMaterial(
        eps0=1.0, eps=0.05, g_c=0.5, viscosity=0.3, strain_gradient=0.02)),
    lambda: (disc_2d(nx=4, ny=3), ElasticMaterial()),
    lambda: (disc_2d(nx=4, ny=3, bc=("neumann",) * 4), ElasticMaterial()),
    # worst cases: the finest grids the dense oracle reaches, where the
    # top of the spectrum is most tightly clustered
    lambda: (disc_1d(nx=MAX_ORACLE_DOFS - 1, h=1.0 / (MAX_ORACLE_DOFS - 1)),
             ElasticMaterial()),
    lambda: (disc_2d(nx=12, ny=12, h=1.0 / 12.0), ElasticMaterial()),
    lambda: (disc_1d(nx=MAX_ORACLE_DOFS - 1, h=1.0 / (MAX_ORACLE_DOFS - 1)),
             BiotMaterial(biot_modulus=0.4, biot_coefficient=0.5)),
])
def test_power_iteration_matches_dense(make):
    d, m = make()
    assert d.n_s <= MAX_ORACLE_DOFS
    probe = m.z_init(d)
    _, lam = max_stable_timestep(d, m, probe, 0.0)
    lam_ref = dense_generalized_rayleigh(d, m, probe)
    assert abs(lam - lam_ref) <= 1e-6 * lam_ref
    # the estimate errs only upward, so tau_auto errs only downward
    assert lam >= lam_ref * (1.0 - 1e-12)


def _estimate_defect(d, m, probe):
    """(lambda - lambda_dense) / lambda_dense of the estimate at ``probe``."""
    _, lam = max_stable_timestep(d, m, probe, 0.0)
    lam_ref = dense_generalized_rayleigh(d, m, m.stiffest_state(probe))
    return (lam - lam_ref) / lam_ref


def test_cfl_estimate_matches_dense_on_every_2d_boundary_set():
    # the start vector is weighted toward the clamped grid's top mode;
    # each other set of boundary kinds moves that mode, and the estimate
    # must still find it: within 1e-6 of a dense eigensolve, never below
    m = ElasticMaterial()
    bad = {}
    for bc in itertools.product(BC_KINDS, repeat=4):
        d = disc_2d(nx=9, ny=8, h=1.0 / 9.0, bc=bc)
        rel = _estimate_defect(d, m, m.z_init(d))
        if not -1e-12 <= rel <= 1e-6:
            bad[bc] = rel
    assert not bad


def _damaged_probe(rng, d, m):
    """Damage at random, or a damaged field with a small intact island
    at a random place: the top mode sits on the island."""
    n = m.z_size(d)
    if rng.random() < 0.5:
        return rng.uniform(0.0, 1.0, n)
    z = np.full(n, rng.uniform(0.05, 0.3))
    at = int(rng.integers(n))
    z[at:at + int(rng.integers(1, 4))] = 1.0
    return z


@pytest.mark.parametrize("dim", [1, 2])
def test_cfl_estimate_matches_dense_on_damaged_probes(dim):
    # heterogeneous stiffness localizes the top mode, in either mode of
    # the material and with or without the stress-gradient term; 1D on
    # the finest grid the oracle reaches, where the top is most clustered
    rng = np.random.default_rng(40 + dim)
    nx = MAX_ORACLE_DOFS - 1
    d = disc_1d(nx=nx, h=1.0 / nx) if dim == 1 else disc_2d(
        nx=9, ny=8, h=1.0 / 9.0)
    bad = []
    for k in range(10):
        m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.5, viscosity=0.3,
                           mode=("unidirectional", "healing")[k % 2],
                           strain_gradient=0.02 * (k // 2 % 2))
        probe = _damaged_probe(rng, d, m)
        if m.mode == "healing":
            probe *= 2.0  # stiffer than intact in places
        rel = _estimate_defect(d, m, probe)
        if not -1e-12 <= rel <= 1e-6:
            bad.append((k, rel))
    assert not bad


def test_cfl_estimate_iterations_at_128():
    # the start vector's weight on the top mode: a clamped 128^2 plate
    # converges in a fraction of the 271 iterations a uniform random
    # start takes
    d = disc_2d(nx=128, ny=128, h=1.0 / 128.0)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.05)
    info = {}
    max_stable_timestep(d, m, m.z_init(d), 0.1, info=info)
    assert info["iters"] <= 44


def _clamped_plate(n):
    d = disc_2d(nx=n, ny=n, h=1.0 / n)
    return d, PlasticCreepMaterial(viscosity=0.5, sigma_y=0.05)


# the clamped plates and the two 1D probes the estimate sees in a run:
# damage at nx = 256 and the Biot column of biot_seepage_1d.cfg
SCHEDULE_CASES = {
    "plate-64": lambda: _clamped_plate(64),
    "plate-128": lambda: _clamped_plate(128),
    "damage-256": lambda: (
        disc_1d(nx=256, h=1.0 / 256.0, bc=("dirichlet", "neumann")),
        DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)),
    "biot-50": lambda: (disc_1d(nx=50, h=0.02), BiotMaterial(
        biot_modulus=0.4, biot_coefficient=0.4, l_coefficient=0.1,
        capillarity=0.02, mobility=0.5)),
}


def _first_passing_check(d, m, upto):
    """The first j whose Ritz check passes: an estimate capped at
    max_iter = j checks at j and raises only if no check up to j passed."""
    for j in range(1, upto + 1):
        try:
            max_stable_timestep(d, m, m.z_init(d), 0.1, max_iter=j)
        except SolverError:
            continue
        return j
    raise AssertionError(f"no check passes up to j = {upto}")


@pytest.mark.parametrize("case", ["plate-64", "plate-128"])
def test_cfl_estimate_stops_near_the_first_passing_check(case):
    # the checks fall where the residual's rate predicts it passes, so the
    # estimate runs at most 4 iterations past the first j that would pass
    d, m = SCHEDULE_CASES[case]()
    info = {}
    max_stable_timestep(d, m, m.z_init(d), 0.1, info=info)
    first = _first_passing_check(d, m, info["iters"])
    assert first <= info["iters"] <= first + 4


@pytest.mark.parametrize("case", SCHEDULE_CASES)
def test_cfl_estimate_costs_no_more_than_the_fixed_schedule(monkeypatch,
                                                            case):
    # the fixed schedule checks at 8 and then every max(8, j/2) iterations,
    # and stops at the first of those checks that passes: capped there,
    # the estimate returns.  Before it, the fixed schedule made no fewer
    # iterations than that j, and one _top_ritz call per check up to it
    d, m = SCHEDULE_CASES[case]()
    calls, info = [], {}

    def counted(alphas, betas):
        calls.append(len(alphas))
        return _top_ritz(alphas, betas)

    monkeypatch.setattr(integrator, "_top_ritz", counted)
    max_stable_timestep(d, m, m.z_init(d), 0.1, info=info)
    iters, checks = info["iters"], len(calls)
    fixed = [8]
    while True:
        try:
            max_stable_timestep(d, m, m.z_init(d), 0.1, max_iter=fixed[-1])
            break
        except SolverError:
            fixed.append(fixed[-1] + max(8, fixed[-1] // 2))
    assert fixed[-1] < np.count_nonzero(d.s_active)
    assert iters <= fixed[-1]
    assert checks <= len(fixed) + 1


def _top_ritz_sweep(alphas, betas):
    """``_top_ritz`` with a vectorized sweep: each multisection sweep tests
    all 255 shifts at once in numpy and takes the first one above every
    eigenvalue by argmax.  The bisection must reproduce it bit for bit."""
    shifts = 255
    scale = max(a + l + r for a, l, r in
                zip(alphas, [0.0] + betas, betas + [0.0]))
    alphas = [a / scale for a in alphas]
    betas = [b / scale for b in betas]
    b2 = [b * b for b in betas]
    lo, hi = max(alphas), 1.0 + 1e-12
    dmax = np.empty(shifts)
    while hi - lo > 1e-9 * hi:
        x = np.linspace(lo, hi, shifts + 2)[1:-1]
        d = alphas[0] - x
        dmax[:] = d
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, bb in zip(alphas[1:], b2):
                np.divide(bb, d, out=d)
                d += x
                np.subtract(a, d, out=d)
                np.maximum(dmax, d, out=dmax)
        above = dmax < 0.0
        k = int(np.argmax(above))
        if above[k]:
            hi = float(x[k])
            if k:
                lo = float(x[k - 1])
        else:
            lo = float(x[-1])
    d = alphas[0] - hi
    g = [-d]
    for a, bb in zip(alphas[1:], b2):
        d = a - (hi + bb / d)
        g.append(-d)
    y = [1.0] * len(alphas)
    for _ in range(3):
        u = y[0]
        v = [u / g[0]]
        for yi, b, g_prev, gi in zip(y[1:], betas, g, g[1:]):
            u = yi + b * u / g_prev
            v.append(u / gi)
        w = v[-1]
        y = [w]
        for vi, b, gi in zip(v[-2::-1], betas[::-1], g[-2::-1]):
            w = vi + b * w / gi
            y.append(w)
        y.reverse()
        norm = np.sqrt(sum(yi * yi for yi in y))
        y = [yi / norm for yi in y]
    return hi * scale, y[-1]


def _same_floats(a, b):
    return [float(x).hex() for x in a] == [float(x).hex() for x in b]


@pytest.mark.parametrize("j", [1, 2, 7, 60, 300])
def test_top_ritz_matches_dense_eigh(j):
    # random tridiagonal matrices and the clustered, Gershgorin-exact
    # Laplacian tridiag(1, 2, 1), against LAPACK on the dense matrix and
    # bit for bit against the vectorized sweep
    rng = np.random.default_rng(j)
    cases = [(list(rng.uniform(0.5, 1.5, j)),
              list(rng.uniform(0.1, 0.5, j - 1))),
             ([2.0] * j, [1.0] * (j - 1))]
    for alphas, betas in cases:
        theta, y_last = _top_ritz(alphas, betas)
        assert _same_floats((theta, y_last), _top_ritz_sweep(alphas, betas))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(t)
        assert vals[-1] <= theta <= vals[-1] * (1.0 + 1e-9)
        assert abs(abs(y_last) - abs(vecs[-1, -1])) <= 1e-9


@pytest.mark.parametrize("make", [
    lambda: (disc_1d(nx=40, h=0.025), DamageMaterial(
        eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)),
    lambda: (disc_1d(nx=40, h=0.025), BiotMaterial(
        biot_modulus=0.4, biot_coefficient=0.4, l_coefficient=0.1,
        zeta_eq=0.0, capillarity=0.02, mobility=0.5)),
    lambda: (disc_2d(nx=8, ny=8, h=0.125),
             PlasticCreepMaterial(viscosity=0.5, sigma_y=0.05)),
], ids=["damage-1d", "biot-1d", "plastic-2d"])
def test_top_ritz_equals_the_sweep_on_lanczos_tridiagonals(monkeypatch,
                                                           make):
    # every tridiagonal the estimator hands over, at each of its checks
    d, m = make()
    seen = []

    def recorded(alphas, betas):
        seen.append((list(alphas), list(betas)))
        return _top_ritz(alphas, betas)

    monkeypatch.setattr(integrator, "_top_ritz", recorded)
    max_stable_timestep(d, m, m.z_init(d), 0.1)
    assert len(seen) >= 2
    for alphas, betas in seen:
        assert _same_floats(_top_ritz(alphas, betas),
                            _top_ritz_sweep(alphas, betas))


def test_pivot_test_is_monotone_across_the_top_eigenvalue():
    # bisection finds the sweep's first shift above every eigenvalue only
    # if the test flips once: consecutive floats around the top, and a
    # coarser grid across +-1e-9 of it
    rng = np.random.default_rng(3)
    cases = [([2.0] * 60, [1.0] * 59),
             (list(rng.uniform(0.5, 1.5, 60)),
              list(rng.uniform(0.1, 0.5, 59)))]
    for alphas, betas in cases:
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        top = float(np.linalg.eigvalsh(t)[-1])
        xs = [top + k * math.ulp(top) for k in range(-300, 301)]
        xs = sorted(xs + np.linspace(top * (1 - 1e-9), top * (1 + 1e-9),
                                     2001).tolist())
        flags = [_above(x, alphas, [b * b for b in betas]) for x in xs]
        first = flags.index(True)
        assert first > 0 and not any(flags[:first]) and all(flags[first:])


def test_top_ritz_scales_away_under_and_overflow():
    # unscaled, b * b underflows to 0 at 1e-200 (theta 5e-324, y_last
    # nan) and overflows at 1e200; T over its Gershgorin bound does not
    for b in (1e-200, 1e200):
        theta, y_last = _top_ritz([0.0, 0.0], [b])
        assert b <= theta <= b * (1.0 + 1e-9)
        assert abs(abs(y_last) - math.sqrt(0.5)) <= 1e-9


def test_top_ritz_returns_on_degenerate_tridiagonals():
    # a Gershgorin bound at or below 0 (hi < 0, or T = 0) gives (0, 0):
    # 0 bounds every eigenvalue with no residual, so an estimate on a zero
    # operator gives tau = inf.  A positive bound over a negative top
    # eigenvalue ends once a sweep cannot narrow the bracket.  In a child
    # process, so that a hang fails instead of blocking the suite
    script = (
        "import numpy as np\n"
        "from stagdyn.grid import Grid, build\n"
        "from stagdyn.integrator import _top_ritz, max_stable_timestep\n"
        "from stagdyn.materials import ElasticMaterial\n"
        "print(_top_ritz([-1.0, -2.0], [0.5]), _top_ritz([0.0], []))\n"
        "print(*map(float, _top_ritz([-3.0, -1.0], [1.5])))\n"
        "d = build(Grid(dim=1, nx=8, h=0.5, bc=('dirichlet',) * 2), 1.0,\n"
        "          {'modulus': 1.0})\n"
        "d.inv_mass = np.zeros_like(d.inv_mass)\n"
        "info = {}\n"
        "m = ElasticMaterial()\n"
        "print(max_stable_timestep(d, m, m.z_init(d), 0.1, info=info), "
        "info)\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    guarded, negative, zero_operator = proc.stdout.splitlines()
    assert guarded == "(0.0, 0.0) (0.0, 0.0)"
    assert zero_operator == "(inf, 0.0) {'iters': 1, 'residual': 0.0}"
    theta, y_last = map(float, negative.split())
    vals, vecs = np.linalg.eigh([[-3.0, 1.5], [1.5, -1.0]])
    assert abs(theta - vals[-1]) <= 1e-9 * abs(vals[-1])
    assert abs(abs(y_last) - abs(vecs[-1, -1])) <= 1e-9


def top_mode(d, m):
    """Dense top eigenvector of the CFL operator (the worst initial stress)."""
    probe = m.z_init(d)
    dphi0 = m.dphi_dsigma(d, d.zeros_s(), probe)

    def apply_T(s):
        hs = m.dphi_dsigma(d, s, probe) - dphi0
        f = d.apply_E_adjoint(d.apply_C(hs))
        f = np.where(d.v_active, f / d.mass, 0.0)
        return 2.0 * d.apply_C(d.apply_E(f))

    act = d.s_active
    t = dense_operator(apply_T, d.n_s)[np.ix_(act, act)]
    vals, vecs = np.linalg.eig(t)
    top = np.argmax(vals.real)
    sigma = d.zeros_s()
    sigma[act] = vecs[:, top].real
    return sigma


@pytest.mark.parametrize("make", [
    lambda: disc_1d(nx=100, h=0.01),
    lambda: disc_1d(nx=400, h=1.0 / 400.0),
    lambda: disc_2d(nx=16, ny=16, h=1.0 / 16.0),
])
def test_auto_tau_keeps_eta_on_top_mode(make):
    # starting on the top mode, every step's stress sits on the quotient's
    # maximiser, so a_coeff = 1 - (1 - eta) lambda_true / lambda_estimate
    d = make()
    m = ElasticMaterial()
    eta = 0.1
    st = initial_state(d, m, sigma=top_mode(d, m))
    tau, _ = max_stable_timestep(d, m, st.z, eta)
    cfg = IntegratorConfig(tau=tau, t_end=20 * tau, eta=eta, tau_max=tau)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert min(l.stability_coeff for l in ledgers) >= eta - 1e-12


def test_stability_coeff_at_bound():
    # tau <= tau_max(eta)  =>  a >= eta at every step, and on random states
    d = disc_1d(nx=30, h=1.0 / 30.0, c=2.0)
    eta = 0.25
    rng = np.random.default_rng(13)
    for m in (ElasticMaterial(),
              PlasticCreepMaterial(viscosity=0.5, hardening=0.2),
              DamageMaterial(eps0=1.0, eps=0.05, g_c=0.5, viscosity=0.3)):
        probe = m.z_init(d)
        tau_max, _ = max_stable_timestep(d, m, probe, eta)
        for _ in range(20):
            sigma = rng.standard_normal(d.n_s)
            sigma[~d.s_active] = 0.0
            if m.name == "damage":
                z = rng.uniform(0.0, 1.0, m.z_size(d))  # only softens
            else:
                z = m.z_init(d) + 0.5 * rng.standard_normal(m.z_size(d))
            a = stability_coefficient(d, m, sigma, z, tau_max)
            assert a >= eta - 1e-12


def test_stability_coeff_in_simulation():
    d = disc_1d(nx=40, h=0.025)
    for name, m in material_zoo_1d():
        st = initial_state(d, m, sigma=0.5 * bump_sigma(d))
        tau_max, _ = max_stable_timestep(d, m, m.z_init(d), 0.1)
        cfg = IntegratorConfig(tau=tau_max, t_end=100 * tau_max,
                               tau_max=tau_max)
        ledgers = []
        run_simulation(d, m, no_loading(d), cfg, st,
                       on_step=lambda _, l: ledgers.append(l))
        assert min(l.stability_coeff for l in ledgers) >= 0.1 - 1e-12, name


def test_cfl_guard_raises():
    d = disc_1d(nx=30, h=1.0 / 30.0)
    m = ElasticMaterial()
    tau_max, _ = max_stable_timestep(d, m, m.z_init(d), 0.1)
    st = initial_state(d, m, sigma=bump_sigma(d))
    cfg = IntegratorConfig(tau=1.01 * tau_max, t_end=20 * tau_max)
    with pytest.raises(CflViolationError) as ei:
        run_simulation(d, m, no_loading(d), cfg, st)
    assert ei.value.quotient > 0


def test_step_checks_each_field_once(monkeypatch):
    # advance scans the fields of a state it did not make; the fields it
    # makes are scanned only when its ledger's kinetic pair or stored
    # energy is not finite, and then in the order proto-stress, internal,
    # velocity
    d = disc_1d(nx=20, h=0.05)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=bump_sigma(d))
    cfg = IntegratorConfig(tau=0.01, t_end=1.0)
    names = []
    real = integrator._require_finite

    def counted(name, arr):
        names.append(name)
        real(name, arr)

    monkeypatch.setattr(integrator, "_require_finite", counted)
    st, _ = advance(st, d, m, no_loading(d), cfg)
    assert names == ["velocity", "proto-stress"]
    for _ in range(3):
        names.clear()
        st, _ = advance(st, d, m, no_loading(d), cfg)
        assert names == []
    names.clear()
    advance(st.copy(), d, m, no_loading(d), cfg)  # a copy is not trusted
    assert names == ["velocity", "proto-stress"]
    names.clear()
    real_velocity = integrator.step_velocity

    def nan_velocity(*args):
        out = real_velocity(*args)
        out[0][3] = np.nan
        return out

    monkeypatch.setattr(integrator, "step_velocity", nan_velocity)
    with pytest.raises(NonFiniteFieldError, match="in velocity"):
        advance(st, d, m, no_loading(d), cfg)
    assert names == ["proto-stress", "internal", "velocity"]


@pytest.mark.parametrize("field", ["v", "sigma"])
def test_nonfinite_initial_field_is_an_instability(field):
    d = disc_1d(nx=20, h=0.05)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=bump_sigma(d))
    getattr(st, field)[3] = np.inf
    cfg = IntegratorConfig(tau=0.01, t_end=0.1, tau_max=np.inf)
    with pytest.raises(InstabilityError):
        run_simulation(d, m, no_loading(d), cfg, st)


def test_blowup_guard_trips():
    d = disc_1d(nx=30, h=1.0 / 30.0)
    m = ElasticMaterial()
    tau0, _ = max_stable_timestep(d, m, m.z_init(d), 0.0)
    st = initial_state(d, m, sigma=bump_sigma(d, seed=17))
    cfg = IntegratorConfig(tau=1.05 * tau0, t_end=5000 * 1.05 * tau0,
                           tau_max=np.inf)
    with pytest.raises(InstabilityError):
        run_simulation(d, m, no_loading(d), cfg, st)


def test_enforced_energy_inequality_reports_step_tolerance(monkeypatch):
    # a defect injected into the ledger of step 3 of a decaying run: the
    # error carries that step's tolerance, scaled by its own |E^k|
    d = disc_1d(nx=40, h=0.025)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=bump_sigma(d, amplitude=10.0))
    cfg = cfg_for(d, m, steps=10, enforce_energy_inequality=True,
                  energy_tol=1e-6)
    ledgers = []
    real = integrator.energy_audit

    def audit(prev, nxt, *args, **kwargs):
        ledger = real(prev, nxt, *args, **kwargs)
        if prev.k == 3:
            ledger.residual = 1.0
        ledgers.append(ledger)
        return ledger

    monkeypatch.setattr(integrator, "energy_audit", audit)
    with pytest.raises(EnergyInequalityError) as ei:
        run_simulation(d, m, no_loading(d), cfg, st)
    failing = ledgers[-1]
    assert failing.step == 3
    assert ei.value.step == failing.step
    assert ei.value.tol == cfg.energy_tol * max(1.0,
                                                abs(failing.energy_prev))
    # the run's energy has moved since E^0, so the E^0 scale would differ
    assert abs(failing.energy_prev) < 0.99 * abs(ledgers[0].energy_prev)


def test_blowup_guard_reports_failing_step(monkeypatch):
    # a huge energy injected into the ledger of step 3: the error names
    # that ledger row, not the step after it
    d = disc_1d(nx=40, h=0.025)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=bump_sigma(d))
    cfg = cfg_for(d, m, steps=10)
    ledgers = []
    real = integrator.energy_audit

    def audit(prev, nxt, *args, **kwargs):
        ledger = real(prev, nxt, *args, **kwargs)
        if prev.k == 3:
            ledger.kinetic = 1e300
        ledgers.append(ledger)
        return ledger

    monkeypatch.setattr(integrator, "energy_audit", audit)
    with pytest.raises(InstabilityError) as ei:
        run_simulation(d, m, no_loading(d), cfg, st)
    failing = ledgers[-1]
    assert failing.step == 3
    assert ei.value.step == failing.step


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(tau=-0.1, t_end=1.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(tau=0.1, t_end=1.0, eta=1.5)
    with pytest.raises(ConfigError):
        IntegratorConfig(tau=0.1, t_end=0.0)


def test_energy_audit_pure_diagnostic():
    d = disc_1d(nx=10)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=bump_sigma(d))
    cfg = cfg_for(d, m, steps=3)
    nxt, _ = advance(st, d, m, no_loading(d), cfg)
    sig_before = nxt.sigma.copy()
    energy_audit(st, nxt, d, m, no_loading(d), cfg)
    assert_allclose(nxt.sigma, sig_before)


def test_energy_identity_2d_traction_drive():
    # sine drive on the top side of a mixed-BC 2D grid: the D-work term
    # keeps the elastic identity exact
    d = disc_2d(nx=6, ny=5, bc=("dirichlet", "neumann", "dirichlet",
                                "traction"))
    m = ElasticMaterial()
    loading = Loading(body_force=d.zeros_v(),
                      traction=lambda t: 0.2 * np.sin(4.0 * t),
                      traction_pattern=d.traction_pattern("top"))
    st = initial_state(d, m)
    cfg = cfg_for(d, m, steps=300)
    ledgers = []
    run_simulation(d, m, loading, cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert max(abs(l.residual) for l in ledgers) <= 1e-11
    assert any(abs(l.external_work_step) > 0 for l in ledgers)


def test_energy_identity_2d_damage_strain_gradient():
    d = disc_2d(nx=8, ny=8, h=0.125,
                bc=("neumann", "dirichlet", "neumann", "dirichlet"))
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       strain_gradient=0.003)
    st = initial_state(d, m, sigma=bump_sigma(d, seed=31) * 0.3)
    e0 = max(1.0, m.phi(d, st.sigma, st.z))
    cfg = cfg_for(d, m, steps=150)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert max(l.residual for l in ledgers) <= 1e-9 * e0
    assert max(abs(l.residual) for l in ledgers) <= 1e-9 * e0


def test_energy_identity_healing_damage():
    d = disc_1d(nx=30, h=1.0 / 30.0)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       mode="healing")
    rng = np.random.default_rng(33)
    st = initial_state(d, m, sigma=0.6 * bump_sigma(d),
                       z=np.clip(0.7 + 0.2 * rng.standard_normal(d.zs_n),
                                 0.2, 1.0))
    e0 = max(1.0, m.phi(d, st.sigma, st.z))
    cfg = cfg_for(d, m, steps=200)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    # healing dissipation is smooth: equality
    assert max(abs(l.residual) for l in ledgers) <= 1e-9 * e0


def test_healing_from_a_damaged_start_runs_stable(tmp_path):
    # healing stiffens a damaged start: the bound at z0 = 0.2 was 4.86x
    # the bound at z = 1, and this run exited 0 at tau 0.0719 with its
    # energy growing from 5.12 to 273
    text = (CONFIGS / "damage_1d.cfg").read_text(encoding="utf-8")
    for old, new in [
            ("mode = unidirectional", "mode = healing"),
            ("bc_left = dirichlet", "bc_left = neumann"),
            ("t_end = 0.5", "t_end = 3.0\nenforce_energy_inequality = true"),
            ("initial_amplitude = 0.8",
             "initial_amplitude = 0.05\ninitial_internal = 0.2")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "heal.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--quiet", "--out-dir", str(out)]) == 0
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    tau = rows[0, 1]
    assert tau == pytest.approx(0.01481, rel=1e-3)
    assert len(rows) == round(3.0 / tau)
    energy = rows[:, 2] + rows[:, 3]
    assert np.max(np.abs(rows[:, 7])) <= 1e-13 * energy[0]
    assert np.all(np.diff(energy) <= 1e-13 * energy[0])
    assert energy[-1] < energy[0]


def test_biot_2d_content_conserved_in_simulation():
    d = disc_2d(nx=8, ny=8, h=0.125)
    m = BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                     l_coefficient=0.1, capillarity=0.01, mobility=0.5)
    st = initial_state(d, m, sigma=bump_sigma(d, seed=37) * 0.4)
    total0 = d.zdot(st.z, np.ones_like(st.z))
    cfg = cfg_for(d, m, steps=200)
    ledgers = []
    final = run_simulation(d, m, no_loading(d), cfg, st,
                           on_step=lambda _, l: ledgers.append(l))
    drift = abs(d.zdot(final.z, np.ones_like(final.z)) - total0)
    assert drift <= 1e-10 * max(1.0, abs(total0))
    assert max(abs(l.residual) for l in ledgers) <= 1e-9


def test_energy_identity_hardening_plus_yield_2d():
    # combined Zener hardening and yield stress exercises the full return
    # map (kbar/gbar factors) inside the ledger identity
    d = disc_2d(nx=6, ny=6, h=1.0 / 6.0)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.08,
                             hardening=(0.4, 0.25))
    st = initial_state(d, m, sigma=0.5 * bump_sigma(d, seed=41))
    e0 = max(1.0, m.phi(d, st.sigma, st.z))
    cfg = cfg_for(d, m, steps=250)
    ledgers = []
    run_simulation(d, m, no_loading(d), cfg, st,
                   on_step=lambda _, l: ledgers.append(l))
    assert max(l.residual for l in ledgers) <= 1e-9 * e0
    assert max(abs(l.residual) for l in ledgers) <= 1e-9 * e0
    assert all(l.dissipated_step >= -1e-14 for l in ledgers)


@pytest.mark.parametrize("viscosity, hardening", [(0.5, 0.0), (0.2, 0.5)],
                         ids=["maxwell", "zener"])
def test_creep_converges_to_the_exact_damped_mode(viscosity, hardening):
    # With sigma_y = 0 the flow rule is linear, and the traction-free mode
    # sigma = s sin(pi x), v = w cos(pi x), z = p sin(pi x) stays in its
    # mode.  With C = rho = 1 the amplitudes solve s' = -pi w,
    # w' = pi (s - p), D p' = s - (1 + C2) p, whose exact solution comes
    # from the eigenvectors of that 3x3 system.  Joint (h, tau)
    # refinement at Courant 0.5, neumann ends: every local order is 2.
    from stagdyn.oracle import explicit_sigma_closure

    t_end = 0.5
    ode = np.array([[0.0, -np.pi, 0.0], [np.pi, 0.0, -np.pi],
                    [1.0 / viscosity, 0.0, -(1.0 + hardening) / viscosity]])
    lam, vecs = np.linalg.eig(ode)
    s, w, p = (vecs @ (np.exp(lam * t_end)
                       * np.linalg.solve(vecs, [1.0, 0.0, 0.0]))).real
    errors = []
    for nx in (16, 32, 64, 128):
        d = disc_1d(nx=nx, h=1.0 / nx, bc=("neumann", "neumann"))
        m = PlasticCreepMaterial(viscosity=viscosity, hardening=hardening)
        x = np.linspace(0.0, 1.0, nx + 1)
        xv = 0.5 * (x[:-1] + x[1:])
        steps = int(np.ceil(t_end / (0.5 / nx)))
        cfg = IntegratorConfig(tau=t_end / steps, t_end=t_end)
        st = initial_state(d, m, sigma=np.sin(np.pi * x))
        final = run_simulation(d, m, no_loading(d), cfg, st)
        sigma = explicit_sigma_closure(final, d, cfg.tau)
        errors.append(max(np.max(np.abs(sigma - s * np.sin(np.pi * x))),
                          np.max(np.abs(final.v - w * np.cos(np.pi * xv))),
                          np.max(np.abs(final.z - p * np.sin(np.pi * x)))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)
