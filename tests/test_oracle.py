"""Oracle machinery tests: scans, the midpoint reference, convergence fits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn.errors import StagdynError, UnsupportedMaterialError
from stagdyn.grid import Grid, build
from stagdyn.integrator import (
    IntegratorConfig,
    State,
    initial_state,
    max_stable_timestep,
    no_loading,
    run_simulation,
)
from stagdyn.materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)
from stagdyn.oracle import (
    ConvergenceReport,
    ImplicitReference,
    brute_force_prox,
    explicit_sigma_closure,
    fit_order,
    gradient_check,
    manufactured_wave_study,
    temporal_self_convergence,
    trajectory_distance,
)


def disc_1d(nx=8, h=0.125, c=1.0, rho=1.0):
    return build(Grid(dim=1, nx=nx, h=h, bc=("dirichlet", "dirichlet")),
                 rho, {"modulus": c})


def implicit_reference_step(disc, material, state, tau):
    """One monolithic midpoint step of the reference; returns a new State."""
    ref = ImplicitReference(disc, material, no_loading(disc), tau)
    sigma, v, z = ref._split(ref.step(ref.pack(state)))
    u = state.u + 0.5 * tau * (state.v + v)
    return State(u=u, v=v, sigma=sigma, z=z, k=state.k + 1,
                 v_prev=state.v.copy())


def test_brute_force_prox_parabola():
    assert abs(brute_force_prox(lambda x: (x - 3.0) ** 2, -1.0, 1.5) - 3.0) \
        < 1e-8  # edge-widening finds the exterior minimizer


def test_brute_force_prox_maxwell_increment():
    # the 0D Maxwell midpoint example: minimizer at 0.4
    tau, c_mod, dvisc, sig = 0.5, 1.0, 1.0, 1.0

    def objective(p):
        mid = 0.5 * p
        phi = 0.5 * c_mod ** -1 * sig ** 2 - sig * mid + 0.5 * c_mod * mid ** 2
        return (2.0 / tau) * phi + 0.5 * dvisc * (p / tau) ** 2

    assert abs(brute_force_prox(objective, -2.0, 2.0) - 0.4) < 1e-8


def test_brute_force_prox_below_yield():
    tau, c_mod, sy, dvisc = 0.1, 1.0, 0.5, 1.0
    sig, pk = 0.3, 0.0

    def objective(p):
        mid = 0.5 * (p + pk)
        phi = 0.5 * sig ** 2 / c_mod - sig * mid + 0.5 * c_mod * mid ** 2
        rate = (p - pk) / tau
        return (2.0 / tau) * phi + sy * abs(rate) + 0.5 * dvisc * rate ** 2

    assert abs(brute_force_prox(objective, -1.0, 1.0) - pk) < 1e-8


def test_elastic_midpoint_conserves_energy():
    d = disc_1d()
    m = ElasticMaterial()
    rng = np.random.default_rng(1)
    st = initial_state(d, m, sigma=rng.standard_normal(d.n_s),
                       v=rng.standard_normal(d.n_v))
    e0 = 0.5 * float(np.sum(d.mass * st.v ** 2)) + m.phi(d, st.sigma, st.z)
    nxt = implicit_reference_step(d, m, st, tau=0.05)
    e1 = 0.5 * float(np.sum(d.mass * nxt.v ** 2)) + m.phi(d, nxt.sigma, nxt.z)
    assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))


def test_reference_rejects_nonlinear():
    d = disc_1d()
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.2)
    st = initial_state(d, m)
    with pytest.raises(UnsupportedMaterialError):
        implicit_reference_step(d, m, st, tau=0.05)
    md = DamageMaterial(eps0=1.0, eps=0.1, g_c=1.0, viscosity=0.5)
    with pytest.raises(UnsupportedMaterialError):
        implicit_reference_step(d, md, initial_state(d, md), tau=0.05)


def test_reference_size_guard():
    d = build(Grid(dim=1, nx=400, h=1 / 400, bc=("dirichlet", "dirichlet")),
              1.0, {"modulus": 1.0})
    m = ElasticMaterial()
    with pytest.raises(UnsupportedMaterialError):
        implicit_reference_step(d, m, initial_state(d, m), tau=1e-3)


def standing_bump(disc):
    x = np.linspace(0.0, 1.0, disc.n_s)
    return np.sin(np.pi * x)


def test_maxwell_self_convergence_second_order():
    d = disc_1d(nx=8, h=0.125)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=standing_bump(d))
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    tau0 = 0.8 * tau_max
    report = temporal_self_convergence(
        d, m, no_loading(d), st, IntegratorConfig(tau=tau0, t_end=1.0),
        taus=[tau0, tau0 / 2, tau0 / 4])
    assert report.reference == "oracle"
    assert report.fitted_order >= 1.8


def test_biot_self_convergence_second_order():
    d = disc_1d(nx=4, h=0.25)
    m = BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                     l_coefficient=0.1, capillarity=0.02, mobility=0.5)
    st = initial_state(d, m, sigma=standing_bump(d))
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    tau0 = 0.8 * tau_max
    report = temporal_self_convergence(
        d, m, no_loading(d), st, IntegratorConfig(tau=tau0, t_end=1.0),
        taus=[tau0, tau0 / 2, tau0 / 4])
    assert report.fitted_order >= 1.8


def test_manufactured_standing_wave_order_two():
    report = manufactured_wave_study(levels=3)
    assert report.reference == "exact"
    assert 1.8 <= report.fitted_order <= 2.2


def test_manufactured_standing_wave_order_two_2d():
    # traction-free square, K = G: the mode is exact for the 2D stencils
    # too, refined at the 2D Courant ratio 0.5 / sqrt(2)
    report = manufactured_wave_study(levels=3, n0=8, dim=2,
                                     courant=0.5 / np.sqrt(2.0))
    assert report.reference == "exact"
    assert 1.8 <= report.fitted_order <= 2.2
    assert report.errors[-1] < report.errors[0] / 10.0


def test_cfl_violating_tau_excluded():
    d = disc_1d(nx=8, h=0.125)
    m = PlasticCreepMaterial(viscosity=0.5)
    st = initial_state(d, m, sigma=standing_bump(d))
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    taus = [3.0 * tau_max, 0.8 * tau_max, 0.4 * tau_max, 0.2 * tau_max]
    report = temporal_self_convergence(
        d, m, no_loading(d), st, IntegratorConfig(tau=taus[0], t_end=0.5),
        taus=taus)
    assert len(report.excluded) == 1
    assert len(report.resolutions) == 3


def test_report_validation():
    with pytest.raises(StagdynError):
        ConvergenceReport(resolutions=[1, 2], errors=[0.1, 0.2],
                          fitted_order=1.0, reference="oracle")
    with pytest.raises(StagdynError):
        ConvergenceReport(resolutions=[1, 2, 3], errors=[0.1, -0.2, 0.3],
                          fitted_order=1.0, reference="oracle")
    r = ConvergenceReport(resolutions=[0.1, 0.05, 0.025],
                          errors=[4e-2, 1e-2, 2.5e-3],
                          fitted_order=fit_order([0.1, 0.05, 0.025],
                                                 [4e-2, 1e-2, 2.5e-3]),
                          reference="exact")
    assert_allclose(r.fitted_order, 2.0, atol=1e-12)
    assert "fitted order" in r.table()
    assert any(line.startswith("order,") for line in r.rows())


def test_gradient_check_zero_field_regression():
    # linear terms make the zero-field gradient exact
    d = disc_1d(nx=4)
    m = PlasticCreepMaterial(viscosity=0.5, hardening=0.2)
    assert gradient_check(m, d, samples=2, seed=9) <= 1e-6


def test_trajectory_distance_is_weighted_norm():
    d = disc_1d(nx=4)
    s = np.zeros(d.n_s)
    v = np.zeros(d.n_v)
    s2 = s.copy()
    s2[2] = 1.0
    assert_allclose(trajectory_distance(d, s, v, s2, v),
                    np.sqrt(d.sweights[2]))


def test_explicit_matches_oracle_closely_elastic():
    # one coarse sanity run: explicit trajectory stays near the oracle
    d = disc_1d(nx=8, h=0.125, c=2.0)
    m = ElasticMaterial()
    st = initial_state(d, m, sigma=standing_bump(d))
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    tau = 0.5 * tau_max
    n = 40
    cfg = IntegratorConfig(tau=tau, t_end=n * tau)
    final = run_simulation(d, m, no_loading(d), cfg, st.copy())
    from stagdyn.oracle import ImplicitReference

    ref = ImplicitReference(d, m, no_loading(d), tau / 8)
    sig_ref, v_ref, _ = ref.run(st, n * 8)
    err = trajectory_distance(d, explicit_sigma_closure(final, d, tau),
                              final.v, sig_ref, v_ref)
    scale = trajectory_distance(d, st.sigma, st.v, 0 * st.sigma, 0 * st.v)
    assert err <= 0.05 * scale


def test_brute_force_prox_unbounded_errors():
    with pytest.raises(StagdynError):
        brute_force_prox(lambda x: -x, 0.0, 1.0, max_widen=4)
