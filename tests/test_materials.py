"""Material-model tests: derivatives, internal steps vs scan oracles,
dissipation formulas, structural invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn.errors import ConfigError
from stagdyn.grid import Grid, build
from stagdyn.materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)
from stagdyn import materials
from stagdyn.oracle import (brute_force_prox, dense_operator, gradient_check,
                            scan_internal_objective)
from stagdyn.solvers import solve_linear_spd


def disc_1d(nx=4, h=1.0, c=1.0, rho=1.0, bc=("dirichlet", "dirichlet")):
    return build(Grid(dim=1, nx=nx, h=h, bc=bc), rho, {"modulus": c})


def disc_2d(nx=3, ny=3, h=0.5, K=1.0, G=0.6, rho=1.0, bc=("dirichlet",) * 4):
    return build(Grid(dim=2, nx=nx, ny=ny, h=h, bc=bc), rho,
                 {"bulk_modulus": K, "shear_modulus": G})


def all_materials_1d():
    d = disc_1d()
    return d, [
        ElasticMaterial(),
        PlasticCreepMaterial(viscosity=0.8, sigma_y=0.0, hardening=0.5),
        PlasticCreepMaterial(viscosity=0.8, sigma_y=0.4, hardening=0.0),
        BiotMaterial(biot_modulus=0.7, biot_coefficient=0.5,
                     l_coefficient=0.2, zeta_eq=0.3, capillarity=0.1),
        DamageMaterial(eps0=0.2, eps=0.1, g_c=1.0, viscosity=0.5,
                       mode="unidirectional", strain_gradient=0.05),
        DamageMaterial(eps0=0.2, eps=0.1, g_c=1.0, viscosity=0.5,
                       mode="healing"),
    ]


def all_materials_2d():
    d = disc_2d()
    return d, [
        ElasticMaterial(),
        PlasticCreepMaterial(viscosity=0.8, sigma_y=0.0, hardening=(0.3, 0.2)),
        PlasticCreepMaterial(viscosity=0.8, sigma_y=0.4),
        BiotMaterial(biot_modulus=0.7, biot_coefficient=0.5,
                     l_coefficient=0.2, zeta_eq=0.3, capillarity=0.1),
        DamageMaterial(eps0=0.2, eps=0.1, g_c=1.0, viscosity=0.5,
                       mode="unidirectional", strain_gradient=0.02),
        DamageMaterial(eps0=0.2, eps=0.1, g_c=1.0, viscosity=0.5,
                       mode="healing"),
    ]


# ---------------------------------------------------------------------------
# derivative consistency and the quadratic ansatz
# ---------------------------------------------------------------------------

def test_gradient_consistency_1d():
    d, mats = all_materials_1d()
    for m in mats:
        assert gradient_check(m, d, samples=3, seed=42) <= 1e-6, m.name


def test_gradient_consistency_2d():
    d, mats = all_materials_2d()
    for m in mats:
        assert gradient_check(m, d, samples=3, seed=43) <= 1e-6, m.name


@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_ansatz(dim):
    # second differences of phi in Sigma (z fixed) and z (Sigma fixed)
    # must be independent of the base point
    d, mats = all_materials_1d() if dim == 1 else all_materials_2d()
    rng = np.random.default_rng(5)
    for m in mats:
        ds = rng.standard_normal(d.n_s)
        ds[~d.s_active] = 0.0
        zdir = rng.standard_normal(m.z_size(d))
        z_fix = m.z_init(d) + 0.2 * rng.standard_normal(m.z_size(d))
        s_fix = rng.standard_normal(d.n_s)
        s_fix[~d.s_active] = 0.0
        second = []
        second_z = []
        for _ in range(4):
            s0 = rng.standard_normal(d.n_s)
            s0[~d.s_active] = 0.0
            z0 = m.z_init(d) + 0.2 * rng.standard_normal(m.z_size(d))
            second.append(m.phi(d, s0 + 2 * ds, z_fix)
                          - 2 * m.phi(d, s0 + ds, z_fix)
                          + m.phi(d, s0, z_fix))
            if m.z_size(d):
                second_z.append(m.phi(d, s_fix, z0 + 2 * zdir)
                                - 2 * m.phi(d, s_fix, z0 + zdir)
                                + m.phi(d, s_fix, z0))
        scale = max(1.0, abs(second[0]))
        assert np.ptp(second) <= 1e-9 * scale, m.name
        if second_z:
            scale_z = max(1.0, abs(second_z[0]))
            assert np.ptp(second_z) <= 1e-9 * scale_z, m.name


def test_true_stress_is_C_of_dphi():
    d, mats = all_materials_1d()
    rng = np.random.default_rng(6)
    s = rng.standard_normal(d.n_s)
    for m in mats:
        z = m.z_init(d) + 0.1 * rng.standard_normal(m.z_size(d))
        assert_allclose(m.true_stress(d, s, z),
                        d.apply_C(m.dphi_dsigma(d, s, z)),
                        atol=1e-13)


# ---------------------------------------------------------------------------
# elastic
# ---------------------------------------------------------------------------

def test_elastic_true_stress_equals_proto_stress():
    for d in (disc_1d(c=2.5), disc_2d()):
        m = ElasticMaterial()
        rng = np.random.default_rng(7)
        s = rng.standard_normal(d.n_s)
        assert_allclose(m.true_stress(d, s, np.zeros(0)), s, atol=1e-13)


# ---------------------------------------------------------------------------
# plasticity / creep
# ---------------------------------------------------------------------------

def test_plastic_dphi_dsigma_point_values():
    # compliance 1/C * sigma - pi: with C=2, sigma=4, pi=1 the elastic
    # strain is 1 and the true stress sigma - C*pi = 2
    d = disc_1d(nx=2, c=2.0)
    m = PlasticCreepMaterial(viscosity=1.0)
    s = np.full(d.n_s, 4.0)
    p = np.full(d.n_s, 1.0)
    assert_allclose(m.dphi_dsigma(d, s, p), 1.0)
    assert_allclose(m.true_stress(d, s, p), 2.0)


def test_maxwell_midpoint_hand_value():
    # D*(p'-p)/tau + C*(p'+p)/2 = sigma with C=D=1, tau=0.5, sigma=1,
    # p=0  ->  p' = 0.4
    d = disc_1d(nx=2, c=1.0)
    m = PlasticCreepMaterial(viscosity=1.0, sigma_y=0.0)
    z, _ = m.internal_step(d, np.ones(d.n_s), np.zeros(d.n_s), tau=0.5)
    assert_allclose(z, 0.4, atol=1e-14)


def test_below_yield_no_flow():
    # trial force 0.3 < sigma_y = 0.5: elastic step
    d = disc_1d(nx=2, c=1.0)
    m = PlasticCreepMaterial(viscosity=1.0, sigma_y=0.5)
    z, _ = m.internal_step(d, np.full(d.n_s, 0.3), np.zeros(d.n_s), tau=0.1)
    assert_allclose(z, 0.0)


@pytest.mark.parametrize("hardening", [-0.1, (0.1, -0.1)],
                         ids=["scalar", "pair"])
def test_negative_hardening_rejected_at_construction(hardening):
    with pytest.raises(ConfigError):
        PlasticCreepMaterial(viscosity=1.0, hardening=hardening)


def test_zener_relaxes_to_stationary_point():
    # C1 = C2 = 1, constant sigma = 1: stationarity -sigma + (C1+C2) pi = 0
    # gives pi = 0.5, approached geometrically
    d = disc_1d(nx=2, c=1.0)
    m = PlasticCreepMaterial(viscosity=1.0, sigma_y=0.0, hardening=1.0)
    sigma = np.ones(d.n_s)
    z = np.zeros(d.n_s)
    gaps = []
    for _ in range(70):
        z, _ = m.internal_step(d, sigma, z, tau=0.2)
        gaps.append(abs(z[0] - 0.5))
    assert gaps[-1] < 1e-12
    ratios = [b / a for a, b in zip(gaps[:30], gaps[1:31])]
    assert np.ptp(ratios) < 1e-9  # geometric decay


def test_plastic_step_matches_scan_1d():
    d = disc_1d(nx=2, c=1.3)
    rng = np.random.default_rng(8)
    for sy in (0.0, 0.35):
        m = PlasticCreepMaterial(viscosity=0.7, sigma_y=sy, hardening=0.4)
        for _ in range(25):
            sigma = rng.standard_normal(d.n_s) * 2.0
            zk = rng.standard_normal(d.n_s) * 0.5
            tau = rng.uniform(0.05, 0.5)
            z, _ = m.internal_step(d, sigma, zk, tau)
            idx = 1
            ref = scan_internal_objective(m, d, sigma, zk, tau, idx)
            assert abs(z[idx] - ref) < 1e-6


def test_plastic_vi_optimality():
    # variational inequality against random test directions
    d = disc_1d(nx=3, c=1.0)
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.3)
    rng = np.random.default_rng(9)
    sigma = rng.standard_normal(d.n_s)
    zk = 0.3 * rng.standard_normal(d.n_s)
    tau = 0.2
    z, _ = m.internal_step(d, sigma, zk, tau)
    zdot = (z - zk) / tau
    force = m.dphi_dz(d, sigma, 0.5 * (z + zk))
    psi_rate = m.psi(d, zdot)
    for _ in range(1000):
        ztil = rng.standard_normal(d.n_s) * 2.0
        lhs = m.psi(d, ztil) + d.sdot(force, ztil - zdot)
        assert lhs >= psi_rate - 1e-9 * max(1.0, abs(psi_rate))


def test_plastic_2d_trace_preserved():
    d = disc_2d()
    m = PlasticCreepMaterial(viscosity=0.6, sigma_y=0.25)
    rng = np.random.default_rng(10)
    z = d.zeros_s()
    # trace-free start
    pd = rng.standard_normal(d.shape_c)
    d.sxx_view(z)[:] = pd
    d.syy_view(z)[:] = -pd
    d.sxy_view(z)[:] = rng.standard_normal(d.shape_vert)
    for _ in range(20):
        sigma = rng.standard_normal(d.n_s) * 1.5
        z, _ = m.internal_step(d, sigma, z, tau=0.1)
        tr = d.sxx_view(z) + d.syy_view(z)
        assert np.max(np.abs(tr)) < 1e-13


def test_plastic_2d_step_matches_scan():
    d = disc_2d(nx=2, ny=2)
    rng = np.random.default_rng(11)
    for sy in (0.0, 0.3):
        m = PlasticCreepMaterial(viscosity=0.9, sigma_y=sy,
                                 hardening=(0.2, 0.1))
        for _ in range(8):
            sigma = rng.standard_normal(d.n_s)
            zk = 0.2 * rng.standard_normal(d.n_s)
            if sy > 0:
                # feasible start: trace-free normal block
                pd = d.sxx_view(zk).copy()
                d.sxx_view(zk)[:] = pd
                d.syy_view(zk)[:] = -pd
            tau = rng.uniform(0.05, 0.4)
            z, _ = m.internal_step(d, sigma, zk, tau)
            # scan the shear component at one vertex (pointwise problem)
            idx = d.n_s - 3
            ref = scan_internal_objective(m, d, sigma, zk, tau, idx)
            assert abs(z[idx] - ref) < 1e-6


def test_plastic_2d_normal_block_matches_scan():
    # with a yield stress the normal block flows along the trace-free
    # direction (+t, -t) only: scan the increment objective along it at
    # one center, every other component held at z_k
    d = disc_2d(nx=2, ny=2)
    rng = np.random.default_rng(12)
    m = PlasticCreepMaterial(viscosity=0.9, sigma_y=0.3, hardening=(0.2, 0.1))
    ixx, iyy = d._xx_sl.start + 1, d._yy_sl.start + 1
    flowed = 0
    for _ in range(8):
        sigma = rng.standard_normal(d.n_s)
        zk = 0.2 * rng.standard_normal(d.n_s)
        tau = rng.uniform(0.05, 0.4)
        z, _ = m.internal_step(d, sigma, zk, tau)

        def objective(t):
            trial = zk.copy()
            trial[ixx] += t
            trial[iyy] -= t
            return m.incremental_objective(d, sigma, zk, tau, trial)

        t = brute_force_prox(objective, -2.0, 2.0)
        assert abs((z[ixx] - zk[ixx]) - t) < 1e-6
        assert abs((z[iyy] - zk[iyy]) + t) < 1e-6
        flowed += abs(t) > 1e-3
    # the samples meet both branches of the return map
    assert 0 < flowed < 8


def test_plastic_2d_trace_rate_never_lowers_the_objective():
    # with a yield stress plastic flow is trace-free, so psi is +inf on a
    # trace rate and the step is the minimizer of the increment objective:
    # moving the step's z along (+t, +t) at one center never lowers it
    d = disc_2d(nx=2, ny=2)
    rng = np.random.default_rng(12)
    m = PlasticCreepMaterial(viscosity=0.9, sigma_y=0.3, hardening=(0.2, 0.1))
    ixx, iyy = d._xx_sl.start + 1, d._yy_sl.start + 1
    for _ in range(8):
        sigma = rng.standard_normal(d.n_s)
        zk = 0.2 * rng.standard_normal(d.n_s)
        tau = rng.uniform(0.05, 0.4)
        z, _ = m.internal_step(d, sigma, zk, tau)
        j_step = m.incremental_objective(d, sigma, zk, tau, z)
        assert np.isfinite(j_step)
        for t in np.linspace(-1.0, 1.0, 201):
            trial = z.copy()
            trial[ixx] += t
            trial[iyy] += t
            j = m.incremental_objective(d, sigma, zk, tau, trial)
            assert j >= j_step - 1e-12 * max(1.0, abs(j_step)), t


def test_dissipation_rate_plasticity():
    # sigma_y=0.5, D=1, scalar rate 2 -> 0.5*2 + 1*4 = 5 per unit volume
    d = disc_1d(nx=2, h=1.0)
    m = PlasticCreepMaterial(viscosity=1.0, sigma_y=0.5)
    zdot = np.full(d.n_s, 2.0)
    total_volume = float(np.sum(d.sweights))
    assert_allclose(m.dissipation_rate(d, zdot), 5.0 * total_volume)
    assert m.dissipation_rate(d, np.zeros(d.n_s)) == 0.0
    # quadratic part alone quadruples under doubling
    m0 = PlasticCreepMaterial(viscosity=1.0, sigma_y=0.0)
    assert_allclose(m0.dissipation_rate(d, 2 * zdot),
                    4.0 * m0.dissipation_rate(d, zdot))


# ---------------------------------------------------------------------------
# Biot
# ---------------------------------------------------------------------------

def biot_1d(**kw):
    defaults = dict(biot_modulus=0.7, biot_coefficient=0.5, l_coefficient=0.2,
                    zeta_eq=0.3, capillarity=0.1, mobility=0.8)
    defaults.update(kw)
    return BiotMaterial(**defaults)


def test_biot_decoupled_limit_mu():
    # beta=0, kappa=0, L=0: mu = M * zeta
    d = disc_1d(nx=3)
    m = biot_1d(biot_coefficient=0.0, capillarity=0.0, l_coefficient=0.0,
                zeta_eq=0.0)
    z = np.linspace(-1, 1, d.zs_n)
    assert_allclose(m.dphi_dz(d, d.zeros_s(), z), m.M * z, atol=1e-14)


def test_biot_content_conserved():
    d = disc_1d(nx=6, h=0.25)
    m = biot_1d()
    rng = np.random.default_rng(12)
    z = m.z_init(d) + 0.2 * rng.standard_normal(d.zs_n)
    total0 = d.zdot(z, np.ones_like(z))
    for _ in range(20):
        sigma = rng.standard_normal(d.n_s)
        z, _ = m.internal_step(d, sigma, z, tau=0.05)
    total = d.zdot(z, np.ones_like(z))
    assert abs(total - total0) <= 1e-10 * max(1.0, abs(total0))


def test_biot_uniform_equilibrium_fixed_point():
    # uniform zeta = zeta_eq with beta=0: mu constant, no flux
    d = disc_1d(nx=5)
    m = biot_1d(biot_coefficient=0.0)
    z0 = m.z_init(d)
    z, _ = m.internal_step(d, d.zeros_s(), z0, tau=0.3)
    assert_allclose(z, z0, atol=1e-13)


def dense_biot_increment(d, m, sigma, zk, tau):
    """The implicit system ``(I/tau - 1/2 m L B) delta = m L mu_k`` solved
    densely, with the laplacian from div_z(grad_z): the 1D lap_z applies
    its bands."""
    n = d.zs_n
    lap = dense_operator(lambda f: d.div_z(d.grad_z(f)), n)
    LM = m.mobility * lap
    B = (m.M + m.L) * np.eye(n) - m.kappa * lap
    A = np.eye(n) / tau - 0.5 * LM @ B
    return np.linalg.solve(A, LM @ m.dphi_dz(d, sigma, zk))


def biot_random_state(d, m, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(d.n_s),
            m.z_init(d) + 0.3 * rng.standard_normal(d.zs_n))


def test_biot_step_matches_dense_solve():
    # 1D, 4 cells: the implicit system solved densely
    d = disc_1d(nx=4, h=0.3)
    m = biot_1d()
    sigma, zk = biot_random_state(d, m, 13)
    tau = 0.07
    z, _ = m.internal_step(d, sigma, zk, tau)
    delta_ref = dense_biot_increment(d, m, sigma, zk, tau)
    assert np.max(np.abs((z - zk) - delta_ref)) < 1e-10


def biot_disc(*shape):
    """A unit-length grid with mixed boundary kinds, which the scalar
    layout's laplacian, no-flux on every side, must not feel."""
    if len(shape) == 1:
        return disc_1d(nx=shape[0], h=1.0 / shape[0],
                       bc=("dirichlet", "neumann"))
    return disc_2d(nx=shape[0], ny=shape[1], h=1.0 / shape[0],
                   bc=("dirichlet", "neumann", "traction", "neumann"))


def captured_biot_operator(monkeypatch, d, m, tau):
    """The operator and inner product ``internal_step`` hands its solver."""
    seen = {}

    def capture(apply_A, b, dot, tol, info=None):
        seen.update(apply_A=apply_A, dot=dot)
        return solve_linear_spd(apply_A, b, dot, tol, info=info)

    monkeypatch.setattr(materials, "solve_linear_spd", capture)
    m.internal_step(d, *biot_random_state(d, m, 0), tau)
    return seen["apply_A"], seen["dot"]


@pytest.mark.parametrize("shape", [(200,), (12, 9)],
                         ids=["1d_nx200", "2d_12x9"])
def test_biot_increment_operator_is_spd_in_zdot(monkeypatch, shape):
    # CG runs in disc.zdot, so the increment operator must be self-adjoint
    # there; it is I/tau plus a semidefinite part, so its Rayleigh quotient
    # is >= 1/tau, with equality on constants (no flux)
    d, m, tau = biot_disc(*shape), biot_1d(), 0.01
    apply_A, dot = captured_biot_operator(monkeypatch, d, m, tau)
    assert dot == d.zdot
    A = dense_operator(apply_A, d.zs_n)
    WA = d.zs_weights[:, None] * A  # (WA)_ij = <A e_j, e_i>_w
    assert np.max(np.abs(WA - WA.T)) <= 1e-15 * np.max(np.abs(WA))
    r = np.sqrt(d.zs_weights)
    quotients = np.linalg.eigvalsh(r[:, None] * A / r[None, :])
    assert abs(quotients[0] - 1.0 / tau) <= 1e-14 * quotients[-1]
    assert quotients[0] >= 1.0 / tau - 1e-15 * quotients[-1]


@pytest.mark.parametrize("shape, bound", [((200,), 1e-6), ((32, 32), 2e-7)],
                         ids=["1d_nx200", "2d_32x32"])
def test_biot_increment_matches_dense_solve_worst_case(shape, bound):
    # the operator's condition number (1e7 in 1D, 3e4 in 2D) lets the CG
    # increment sit well off the exact one at a 1e-10 residual: 20 random
    # states gave at most 1.5e-7 in 1D and 4.6e-8 in 2D
    d, m, tau = biot_disc(*shape), biot_1d(), 0.01
    for seed in range(5):
        sigma, zk = biot_random_state(d, m, seed)
        z, _ = m.internal_step(d, sigma, zk, tau)
        ref = dense_biot_increment(d, m, sigma, zk, tau)
        assert np.max(np.abs((z - zk) - ref)) <= bound * np.max(np.abs(ref))


def test_biot_scan_via_transfer_variable():
    # mass-conserving updates on a 3-node line are parametrized by the two
    # edge transfers; nested golden-section scans give an independent
    # minimizer of the incremental objective (Psi = R*)
    d = disc_1d(nx=2, h=1.0)
    m = biot_1d(capillarity=0.0)
    rng = np.random.default_rng(14)
    wz = d.zs_weights
    for _ in range(5):
        sigma = rng.standard_normal(d.n_s)
        zk = m.z_init(d) + 0.3 * rng.standard_normal(d.zs_n)
        tau = rng.uniform(0.05, 0.3)
        z, _ = m.internal_step(d, sigma, zk, tau)

        def with_transfer(s0, s1):
            dz = np.array([-s0 / wz[0], (s0 - s1) / wz[1], s1 / wz[2]])
            return zk + dz

        def objective(s0, s1):
            return m.incremental_objective(d, sigma, zk, tau,
                                           with_transfer(s0, s1))

        def partial_min(s0):
            return objective(s0, brute_force_prox(
                lambda x: objective(s0, x), -2.0, 2.0, grid_points=41,
                tol=1e-10))

        s0 = brute_force_prox(partial_min, -2.0, 2.0, grid_points=41,
                              tol=1e-9)
        s1 = brute_force_prox(lambda x: objective(s0, x), -2.0, 2.0,
                              grid_points=41, tol=1e-10)
        z_ref = with_transfer(s0, s1)
        assert np.max(np.abs(z - z_ref)) < 1e-6


def test_biot_dissipation_matches_potential():
    # Xi(zdot) = 2 Psi(zdot) = <M grad mu, grad mu>
    d = disc_1d(nx=5, h=0.4)
    m = biot_1d()
    rng = np.random.default_rng(15)
    zdot = rng.standard_normal(d.zs_n)
    zdot -= d.zdot(zdot, np.ones_like(zdot)) / float(np.sum(d.zs_weights))
    xi = m.dissipation_rate(d, zdot)
    assert xi >= 0.0
    assert_allclose(m.psi(d, zdot), 0.5 * xi, atol=1e-12)
    # quadratic homogeneity
    assert_allclose(m.dissipation_rate(d, 2.0 * zdot), 4.0 * xi, rtol=1e-8)


# ---------------------------------------------------------------------------
# damage
# ---------------------------------------------------------------------------

def damage_1d(**kw):
    defaults = dict(eps0=0.2, eps=0.1, g_c=1.0, viscosity=0.5,
                    mode="unidirectional", strain_gradient=0.0)
    defaults.update(kw)
    return DamageMaterial(**defaults)


def test_damage_undamaged_limit_true_stress():
    # alpha = 1 with eps = eps0 gives gamma(1) = 2 (floor 1 + 1); choose the
    # documented undamaged normalization instead: gamma(alpha)=1 happens at
    # alpha^2 = 1 - (eps/eps0)^2; for eps << eps0 and alpha=1, S ~ sigma.
    d = disc_1d(nx=3)
    m = damage_1d(eps0=100.0, eps=0.1)
    s = np.linspace(-1, 1, d.n_s)
    assert_allclose(m.true_stress(d, s, np.ones(d.zs_n)), s, rtol=1e-4)


def test_damage_sigma_zero_constraint_binds():
    # zero stress, phi_d' <= 0: driving force favors healing, the
    # unidirectional constraint binds and alpha stays put
    d = disc_1d(nx=3)
    m = damage_1d()
    alpha = np.full(d.zs_n, 0.7)
    z, _ = m.internal_step(d, d.zeros_s(), alpha, tau=0.1)
    assert_allclose(z, alpha, atol=1e-12)


def test_damage_pointwise_scan_kappa_zero():
    # kappa ~ 0 decouples the points: the implicit step against a
    # golden-section scan of the incremental objective, both modes
    d = disc_1d(nx=2)
    rng = np.random.default_rng(17)
    for mode in ("unidirectional", "healing"):
        m = DamageMaterial(eps0=0.2, eps=1e-8, g_c=1.0, viscosity=0.5,
                           mode=mode)
        assert m.kappa <= 1e-8
        for _ in range(25):
            sigma = rng.standard_normal(d.n_s) * 1.2
            alpha = rng.uniform(0.2, 1.0, d.zs_n)
            tau = rng.uniform(0.05, 0.3)
            z, _ = m.internal_step(d, sigma, alpha, tau)
            idx = 1
            if mode == "unidirectional":
                ref = brute_force_prox(
                    lambda x: m.incremental_objective(
                        d, sigma, alpha, tau,
                        np.concatenate([alpha[:idx], [x], alpha[idx + 1:]])),
                    alpha[idx] - 2.0, alpha[idx], tol=1e-10)
                ref = min(ref, alpha[idx])
            else:
                ref = scan_internal_objective(m, d, sigma, alpha, tau, idx,
                                              halfwidth=2.5, tol=1e-10)
                ref = min(ref, max(1.0, alpha[idx]))
            assert abs(z[idx] - ref) < 1e-7, mode


def test_damage_monotone_unidirectional():
    d = disc_1d(nx=6, h=0.2)
    m = damage_1d()
    rng = np.random.default_rng(18)
    alpha = np.ones(d.zs_n)
    for _ in range(15):
        sigma = rng.standard_normal(d.n_s)
        z, _ = m.internal_step(d, sigma, alpha, tau=0.1)
        assert np.all(z <= alpha + 1e-12)
        alpha = z


def test_damage_positivity():
    # moderate stress levels: alpha stays nonnegative from alpha0 = 1
    d = disc_1d(nx=6, h=0.2)
    m = damage_1d()
    alpha = np.ones(d.zs_n)
    rng = np.random.default_rng(19)
    for _ in range(200):
        sigma = rng.standard_normal(d.n_s) * 0.8
        alpha, _ = m.internal_step(d, sigma, alpha, tau=0.05)
    assert np.all(alpha >= -1e-12)


def test_damage_healing_mode_recovers():
    d = disc_1d(nx=3)
    m = damage_1d(mode="healing")
    alpha = np.full(d.zs_n, 0.4)
    z, _ = m.internal_step(d, d.zeros_s(), alpha, tau=0.5)
    assert np.all(z > alpha)  # healing allowed with zero stress


@pytest.mark.parametrize("bc", [("dirichlet", "neumann"),
                                ("neumann", "neumann")])
def test_damage_healing_step_stays_at_most_one(bc):
    # at zero stress the midpoint step overshoots: from z_k = 0.2 with
    # tau = 1 > 2 eps / (g_c eps1) it ended at 1.073 without the bound
    # z' <= max(1, z_k), which now holds every point at 1
    d = disc_1d(nx=64, h=1.0 / 64, bc=bc)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       mode="healing")
    sigma, z_k = d.zeros_s(), np.full(d.zs_n, 0.2)
    z, _ = m.internal_step(d, sigma, z_k, 1.0)
    assert np.all(z == 1.0)
    assert_allclose(z, dense_qp_step(m, d, sigma, z_k, 1.0, z), rtol=0.0,
                    atol=1e-12)


def test_damage_vi_optimality_unidirectional():
    d = disc_1d(nx=4, h=0.3)
    m = damage_1d()
    rng = np.random.default_rng(21)
    sigma = rng.standard_normal(d.n_s)
    alpha = rng.uniform(0.4, 1.0, d.zs_n)
    tau = 0.1
    z, _ = m.internal_step(d, sigma, alpha, tau)
    zdot = (z - alpha) / tau
    force = m.dphi_dz(d, sigma, 0.5 * (z + alpha))
    wz = d.zs_weights
    psi_rate = m.psi(d, zdot)
    for _ in range(1000):
        ztil = -np.abs(rng.standard_normal(d.zs_n))  # feasible rates
        lhs = m.psi(d, ztil) + float(np.sum(wz * force * (ztil - zdot)))
        assert lhs >= psi_rate - 1e-9 * max(1.0, abs(psi_rate))


def test_damage_dissipation_rate():
    d = disc_1d(nx=2, h=1.0)
    m = damage_1d()
    zdot = np.full(d.zs_n, -0.5)
    # 2*eps1*zdot^2 integrated
    vol = float(np.sum(d.zs_weights))
    assert_allclose(m.dissipation_rate(d, zdot), 2 * 0.5 * 0.25 * vol)
    mh = damage_1d(mode="healing")
    zdot_pos = np.full(d.zs_n, 0.5)
    assert_allclose(mh.dissipation_rate(d, zdot_pos), (2 / 0.5) * 0.25 * vol)


def test_damage_2d_shear_coupling_consistency():
    # undamaged field: phi reduces to the elastic energy
    d = disc_2d()
    m = DamageMaterial(eps0=100.0, eps=0.1, g_c=1.0, viscosity=0.5)
    rng = np.random.default_rng(22)
    s = rng.standard_normal(d.n_s)
    s[~d.s_active] = 0.0
    alpha_one = np.ones(d.zs_n)
    elastic = 0.5 * d.sdot(d.apply_C_inv(s), s)
    gamma_one = m.gamma(1.0)
    phi_el_part = m.phi(d, s, alpha_one) - d.zdot(m.phi_d(alpha_one),
                                                  np.ones(d.zs_n))
    assert_allclose(phi_el_part, gamma_one * elastic, rtol=1e-12)


def pointwise_damage_phi(m, d, sigma, z):
    """Phi of damage summed location by location: centers (1D: nodes)
    with their own gamma, 2D shear vertices with the averaged gamma."""
    e = d.apply_C_inv(sigma)
    gam = m.gamma(z)
    if d.dim == 1:
        elastic = d.zdot(gam * e * sigma, np.ones_like(z))
    else:
        qc = (d.sxx_view(e) * d.sxx_view(sigma)
              + d.syy_view(e) * d.syy_view(sigma))
        qv = d.sxy_view(e) * d.sxy_view(sigma)
        elastic = (d.zdot(gam * qc.ravel(), np.ones_like(z))
                   + float((d.sxy_view(d.sweights) * qv
                            * d.avg_centers_to_vertices(gam)).sum()))
    return (0.5 * elastic + d.zdot(m.phi_d(z), np.ones_like(z))
            + 0.5 * m.kappa * d.grad_z_norm2(z)
            - 0.5 * m.eps_grad * d.sdot(d.laplacian_stress(e), sigma))


@pytest.mark.parametrize("strain_gradient", [0.0, 0.05])
@pytest.mark.parametrize("dim", [1, 2])
def test_damage_phi_equals_its_pointwise_sum(dim, strain_gradient):
    # phi is 1/2 <dPhi_s, sigma>_w + the z terms; summed in another order,
    # it agrees with the pointwise sum to a few ulp
    rng = np.random.default_rng(23)
    m = damage_1d(strain_gradient=strain_gradient)
    for bc in (("dirichlet",) * 4, ("neumann", "dirichlet") * 2):
        d = (disc_1d(nx=40, h=0.025, bc=bc[:2]) if dim == 1
             else disc_2d(nx=9, ny=7, h=0.1, bc=bc))
        for _ in range(20):
            sigma = 3.0 * rng.standard_normal(d.n_s)
            sigma[~d.s_active] = 0.0
            z = rng.uniform(0.0, 1.2, d.zs_n)
            ref = pointwise_damage_phi(m, d, sigma, z)
            assert abs(m.phi(d, sigma, z) - ref) <= 1e-15 * abs(ref)


def test_internal_step_objective_optimality():
    # every internal step's output beats both the previous iterate and the
    # feasibility-projected unconstrained stationary point
    d = disc_1d(nx=4, h=0.3)
    rng = np.random.default_rng(30)
    mats = [
        PlasticCreepMaterial(viscosity=0.6, sigma_y=0.25, hardening=0.2),
        biot_1d(),
        damage_1d(),
        damage_1d(mode="healing"),
    ]
    for m in mats:
        for _ in range(5):
            sigma = rng.standard_normal(d.n_s)
            zk = m.z_init(d) + 0.2 * rng.standard_normal(m.z_size(d))
            if m.name == "damage":
                zk = np.clip(zk, 0.2, 1.0)
            tau = float(rng.uniform(0.05, 0.3))
            z, _ = m.internal_step(d, sigma, zk, tau)
            j_star = m.incremental_objective(d, sigma, zk, tau, z)
            j_prev = m.incremental_objective(d, sigma, zk, tau, zk)
            tol = 1e-9 * max(1.0, abs(j_prev))
            assert j_star <= j_prev + tol, m.name
            if m.name == "damage" and m.mode == "unidirectional":
                # projected unconstrained stationary point
                from stagdyn.solvers import solve_linear_spd
                chat = m.compliance_density(d, sigma)
                delta = solve_linear_spd(
                    irreversible_operator(m, d, chat, tau),
                    -m.dphi_dz(d, sigma, zk), d.zdot, 1e-12)
                z_uncon = zk + np.minimum(delta, 0.0)
                j_proj = m.incremental_objective(d, sigma, zk, tau, z_uncon)
                assert j_star <= j_proj + tol


def test_damage_at_coefficient_structure():
    m = damage_1d(eps0=0.25, eps=0.1, g_c=2.0)
    assert m.gamma(0.0) == (0.1 / 0.25) ** 2 > 0
    assert m.dgamma(0.0) == 0.0
    assert m.dphi_d(0.0) == -2 * 2.0 / 0.1
    assert m.dphi_d(0.0) <= 0.0
    assert m.kappa == 0.1 * 2.0


def test_internal_step_stationary_point():
    # zero driving force and 0 in the subdifferential at zero rate:
    # the internal variable does not move
    d = disc_1d(nx=3, c=1.0)
    m = PlasticCreepMaterial(viscosity=0.8, sigma_y=0.2, hardening=0.5)
    zk = np.linspace(-0.4, 0.4, d.n_s)
    sigma = d.apply_C(zk, d.c_mod + 0.5)  # dphi_dz(sigma, zk) = 0
    z, _ = m.internal_step(d, sigma, zk, tau=0.1)
    assert_allclose(z, zk, atol=1e-15)


def test_plastic_2d_center_return_matches_constrained_scan():
    # with sigma_y > 0 the per-center feasible set is the trace-free line
    # pi_xx = -pi_yy (+ const); scanning along it is the exact pointwise
    # incremental problem and pins the Mandel normalization of the return
    d = disc_2d(nx=2, ny=2)
    rng = np.random.default_rng(51)
    m = PlasticCreepMaterial(viscosity=0.9, sigma_y=0.3, hardening=(0.2, 0.1))
    for _ in range(15):
        sigma = rng.standard_normal(d.n_s) * 1.5
        zk = d.zeros_s()
        pd = 0.4 * rng.standard_normal(d.shape_c)
        d.sxx_view(zk)[:] = pd
        d.syy_view(zk)[:] = -pd
        d.sxy_view(zk)[:] = 0.3 * rng.standard_normal(d.shape_vert)
        tau = float(rng.uniform(0.05, 0.4))
        z, _ = m.internal_step(d, sigma, zk, tau)
        # scan the (0,0) center along the trace-free line
        i_xx, i_yy = 0, d.shape_c[0] * d.shape_c[1]

        def obj(x):
            zz = zk.copy()
            zz[i_xx] = x
            zz[i_yy] = zk[i_yy] - (x - zk[i_xx])
            return m.incremental_objective(d, sigma, zk, tau, zz)

        from stagdyn.oracle import brute_force_prox

        ref = brute_force_prox(obj, zk[i_xx] - 2.0, zk[i_xx] + 2.0,
                               grid_points=401)
        assert abs(z[i_xx] - ref) < 1e-6


def test_plastic_2d_creep_step_stationarity():
    # sigma_y = 0: the midpoint flow equation holds exactly componentwise
    d = disc_2d(nx=3, ny=2)
    m = PlasticCreepMaterial(viscosity=0.7, sigma_y=0.0, hardening=(0.3, 0.2))
    rng = np.random.default_rng(52)
    sigma = rng.standard_normal(d.n_s)
    zk = 0.3 * rng.standard_normal(d.n_s)
    tau = 0.17
    z, _ = m.internal_step(d, sigma, zk, tau)
    resid = (m.viscosity * (z - zk) / tau
             + d.apply_C(0.5 * (z + zk), (d.k_mod + 0.3, d.g_mod + 0.2))
             - sigma)
    assert np.max(np.abs(resid)) < 1e-13


@pytest.mark.parametrize("hardening", [0.0, 0.4], ids=["maxwell", "zener"])
@pytest.mark.parametrize("dim", [1, 2])
def test_creep_return_map_matches_the_midpoint_closed_form(dim, hardening):
    # sigma_y = 0 runs through the same radial return as plasticity; the
    # closed-form midpoint solves it replaced are its oracle here
    rng = np.random.default_rng(53)
    tau, visc = 0.17, 0.7
    d = disc_1d(nx=5, c=1.3) if dim == 1 else disc_2d(nx=3, ny=2)
    hard = hardening if dim == 1 else (hardening, 0.5 * hardening)
    m = PlasticCreepMaterial(viscosity=visc, sigma_y=0.0, hardening=hard)
    zk = 0.3 * rng.standard_normal(d.n_s)
    sigma = rng.standard_normal(d.n_s)
    # no driving force at one point (a shear in 2D): the return takes 0/0
    i0 = 0 if dim == 1 else d._xy_sl.start
    cbar = d.c_mod + hard if dim == 1 else (d.k_mod + hard[0],
                                            d.g_mod + hard[1])
    sigma[i0] = d.apply_C(zk, cbar)[i0]
    q = sigma - d.apply_C(zk, cbar)
    assert q[i0] == 0.0
    dvisc = visc / tau
    ref = zk.copy()
    if dim == 1:
        ref += q / (dvisc + 0.5 * cbar)
    else:
        # diagonalize Cbar on (mean, deviator, shear)
        kbar, gbar = cbar
        qxx, qyy = d.sxx_view(q), d.syy_view(q)
        du = 0.5 * (qxx + qyy) / (dvisc + kbar)
        dd = 0.5 * (qxx - qyy) / (dvisc + gbar)
        d.sxx_view(ref)[:] += du + dd
        d.syy_view(ref)[:] += du - dd
        d.sxy_view(ref)[:] += d.sxy_view(q) / (dvisc + gbar)
    z, _ = m.internal_step(d, sigma, zk, tau)
    assert z[i0] == zk[i0]
    assert np.max(np.abs(z - ref)) <= 1e-14 * np.max(np.abs(ref))


def count_cg_calls(monkeypatch):
    """Wrap ``solvers._cg`` and tally its calls."""
    from stagdyn import solvers

    tally = {"calls": 0}
    cg = solvers._cg

    def counted(*args, **kwargs):
        tally["calls"] += 1
        return cg(*args, **kwargs)

    monkeypatch.setattr(solvers, "_cg", counted)
    return tally


def smooth_random(rng, x, amplitude):
    """A random sum of low cosine modes at the points ``x`` in [0, 1]."""
    out = np.zeros(x.shape[0])
    for _ in range(4):
        k = rng.integers(0, 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += rng.standard_normal() * np.cos(np.pi * k * x + phase)
    return amplitude * out


def irreversible_operator(m, d, chat, tau):
    """The irreversible step's operator: the Hessian plus the rate term's
    2 eps1/tau, applied as the sign round applies it."""
    apply_H = m._quad_operator(d, chat)
    return lambda u: apply_H(u) + 2.0 * (m.eps1 / tau) * u


def rate_diagonal(m, z, z_k, tau):
    """2 a+- of the step ``z``: eps1/tau below zero, and above it
    1/(eps1 tau) when healing or eps1/tau when irreversible."""
    a_plus = 1.0 / (m.eps1 * tau) if m.mode == "healing" else m.eps1 / tau
    return 2.0 * np.where(z < z_k, m.eps1 / tau, a_plus)


def plain_damage_step(m, d, sigma, z_k, tau):
    """The irreversible damage step by projected CG (no bands)."""
    from stagdyn.materials import KKT_TOL
    from stagdyn.solvers import solve_bound_constrained

    chat = m.compliance_density(d, sigma)
    delta = solve_bound_constrained(
        irreversible_operator(m, d, chat, tau),
        -m.dphi_dz(d, sigma, z_k), d.zdot, np.zeros_like(z_k), KKT_TOL,
        lower=-z_k)
    return z_k + delta


def dense_qp_step(m, d, sigma, z_k, tau, z):
    """The damage step by a dense KKT solve on the active set of the step
    ``z``: points at a bound stay there, the others solve their rows of
    the dense operator, whose laplacian is div_z(grad_z) (the 1D lap_z
    applies the step's own bands).  Asserts that every multiplier pushes
    out of the box (0 <= z' <= z_k, or 0 <= z' <= max(1, z_k) when
    healing)."""
    from stagdyn.oracle import dense_operator

    stiff = 0.5 * (m.compliance_density(d, sigma) + 2.0 * m.g_c / m.eps)
    A = np.diag(stiff + rate_diagonal(m, z, z_k, tau)) - 0.5 * m.kappa * (
        dense_operator(lambda f: d.div_z(d.grad_z(f)), d.zs_n))
    b = -m.dphi_dz(d, sigma, z_k)
    upper = np.maximum(1.0 - z_k, 0.0) * (m.mode == "healing")
    at_zero, at_top = z == 0.0, z == z_k + upper
    free = ~(at_zero | at_top)
    delta = np.where(at_zero, -z_k, upper)
    delta[free] = np.linalg.solve(A[np.ix_(free, free)], b[free]
                                  - A[np.ix_(free, ~free)] @ delta[~free])
    g = A @ delta - b
    tol = 1e-9 * max(1.0, float(np.max(np.abs(b))))
    assert np.all(g[at_zero] >= -tol) and np.all(g[at_top] <= tol)
    return z_k + delta


@pytest.mark.parametrize("state", ["smooth", "rough"])
def test_damage_step_matches_dense_qp(state, monkeypatch):
    # the 1D step by elimination, on random smooth states where the
    # gradient term dominates (as on the fracture benchmark grid, nx = 256)
    # and under white-noise stress, which breaks the free set into runs of
    # a few points: the dense KKT solve to round-off and the projected-CG
    # step to its tolerance, with no CG call
    d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    x = np.arange(d.n_s) / d.grid.nx
    smooth = state == "smooth"
    rng = np.random.default_rng(41 if smooth else 43)
    tally = count_cg_calls(monkeypatch)
    for _ in range(4 if smooth else 3):
        if smooth:
            sigma = smooth_random(rng, x, 2.0)
            z_k = np.clip(0.8 + smooth_random(rng, x, 0.2), 0.05, 1.0)
            tau = float(rng.uniform(0.5, 1.5)) * d.h
        else:
            sigma = 3.0 * rng.standard_normal(d.n_s)
            z_k = rng.uniform(0.3, 1.0, d.zs_n)
            tau = 0.25 * d.h
        tally["calls"] = 0
        z, _ = m.internal_step(d, sigma, z_k, tau)
        assert tally["calls"] == 0
        assert_allclose(z, dense_qp_step(m, d, sigma, z_k, tau, z),
                        rtol=0.0, atol=1e-12)
        assert_allclose(z, plain_damage_step(m, d, sigma, z_k, tau),
                        rtol=0.0, atol=1e-10)
        assert np.all(z <= z_k)
        assert np.any(z < z_k - 1e-4) and np.any(z == z_k)


@pytest.mark.parametrize("nx", [2, 64, 256])
@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("neumann", "neumann"),
                                ("dirichlet", "neumann"),
                                ("traction", "dirichlet")])
@pytest.mark.parametrize("mode", ["unidirectional", "healing"])
def test_damage_bands_apply_the_quad_operator(mode, bc, nx):
    # in 1D the bands are the step's whole operator: their banded product,
    # with a sign round's shift on the diagonal, equals the matrix-free
    # operator to round-off
    from stagdyn.kernels import band_product

    d = disc_1d(nx=nx, h=1.0 / nx, bc=bc)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       mode=mode)
    rng = np.random.default_rng(47)
    tau = 0.25 / nx
    for _ in range(3):
        chat = m.compliance_density(d, 3.0 * rng.standard_normal(d.n_s))
        sub, diag, sup = m._quad_bands(d, chat)
        shift = rate_diagonal(m, rng.random(d.zs_n), 0.5, tau)  # any signs
        x = rng.standard_normal(d.zs_n)
        ref = m._quad_operator(d, chat)(x) + shift * x
        got = band_product((sub, diag + shift, sup), x)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["unidirectional", "healing"])
def test_1d_damage_step_calls_lap_z_once(mode, monkeypatch):
    # the bands form the gradient of every active-set round, so the one
    # lap_z of a 1D step is the driving force's, in dphi_dz; the step
    # reports its rounds
    from stagdyn.grid import Discretization

    d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       mode=mode)
    rng = np.random.default_rng(44)
    sigma = 3.0 * rng.standard_normal(d.n_s)
    z_k = rng.uniform(0.3, 1.0, d.zs_n)
    calls, in_dphi_dz = [], [False]
    lap_z, dphi_dz = Discretization.lap_z, DamageMaterial.dphi_dz

    def counted_lap_z(self, *args, **kwargs):
        calls.append(in_dphi_dz[0])
        return lap_z(self, *args, **kwargs)

    def flagged_dphi_dz(self, *args, **kwargs):
        in_dphi_dz[0] = True
        try:
            return dphi_dz(self, *args, **kwargs)
        finally:
            in_dphi_dz[0] = False

    monkeypatch.setattr(Discretization, "lap_z", counted_lap_z)
    monkeypatch.setattr(DamageMaterial, "dphi_dz", flagged_dphi_dz)
    _, info = m.internal_step(d, sigma, z_k, 0.004)
    assert calls == [True]
    assert info["rounds"] >= 2
    assert set(info) == {"sign_rounds", "rounds"}
    assert 1 <= info["sign_rounds"] <= info["rounds"]


def sign_iteration_damage_step(m, d, sigma, z_k, tau, z_prev=None):
    """The irreversible damage step by the healing mode's sign iteration,
    with the slope eps1/tau on both sides of zero and the increment
    bounded by 0 above; 1D starts at the last increment where b < 0."""
    from stagdyn.materials import KKT_TOL
    from stagdyn.solvers import solve_asymmetric_quadratic

    chat = m.compliance_density(d, sigma)
    b = -m.dphi_dz(d, sigma, z_k, chat=chat)
    bands = m._quad_bands(d, chat)
    x0 = None if z_prev is None or bands is None else np.where(
        b < 0.0, z_k - z_prev, 0.0)
    info = {}
    delta = solve_asymmetric_quadratic(
        m._quad_operator(d, chat), b, d.zdot, m.eps1 / tau, m.eps1 / tau,
        KKT_TOL, lower=-z_k, upper=0.0, bands=bands, info=info, x0=x0)
    return z_k + delta, info


@pytest.mark.parametrize("dim", [1, 2])
def test_irreversible_damage_step_is_the_sign_iteration_bitwise(
        dim, monkeypatch):
    # equal slopes freeze the rate coefficient at eps1/tau everywhere, so
    # one bound-constrained solve with the bands (1D, by elimination) or
    # the operator (2D, by projected CG) shifted by 2 eps1/tau is the sign
    # iteration's only round; the step itself runs no sign iteration
    if dim == 1:
        d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
        amplitude, tau = 3.0, 0.004
    else:
        d = disc_2d(nx=16, ny=12, h=1.0 / 64)
        amplitude, tau = 6.0, 0.02
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    rng = np.random.default_rng(46)
    calls = []
    real = materials.solve_asymmetric_quadratic

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(materials, "solve_asymmetric_quadratic", counted)
    for _ in range(3):
        z_k = rng.uniform(0.3, 1.0, d.zs_n)
        z_k[rng.random(d.zs_n) < 0.1] = 0.0
        z_prev = np.minimum(z_k + 0.05 * rng.random(d.zs_n), 1.0)
        sigma = amplitude * rng.standard_normal(d.n_s)
        z, info = m.internal_step(d, sigma, z_k, tau, z_prev=z_prev)
        ref, ref_info = sign_iteration_damage_step(m, d, sigma, z_k, tau,
                                                   z_prev)
        assert np.array_equal(z.view(np.uint64), ref.view(np.uint64))
        assert info == ref_info and info["sign_rounds"] == 1
        # points damaging, points held at 0 and points held at z_k
        assert np.any((z > 0.0) & (z < z_k))
        assert np.any(z == 0.0) and np.any((z == z_k) & (z_k > 0.0))
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2])
def test_irreversible_damage_step_takes_one_sign_round(dim):
    # equal slopes on both sides of zero: the sign round's coefficients
    # repeat after the first solve whatever the signs of the increment,
    # so the step solves once, here with points damaging, points held at
    # z_k and points held at 0
    if dim == 1:
        d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
    else:
        d = disc_2d(nx=16, ny=12, h=1.0 / 64)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    rng = np.random.default_rng(45)
    z_k = rng.uniform(0.3, 1.0, d.zs_n)
    z, info = m.internal_step(d, 6.0 * rng.standard_normal(d.n_s), z_k,
                              0.004 if dim == 1 else 0.02)
    assert np.any(z == 0.0) and np.any(z == z_k)
    assert np.any((z > 0.0) & (z < z_k))
    assert info["sign_rounds"] == 1
    assert info["rounds"] >= 2


@pytest.mark.parametrize("dim", [2])
def test_damage_step_on_rough_or_2d_states_runs_plain_cg(dim, monkeypatch):
    # 2D has no bands (its lap_z is 5-point): the step runs the plain
    # projected CG, bit for bit.  1D rough states solve by elimination
    # (test_damage_step_matches_dense_qp).
    d = disc_2d(nx=16, ny=12, h=1.0 / 64)
    assert d.dim == dim and d.lap_z_bands is None
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    rng = np.random.default_rng(43)
    tally = count_cg_calls(monkeypatch)
    for _ in range(3):
        sigma = 3.0 * rng.standard_normal(d.n_s)
        z_k = rng.uniform(0.3, 1.0, d.zs_n)
        tau = 0.25 * d.h
        z, _ = m.internal_step(d, sigma, z_k, tau)
        assert np.array_equal(z, plain_damage_step(m, d, sigma, z_k, tau))
        assert np.any(z < z_k)
    assert tally["calls"] > 0


@pytest.mark.parametrize("dim, amplitude, tau", [(1, 3.0, 0.004),
                                                 (2, 6.0, 0.02)])
def test_damage_rough_stress_stays_nonnegative(dim, amplitude, tau):
    # white-noise stress on a partly damaged field drives the unbounded
    # minimizer below zero; the irreversible step stops at 0 and meets the
    # box KKT conditions 0 <= z' <= z_k
    from stagdyn.materials import KKT_TOL
    from stagdyn.solvers import solve_bound_constrained

    if dim == 1:
        d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
    else:
        d = disc_2d(nx=16, ny=12, h=1.0 / 64)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)
    rng = np.random.default_rng(44)
    sigma = amplitude * rng.standard_normal(d.n_s)
    z_k = rng.uniform(0.3, 1.0, d.zs_n)
    apply_A = irreversible_operator(m, d, m.compliance_density(d, sigma),
                                    tau)
    b = -m.dphi_dz(d, sigma, z_k)
    unbounded = z_k + solve_bound_constrained(apply_A, b, d.zdot,
                                              np.zeros_like(z_k), KKT_TOL)
    assert unbounded.min() < -0.05
    z, _ = m.internal_step(d, sigma, z_k, tau)
    assert np.all(z >= 0.0) and np.all(z <= z_k)
    at_zero, at_top = z == 0.0, z == z_k
    assert np.any(at_zero) and np.any(at_top)
    g = apply_A(z - z_k) - b
    tol = 10 * KKT_TOL * max(1.0, float(np.max(np.abs(b))))
    inside = ~(at_zero | at_top)
    assert np.all(np.abs(g[inside]) <= tol)
    assert np.all(g[at_top] <= tol) and np.all(g[at_zero] >= -tol)


@pytest.mark.parametrize("dim, amplitude, tau", [(1, 3.0, 0.004),
                                                 (2, 6.0, 0.02)])
def test_damage_healing_rough_stress_stays_nonnegative(dim, amplitude, tau):
    # healing mode under white-noise stress on a partly damaged field: the
    # step without a lower bound ends below zero (min -0.067 in 1D); every
    # sign round now solves with z' >= 0, and the step is the dense KKT
    # solve on its active set
    if dim == 1:
        d = disc_1d(nx=256, h=1.0 / 256, bc=("dirichlet", "neumann"))
    else:
        d = disc_2d(nx=16, ny=12, h=1.0 / 64)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3,
                       mode="healing")
    rng = np.random.default_rng(44)
    sigma = amplitude * rng.standard_normal(d.n_s)
    z_k = rng.uniform(0.3, 1.0, d.zs_n)
    z, _ = m.internal_step(d, sigma, z_k, tau)
    assert np.all(z >= 0.0) and np.any(z == 0.0) and np.any(z > z_k)
    assert_allclose(z, dense_qp_step(m, d, sigma, z_k, tau, z), rtol=0.0,
                    atol=1e-9 if dim == 2 else 1e-12)


def test_damage_steps_import_numpy_only():
    # one 1D (elimination) and one 2D (projected CG) damage step load no
    # scipy
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from stagdyn.grid import Grid, build\n"
        "from stagdyn.materials import DamageMaterial\n"
        "m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3)\n"
        "for grid, moduli in (\n"
        "        (Grid(dim=1, nx=32, h=1 / 32, bc=('dirichlet',) * 2),\n"
        "         {'modulus': 1.0}),\n"
        "        (Grid(dim=2, nx=6, ny=5, h=0.2, bc=('dirichlet',) * 4),\n"
        "         {'bulk_modulus': 1.0, 'shear_modulus': 0.6})):\n"
        "    d = build(grid, 1.0, moduli)\n"
        "    z = np.ones(d.zs_n)\n"
        "    nxt, _ = m.internal_step(d, np.full(d.n_s, 2.0), z, 0.05)\n"
        "    assert np.all(nxt <= z) and np.any(nxt < z)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"
