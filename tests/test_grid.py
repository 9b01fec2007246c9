"""Discretization tests: hand stencils, adjointness, null spaces."""

import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn.errors import ConfigError
from stagdyn.grid import Grid, build


def disc_1d(nx=2, h=1.0, bc=("dirichlet", "dirichlet"), c=1.0, rho=1.0):
    return build(Grid(dim=1, nx=nx, h=h, bc=bc), rho, {"modulus": c})


def disc_2d(nx=3, ny=3, h=0.5, bc=("dirichlet",) * 4, K=1.0, G=0.6, rho=1.0):
    return build(Grid(dim=2, nx=nx, ny=ny, h=h, bc=bc), rho,
                 {"bulk_modulus": K, "shear_modulus": G})


ALL_BC_1D = [
    ("dirichlet", "dirichlet"),
    ("neumann", "neumann"),
    ("dirichlet", "neumann"),
    ("traction", "dirichlet"),
]

ALL_BC_2D = [
    ("dirichlet",) * 4,
    ("neumann",) * 4,
    ("dirichlet", "neumann", "traction", "dirichlet"),
    ("neumann", "dirichlet", "dirichlet", "neumann"),
]


def test_forward_stencil_hand_case():
    # 2 cells, h=1, C=1, Dirichlet ends, v=(1,1): strain rates at the
    # 3 nodes are (1, 0, -1) with zero ghost velocities.
    d = disc_1d()
    e = d.apply_E(np.array([1.0, 1.0]))
    assert_allclose(e, [1.0, 0.0, -1.0])
    # step_sigma example: tau=0.1 increments C*e by 0.1 -> (0.1, 0, -0.1)
    assert_allclose(0.1 * d.apply_C(e), [0.1, 0.0, -0.1])


def test_transpose_stencil_hand_case():
    # Exact transpose of the forward stencil, S=(0,1,0): E*S has unit
    # weights at the interior node: (w0*S0 - w1*S1, w1*S1 - w2*S2)/h.
    d = disc_1d()
    f = d.apply_E_adjoint(np.array([0.0, 1.0, 0.0]))
    assert_allclose(f, [-1.0, 1.0])
    # Velocity increment -tau*M^{-1}(E*S): tension peak pulls both cells
    # toward the middle node.
    dv = -0.1 * f / d.mass
    assert_allclose(dv, [0.1, -0.1])


@pytest.mark.parametrize("bc", ALL_BC_1D)
def test_adjointness_1d(bc):
    d = disc_1d(nx=13, h=0.3, bc=bc)
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.standard_normal(d.n_v)
        s = rng.standard_normal(d.n_s)
        lhs = d.sdot(s, d.apply_E(v))
        rhs = float(np.sum(d.apply_E_adjoint(s) * v))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("bc", ALL_BC_2D)
def test_adjointness_2d(bc):
    d = disc_2d(nx=4, ny=5, h=0.25, bc=bc)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(d.n_v)
        s = rng.standard_normal(d.n_s)
        lhs = d.sdot(s, d.apply_E(v))
        rhs = float(np.sum(d.apply_E_adjoint(s) * v))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_operators_linear():
    d = disc_2d(nx=3, ny=4)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(d.n_v)
    y = rng.standard_normal(d.n_v)
    assert_allclose(d.apply_E(2.0 * x - 3.0 * y),
                    2.0 * d.apply_E(x) - 3.0 * d.apply_E(y), atol=1e-14)
    s = rng.standard_normal(d.n_s)
    t = rng.standard_normal(d.n_s)
    assert_allclose(d.apply_C(0.5 * s + 2.0 * t),
                    0.5 * d.apply_C(s) + 2.0 * d.apply_C(t), atol=1e-14)


def test_rigid_translation_neumann():
    d = disc_2d(nx=3, ny=3, bc=("neumann",) * 4)
    for vec in ((1.0, 0.0), (0.0, 1.0)):
        v = d.zeros_v()
        d.vx_view(v)[:] = vec[0]
        d.vy_view(v)[:] = vec[1]
        assert_allclose(d.apply_E(v), 0.0, atol=1e-15)


def test_neumann_null_space_dimension():
    # Kernel of E under pure Neumann contains the two translations; the
    # discrete rotation is representable here as well (noted, not required).
    d = disc_2d(nx=3, ny=3, bc=("neumann",) * 4)
    cols = [d.apply_E(col) for col in np.eye(d.n_v)]
    E = np.column_stack(cols)
    ns_dim = E.shape[1] - np.linalg.matrix_rank(E, tol=1e-10)
    assert ns_dim >= 2
    assert ns_dim <= 3


def test_dirichlet_has_no_null_space_1d():
    d = disc_1d(nx=5)
    E = np.column_stack([d.apply_E(col) for col in np.eye(d.n_v)])
    assert np.linalg.matrix_rank(E, tol=1e-12) == d.n_v


def test_neumann_1d_kernel_is_constants():
    d = disc_1d(nx=6, bc=("neumann", "neumann"))
    assert_allclose(d.apply_E(np.ones(d.n_v)), 0.0, atol=1e-15)
    E = np.column_stack([d.apply_E(col) for col in np.eye(d.n_v)])
    assert E.shape[1] - np.linalg.matrix_rank(E, tol=1e-12) == 1


def test_apply_C_identity_2d():
    # C applied to the identity tensor: d*K*I (pure volumetric response).
    d = disc_2d(nx=2, ny=2, K=1.0, G=0.0 + 1e-12)
    e = d.zeros_s()
    d.sxx_view(e)[:] = 1.0
    d.syy_view(e)[:] = 1.0
    s = d.apply_C(e)
    assert_allclose(d.sxx_view(s), 2.0, atol=1e-10)
    assert_allclose(d.syy_view(s), 2.0, atol=1e-10)
    assert_allclose(d.sxy_view(s), 0.0, atol=1e-12)


def test_apply_C_inverse_roundtrip():
    for d in (disc_1d(nx=4, c=3.7), disc_2d(nx=3, ny=2, K=2.0, G=0.7)):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(d.n_s)
        assert_allclose(d.apply_C(d.apply_C_inv(s)), s, atol=1e-12)


def test_apply_C_self_adjoint():
    d = disc_2d(nx=3, ny=3, K=1.3, G=0.4)
    rng = np.random.default_rng(9)
    a = rng.standard_normal(d.n_s)
    b = rng.standard_normal(d.n_s)
    assert abs(d.sdot(d.apply_C(a), b) - d.sdot(a, d.apply_C(b))) < 1e-12


def test_apply_C_takes_other_moduli():
    rng = np.random.default_rng(11)
    d = disc_1d(nx=4, c=3.7)
    e = rng.standard_normal(d.n_s)
    assert np.array_equal(d.apply_C(e), d.apply_C(e, d.moduli))
    assert_allclose(d.apply_C(e, 0.45), 0.45 * e, rtol=1e-15, atol=0.0)

    d = disc_2d(nx=3, ny=2, K=1.3, G=0.4)
    e = rng.standard_normal(d.n_s)
    assert d.moduli == (1.3, 0.4)
    assert np.array_equal(d.apply_C(e), d.apply_C(e, d.moduli))
    k, g = 0.7, 0.25
    mandel = np.array([[k + g, k - g, 0.0],
                       [k - g, k + g, 0.0],
                       [0.0, 0.0, 2.0 * g]])
    s = d.apply_C(e, (k, g))
    # (xx, yy) at each center, the Mandel shear at each vertex
    normal = mandel[:2, :2] @ np.stack([d.sxx_view(e).ravel(),
                                        d.syy_view(e).ravel()])
    assert_allclose(d.sxx_view(s).ravel(), normal[0], rtol=0.0, atol=1e-15)
    assert_allclose(d.syy_view(s).ravel(), normal[1], rtol=0.0, atol=1e-15)
    assert_allclose(d.sxy_view(s), mandel[2, 2] * d.sxy_view(e), rtol=0.0,
                    atol=1e-15)


def test_only_grid_reads_private_discretization_attributes():
    import stagdyn

    private = re.compile(r"\b(disc|d)\._[a-z]")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(Path(stagdyn.__file__).parent.glob("*.py"))
            if path.name != "grid.py"
            for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if private.search(line)]
    assert hits == []


def test_laplacian_stress_hand_stencil():
    # 3-node line (2 cells), h=1, natural BC: interior value of -G^T G on
    # (0,1,0) is -2; boundary entries are scaled by the 1/2 trapezoid weight.
    d = disc_1d(nx=2, h=1.0)
    lap = d.laplacian_stress(np.array([0.0, 1.0, 0.0]))
    assert_allclose(lap, [2.0, -2.0, 2.0])


def test_laplacian_stress_constant_and_nsd():
    for d in (disc_1d(nx=7, h=0.2), disc_2d(nx=4, ny=3, h=0.3)):
        assert_allclose(d.laplacian_stress(np.ones(d.n_s)), 0.0, atol=1e-13)
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = rng.standard_normal(d.n_s)
            assert d.sdot(d.laplacian_stress(s), s) <= 1e-12


def test_laplacian_stress_symmetric():
    for d in (disc_1d(nx=6), disc_2d(nx=3, ny=4, bc=("neumann",) * 4)):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(d.n_s)
        b = rng.standard_normal(d.n_s)
        lhs = d.sdot(d.laplacian_stress(a), b)
        rhs = d.sdot(a, d.laplacian_stress(b))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_div_z_adjoint_to_grad_and_conservative():
    for d in (disc_1d(nx=5), disc_2d(nx=4, ny=3)):
        rng = np.random.default_rng(19)
        z = rng.standard_normal(d.zs_n)
        q = rng.standard_normal(d.grad_z(z).shape[0])
        # <div q, z>_wz == -<q, grad z>_we
        lhs = d.zdot(d.div_z(q), z)
        g = d.grad_z(z)
        if d.dim == 1:
            rhs = -float(np.sum(d._z_edge_w * q * g))
        else:
            nxe = d._z_edge_wx.size
            rhs = -float(
                np.sum(d._z_edge_wx.ravel() * q[:nxe] * g[:nxe])
                + np.sum(d._z_edge_wy.ravel() * q[nxe:] * g[nxe:])
            )
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        # weighted mean of div q vanishes (no-flux)
        assert abs(d.zdot(d.div_z(q), np.ones(d.zs_n))) < 1e-12


def test_scatter_is_transpose_of_average():
    d = disc_2d(nx=4, ny=3)
    rng = np.random.default_rng(23)
    c = rng.standard_normal(d.zs_n)
    u = rng.standard_normal(d.shape_vert[0] * d.shape_vert[1])
    wv = d.sweights[d._xy_sl]
    lhs = float(np.sum(wv * u * d.avg_centers_to_vertices(c).ravel()))
    rhs = d.zdot(d.scatter_vertices_to_centers(u), c)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_build_validation():
    with pytest.raises(ConfigError):
        disc_1d(nx=1)
    with pytest.raises(ConfigError):
        disc_1d(c=-1.0)
    with pytest.raises(ConfigError):
        disc_1d(rho=0.0)
    with pytest.raises(ConfigError) as ei:
        build(Grid(dim=1, nx=4, h=1.0, bc=("dirichlet", "bogus")), 1.0,
              {"modulus": 1.0})
    assert ei.value.location == "grid.bc_right"
    with pytest.raises(ConfigError):
        Grid(dim=3, nx=4, h=1.0, bc=("dirichlet",) * 6)


def test_traction_pattern_layout():
    d1 = disc_1d(nx=4, bc=("traction", "dirichlet"))
    p = d1.traction_pattern("left")
    assert p[0] == 1.0 and np.sum(p) == 1.0
    d2 = disc_2d(nx=3, ny=3)
    p2 = d2.traction_pattern("top")
    assert_allclose(d2.syy_view(p2)[:, -1], 1.0)
    assert np.sum(p2) == d2.grid.nx


def test_layout_mismatch_raises():
    from stagdyn.errors import LayoutError

    d = disc_1d(nx=4)
    with pytest.raises(LayoutError):
        d.apply_E(np.zeros(d.n_v + 1))
    with pytest.raises(LayoutError):
        d.apply_C(np.zeros(d.n_s - 1))
    with pytest.raises(LayoutError):
        d.apply_E_adjoint(np.zeros(3))


# ---------------------------------------------------------------------------
# the bands of the 1D lap_z
# ---------------------------------------------------------------------------

BAND_DISCS = {
    "nx2": lambda: disc_1d(nx=2, h=0.5),
    "nx64": lambda: disc_1d(nx=64, h=1.0 / 64, bc=("neumann", "traction")),
    "nx256": lambda: disc_1d(nx=256, h=1.0 / 256),
}
# nx = 2 and the benchmark sizes (50: seepage1d, 256: fracture1d), on
# every boundary pair
BAND_DISCS.update({
    f"nx{nx}-{'-'.join(bc)}": lambda nx=nx, bc=bc: disc_1d(nx=nx, h=1.0 / nx,
                                                           bc=bc)
    for nx in (2, 50, 256) for bc in ALL_BC_1D})


def composed_lap_z(d, coeff=1.0):
    """The dense ``div_z(coeff * grad_z)``: the 1D lap_z applies its bands,
    so references to them come from this composition."""
    from stagdyn.oracle import dense_operator

    return dense_operator(lambda f: d.div_z(coeff * d.grad_z(f)), d.zs_n)


def matrix_of(bands):
    """The tridiagonal matrix with (sub, diagonal, super) ``bands``."""
    sub, diag, sup = bands
    return np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


@pytest.mark.parametrize("name", sorted(BAND_DISCS))
@pytest.mark.parametrize("shift, coeff", [(0.7, 0.013), (2.5, 0.0),
                                          (0.05, 2e-3)])
def test_shifted_lap_z_solver_matches_dense_solve(name, shift, coeff):
    # shift - coeff * lap_z from the bands, solved on every row by
    # elimination, against a dense solve of the composition
    from stagdyn.solvers import _solve_free_rows

    d = BAND_DISCS[name]()
    n = d.zs_n
    A = shift * np.eye(n) - coeff * composed_lap_z(d)
    sub, diag, sup = d.lap_z_bands
    bands = (-coeff * sub, shift - coeff * diag, -coeff * sup)
    rng = np.random.default_rng(31)
    for _ in range(3):
        r = rng.standard_normal(n)
        ref = np.linalg.solve(A, r)
        got = _solve_free_rows(bands, np.ones(n, dtype=bool), r)
        assert got.shape == (n,)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", sorted(BAND_DISCS))
def test_shifted_lap_z_solver_self_adjoint(name):
    # the bands reproduce div_z(grad_z), self-adjoint in zdot, with rows
    # summing to zero (no-flux) and a strictly negative diagonal; the
    # shifted solve built from them is self-adjoint and positive in zdot
    from stagdyn.solvers import _solve_free_rows

    d = BAND_DISCS[name]()
    L = matrix_of(d.lap_z_bands)
    assert_allclose(L, composed_lap_z(d), rtol=1e-14,
                    atol=1e-14 * np.abs(L).max())
    WL = d.zs_weights[:, None] * L
    assert_allclose(WL, WL.T, rtol=1e-14, atol=1e-14 * np.abs(WL).max())
    assert np.all(np.abs(L.sum(axis=1)) <= 1e-12 * np.abs(L).max())
    assert np.all(d.lap_z_bands[1] < 0.0)

    sub, diag, sup = d.lap_z_bands
    bands = (-0.02 * sub, 0.3 - 0.02 * diag, -0.02 * sup)
    free = np.ones(d.zs_n, dtype=bool)
    solve = lambda r: _solve_free_rows(bands, free, r)
    rng = np.random.default_rng(32)
    for _ in range(5):
        a = rng.standard_normal(d.zs_n)
        b = rng.standard_normal(d.zs_n)
        lhs = d.zdot(solve(a), b)
        rhs = d.zdot(a, solve(b))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))
        assert d.zdot(solve(a), a) > 0.0


@pytest.mark.parametrize("name", sorted(BAND_DISCS))
@pytest.mark.parametrize("coeff", [1.0, 0.5])
def test_1d_lap_z_is_the_composition(name, coeff):
    # the 1D lap_z, coeff times the product of the bands, equals
    # div_z(coeff * grad_z) within 1e-14 of its largest entry, sends
    # constants to zero, keeps the weighted mean at zero (Biot's mass
    # conservation) and is self-adjoint in zdot, all to round-off of the
    # terms summed
    from stagdyn.oracle import dense_operator

    d = BAND_DISCS[name]()
    n, ones = d.zs_n, np.ones(d.zs_n)
    ref = composed_lap_z(d, coeff)
    scale = np.abs(ref).max()
    L = dense_operator(lambda f: d.lap_z(f, coeff), n)
    assert np.abs(L - ref).max() <= 1e-14 * scale
    assert np.abs(d.lap_z(ones, coeff)).max() <= 1e-14 * scale
    rng = np.random.default_rng(34)
    for _ in range(5):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        la, size = d.lap_z(a, coeff), np.abs(ref) @ np.abs(a)
        assert abs(d.zdot(la, ones)) <= 1e-14 * d.zdot(size, ones)
        lhs, rhs = d.zdot(la, b), d.zdot(a, d.lap_z(b, coeff))
        assert abs(lhs - rhs) <= 1e-14 * d.zdot(size, np.abs(b))


def test_shifted_lap_z_solver_rejects_singular_shift_and_2d():
    # shift - coeff * lap_z from the bands must have strictly dominant
    # rows: a zero shift (singular, the constants) or a negative coeff is
    # refused; the 5-point 2D lap_z is not tridiagonal, so it has no bands
    # and 2D damage steps keep projected CG
    from stagdyn.solvers import solve_bound_constrained

    d = disc_1d(nx=4)
    sub, diag, sup = d.lap_z_bands
    for shift, coeff in [(0.0, 1.0), (1.0, -0.5)]:
        bands = (-coeff * sub, shift - coeff * diag, -coeff * sup)
        with pytest.raises(ValueError):
            solve_bound_constrained(lambda u: u, np.ones(d.zs_n), d.zdot,
                                    None, 1e-12, bands=bands)
    assert disc_2d(nx=4, ny=3).lap_z_bands is None


def test_damage_direct_solve_check_fails_on_a_wrong_band(monkeypatch):
    from stagdyn import checks
    from stagdyn.materials import DamageMaterial

    lines = []
    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (name, fn) for name, fn in checks.ALL_CHECKS
        if name in ("damage-structure", "damage-direct-solve")])
    assert checks.run_checks(out=lines.append) == 0
    assert lines == ["PASS damage-structure", "PASS damage-direct-solve"]

    # off-diagonals 10 % too strong: still dominant, so the active-set
    # loop still settles to its tolerance and only the dense solve can tell
    real = DamageMaterial._quad_bands

    def wrong(self, *args):
        bands = real(self, *args)  # None on the 2D grid
        return bands and (1.1 * bands[0], bands[1], 1.1 * bands[2])

    monkeypatch.setattr(DamageMaterial, "_quad_bands", wrong)
    lines.clear()
    assert checks.run_checks(out=lines.append) == 1
    assert lines[0] == "PASS damage-structure"
    assert len(lines) == 2
    assert lines[1].startswith("FAIL damage-direct-solve: smooth damage "
                               "step vs dense KKT solve")


def test_a_wrong_lap_z_band_fails_the_check_and_the_band_tests(monkeypatch):
    # off-diagonals 10 % too strong, with the diagonal their negative sum:
    # still symmetric in zdot, semidefinite and zero on constants, and the
    # 1D lap_z and the damage step both apply it, so only the references
    # built from div_z(grad_z) can tell
    from stagdyn import checks
    from stagdyn.grid import Discretization

    real = Discretization._init_1d

    def wrong(self, moduli):
        real(self, moduli)
        sub, _, sup = (1.1 * band for band in self.lap_z_bands)
        self.lap_z_bands = (sub, -(sub + sup), sup)

    monkeypatch.setattr(Discretization, "_init_1d", wrong)
    for name in ("nx64", "nx50-dirichlet-dirichlet"):
        with pytest.raises(AssertionError):
            test_shifted_lap_z_solver_self_adjoint(name)
        with pytest.raises(AssertionError):
            test_1d_lap_z_is_the_composition(name, 0.5)
    lines = []
    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (name, fn) for name, fn in checks.ALL_CHECKS
        if name in ("laplacian-stress", "damage-direct-solve")])
    assert checks.run_checks(out=lines.append) == 2
    assert lines[0].startswith("FAIL laplacian-stress: 1D lap_z vs "
                               "div_z(grad_z): max error")
    assert lines[1].startswith("FAIL damage-direct-solve: smooth damage "
                               "step vs dense KKT solve")


def test_damage_direct_solve_check_passes_at_seed_1239():
    # this seed's healing draw once left no point at 0, and the check
    # failed its own guard against a vacuous comparison
    from stagdyn import checks

    checks.check_damage_direct_solve(np.random.default_rng(1239))


def test_private_scratch_starts_on_a_64_byte_boundary():
    # ufuncs writing into a buffer off a 64-byte boundary run at about half
    # speed, and numpy places fresh arrays at any multiple of 16; the
    # buffers of many live discretizations sample those placements
    discs = [disc_1d(nx=n) for n in range(2, 12)]
    discs += [disc_2d(nx=n, ny=n + 1) for n in range(2, 12)]
    for d in discs:
        assert d._sw.ctypes.data % 64 == 0 and d._sw.shape == (d.n_s,)
        if d.dim == 2:
            nx, ny = d.grid.nx, d.grid.ny
            assert d._scratch.ctypes.data % 64 == 0
            assert d._scratch.shape == ((nx + 1) * (ny + 1) + 1,)
