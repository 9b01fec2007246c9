"""Solver tests against dense/enumeration oracles."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn import solvers
from stagdyn.errors import SolverError
from stagdyn.grid import Grid, build
from stagdyn.kernels import band_product, radial_return
from stagdyn.materials import BiotMaterial
from stagdyn.solvers import (
    solve_bound_constrained,
    solve_linear_spd,
    solve_asymmetric_quadratic,
)


def dense_problem(A, b, w=None):
    """``(apply_A, b, dot)`` for a dense matrix; ``w`` weights the inner
    product, None means plain Euclidean."""
    if w is None:
        dot = lambda x, y: float(np.sum(x * y))
    else:
        dot = lambda x, y: float(np.sum(w * x * y))
    return (lambda x: A @ x), b, dot


def test_identity_system():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(8)
    x = solve_linear_spd(*dense_problem(np.eye(8), b), tol=1e-10)
    assert_allclose(x, b, atol=1e-12)


def test_linear_spd_reports_iterations_on_hand_case():
    # CG ends once its Krylov space holds the solution: a right-hand side
    # of zero takes no iteration, 3 I takes one, and diag(2, 2, 5) with b
    # in both eigenspaces takes two
    for diag, b, iters in (([3.0] * 3, [0.0] * 3, 0),
                           ([3.0] * 3, [1.0, -2.0, 4.0], 1),
                           ([2.0, 2.0, 5.0], [1.0, 1.0, 1.0], 2)):
        info = {}
        x = solve_linear_spd(*dense_problem(np.diag(diag), np.array(b)),
                             tol=1e-12, info=info)
        assert_allclose(x, np.array(b) / diag, atol=1e-14)
        assert info == {"iters": iters}


def test_biot_step_reports_its_iterations():
    d = build(Grid(dim=1, nx=8, h=0.125, bc=("dirichlet", "dirichlet")),
              1.0, {"modulus": 1.0})
    m = BiotMaterial(biot_modulus=0.5, biot_coefficient=0.5, capillarity=0.02)
    sigma = np.sin(np.linspace(0.0, np.pi, d.n_s))
    _, info = m.internal_step(d, sigma, m.z_init(d), 0.05)
    assert set(info) == {"iters", "mu_mid"}
    # at most one iteration per point, exact arithmetic aside
    assert 1 <= info["iters"] <= d.zs_n


def test_laplacian_plus_identity_matches_dense():
    # 1D laplacian + identity on 4 DOFs
    A = 2.0 * np.eye(4) - np.diag(np.ones(3), 1) - np.diag(np.ones(3), -1)
    A += np.eye(4)
    b = np.array([1.0, -2.0, 0.5, 3.0])
    x = solve_linear_spd(*dense_problem(A, b), tol=1e-12)
    assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)


def test_weighted_inner_product_solve():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 6))
    A = M @ M.T + 6 * np.eye(6)
    w = rng.uniform(0.5, 2.0, 6)
    # A must be self-adjoint in the weighted product: use W^-1 A_sym
    As = 0.5 * (A + A.T)
    Aw = np.diag(1.0 / w) @ As
    b = rng.standard_normal(6)
    x = solve_linear_spd(*dense_problem(Aw, b, w=w), tol=1e-12)
    assert_allclose(Aw @ x, b, atol=1e-9)


def test_warm_start_reduces_iterations():
    A = 2.0 * np.eye(30) - np.diag(np.ones(29), 1) - np.diag(np.ones(29), -1)
    b = np.linspace(0.0, 1.0, 30)
    problem = dense_problem(A, b)
    x_cold, hist_cold = solvers._cg(*problem, 1e-10)
    _, hist_warm = solvers._cg(*problem, 1e-10, x0=x_cold + 1e-8)
    # diagnostic smoke case, not a performance assertion
    assert len(hist_warm) <= len(hist_cold)


def test_cg_error_monotone_in_A_norm():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((12, 12))
    A = M @ M.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x_star = np.linalg.solve(A, b)
    errors = []
    prob = dense_problem(A, b)
    # re-run with increasing budgets to sample the iterates
    for k in range(1, 13):
        try:
            xk, _ = solvers._cg(*prob, 1e-30, max_iter=k)
        except SolverError as e:
            xk = e.last_iterate
        err = xk - x_star
        errors.append(float(err @ (A @ err)))
    for a, bb in zip(errors, errors[1:]):
        assert bb <= a * (1.0 + 1e-9)
    x = solve_linear_spd(*prob, tol=1e-14)
    assert_allclose(x, x_star, atol=1e-9)


def test_budget_exhaustion_raises_with_history():
    A = np.diag(np.linspace(1.0, 1e4, 40))
    b = np.ones(40)
    with pytest.raises(SolverError) as ei:
        solvers._cg(*dense_problem(A, b), 1e-14, max_iter=3)
    assert len(ei.value.residuals) > 0
    assert ei.value.last_iterate is not None


# ---------------------------------------------------------------------------
# bound-constrained
# ---------------------------------------------------------------------------

def test_unconstrained_minimizer_feasible():
    A = np.diag([2.0, 3.0])
    b = np.array([-2.0, -3.0])  # minimizer (-1, -1), below bound 0
    ub = np.zeros(2)
    x = solve_bound_constrained(*dense_problem(A, b), upper=ub, tol=1e-12)
    assert_allclose(x, solve_linear_spd(*dense_problem(A, b), tol=1e-12),
                    atol=1e-10)


def bands_of(A):
    """The (sub, diagonal, super) bands of a tridiagonal matrix."""
    return (np.append(0.0, np.diag(A, -1)), np.diag(A).copy(),
            np.append(np.diag(A, 1), 0.0))


def random_tridiagonal(rng, n, w=None, symmetric=True):
    """A random tridiagonal matrix with strictly dominant rows and its
    bands.  With weights ``w`` it is ``W^-1 S`` for a symmetric ``S``
    (self-adjoint in the ``w``-weighted product)."""
    lo = rng.standard_normal(n - 1)
    up = lo if symmetric else rng.standard_normal(n - 1)
    S = np.diag(lo, -1) + np.diag(up, 1)
    S += np.diag(np.abs(S).sum(axis=1) + rng.uniform(0.1, 2.0, n))
    A = S if w is None else S / w[:, None]
    return A, bands_of(A)


def check_one_dof_kkt_hand_case(direct):
    # min 1/2*2*x^2 - 10x  s.t. x <= 1  ->  x=1, multiplier 8
    A = np.array([[2.0]])
    b = np.array([10.0])
    ub = np.array([1.0])
    x = solve_bound_constrained(*dense_problem(A, b), upper=ub, tol=1e-12,
                                bands=bands_of(A) if direct else None)
    assert_allclose(x, [1.0], atol=1e-12)
    mult = -(A @ x - b)  # -gradient at the bound
    assert_allclose(mult, [8.0], atol=1e-10)


def test_one_dof_kkt_hand_case():
    check_one_dof_kkt_hand_case(False)


def test_one_dof_kkt_hand_case_direct():
    check_one_dof_kkt_hand_case(True)


def enumerate_bound_qp(A, b, ub):
    """Exhaustive active-set enumeration oracle for small bound QPs."""
    n = len(b)
    best = None
    best_val = np.inf
    for pattern in itertools.product([False, True], repeat=n):
        act = np.array(pattern)
        x = ub.copy()
        free = ~act
        if free.any():
            rhs = b[free] - A[np.ix_(free, act)] @ ub[act]
            try:
                x[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(x > ub + 1e-12):
            continue
        val = 0.5 * x @ (A @ x) - b @ x
        if val < best_val - 1e-15:
            best_val = val
            best = x
    return best


def check_random_bound_qp_against_enumeration(direct):
    rng = np.random.default_rng(7)
    for _ in range(25):
        if direct:
            A, bands = random_tridiagonal(rng, 6)
        else:
            M = rng.standard_normal((6, 6))
            A, bands = M @ M.T + 6 * np.eye(6), None
        b = rng.standard_normal(6) * 3.0
        ub = rng.standard_normal(6)
        x = solve_bound_constrained(*dense_problem(A, b), upper=ub,
                                    tol=1e-12, bands=bands)
        x_ref = enumerate_bound_qp(A, b, ub)
        assert_allclose(x, x_ref, atol=1e-9)


def test_random_bound_qp_against_enumeration():
    check_random_bound_qp_against_enumeration(False)


def test_random_bound_qp_against_enumeration_direct():
    check_random_bound_qp_against_enumeration(True)


def check_bound_qp_weighted_inner_product(direct):
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, 5)
    if direct:
        Aw, bands = random_tridiagonal(rng, 5, w=w)
    else:
        M = rng.standard_normal((5, 5))
        As = M @ M.T + 5 * np.eye(5)
        Aw, bands = np.diag(1.0 / w) @ As, None
    b = rng.standard_normal(5) * 2.0
    ub = rng.standard_normal(5)
    x = solve_bound_constrained(*dense_problem(Aw, b, w=w), upper=ub,
                                tol=1e-12, bands=bands)
    # oracle in the flat metric: objective 1/2 x' (W Aw) x - (w b)' x
    x_ref = enumerate_bound_qp(np.diag(w) @ Aw, w * b, ub)
    assert_allclose(x, x_ref, atol=1e-9)


def test_bound_qp_weighted_inner_product():
    check_bound_qp_weighted_inner_product(False)


def test_bound_qp_weighted_inner_product_direct():
    check_bound_qp_weighted_inner_product(True)


def enumerate_box_qp(A, b, lb, ub):
    """Exhaustive oracle for small box QPs: every point free, at its lower
    bound or at its upper bound."""
    n = len(b)
    best, best_val = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pat = np.array(pattern)
        x = np.where(pat == 1, lb, ub)
        free = pat == 0
        if free.any():
            fixed = ~free
            rhs = b[free] - A[np.ix_(free, fixed)] @ x[fixed]
            x[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        if np.any(x > ub + 1e-12) or np.any(x < lb - 1e-12):
            continue
        val = 0.5 * x @ (A @ x) - b @ x
        if val < best_val - 1e-15:
            best, best_val = x, val
    return best


@pytest.mark.parametrize("seed", [None, 71])
def test_random_box_qp_against_enumeration(seed):
    # lower bounds that bind, on dense instances by projected CG (seed
    # None) and on tridiagonal ones drawn from ``seed`` by elimination; the
    # right-hand sides are large enough that most points hit a bound
    rng = np.random.default_rng(12)
    tri = None if seed is None else np.random.default_rng(seed)
    hits = 0
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        A, bands = M @ M.T + 6 * np.eye(6), None
        if tri is not None:
            A, bands = random_tridiagonal(tri, 6)
        b = rng.standard_normal(6) * 8.0
        ub = rng.uniform(-0.5, 1.0, 6)
        lb = ub - rng.uniform(0.0, 1.5, 6)
        lb[0] = ub[0]  # one point held at both bounds
        x = solve_bound_constrained(*dense_problem(A, b), upper=ub,
                                    tol=1e-12, lower=lb, bands=bands)
        x_ref = enumerate_box_qp(A, b, lb, ub)
        assert_allclose(x, x_ref, atol=1e-9)
        assert np.all(lb <= x) and np.all(x <= ub)
        hits += int(np.count_nonzero(x[1:] == lb[1:]))
    assert hits > 0


def test_box_without_binding_lower_bound_is_the_upper_bound_solve():
    # a lower bound the minimizer never reaches changes no bit
    rng = np.random.default_rng(13)
    M = rng.standard_normal((8, 8))
    A = M @ M.T + 8 * np.eye(8)
    b = rng.standard_normal(8)
    ub = rng.uniform(-0.1, 0.5, 8)
    x = solve_bound_constrained(*dense_problem(A, b), upper=ub, tol=1e-12)
    x_box = solve_bound_constrained(*dense_problem(A, b), upper=ub,
                                    tol=1e-12, lower=np.full(8, -1e3))
    assert np.array_equal(x, x_box)


def test_direct_solve_matches_plain_cg():
    # same solution in the weighted product; with no bound the direct
    # solve applies the operator only for its two KKT tests
    rng = np.random.default_rng(81)
    w = rng.uniform(0.5, 2.0, 30)
    Aw, bands = random_tridiagonal(rng, 30, w=w)
    b = rng.standard_normal(30)
    apply_A, _, dot = problem = dense_problem(Aw, b, w=w)
    x_plain, hist_plain = solvers._cg(*problem, 1e-12)
    calls = []

    def counted(x):
        calls.append(1)
        return apply_A(x)

    x_direct = solve_bound_constrained(counted, b, dot, None, 1e-12,
                                       bands=bands)
    assert_allclose(x_direct, x_plain, rtol=1e-9, atol=1e-12)
    assert len(calls) <= 2 < len(hist_plain)


@pytest.mark.parametrize("direct", [False, True])
def test_bound_constrained_reports_rounds_on_hand_case(direct):
    # tridiag(-1, 3, -1), b = (1, -6, 1), x >= -1.  Round 1 frees every
    # point and solves to (-3/7, -16/7, -3/7), clipped to (-3/7, -1, -3/7).
    # Round 2: the gradient is (-9/7, 27/7, -9/7), so the middle stays at
    # the bound (push -27/7) and the ends solve 3 x = 1 + (-1): x = 0.
    # Then the KKT test passes: two rounds.
    A = np.diag([3.0] * 3) - np.diag([1.0] * 2, -1) - np.diag([1.0] * 2, 1)
    b = np.array([1.0, -6.0, 1.0])
    info = {}
    apply_A, _, dot = dense_problem(A, b)
    x = solve_bound_constrained(None if direct else apply_A, b, dot, None,
                                1e-12, lower=np.full(3, -1.0),
                                bands=bands_of(A) if direct else None,
                                info=info)
    assert_allclose(x, [0.0, -1.0, 0.0], atol=1e-12)
    assert info == {"rounds": 2}


def reference_bound_constrained(apply_A, b, dot, upper, tol, lower=None,
                                bands=None):
    """The active-set loop before the boolean KKT test: bounds as arrays,
    per-point violations clipped at 0 and a cold start.  Returns ``(x,
    rounds)``."""
    kkt_tol = tol * max(1.0, float(np.abs(b).max(initial=0.0)))
    if bands is not None:
        apply_A = lambda u: band_product(bands, u)
    upper = np.full_like(b, np.inf) if upper is None else upper
    lower = np.full_like(b, -np.inf) if lower is None else lower

    def slack(bound):
        return 1e-14 * float(np.abs(bound).max(initial=1.0,
                                               where=np.isfinite(bound)))

    near_upper, near_lower = upper - slack(upper), lower + slack(lower)
    x = np.maximum(np.minimum(np.zeros_like(b), upper), lower)
    for rounds in range(2 * b.shape[0] + 30):
        g = apply_A(x) - b
        off_upper, off_lower = x < near_upper, x > near_lower
        viol = np.maximum(g * off_lower, -g * off_upper)
        if viol.max(initial=0.0) <= kkt_tol:
            return x, rounds
        free = (off_upper & off_lower) | (viol > kkt_tol)
        if bands is None:
            mask = free.astype(float)
            project = lambda u: mask * u
            d, _ = solvers._cg(apply_A, project(-g), dot, 0.1 * tol,
                               project=project)
        else:
            d = solvers._solve_free_rows(bands, free, -g)
        x = np.maximum(np.minimum(x + d, upper), lower)
    raise AssertionError("reference active set did not settle")


def random_box_problems(seed, n, symmetric=False):
    """Random dominant tridiagonal box problems with bounds of each kind:
    None, a Python float and per-point arrays, some points held at both;
    every other one is not symmetric unless ``symmetric`` (CG needs it)."""
    rng = np.random.default_rng(seed)
    for i in range(24):
        A, bands = random_tridiagonal(rng, n,
                                      symmetric=symmetric or bool(i % 2))
        b = rng.standard_normal(n) * 4.0
        lower = -rng.uniform(0.0, 1.0, n)
        upper = [None, 0.0, rng.uniform(-0.2, 1.0, n)][i % 3]
        if i % 3 == 2:
            lower = np.minimum(lower, upper)
            lower[::5] = upper[::5]
        yield A, bands, b, (None if i % 4 == 3 else lower), upper


@pytest.mark.parametrize("direct", [False, True])
def test_cold_start_keeps_the_decisions_of_the_reference_loop(direct):
    # the boolean KKT test frees and holds the same points in every
    # round, so a cold start gives the same bits in the same rounds
    rounds_seen = set()
    for n in (7, 40, 257):
        for A, bands, b, lower, upper in random_box_problems(
                n, n, symmetric=not direct):
            apply_A, _, dot = dense_problem(A, b)
            info = {}
            x = solve_bound_constrained(
                None if direct else apply_A, b, dot, upper, 1e-12,
                lower=lower, bands=bands if direct else None, info=info)
            ref, rounds = reference_bound_constrained(
                apply_A, b, dot, upper, 1e-12, lower=lower,
                bands=bands if direct else None)
            assert x.tobytes() == ref.tobytes()
            assert info["rounds"] == rounds
            rounds_seen.add(rounds)
    assert len(rounds_seen) > 2


@pytest.mark.parametrize("direct", [False, True])
def test_warm_start_settles_on_the_same_minimizer(direct):
    # a start in or out of the box (it is clipped into it) reaches the
    # cold start's minimizer; the minimizer itself takes no round
    rng = np.random.default_rng(91)
    for A, bands, b, lower, upper in random_box_problems(
            92, 40, symmetric=not direct):
        apply_A, _, dot = dense_problem(A, b)
        args = dict(lower=lower, bands=bands if direct else None)
        cold = solve_bound_constrained(apply_A, b, dot, upper, 1e-12, **args)
        for x0 in (rng.standard_normal(40), cold + 1e-3 * rng.random(40)):
            x = solve_bound_constrained(apply_A, b, dot, upper, 1e-12,
                                        x0=x0, **args)
            assert_allclose(x, cold, rtol=0.0, atol=1e-9)
        info = {}
        again = solve_bound_constrained(apply_A, b, dot, upper, 1e-12,
                                        x0=cold, info=info, **args)
        assert info["rounds"] == 0 and again.tobytes() == cold.tobytes()


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("where", ["b", "operator", "upper", "lower"])
def test_non_finite_input_raises_not_converges(direct, where):
    # NaN fails every comparison, so no KKT test may take it as a pass
    rng = np.random.default_rng(97)
    A, bands = random_tridiagonal(rng, 12)
    b = rng.standard_normal(12)
    upper, lower = np.full(12, 0.5), np.full(12, -0.5)
    if where == "operator":
        A[5, 5] = bands[1][5] = np.nan  # the dense matrix and its band
    else:
        {"b": b, "upper": upper, "lower": lower}[where][5] = np.nan
    apply_A, _, dot = dense_problem(A, b)
    with pytest.raises(SolverError):
        solve_bound_constrained(apply_A, b, dot, upper, 1e-12, lower=lower,
                                bands=bands if direct else None)


def test_equal_scalar_slopes_are_one_shifted_solve():
    # scalar slopes give the bits of per-point arrays of the same slope,
    # in one sign round and the same active-set rounds
    for A, bands, b, lower, upper in random_box_problems(95, 40):
        apply_A, _, dot = dense_problem(A, b)
        got = []
        for slope in (0.7, np.full(40, 0.7)):
            info = {}
            x = solve_asymmetric_quadratic(None, b, dot, slope, slope, 1e-12,
                                           lower=lower, upper=upper,
                                           bands=bands, info=info)
            got.append((x.tobytes(), info["rounds"]))
            assert info["sign_rounds"] == 1
        assert got[0] == got[1]


@pytest.mark.parametrize("direct", [False, True])
def test_asymmetric_quadratic_reports_rounds_on_hand_case(direct):
    # min 1/2 x^2 + x + (x^2 if x < 0): the first sign round takes x >= 0
    # (no added term) and solves to x = -1 in one round; the second takes
    # x < 0, solves 3 x = -1 in one round and keeps its sign
    A = np.array([[1.0]])
    b = np.array([-1.0])
    info = {}
    apply_A, _, dot = dense_problem(A, b)
    x = solve_asymmetric_quadratic(None if direct else apply_A, b, dot,
                                   np.array([1.0]), np.array([0.0]), 1e-13,
                                   bands=bands_of(A) if direct else None,
                                   info=info)
    assert_allclose(x, [-1.0 / 3.0], atol=1e-13)
    assert info == {"sign_rounds": 2, "rounds": 2}


@pytest.mark.parametrize("symmetric", [True, False])
def test_elimination_matches_dense_solve(symmetric):
    # the free rows of random dominant tridiagonal systems: empty, single
    # points (ends and middle), all points, gapped and random free sets
    rng = np.random.default_rng(83)
    n = 9
    pattern = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
    frees = [np.zeros(n, bool), np.ones(n, bool), pattern, ~pattern]
    frees += [np.arange(n) == i for i in (0, 4, n - 1)]
    frees += [rng.random(n) < 0.6 for _ in range(20)]
    for free in frees:
        A, bands = random_tridiagonal(rng, n, symmetric=symmetric)
        r = rng.standard_normal(n)
        ref = np.zeros(n)
        ref[free] = np.linalg.solve(A[np.ix_(free, free)], r[free])
        got = solvers._solve_free_rows(bands, free, r)
        assert got.shape == (n,) and np.all(got[~free] == 0.0)
        assert_allclose(got, ref, rtol=1e-13, atol=1e-14)


# ---------------------------------------------------------------------------
# asymmetric quadratic (healing-mode dissipation)
# ---------------------------------------------------------------------------

def brute_objective_asym(A, b, am, ap, x):
    pen = np.where(x < 0, am * x * x, ap * x * x)
    return 0.5 * x @ (A @ x) - b @ x + np.sum(pen)


def test_asymmetric_quadratic_matches_grid_scan():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.uniform(1.0, 3.0)
        b0 = rng.standard_normal() * 2.0
        am, ap = rng.uniform(0.1, 2.0, 2)
        A = np.array([[a]])
        b = np.array([b0])
        x = solve_asymmetric_quadratic(
            *dense_problem(A, b), a_minus=np.array([am]),
            a_plus=np.array([ap]), tol=1e-13)
        grid = np.linspace(-5, 5, 200001)
        vals = 0.5 * a * grid**2 - b0 * grid + np.where(
            grid < 0, am * grid**2, ap * grid**2)
        assert abs(x[0] - grid[np.argmin(vals)]) < 1e-4
        # stationarity of the C^1 objective
        gpen = np.where(x < 0, 2 * am * x, 2 * ap * x)
        assert abs(A @ x - b + gpen) < 1e-10


def test_asymmetric_quadratic_coupled():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((4, 4))
    A = M @ M.T + 4 * np.eye(4)
    b = rng.standard_normal(4) * 2.0
    am = rng.uniform(0.1, 1.0, 4)
    ap = rng.uniform(0.1, 1.0, 4)
    x = solve_asymmetric_quadratic(*dense_problem(A, b), a_minus=am,
                                   a_plus=ap, tol=1e-13)
    # verify against many random perturbations
    f0 = brute_objective_asym(A, b, am, ap, x)
    for _ in range(300):
        d = rng.standard_normal(4) * 1e-4
        assert brute_objective_asym(A, b, am, ap, x + d) >= f0 - 1e-12


@pytest.mark.parametrize("direct", [False, True])
def test_asymmetric_quadratic_lower_bound_kkt(direct):
    # a lower bound that binds (by CG, or by elimination with shifted
    # bands): free points are stationary, bound points pushed below it
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(10):
        A, bands = random_tridiagonal(rng, 8)
        b = rng.standard_normal(8) * 6.0
        am, ap = rng.uniform(0.1, 1.0, 8), rng.uniform(0.1, 1.0, 8)
        lb = -rng.uniform(0.0, 1.0, 8)
        x = solve_asymmetric_quadratic(*dense_problem(A, b), am, ap, 1e-13,
                                       lower=lb,
                                       bands=bands if direct else None)
        g = A @ x - b + 2.0 * np.where(x < 0, am, ap) * x
        at_lb = x == lb
        assert np.all(x >= lb)
        assert np.all(np.abs(g[~at_lb]) <= 1e-9)
        assert np.all(g[at_lb] >= -1e-9)
        hits += int(np.count_nonzero(at_lb))
    assert hits > 0


# ---------------------------------------------------------------------------
# radial return
# ---------------------------------------------------------------------------

def flow_increment(trial, sigma_y, factor):
    """The plastic material's use of the return map: scale times trial."""
    t = np.atleast_1d(np.asarray(trial, dtype=float))
    return radial_return(np.array([np.linalg.norm(t)]), sigma_y, factor) * t


def test_radial_return_examples():
    assert flow_increment(0.4, 0.4, 3.0) == 0.0  # on the yield surface
    assert flow_increment(0.0, 0.0, 3.0) == 0.0  # zero trial, no yield
    assert_allclose(flow_increment(1.0, 0.4, 3.0), [0.2])
    assert_allclose(flow_increment(-1.0, 0.4, 3.0), [-0.2])
    # sigma_y = 0: linear map trial/factor
    assert_allclose(flow_increment(0.7, 0.0, 2.0), [0.35])
    v = flow_increment(np.array([3.0, 4.0]), 1.0, 2.0)
    assert_allclose(v, np.array([3.0, 4.0]) * (4.0 / (2.0 * 5.0)))


def test_radial_return_against_scan():
    # minimizes sigma_y*|d| + 0.5*factor*d^2 - trial*d
    rng = np.random.default_rng(11)
    for _ in range(50):
        trial = rng.standard_normal() * 2.0
        sy = rng.uniform(0.0, 1.0)
        fac = rng.uniform(0.5, 3.0)
        d = flow_increment(trial, sy, fac)[0]
        grid = np.linspace(-6, 6, 400001)
        vals = sy * np.abs(grid) + 0.5 * fac * grid**2 - trial * grid
        assert abs(d - grid[np.argmin(vals)]) < 1e-4


def test_cg_residual_history_monotone_on_shipped_problem():
    # the 1D laplacian-plus-identity problem: residuals decrease after the
    # first sweep (clustered spectrum)
    A = 2.0 * np.eye(12) - np.diag(np.ones(11), 1) - np.diag(np.ones(11), -1)
    A += np.eye(12)
    b = np.linspace(-1, 1, 12)
    _, hist = solvers._cg(*dense_problem(A, b), 1e-12)
    for a, bb in zip(hist[1:], hist[2:]):
        assert bb <= a * (1.0 + 1e-12)
