"""Generic solvers for the implicit internal-variable increments.

All incremental problems produced by the materials are convex quadratics
(the stored energy is quadratic in the internal variable and every
dissipation potential is convex), possibly with simple upper bounds or a
per-point asymmetric quadratic term.  Solvers are matrix-free: the operator
is an apply callback, which keeps stencil operators (laplacians,
vertex-center couplings) unassembled.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SolverError


@dataclass
class QuadraticIncrement:
    """One convex incremental minimization
    ``min_x 1/2 <A x, x>_w - <b, x>_w + sum w * asym(x)`` subject to
    ``x <= upper`` (when set).

    Parameters
    ----------
    apply_A : callable
        Symmetric positive-definite operator on the feasible cone
        (symmetry is meant against the weighted, optionally
        ``inner_apply``-twisted, inner product used by the solver).
    b : ndarray
        Linear term.
    weights : ndarray or None
        Inner-product weights; None means plain Euclidean.
    upper : ndarray or None
        Upper-bound field (bound-constrained mode).
    asym : (ndarray, ndarray) or None
        Per-point asymmetric quadratic ``a_minus*x^2`` for x < 0 and
        ``a_plus*x^2`` for x >= 0 (asymmetric-quadratic mode).
    inner_apply : callable or None
        Extra SPD map defining the inner product ``<inner_apply(x), y>_w``;
        used to symmetrize products of commuting-free SPD operators.
    tol : float
        Relative residual (linear) or scaled KKT residual (constrained).
    max_iter : int
        Iteration budget for the inner conjugate-gradient loops.
    """

    apply_A: Callable
    b: np.ndarray
    weights: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    asym: Optional[tuple] = None
    inner_apply: Optional[Callable] = None
    tol: float = 1e-10
    max_iter: int = 0

    def __post_init__(self):
        if self.max_iter <= 0:
            self.max_iter = 20 * self.b.shape[0] + 200

    def inner(self, x, y):
        xx = self.inner_apply(x) if self.inner_apply is not None else x
        if self.weights is None:
            return float(np.sum(xx * y))
        return float(np.sum(self.weights * xx * y))


def _cg(problem, b, x0=None, project=None, tol=None):
    """Conjugate gradients in the problem's inner product.

    ``project`` restricts the iteration to a subspace (active-set solves);
    it must be the orthogonal projector onto that subspace in the problem
    inner product (a 0/1 mask is orthogonal for any diagonal weighting).
    Returns ``(x, residual_history)``.
    """
    apply_A = problem.apply_A
    if project is None:
        project = lambda u: u
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = project(b - apply_A(x))
    bnorm = np.sqrt(max(problem.inner(b, b), 0.0))
    stop = (tol if tol is not None else problem.tol) * max(bnorm, 1e-300)
    history = []
    rho = problem.inner(r, r)
    history.append(np.sqrt(max(rho, 0.0)))
    if history[-1] <= stop:
        return x, history
    p = r.copy()
    for _ in range(problem.max_iter):
        Ap = project(apply_A(p))
        pAp = problem.inner(p, Ap)
        if pAp <= 0.0:
            raise SolverError("operator not positive definite on subspace",
                              last_iterate=x, residuals=history)
        alpha = rho / pAp
        x += alpha * p
        r -= alpha * Ap
        rho_new = problem.inner(r, r)
        history.append(np.sqrt(max(rho_new, 0.0)))
        if history[-1] <= stop:
            return x, history
        p = r + (rho_new / rho) * p
        rho = rho_new
    raise SolverError("conjugate gradients exhausted its budget",
                      last_iterate=x, residuals=history)


def solve_linear_spd(problem, x0=None):
    """Solve the unconstrained quadratic; relative residual <= tol."""
    if problem.upper is not None or problem.asym is not None:
        raise ValueError("solve_linear_spd expects an unconstrained problem")
    x, _ = _cg(problem, problem.b, x0=x0)
    return x


def solve_bound_constrained(problem, x0=None):
    """Upper-bounded SPD quadratic via projected CG with active-set refresh.

    KKT at the solution: inactive points have zero gradient, points at the
    bound have gradient <= 0 (multiplier = -gradient >= 0), both within the
    scaled tolerance.
    """
    ub = problem.upper
    if ub is None:
        return solve_linear_spd(problem, x0=x0)
    apply_A = problem.apply_A
    b = problem.b
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    kkt_tol = problem.tol * scale
    eps_b = 1e-14 * max(1.0, float(np.max(np.abs(ub))) if ub.size else 1.0)

    x = np.minimum(np.zeros_like(b) if x0 is None else x0, ub)
    n = b.shape[0]
    for _ in range(2 * n + 30):
        g = apply_A(x) - b
        at_bound = x >= ub - eps_b
        viol_in = np.where(~at_bound, np.abs(g), 0.0)
        viol_rel = np.where(at_bound, np.maximum(g, 0.0), 0.0)
        if max(viol_in.max(initial=0.0), viol_rel.max(initial=0.0)) <= kkt_tol:
            return x
        # free everything strictly inside plus bound points wanting release
        free = (~at_bound) | (g > kkt_tol)
        mask = free.astype(float)
        project = lambda u: mask * u
        d, _ = _cg(problem, project(-g), project=project, tol=0.1 * problem.tol)
        x = np.minimum(x + d, ub)
    raise SolverError("bound-constrained active set failed to settle",
                      last_iterate=x, residuals=[])


def solve_asymmetric_quadratic(problem, x0=None):
    """Piecewise-quadratic (sign-asymmetric) convex minimization.

    The per-point term ``a_minus*x^2 / a_plus*x^2`` is C^1, so a semismooth
    sign-refresh iteration converges: freeze the sign pattern, solve the
    resulting SPD system by CG, recompute signs, repeat.
    """
    a_minus, a_plus = problem.asym
    if np.any(a_minus < 0) or np.any(a_plus < 0):
        raise ValueError("asymmetric coefficients must be nonnegative")
    b = problem.b
    x = np.zeros_like(b) if x0 is None else x0.copy()
    signs = x < 0
    for _ in range(60):
        coeff = np.where(signs, a_minus, a_plus)
        shifted = QuadraticIncrement(
            apply_A=lambda u: problem.apply_A(u) + 2.0 * coeff * u,
            b=b, weights=problem.weights, inner_apply=problem.inner_apply,
            tol=problem.tol, max_iter=problem.max_iter)
        x = solve_linear_spd(shifted, x0=x)
        new_signs = x < 0
        if np.array_equal(new_signs, signs):
            return x
        signs = new_signs
    raise SolverError("asymmetric-quadratic sign iteration did not settle",
                      last_iterate=x, residuals=[])

