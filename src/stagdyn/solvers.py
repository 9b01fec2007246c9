"""Generic solvers for the implicit internal-variable increments.

All incremental problems produced by the materials are convex quadratics
(the stored energy is quadratic in the internal variable and every
dissipation potential is convex), possibly with simple upper bounds or a
per-point asymmetric quadratic term.  Solvers are matrix-free: the operator
is an apply callback, which keeps stencil operators (laplacians,
vertex-center couplings) unassembled; a tridiagonal one may also pass
its bands, to be solved exactly by elimination (1D damage).

Every solver minimizes ``1/2 <A x, x> - <b, x>`` in the inner product
``dot(x, y)``, the one ``apply_A`` is self-adjoint in: the weighted
``disc.zdot`` for damage and the Biot dissipation, and the Hessian-twisted
``disc.zdot(B x, y)`` for the Biot increment.  ``tol`` is the relative
residual (linear) or the scaled KKT residual (constrained).
"""

import numpy as np

from .errors import SolverError


def _cg(apply_A, b, dot, tol, x0=None, project=None, max_iter=None):
    """Conjugate gradients in the inner product ``dot``.

    ``project`` restricts the iteration to a subspace (active-set solves);
    it must be the orthogonal projector onto that subspace in ``dot`` (a 0/1
    mask is orthogonal for any diagonal weighting).  Stops when the
    residual norm is ``<= tol * |b|``.  The default budget is
    ``20 n + 200`` iterations.  Returns ``(x, residual_history)``.
    """
    if project is None:
        project = lambda u: u
    if max_iter is None:
        max_iter = 20 * b.shape[0] + 200
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = project(b - apply_A(x))
    stop = tol * max(np.sqrt(max(dot(b, b), 0.0)), 1e-300)
    rr = dot(r, r)
    history = [np.sqrt(max(rr, 0.0))]
    if history[-1] <= stop:
        return x, history
    p = r.copy()
    for _ in range(max_iter):
        Ap = project(apply_A(p))
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise SolverError("operator not positive definite on subspace",
                              last_iterate=x, residuals=history)
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = dot(r, r)
        history.append(np.sqrt(max(rr_new, 0.0)))
        if history[-1] <= stop:
            return x, history
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise SolverError("conjugate gradients exhausted its budget",
                      last_iterate=x, residuals=history)


def _solve_free_rows(bands, free, r):
    """Solve the rows ``free`` of the tridiagonal system with (sub,
    diagonal, super) ``bands`` exactly, block by block between the gaps of
    the free set; zero elsewhere.  Elimination needs no pivoting, as every
    row must be strictly diagonally dominant."""
    d = np.zeros_like(r)
    idx = np.flatnonzero(free)
    sub, diag, sup = (band[idx] for band in bands)
    start = np.diff(idx, prepend=-2) != 1  # the first point of each block
    sub[start] = 0.0
    sup[:-1][start[1:]] = 0.0
    sub, diag, sup, x = (a.tolist() for a in (sub, diag, sup, r[idx]))
    c = [0.0] * len(x)
    for i in range(len(x)):  # i = 0 reads c[-1] = 0 and sub[0] = 0
        piv = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / piv
        x[i] = (x[i] - sub[i] * x[i - 1]) / piv
    for i in range(len(x) - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    d[idx] = x
    return d


def solve_linear_spd(apply_A, b, dot, tol):
    """Solve the unconstrained quadratic; relative residual <= tol."""
    x, _ = _cg(apply_A, b, dot, tol)
    return x


def solve_bound_constrained(apply_A, b, dot, upper, tol, lower=None,
                            bands=None):
    """Minimize subject to ``lower <= x <= upper`` (either bound may be
    None; else ``lower <= upper``) by an active-set refresh, starting from
    0 clipped into the box.

    Each round solves for the step on the free points: exactly, by
    elimination, when ``bands`` gives the (sub, diagonal, super) bands of
    a tridiagonal ``apply_A`` whose rows are strictly diagonally dominant
    (else ValueError); else by projected CG to ``0.1 * tol``.

    KKT at the solution: inactive points have zero gradient, points at the
    upper bound have gradient <= 0 and points at the lower bound gradient
    >= 0 (multiplier = the gradient's push out of the box >= 0), all within
    the scaled tolerance.  A point with ``lower == upper`` is fixed.
    """
    kkt_tol = tol * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if bands is not None and np.any(
            bands[1] <= np.abs(bands[0]) + np.abs(bands[2])):
        raise ValueError("bands must be strictly diagonally dominant")
    upper = np.full_like(b, np.inf) if upper is None else upper
    lower = np.full_like(b, -np.inf) if lower is None else lower

    def slack(bound):
        return 1e-14 * float(np.max(np.abs(bound), initial=1.0,
                                    where=np.isfinite(bound)))

    near_upper, near_lower = upper - slack(upper), lower + slack(lower)
    x = np.maximum(np.minimum(np.zeros_like(b), upper), lower)
    for _ in range(2 * b.shape[0] + 30):
        g = apply_A(x) - b
        at_upper = x >= near_upper
        at_lower = x <= near_lower
        # the push of the gradient out of the box at the bound points,
        # which the multiplier must balance: g at the upper bound, -g at
        # the lower, none at a point held at both
        push = np.where(at_upper, g, 0.0)
        np.subtract(push, g, out=push, where=at_lower)
        at_bound = at_upper | at_lower
        viol_in = np.where(~at_bound, np.abs(g), 0.0)
        if max(viol_in.max(initial=0.0), push.max(initial=0.0)) <= kkt_tol:
            return x
        # free everything strictly inside plus bound points wanting release
        free = (~at_bound) | (push > kkt_tol)
        if bands is None:
            mask = free.astype(float)
            project = lambda u: mask * u
            d, _ = _cg(apply_A, project(-g), dot, 0.1 * tol, project=project)
        else:
            d = _solve_free_rows(bands, free, -g)
        x = np.maximum(np.minimum(x + d, upper), lower)
    raise SolverError("bound-constrained active set failed to settle",
                      last_iterate=x, residuals=[])


def solve_asymmetric_quadratic(apply_A, b, dot, a_minus, a_plus, tol,
                               lower=None, bands=None):
    """Minimize with the added per-point term ``a_minus*x^2`` for x < 0 and
    ``a_plus*x^2`` for x >= 0 (scalars or per-point arrays, >= 0), subject
    to ``x >= lower`` (no bound when None).

    The term is C^1, so a semismooth sign-refresh iteration converges from
    zero: freeze the sign pattern, solve the resulting quadratic by
    :func:`solve_bound_constrained` (``bands`` shifted), recompute signs.
    """
    if np.any(a_minus < 0) or np.any(a_plus < 0):
        raise ValueError("asymmetric coefficients must be nonnegative")
    x = np.zeros_like(b)
    signs = x < 0
    for _ in range(60):
        coeff = np.where(signs, a_minus, a_plus)
        shifted = None if bands is None else (
            bands[0], bands[1] + 2.0 * coeff, bands[2])
        x = solve_bound_constrained(lambda u: apply_A(u) + 2.0 * coeff * u,
                                    b, dot, None, tol, lower=lower,
                                    bands=shifted)
        new_signs = x < 0
        if np.array_equal(new_signs, signs):
            return x
        signs = new_signs
    raise SolverError("asymmetric-quadratic sign iteration did not settle",
                      last_iterate=x, residuals=[])
