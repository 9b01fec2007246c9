"""Generic solvers for the implicit internal-variable increments.

All incremental problems produced by the materials are convex quadratics
(the stored energy is quadratic in the internal variable and every
dissipation potential is convex), possibly with simple upper bounds or a
per-point asymmetric quadratic term.  Solvers are matrix-free: the operator
is an apply callback, which keeps stencil operators (laplacians,
vertex-center couplings) unassembled.  A tridiagonal operator (1D damage)
passes its bands, which are then the whole operator, for gradients and
elimination alike; the damage material's ``_quad_operator`` stays the 2D
operator and the dense reference.

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


def _band_product(bands, x):
    """(sub, diagonal, super) ``bands`` times ``x``; sub[0] = sup[-1] = 0."""
    sub, diag, sup = bands
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    return y


def _solve_free_rows(bands, free, r):
    """Solve the rows ``free`` of the tridiagonal system with (sub,
    diagonal, super) ``bands`` exactly, block by block between the gaps of
    the free set; zero elsewhere.  Elimination needs no pivoting, as every
    row must be strictly diagonally dominant."""
    idx = free.nonzero()[0]
    sub, diag, sup, x = (a[idx].tolist() for a in (*bands, r))
    for i in (idx[1:] != idx[:-1] + 1).nonzero()[0].tolist():
        sub[i + 1] = sup[i] = 0.0
    sub[:1] = [0.0]
    c = [0.0] * len(x)
    for i in range(len(x)):  # i = 0 reads c[-1] = 0 and sub[0] = 0
        piv = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / piv
        x[i] = (x[i] - sub[i] * x[i - 1]) / piv
    for i in range(len(x) - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    d = np.zeros(r.shape)
    d[idx] = x
    return d


def solve_linear_spd(apply_A, b, dot, tol, info=None):
    """Solve the unconstrained quadratic; relative residual <= tol.  An
    ``info`` dict receives ``iters``, the CG iterations taken."""
    x, history = _cg(apply_A, b, dot, tol)
    if info is not None:
        info["iters"] = len(history) - 1
    return x


def solve_bound_constrained(apply_A, b, dot, upper, tol, lower=None,
                            bands=None, info=None):
    """Minimize subject to ``lower <= x <= upper`` (either bound may be
    None; else ``lower <= upper``) by an active-set refresh, starting from
    0 clipped into the box.

    Given the (sub, diagonal, super) ``bands`` of a tridiagonal operator
    with strictly diagonally dominant rows (else ValueError), each round
    forms the gradient by their banded product and solves for the step on
    the free points exactly, by elimination; ``apply_A`` may be None.
    Else each round applies ``apply_A`` and runs projected CG to ``0.1 *
    tol``.  An ``info`` dict receives ``rounds``, the rounds that solved.

    KKT at the solution: inactive points have zero gradient, points at the
    upper bound have gradient <= 0 and points at the lower bound gradient
    >= 0 (multiplier = the gradient's push out of the box >= 0), all within
    the scaled tolerance.  A point with ``lower == upper`` is fixed.
    """
    kkt_tol = tol * max(1.0, float(np.abs(b).max(initial=0.0)))
    if bands is not None:
        if (bands[1] <= np.abs(bands[0]) + np.abs(bands[2])).any():
            raise ValueError("bands must be strictly diagonally dominant")
        apply_A = lambda u: _band_product(bands, u)
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
        # each point's violation of KKT: |g| strictly inside the box; at a
        # bound, the push of the gradient out of the box that the
        # multiplier must balance, clipped at 0: g at the upper bound, -g
        # at the lower, none at a point held at both
        viol = np.maximum(g * off_lower, -g * off_upper)
        if viol.max(initial=0.0) <= kkt_tol:
            if info is not None:
                info["rounds"] = rounds
            return x
        # free everything strictly inside plus bound points wanting release
        free = (off_upper & off_lower) | (viol > kkt_tol)
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
                               lower=None, upper=None, bands=None, info=None):
    """Minimize with the added per-point term ``a_minus*x^2`` for x < 0 and
    ``a_plus*x^2`` for x >= 0 (scalars or per-point arrays, >= 0), subject
    to ``lower <= x <= upper`` (no bound when None).

    The term is C^1, so a semismooth sign-refresh iteration converges from
    zero: freeze the per-point coefficients, solve the resulting quadratic
    by :func:`solve_bound_constrained` (``bands`` shifted; ``apply_A`` may
    then be None), and stop once the signs of the solution give the same
    coefficients, which equal slopes do after one round.  An ``info`` dict
    receives ``sign_rounds``, the coefficient patterns solved for, and
    ``rounds``, their active-set rounds in total.
    """
    if np.minimum(a_minus, a_plus).min() < 0:
        raise ValueError("asymmetric coefficients must be nonnegative")
    coeff = np.full_like(b, a_plus)  # the start x = 0 is >= 0 everywhere
    solve_info, rounds = {}, 0
    for sign_rounds in range(1, 61):
        shifted = None if bands is None else (
            bands[0], bands[1] + 2.0 * coeff, bands[2])
        x = solve_bound_constrained(lambda u: apply_A(u) + 2.0 * coeff * u,
                                    b, dot, upper, tol, lower=lower,
                                    bands=shifted, info=solve_info)
        rounds += solve_info["rounds"]
        new_coeff = np.where(x < 0, a_minus, a_plus)
        if (new_coeff == coeff).all():
            if info is not None:
                info["sign_rounds"] = sign_rounds
                info["rounds"] = rounds
            return x
        coeff = new_coeff
    raise SolverError("asymmetric-quadratic sign iteration did not settle",
                      last_iterate=x, residuals=[])
