"""Generic solvers for the implicit internal-variable increments.

All incremental problems produced by the materials are convex quadratics
(the stored energy is quadratic in the internal variable and every
dissipation potential is convex), possibly with simple upper bounds or a
per-point asymmetric quadratic term.  Solvers are matrix-free: the operator
is an apply callback, which keeps stencil operators (laplacians,
vertex-center couplings) unassembled.

Every solver minimizes ``1/2 <A x, x> - <b, x>`` in the inner product
``dot(x, y)``, the one ``apply_A`` is self-adjoint in: the weighted
``disc.zdot`` for damage and the Biot dissipation, and the Hessian-twisted
``disc.zdot(B x, y)`` for the Biot increment.  ``tol`` is the relative
residual (linear) or the scaled KKT residual (constrained).
"""

import numpy as np

from .errors import SolverError


def _cg(apply_A, b, dot, tol, x0=None, project=None, max_iter=None,
        precond=None):
    """Conjugate gradients in the inner product ``dot``.

    ``project`` restricts the iteration to a subspace (active-set solves);
    it must be the orthogonal projector onto that subspace in ``dot`` (a 0/1
    mask is orthogonal for any diagonal weighting).  ``precond`` applies an
    approximate inverse of ``apply_A``, self-adjoint and positive definite
    in ``dot``; on a subspace the iteration uses ``project(precond(r))``.
    The stopping test is the true residual norm ``<= tol * |b|`` either
    way.  The default budget is ``20 n + 200`` iterations.  Returns
    ``(x, residual_history)``.
    """
    if project is None:
        project = lambda u: u
    if precond is None:
        apply_M = lambda u: u
    else:
        apply_M = lambda u: project(precond(u))
    if max_iter is None:
        max_iter = 20 * b.shape[0] + 200
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = project(b - apply_A(x))
    bnorm = np.sqrt(max(dot(b, b), 0.0))
    stop = tol * max(bnorm, 1e-300)
    history = []
    rr = dot(r, r)
    history.append(np.sqrt(max(rr, 0.0)))
    if history[-1] <= stop:
        return x, history
    z = apply_M(r)
    rho = rr if precond is None else dot(r, z)
    p = z.copy()
    for _ in range(max_iter):
        if rho <= 0.0:
            raise SolverError("preconditioner not positive definite",
                              last_iterate=x, residuals=history)
        Ap = project(apply_A(p))
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise SolverError("operator not positive definite on subspace",
                              last_iterate=x, residuals=history)
        alpha = rho / pAp
        x += alpha * p
        r -= alpha * Ap
        rr = dot(r, r)
        history.append(np.sqrt(max(rr, 0.0)))
        if history[-1] <= stop:
            return x, history
        z = apply_M(r)
        rho_new = rr if precond is None else dot(r, z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise SolverError("conjugate gradients exhausted its budget",
                      last_iterate=x, residuals=history)


def solve_linear_spd(apply_A, b, dot, tol, x0=None):
    """Solve the unconstrained quadratic; relative residual <= tol."""
    x, _ = _cg(apply_A, b, dot, tol, x0=x0)
    return x


def solve_bound_constrained(apply_A, b, dot, upper, tol, precond=None,
                            lower=None):
    """Minimize subject to ``lower <= x <= upper`` (no lower bound when
    ``lower`` is None; else ``lower <= upper``) by projected CG with
    active-set refresh, starting from 0 clipped into the box.
    ``precond`` is passed to every projected CG solve (see :func:`_cg`).

    KKT at the solution: inactive points have zero gradient, points at the
    upper bound have gradient <= 0 and points at the lower bound gradient
    >= 0 (multiplier = the gradient's push out of the box >= 0), all within
    the scaled tolerance.  A point with ``lower == upper`` is fixed.
    """
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    kkt_tol = tol * scale

    def slack(bound):
        return 1e-14 * max(1.0, float(np.max(np.abs(bound)))
                           if bound.size else 1.0)

    near_upper = upper - slack(upper)
    x = np.minimum(np.zeros_like(b), upper)
    if lower is not None:
        near_lower = lower + slack(lower)
        np.maximum(x, lower, out=x)
    n = b.shape[0]
    for _ in range(2 * n + 30):
        g = apply_A(x) - b
        at_upper = x >= near_upper
        # the push of the gradient out of the box at the bound points,
        # which the multiplier must balance: g at the upper bound, -g at
        # the lower, none at a point held at both
        push = np.where(at_upper, g, 0.0)
        if lower is None:
            at_bound = at_upper
        else:
            at_lower = x <= near_lower
            np.subtract(push, g, out=push, where=at_lower)
            at_bound = at_upper | at_lower
        viol_in = np.where(~at_bound, np.abs(g), 0.0)
        if max(viol_in.max(initial=0.0), push.max(initial=0.0)) <= kkt_tol:
            return x
        # free everything strictly inside plus bound points wanting release
        free = (~at_bound) | (push > kkt_tol)
        mask = free.astype(float)
        project = lambda u: mask * u
        d, _ = _cg(apply_A, project(-g), dot, 0.1 * tol, project=project,
                   precond=precond)
        x = np.minimum(x + d, upper)
        if lower is not None:
            np.maximum(x, lower, out=x)
    raise SolverError("bound-constrained active set failed to settle",
                      last_iterate=x, residuals=[])


def solve_asymmetric_quadratic(apply_A, b, dot, a_minus, a_plus, tol):
    """Minimize with the added per-point term ``a_minus*x^2`` for x < 0 and
    ``a_plus*x^2`` for x >= 0 (scalars or per-point arrays, >= 0).

    The term is C^1, so a semismooth sign-refresh iteration converges from
    zero: freeze the sign pattern, solve the resulting SPD system by CG,
    recompute signs, repeat.
    """
    if np.any(a_minus < 0) or np.any(a_plus < 0):
        raise ValueError("asymmetric coefficients must be nonnegative")
    x = np.zeros_like(b)
    signs = x < 0
    for _ in range(60):
        coeff = np.where(signs, a_minus, a_plus)
        x = solve_linear_spd(lambda u: apply_A(u) + 2.0 * coeff * u,
                             b, dot, tol, x0=x)
        new_signs = x < 0
        if np.array_equal(new_signs, signs):
            return x
        signs = new_signs
    raise SolverError("asymmetric-quadratic sign iteration did not settle",
                      last_iterate=x, residuals=[])
