"""Stencil kernels and the pointwise return map, in plain numpy.

The discrete symmetric-gradient operator and its transpose, and in 1D the
tridiagonal scalar laplacian and damage Hessian (by their bands), are the
operations applied to every degree of freedom several times per time step.
The transpose kernels are the algebraic transposes of the forward kernels
(the caller supplies quadrature-weighted inputs).

Ghost values outside the grid are zero (clamped-boundary convention);
Neumann masking is applied by the caller on the stress layout.

Every kernel scales by reciprocals (1/h, -1/h, 1/(sqrt(2) h)) and divides
by no scalar.  The 2D kernels take each difference on flat, unit-stride
views of the row-major fields, write into caller-owned outputs and use one
scratch buffer, so a call allocates nothing.  Each value is formed by the
same floating-point operations, in the same order, as the plain expression
in its comment, so results are bit-for-bit those of that expression
(signed zeros included).  ``np.negative`` is avoided: numpy 2.4.6 returns
wrong values from it for some strided input/output pairs (a 64-byte input
stride into a strided output); a multiplication by ``-1/h`` rounds exactly
as a negation followed by a multiplication by ``1/h``.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)


def get_backend():
    """Name of the array backend the kernels run on (always numpy)."""
    return "numpy"


def grad_1d(v, h):
    """Forward-difference gradient, cell velocities to node values."""
    r = 1.0 / h
    out = np.empty(v.shape[0] + 1)
    out[0] = v[0] * r
    out[1:-1] = (v[1:] - v[:-1]) * r
    out[-1] = v[-1] * -r
    return out


def grad_1d_t(sw, h):
    """Algebraic transpose of :func:`grad_1d`; input already weighted."""
    # v[j] gets (sw[j] - sw[j+1]) / h
    return (sw[:-1] - sw[1:]) * (1.0 / h)


def band_product(bands, x):
    """(sub, diagonal, super) ``bands`` times ``x``; sub[0] = sup[-1] = 0."""
    sub, diag, sup = bands
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    return y


def _ghost_rows(f, scratch):
    """``f`` (n, m) copied flat into ``scratch`` with a zero before each
    row and after the last: the flat difference of the copy is the y
    difference of ``f`` with zero ghosts, (n, m + 1) flat."""
    n, m = f.shape
    g = scratch[:n * (m + 1) + 1]
    g[0] = 0.0
    rows = g[1:].reshape(n, m + 1)
    rows[:, :m] = f
    rows[:, m] = 0.0
    return g


def grad_2d(vx, vy, h, exx, eyy, sxy, scratch):
    """Staggered symmetric gradient (exx, eyy, sqrt(2)*exy), written into
    ``exx``, ``eyy`` (cells) and ``sxy`` (vertices).

    ``scratch`` is a 1D buffer of at least (nx+1)*(ny+1) + 1 values; it is
    overwritten.
    """
    r = 1.0 / h
    # exx = (vx[1:, :] - vx[:-1, :]) * (1/h)
    np.subtract(vx[1:], vx[:-1], out=exx)
    exx *= r
    # eyy = (vy[:, 1:] - vy[:, :-1]) * (1/h), from the flat difference
    fy, t = vy.ravel(), scratch[:vy.size]
    np.subtract(fy[1:], fy[:-1], out=t[:-1])
    np.multiply(t.reshape(vy.shape)[:, :-1], r, out=eyy)
    # Mandel shear sqrt(2)*e_xy at vertices, zero ghost velocities outside:
    # sxy = diff(pad(vx, ((0, 0), (1, 1))), axis=1); sxy[:-1] += vy;
    # sxy[1:] -= vy; sxy *= 1/(sqrt(2) h)
    g = _ghost_rows(vx, scratch)
    np.subtract(g[1:].reshape(sxy.shape), g[:-1].reshape(sxy.shape), out=sxy)
    sxy[:-1] += vy
    sxy[1:] -= vy
    sxy *= 1.0 / (_SQRT2 * h)


def grad_2d_t(wxx, wyy, wxy, h, vx, vy, scratch):
    """Algebraic transpose of :func:`grad_2d`; inputs already weighted.

    Writes into ``vx`` (nx+1, ny) and ``vy`` (nx, ny+1).
    ``scratch`` is a 1D buffer of at least (nx+1)*(ny+1) + 1 values; it is
    overwritten.
    """
    r, q = 1.0 / h, 1.0 / (_SQRT2 * h)
    # vx = (gx[:-1] - gx[1:]) * (1/h) + (wxy[:, :-1] - wxy[:, 1:]) * q,
    # gx = pad(wxx, ((1, 1), (0, 0))), q = 1/(sqrt(2) h)
    np.subtract(wxx[:-1], wxx[1:], out=vx[1:-1])
    np.subtract(0.0, wxx[0], out=vx[0])
    vx[-1] = wxx[-1]
    vx *= r
    fxy, t = wxy.ravel(), scratch[:wxy.size]
    np.subtract(fxy[:-1], fxy[1:], out=t[:-1])
    t[:-1] *= q
    np.add(vx, t.reshape(wxy.shape)[:, :-1], out=vx)
    # vy = (gy[:, :-1] - gy[:, 1:]) * (1/h) + (wxy[:-1] - wxy[1:]) * q,
    # gy = pad(wyy, ((0, 0), (1, 1)))
    g = _ghost_rows(wyy, scratch)
    np.subtract(g[:-1].reshape(vy.shape), g[1:].reshape(vy.shape), out=vy)
    vy *= r
    t = scratch[:vy.size].reshape(vy.shape)
    np.subtract(wxy[:-1], wxy[1:], out=t)
    t *= q
    vy += t


def radial_return(trial_norm, sigma_y, factor):
    """Pointwise yield-surface scale factors for the plastic return map.

    The flow increment that minimises ``sigma_y*|d| + factor/2*|d|^2 -
    <trial, d>`` is ``s * trial`` with ``s = (|trial| - sigma_y) /
    (factor*|trial|)`` outside the yield set and ``s = 0`` inside it and
    at a NaN norm.  The denominator's floor, the smallest normal double,
    moves only zero quotients (no 0/0) and a subnormal ``factor*|trial|``.
    """
    scale = trial_norm - sigma_y
    np.fmax(scale, 0.0, out=scale)
    den = np.multiply(trial_norm, factor)
    np.fmax(den, np.finfo(float).tiny, out=den)
    scale /= den
    return scale
