"""Stencil kernels and the pointwise return map, in plain numpy.

The discrete symmetric-gradient operator and its transpose are the only
operations applied to every degree of freedom several times per time step.
The transpose kernels are the algebraic transposes of the forward kernels
(the caller supplies quadrature-weighted inputs).

Ghost values outside the grid are zero (clamped-boundary convention);
Neumann masking is applied by the caller on the stress layout.

The 2D kernels write into caller-owned output views and take one scratch
buffer, so a call allocates nothing.  Each value is formed by the same
floating-point operations, in the same order, as the plain expression in
its comment, so results are bit-for-bit those of that expression
(signed zeros included).  ``np.negative`` is avoided: numpy 2.4.6 returns
wrong values from it for some strided input/output pairs (a 64-byte input
stride into a strided output); a division by ``-h`` rounds exactly as a
negation followed by a division by ``h``.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)


def get_backend():
    """Name of the array backend the kernels run on (always numpy)."""
    return "numpy"


def grad_1d(v, h):
    """Forward-difference gradient, cell velocities to node values."""
    nx = v.shape[0]
    out = np.empty(nx + 1)
    out[0] = v[0] / h
    out[1:nx] = (v[1:] - v[:-1]) / h
    out[nx] = -v[nx - 1] / h
    return out


def grad_1d_t(sw, h):
    """Algebraic transpose of :func:`grad_1d`; input already weighted."""
    # v[j] gets sw[j]/h - sw[j+1]/h
    return (sw[:-1] - sw[1:]) / h


def _diff_edges(f, h, out):
    """``out`` = the first-axis difference of ``f`` with zero ghosts:
    ``[f[0], f[1:] - f[:-1], -f[-1]] / h``; ``out`` has one more row."""
    n = f.shape[0]
    np.divide(f[0], h, out=out[0])
    np.subtract(f[1:], f[:-1], out=out[1:n])
    np.divide(out[1:n], h, out=out[1:n])
    np.divide(f[n - 1], -h, out=out[n])


def grad_2d(vx, vy, h, exx, eyy, sxy, scratch):
    """Staggered symmetric gradient (exx, eyy, sqrt(2)*exy), written into
    ``exx``, ``eyy`` (cells) and ``sxy`` (vertices).

    ``scratch`` is a 1D buffer of at least (nx+1)*(ny+1) values; it is
    overwritten.
    """
    # exx = (vx[1:, :] - vx[:-1, :]) / h, eyy likewise along y
    np.subtract(vx[1:, :], vx[:-1, :], out=exx)
    np.divide(exx, h, out=exx)
    np.subtract(vy[:, 1:], vy[:, :-1], out=eyy)
    np.divide(eyy, h, out=eyy)
    # Mandel shear sqrt(2)*e_xy at vertices; zero ghost velocities outside:
    # sxy = (dvx_dy + dvy_dx) / sqrt(2)
    _diff_edges(vx.T, h, sxy.T)
    dvy_dx = scratch[:sxy.size].reshape(sxy.shape)
    _diff_edges(vy, h, dvy_dx)
    np.add(sxy, dvy_dx, out=sxy)
    np.divide(sxy, _SQRT2, out=sxy)


def _transpose_edges(w, h, out, wd):
    """``out`` = ``0 - w/h`` on rows ``:-1`` plus ``w/h`` on rows ``1:``,
    accumulated into zeros in that order (``out`` has one more row than
    ``w``); ``wd`` receives ``w/h``."""
    np.divide(w, h, out=wd)
    np.subtract(0.0, wd, out=out[:-1])
    np.add(out[1:-1], wd[:-1], out=out[1:-1])
    np.add(wd[-1], 0.0, out=out[-1])


def grad_2d_t(wxx, wyy, wxy, h, vx, vy, scratch):
    """Algebraic transpose of :func:`grad_2d`; inputs already weighted.

    Writes into ``vx`` (nx+1, ny) and ``vy`` (nx, ny+1).  ``scratch`` is a
    1D buffer of at least max((nx+1)*ny, nx*(ny+1)) values; it is
    overwritten.
    """
    s2h = _SQRT2 * h
    # vx = zeros; vx[:-1] -= wxx/h; vx[1:] += wxx/h;
    # vx += (wxy[:, :-1] - wxy[:, 1:]) / (sqrt(2) h); vy likewise along y
    _transpose_edges(wxx, h, vx, scratch[:wxx.size].reshape(wxx.shape))
    t = scratch[:vx.size].reshape(vx.shape)
    np.subtract(wxy[:, :-1], wxy[:, 1:], out=t)
    np.divide(t, s2h, out=t)
    np.add(vx, t, out=vx)
    _transpose_edges(wyy.T, h, vy.T,
                     scratch[:wyy.size].reshape(wyy.shape).T)
    t = scratch[:vy.size].reshape(vy.shape)
    np.subtract(wxy[:-1, :], wxy[1:, :], out=t)
    np.divide(t, s2h, out=t)
    np.add(vy, t, out=vy)


def radial_return(trial_norm, sigma_y, factor):
    """Pointwise yield-surface scale factors for the plastic return map.

    The flow increment that minimises ``sigma_y*|d| + factor/2*|d|^2 -
    <trial, d>`` is ``s * trial`` with ``s = (|trial| - sigma_y) /
    (factor*|trial|)`` outside the yield set and ``s = 0`` inside it.
    """
    excess = trial_norm - sigma_y
    scale = np.zeros_like(excess)
    np.divide(excess, factor * trial_norm, out=scale, where=excess > 0.0)
    return scale
