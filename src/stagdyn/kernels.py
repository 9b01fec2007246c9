"""Stencil kernels and the pointwise return map, in plain numpy.

The discrete symmetric-gradient operator and its transpose are the only
operations applied to every degree of freedom several times per time step.
The transpose kernels are the algebraic transposes of the forward kernels
(the caller supplies quadrature-weighted inputs).

Ghost values outside the grid are zero (clamped-boundary convention);
Neumann masking is applied by the caller on the stress layout.
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


def grad_2d(vx, vy, h):
    """Staggered symmetric gradient (exx, eyy, sqrt(2)*exy)."""
    nxp, ny = vx.shape
    nx = nxp - 1
    exx = (vx[1:, :] - vx[:-1, :]) / h
    eyy = (vy[:, 1:] - vy[:, :-1]) / h
    # Mandel shear sqrt(2)*e_xy at vertices; zero ghost velocities outside.
    dvx_dy = np.zeros((nx + 1, ny + 1))
    dvx_dy[:, 0] = vx[:, 0] / h
    dvx_dy[:, 1:ny] = (vx[:, 1:] - vx[:, :-1]) / h
    dvx_dy[:, ny] = -vx[:, ny - 1] / h
    dvy_dx = np.zeros((nx + 1, ny + 1))
    dvy_dx[0, :] = vy[0, :] / h
    dvy_dx[1:nx, :] = (vy[1:, :] - vy[:-1, :]) / h
    dvy_dx[nx, :] = -vy[nx - 1, :] / h
    sxy = (dvx_dy + dvy_dx) / _SQRT2
    return exx, eyy, sxy


def grad_2d_t(wxx, wyy, wxy, h):
    """Algebraic transpose of :func:`grad_2d`; inputs already weighted."""
    nx, ny = wxx.shape
    vx = np.zeros((nx + 1, ny))
    vx[:-1, :] -= wxx / h
    vx[1:, :] += wxx / h
    vx += (wxy[:, :-1] - wxy[:, 1:]) / (_SQRT2 * h)
    vy = np.zeros((nx, ny + 1))
    vy[:, :-1] -= wyy / h
    vy[:, 1:] += wyy / h
    vy += (wxy[:-1, :] - wxy[1:, :]) / (_SQRT2 * h)
    return vx, vy


def radial_return(trial_norm, sigma_y, factor):
    """Pointwise yield-surface scale factors for the plastic return map.

    The flow increment that minimises ``sigma_y*|d| + factor/2*|d|^2 -
    <trial, d>`` is ``s * trial`` with ``s = (|trial| - sigma_y) /
    (factor*|trial|)`` outside the yield set and ``s = 0`` inside it.
    """
    excess = trial_norm - sigma_y
    safe = np.where(trial_norm > 0.0, trial_norm, 1.0)
    return np.where(excess > 0.0, excess / (factor * safe), 0.0)
