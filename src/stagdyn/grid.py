"""Staggered finite-difference discretization in 1D and 2D.

The discrete operator pair (E, E*) is kept exactly adjoint with respect to
the quadrature-weighted stress inner product and the plain velocity pairing:

    <S, E v>_w = <E* S, v>      for all fields S, v,

because E* is implemented as the algebraic weighted transpose of the same
stencil, never as a separate discretization.  Every energy identity of the
integrator relies on this.

Layouts
-------
1D (nx cells, spacing h):
    velocity at cell centers (nx,), stress at nodes (nx+1,).
2D (nx x ny cells, Virieux staggering, Mandel components):
    v_x on vertical edges (nx+1, ny), v_y on horizontal edges (nx, ny+1);
    sigma_xx and sigma_yy at cell centers (nx, ny), and sqrt(2)*sigma_xy at
    vertices (nx+1, ny+1).  The sqrt(2) (Mandel) scaling makes all stress
    inner products plain weighted Euclidean products.

Boundary kinds per side:
    "dirichlet"  clamped; zero ghost velocities, boundary stress rows active,
                 on-boundary normal velocities pinned (2D);
    "neumann"    traction-free; the side's boundary stress DOFs are masked
                 out of the operator range;
    "traction"   structurally identical to "dirichlet", marks the side as a
                 target for the boundary stress drive D.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, LayoutError

BC_KINDS = ("dirichlet", "neumann", "traction")
SIDES = ("left", "right", "bottom", "top")

_SQRT2 = np.sqrt(2.0)


def _aligned_empty(n):
    """``np.empty(n)`` on a 64-byte boundary, where ufuncs write fastest."""
    buf = np.empty(n + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:n]


@dataclass(frozen=True)
class Grid:
    """Uniform structured grid with per-side boundary kinds.

    Parameters
    ----------
    dim : int
        1 or 2.
    nx, ny : int
        Cell counts (ny ignored in 1D).
    h : float
        Uniform spacing.
    bc : tuple of str
        Boundary kinds, ("left", "right") in 1D and
        ("left", "right", "bottom", "top") in 2D.
    """

    dim: int
    nx: int
    h: float
    bc: tuple
    ny: int = 0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"unsupported dim {self.dim}", "grid.dim")
        if self.nx < 2:
            raise ConfigError("nx must be >= 2", "grid.nx")
        if self.dim == 2 and self.ny < 2:
            raise ConfigError("ny must be >= 2", "grid.ny")
        if not self.h > 0:
            raise ConfigError("h must be > 0", "grid.h")
        nsides = 2 * self.dim
        if len(self.bc) != nsides:
            raise ConfigError(f"expected {nsides} boundary kinds", "grid.bc")
        for side, kind in zip(SIDES, self.bc):
            if kind not in BC_KINDS:
                raise ConfigError(f"unknown boundary kind {kind!r}",
                                  f"grid.bc_{side}")


class Discretization:
    """Assembled operators, weights and masks for one grid.

    The fields are immutable after construction; the scratch arrays are
    private.  Operators fill private scratch buffers but return fresh
    arrays only, never a view of a buffer.  ``s_inactive`` and
    ``v_inactive`` list the masked-out stress and velocity DOFs (the
    complements of ``s_active`` and ``v_active``); ``inv_mass`` is 1/M.
    ``lap_z_bands`` holds the (sub, diagonal, super) bands of the 1D
    :meth:`lap_z` matrix, which 1D :meth:`lap_z` applies (None in 2D).
    Use :func:`build` to construct.
    """

    def __init__(self, grid, rho, moduli):
        self.grid = grid
        self.dim = grid.dim
        self.h = grid.h
        self.rho = float(rho)
        if not self.rho > 0:
            raise ConfigError("density must be > 0", "material.rho")

        if self.dim == 1:
            self._init_1d(moduli)
        else:
            self._init_2d(moduli)
        self.moduli = self.c_mod if self.dim == 1 else (self.k_mod, self.g_mod)

        if not np.all(self.mass > 0):
            raise ConfigError("zero mass entry in discretization", "grid")
        self.inv_mass = 1.0 / self.mass
        self.s_inactive = np.flatnonzero(~self.s_active)
        self.v_inactive = np.flatnonzero(~self.v_active)
        # the products sdot reduces, and the weighted input of E*
        self._sw = _aligned_empty(self.n_s)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _init_1d(self, moduli):
        grid = self.grid
        nx, h = grid.nx, grid.h
        self.c_mod = float(moduli["modulus"])
        if not self.c_mod > 0:
            raise ConfigError("modulus must be > 0", "material.modulus")

        self.n_v = nx
        self.n_s = nx + 1
        self.mass = np.full(nx, self.rho * h)
        self.v_active = np.ones(nx, dtype=bool)

        w = np.full(nx + 1, h)
        w[0] = w[-1] = 0.5 * h
        self.sweights = w
        act = np.ones(nx + 1, dtype=bool)
        if grid.bc[0] == "neumann":
            act[0] = False
        if grid.bc[1] == "neumann":
            act[-1] = False
        self.s_active = act

        # stress-layout gradient graph (per component == whole layout in 1D);
        # edges touching masked nodes are dropped (natural boundary condition)
        ew = np.full(nx, h)
        ew *= act[:-1] * act[1:]
        self._lap_edge_w = ew

        # scalar internal-variable layout: colocated with stress nodes
        self.zs_n = nx + 1
        self.zs_weights = w.copy()
        self._z_edge_w = np.full(nx, h)
        sub = np.append(0.0, self._z_edge_w / (h * h)) / w
        sup = np.append(self._z_edge_w / (h * h), 0.0) / w
        self.lap_z_bands = (sub, -(sub + sup), sup)

    def _init_2d(self, moduli):
        grid = self.grid
        nx, ny, h = grid.nx, grid.ny, grid.h
        self.k_mod = float(moduli["bulk_modulus"])
        self.g_mod = float(moduli["shear_modulus"])
        if not self.k_mod > 0:
            raise ConfigError("must be > 0", "material.bulk_modulus")
        if not self.g_mod > 0:
            raise ConfigError("must be > 0", "material.shear_modulus")

        self.shape_vx = (nx + 1, ny)
        self.shape_vy = (nx, ny + 1)
        self.shape_c = (nx, ny)
        self.shape_vert = (nx + 1, ny + 1)
        # stencil and elasticity-map work space: no 2D layout is larger
        self._scratch = _aligned_empty((nx + 1) * (ny + 1) + 1)
        nvx = (nx + 1) * ny
        nvy = nx * (ny + 1)
        nc = nx * ny
        nvert = (nx + 1) * (ny + 1)
        self.n_v = nvx + nvy
        self.n_s = 2 * nc + nvert
        self._vx_sl = slice(0, nvx)
        self._vy_sl = slice(nvx, nvx + nvy)
        self._xx_sl = slice(0, nc)
        self._yy_sl = slice(nc, 2 * nc)
        self._xy_sl = slice(2 * nc, 2 * nc + nvert)

        left, right, bottom, top = grid.bc

        mass = np.empty(self.n_v)
        mvx = np.full(self.shape_vx, self.rho * h * h)
        mvx[0, :] *= 0.5
        mvx[-1, :] *= 0.5
        mvy = np.full(self.shape_vy, self.rho * h * h)
        mvy[:, 0] *= 0.5
        mvy[:, -1] *= 0.5
        mass[self._vx_sl] = mvx.ravel()
        mass[self._vy_sl] = mvy.ravel()
        self.mass = mass

        v_active = np.ones(self.n_v, dtype=bool)
        avx = np.ones(self.shape_vx, dtype=bool)
        avy = np.ones(self.shape_vy, dtype=bool)
        if left in ("dirichlet", "traction"):
            avx[0, :] = False
        if right in ("dirichlet", "traction"):
            avx[-1, :] = False
        if bottom in ("dirichlet", "traction"):
            avy[:, 0] = False
        if top in ("dirichlet", "traction"):
            avy[:, -1] = False
        v_active[self._vx_sl] = avx.ravel()
        v_active[self._vy_sl] = avy.ravel()
        self.v_active = v_active

        w = np.empty(self.n_s)
        w[self._xx_sl] = h * h
        w[self._yy_sl] = h * h
        fx = np.ones(nx + 1)
        fx[0] = fx[-1] = 0.5
        fy = np.ones(ny + 1)
        fy[0] = fy[-1] = 0.5
        wvert = h * h * np.outer(fx, fy)
        w[self._xy_sl] = wvert.ravel()
        self.sweights = w

        act = np.ones(self.n_s, dtype=bool)
        avert = np.ones(self.shape_vert, dtype=bool)
        if left == "neumann":
            avert[0, :] = False
        if right == "neumann":
            avert[-1, :] = False
        if bottom == "neumann":
            avert[:, 0] = False
        if top == "neumann":
            avert[:, -1] = False
        act[self._xy_sl] = avert.ravel()
        self.s_active = act

        # vertex gradient-graph edge weights for laplacian_stress; the
        # cell-centre components use the z edge weights below
        vwx = 0.5 * (wvert[:-1, :] + wvert[1:, :])
        vwx *= avert[:-1, :] * avert[1:, :]
        vwy = 0.5 * (wvert[:, :-1] + wvert[:, 1:])
        vwy *= avert[:, :-1] * avert[:, 1:]
        self._lap_v_wx = vwx
        self._lap_v_wy = vwy

        # scalar internal-variable layout: cell centers
        self.zs_n = nc
        self.zs_weights = np.full(nc, h * h)
        self._z_edge_wx = np.full((nx - 1, ny), h * h)
        self._z_edge_wy = np.full((nx, ny - 1), h * h)
        self.lap_z_bands = None  # the 5-point lap_z is not tridiagonal

        # adjacent-center counts per vertex (for damage averaging)
        nadj = np.full(self.shape_vert, 4.0)
        nadj[0, :] /= 2.0
        nadj[-1, :] /= 2.0
        nadj[:, 0] /= 2.0
        nadj[:, -1] /= 2.0
        self._vert_nadj = nadj

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def vx_view(self, v):
        return v[self._vx_sl].reshape(self.shape_vx)

    def vy_view(self, v):
        return v[self._vy_sl].reshape(self.shape_vy)

    def sxx_view(self, s):
        return s[self._xx_sl].reshape(self.shape_c)

    def syy_view(self, s):
        return s[self._yy_sl].reshape(self.shape_c)

    def sxy_view(self, s):
        return s[self._xy_sl].reshape(self.shape_vert)

    def zeros_v(self):
        return np.zeros(self.n_v)

    def zeros_s(self):
        return np.zeros(self.n_s)

    def _check_v(self, v):
        if v.shape != (self.n_v,):
            raise LayoutError(f"velocity field shape {v.shape} != ({self.n_v},)")

    def _check_s(self, s):
        if s.shape != (self.n_s,):
            raise LayoutError(f"stress field shape {s.shape} != ({self.n_s},)")

    # ------------------------------------------------------------------
    # core operators
    # ------------------------------------------------------------------

    def apply_E(self, v):
        """Discrete symmetric gradient, velocity layout -> stress layout."""
        self._check_v(v)
        if self.dim == 1:
            out = kernels.grad_1d(v, self.h)
        else:
            out = np.empty(self.n_s)
            kernels.grad_2d(self.vx_view(v), self.vy_view(v), self.h,
                            self.sxx_view(out), self.syy_view(out),
                            self.sxy_view(out), self._scratch)
        out[self.s_inactive] = 0.0
        return out

    def apply_E_adjoint(self, s):
        """Exact weighted transpose of :meth:`apply_E`.

        Satisfies ``<S, E v>_w == <E* S, v>`` for all fields, with the
        stress pairing weighted by the quadrature weights and the velocity
        pairing unweighted (mass-free).
        """
        self._check_s(s)
        sw = np.multiply(self.sweights, s, out=self._sw)
        sw[self.s_inactive] = 0.0
        if self.dim == 1:
            return kernels.grad_1d_t(sw, self.h)
        out = np.empty(self.n_v)
        kernels.grad_2d_t(self.sxx_view(sw), self.syy_view(sw),
                          self.sxy_view(sw), self.h, self.vx_view(out),
                          self.vy_view(out), self._scratch)
        return out

    def _apply_pair(self, a_xx, a_yy, p, q, out_xx, out_yy, combine):
        """``out_xx = combine(p a_xx, q a_yy)``, ``out_yy = combine(p a_yy,
        q a_xx)``: the normal-component block of the elasticity maps."""
        t = self._scratch[:out_xx.size].reshape(out_xx.shape)
        np.multiply(a_xx, p, out=out_xx)
        np.multiply(a_yy, q, out=t)
        combine(out_xx, t, out=out_xx)
        np.multiply(a_yy, p, out=out_yy)
        np.multiply(a_xx, q, out=t)
        combine(out_yy, t, out=out_yy)

    def apply_C(self, e, moduli=None):
        """Generalized elasticity map, strain layout -> stress layout; also
        C I and C* I* of the scheme (C is symmetric, I = id: conforming).
        ``moduli``: C in 1D, (K, G) in 2D; by default ``self.moduli``."""
        self._check_s(e)
        m = self.moduli if moduli is None else moduli
        if self.dim == 1:
            return m * e
        K, G = m
        out = np.empty_like(e)
        # xx: (K+G) exx + (K-G) eyy,  yy: (K-G) exx + (K+G) eyy
        self._apply_pair(self.sxx_view(e), self.syy_view(e), K + G, K - G,
                         self.sxx_view(out), self.syy_view(out), np.add)
        np.multiply(self.sxy_view(e), 2.0 * G, out=self.sxy_view(out))
        return out

    def apply_C_inv(self, s):
        """Inverse elasticity map (compliance)."""
        self._check_s(s)
        if self.dim == 1:
            return s * (1.0 / self.c_mod)
        K, G = self.moduli
        rdet = 1.0 / (4.0 * K * G)
        out = np.empty_like(s)
        # xx: ((K+G)/det) sxx - ((K-G)/det) syy,  yy likewise; the
        # quotients are (K+G) * (1/det) and (K-G) * (1/det)
        self._apply_pair(self.sxx_view(s), self.syy_view(s), (K + G) * rdet,
                         (K - G) * rdet, self.sxx_view(out),
                         self.syy_view(out), np.subtract)
        np.multiply(self.sxy_view(s), 1.0 / (2.0 * G), out=self.sxy_view(out))
        return out

    # ------------------------------------------------------------------
    # stress-layout laplacian (strain-gradient regularization)
    # ------------------------------------------------------------------

    def laplacian_stress(self, s):
        """Componentwise graph laplacian on the stress layout.

        Symmetric negative-semidefinite in the weighted inner product:
        ``<L S, S>_w <= 0`` and ``<L S1, S2>_w == <S1, L S2>_w``.  Built as
        ``-(1/w) G^T (w_e G)`` with natural (no-flux) boundary edges.
        """
        self._check_s(s)
        r = 1.0 / self.h
        if self.dim == 1:
            g = (s[1:] - s[:-1]) * r
            acc = np.zeros_like(s)
            f = self._lap_edge_w * g * r
            acc[:-1] += f
            acc[1:] -= f
            return acc / self.sweights

        out = np.empty_like(s)
        for view, wx, wy in (
            (self.sxx_view, self._z_edge_wx, self._z_edge_wy),
            (self.syy_view, self._z_edge_wx, self._z_edge_wy),
            (self.sxy_view, self._lap_v_wx, self._lap_v_wy),
        ):
            comp = view(s)
            acc = np.zeros_like(comp)
            gx = wx * (comp[1:, :] - comp[:-1, :]) * r * r
            acc[:-1, :] += gx
            acc[1:, :] -= gx
            gy = wy * (comp[:, 1:] - comp[:, :-1]) * r * r
            acc[:, :-1] += gy
            acc[:, 1:] -= gy
            view(out)[:] = acc
        return out / self.sweights

    # ------------------------------------------------------------------
    # scalar internal-variable layout helpers
    # ------------------------------------------------------------------

    def grad_z(self, z):
        """Gradient of a scalar internal field onto its interior edges."""
        if self.dim == 1:
            return (z[1:] - z[:-1]) * (1.0 / self.h)
        f = z.reshape(self.shape_c)
        gx = (f[1:, :] - f[:-1, :]) * (1.0 / self.h)
        gy = (f[:, 1:] - f[:, :-1]) * (1.0 / self.h)
        return np.concatenate([gx.ravel(), gy.ravel()])

    def grad_z_norm2(self, z, mobility=1.0):
        """Weighted squared gradient norm ``sum_e w_e m |grad z|^2``."""
        g = self.grad_z(z)
        if self.dim == 1:
            return float((self._z_edge_w * mobility * g * g).sum())
        nxe = self._z_edge_wx.size
        gx = g[:nxe].reshape(self._z_edge_wx.shape)
        gy = g[nxe:].reshape(self._z_edge_wy.shape)
        return float((self._z_edge_wx * mobility * gx * gx).sum()
                     + (self._z_edge_wy * mobility * gy * gy).sum())

    def div_z(self, flux):
        """Negative weighted transpose of :meth:`grad_z` (discrete div).

        ``<div_z q, z>_wz = -<q, grad_z z>_we`` for all fields; with the
        no-flux convention built in, constants are annihilated by the
        transpose so the weighted mean of ``div_z q`` vanishes.
        """
        if self.dim == 1:
            acc = np.zeros(self.zs_n)
            f = self._z_edge_w * flux * (1.0 / self.h)
            acc[:-1] += f
            acc[1:] -= f
            return acc / self.zs_weights
        nxe = self._z_edge_wx.size
        qx = flux[:nxe].reshape(self._z_edge_wx.shape)
        qy = flux[nxe:].reshape(self._z_edge_wy.shape)
        acc = np.zeros(self.shape_c)
        fx = self._z_edge_wx * qx * (1.0 / self.h)
        acc[:-1, :] += fx
        acc[1:, :] -= fx
        fy = self._z_edge_wy * qy * (1.0 / self.h)
        acc[:, :-1] += fy
        acc[:, 1:] -= fy
        return acc.ravel() / self.zs_weights

    def lap_z(self, z, coeff=1.0):
        """Scalar graph laplacian ``div_z(coeff * grad_z z)``, for a scalar
        ``coeff``; NSD.  In 1D it is ``coeff`` times the banded product of
        ``lap_z_bands``, which equals that composition to round-off."""
        if self.dim == 2:
            return self.div_z(coeff * self.grad_z(z))
        out = kernels.band_product(self.lap_z_bands, z)
        if coeff != 1.0:
            out *= coeff
        return out

    # ------------------------------------------------------------------
    # vertex <-> center transfer (2D damage shear coupling)
    # ------------------------------------------------------------------

    def avg_centers_to_vertices(self, c):
        """Plain average of a center field over the centers adjacent to
        each vertex (2, or 1 at corners, on the boundary)."""
        f = c.reshape(self.shape_c)
        acc = np.zeros(self.shape_vert)
        acc[:-1, :-1] += f
        acc[1:, :-1] += f
        acc[:-1, 1:] += f
        acc[1:, 1:] += f
        return acc / self._vert_nadj

    def scatter_vertices_to_centers(self, u):
        """Weighted transpose of :meth:`avg_centers_to_vertices` against the
        (vertex-weight, center-weight) pairing: each vertex value is split
        evenly among its adjacent centers."""
        g = (self.sweights[self._xy_sl].reshape(self.shape_vert) * u.reshape(self.shape_vert)
             / self._vert_nadj)
        acc = np.zeros(self.shape_c)
        acc += g[:-1, :-1]
        acc += g[1:, :-1]
        acc += g[:-1, 1:]
        acc += g[1:, 1:]
        return (acc / self.zs_weights.reshape(self.shape_c)).ravel()

    # ------------------------------------------------------------------
    # inner products & loading patterns
    # ------------------------------------------------------------------

    def sdot(self, a, b):
        """Weighted stress-layout inner product (fixed reduction order)."""
        p = np.multiply(self.sweights, a, out=self._sw)
        p *= b
        return float(p.sum())

    def zdot(self, a, b):
        """Weighted scalar-internal-layout inner product."""
        p = self.zs_weights * a
        p *= b
        return float(p.sum())

    def traction_pattern(self, side):
        """Unit stress-space pattern driven by the boundary source G.

        1D: the boundary node of the side.  2D: the normal-stress component
        in the cell layer adjacent to the side.
        """
        s = self.zeros_s()
        if self.dim == 1:
            s[0 if side == "left" else -1] = 1.0
            return s
        if side == "left":
            self.sxx_view(s)[0, :] = 1.0
        elif side == "right":
            self.sxx_view(s)[-1, :] = 1.0
        elif side == "bottom":
            self.syy_view(s)[:, 0] = 1.0
        elif side == "top":
            self.syy_view(s)[:, -1] = 1.0
        else:
            raise ConfigError(f"unknown side {side!r}", "loading.traction_side")
        return s

    def sigma_physical(self, s):
        """Snapshot copy with the Mandel sqrt(2) scaling removed (2D)."""
        out = s.copy()
        if self.dim == 2:
            self.sxy_view(out)[:] *= 1.0 / _SQRT2
        return out


def build(grid, rho, moduli):
    """Assemble a :class:`Discretization` for ``grid``.

    Parameters
    ----------
    grid : Grid
    rho : float
        Mass density (uniform).
    moduli : dict
        ``{"modulus": C}`` in 1D, ``{"bulk_modulus": K, "shear_modulus": G}``
        in 2D.
    """
    return Discretization(grid, rho, moduli)
