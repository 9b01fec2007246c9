"""The four material models.

Each model supplies the stored energy in proto-stress form, its exact
derivatives with respect to the proto-stress and the internal variable,
the true stress entering the momentum balance, the convex dissipation
rate, and the implicit midpoint step for the internal variable.

Conventions shared with :mod:`stagdyn.grid`:

* all derivatives are gradients with respect to the *weighted* inner
  products of the owning layout (so < dphi, delta >_w is the directional
  derivative of phi);
* the internal step solves the incremental minimization
  ``z -> (2/tau) * phi(sigma, (z + z_k)/2) + psi((z - z_k)/tau)``
  exactly (closed form) or to the stated solver tolerance, with the
  already-updated proto-stress ``sigma`` held fixed;
* 2D tensor fields use Mandel components (sqrt(2) on the shear), which
  makes every tensor contraction a plain weighted dot product.
"""

import numpy as np

from . import kernels
from .errors import ConfigError, SolverError
from .solvers import solve_asymmetric_quadratic, solve_linear_spd, _cg

_SQRT2 = np.sqrt(2.0)

LINEAR_SOLVE_TOL = 1e-10  # inner linear solves (Biot)
KKT_TOL = 1e-9            # constrained internal steps (damage)


class MaterialModel:
    """Interface shared by all material models."""

    name = "abstract"

    def z_size(self, disc):
        raise NotImplementedError

    def z_init(self, disc):
        return np.zeros(self.z_size(disc))

    def z_weights(self, disc):
        raise NotImplementedError

    def phi(self, disc, sigma, z, g=None, s_true=None):
        """Stored energy Phi(Sigma, z).

        ``g`` and ``s_true``, when given, are ``dphi_dsigma(sigma, z)``
        and the true stress C* I* g, already formed by the caller; a
        material may reuse them.

        Contract, which ``integrator.advance`` relies on: every entry of
        ``sigma`` and ``z`` (or of ``g`` and ``s_true`` formed from them)
        enters the value with a finite nonzero factor, never masked,
        clipped, compared or divided by, so one NaN or +-inf makes it
        non-finite.
        """
        raise NotImplementedError

    def dphi_dsigma(self, disc, sigma, z):
        """Weighted gradient of phi in the proto-stress (a strain field)."""
        raise NotImplementedError

    # Optional hook (disc, dz) -> the change of dphi_dsigma(sigma, z) when z
    # moves by dz, for a gradient affine in z with a slope free of sigma
    # and z; it may overwrite dz.  None: the energy audit evaluates
    # dphi_dsigma in full where it needs it away from a midpoint.
    dphi_dsigma_shift = None

    def dphi_dz(self, disc, sigma, z):
        """Weighted gradient of phi in the internal variable."""
        raise NotImplementedError

    def stiffest_state(self, z):
        """The stiffest internal state a run from ``z`` can reach."""
        return z

    def true_stress(self, disc, sigma, z):
        """Stress entering the momentum balance: C* I* dphi_dsigma, which is
        C dphi_dsigma on these conforming grids (I = id, C* = C)."""
        return disc.apply_C(self.dphi_dsigma(disc, sigma, z))

    def internal_step(self, disc, sigma_next, z_k, tau, z_prev=None):
        """Advance the internal variable by one implicit midpoint step.

        ``z_prev`` (the level before ``z_k``) may seed a solve, within its
        tolerance.  Returns ``(z_next, info)`` where ``info`` carries solver
        by-products needed by the energy ledger (e.g. the realized
        chemical potential for nonlocal dissipation) and the solver's
        counts (``iters``, ``rounds``).
        """
        raise NotImplementedError

    def dissipation_rate(self, disc, zdot):
        """Dissipation rate Xi(zdot) = inf <dPsi(zdot), zdot>; nonnegative."""
        raise NotImplementedError

    def psi(self, disc, zdot):
        """Dissipation potential Psi(zdot) (may be +inf)."""
        raise NotImplementedError

    def incremental_objective(self, disc, sigma_next, z_k, tau, z):
        """The convex increment functional minimized by the internal step:
        ``(2/tau) phi(sigma, (z + z_k)/2) + psi((z - z_k)/tau)``."""
        mid = 0.5 * (z + z_k)
        return (2.0 / tau) * self.phi(disc, sigma_next, mid) + self.psi(
            disc, (z - z_k) / tau)

    def step_dissipation(self, disc, dz, tau, info):
        """Xi of one accepted step, increment ``dz`` (ledger entry)."""
        return self.dissipation_rate(disc, dz * (1.0 / tau))

    def supports_reference_integrator(self):
        """Whether the monolithic linear midpoint oracle applies."""
        return False


# ---------------------------------------------------------------------------
# elastic
# ---------------------------------------------------------------------------

class ElasticMaterial(MaterialModel):
    """Linear elasticity; no internal variable, S = Sigma."""

    name = "elastic"

    def z_size(self, disc):
        return 0

    def z_weights(self, disc):
        return np.zeros(0)

    def phi(self, disc, sigma, z, g=None, s_true=None):
        if g is None:
            g = disc.apply_C_inv(sigma)
        return 0.5 * disc.sdot(g, sigma)

    def dphi_dsigma(self, disc, sigma, z):
        return disc.apply_C_inv(sigma)

    def dphi_dz(self, disc, sigma, z):
        return np.zeros(0)

    def dphi_dsigma_shift(self, disc, dz):
        # dphi_dsigma is free of z
        return disc.zeros_s()

    def internal_step(self, disc, sigma_next, z_k, tau, z_prev=None):
        return z_k, {}

    def dissipation_rate(self, disc, zdot):
        return 0.0

    def psi(self, disc, zdot):
        return 0.0

    def supports_reference_integrator(self):
        return True


# ---------------------------------------------------------------------------
# plasticity / creep
# ---------------------------------------------------------------------------

class PlasticCreepMaterial(MaterialModel):
    """Viscoplasticity with optional isotropic hardening.

    ``sigma_y = 0`` gives the Maxwell (creep) rheology, ``sigma_y = 0`` with
    nonzero hardening the Zener standard linear solid, ``sigma_y > 0`` with
    positive viscosity the viscoplastic model.  The flow rule is local, so
    the internal step is a pointwise closed-form return map, one radial
    return for every yield stress.  In 2D plastic flow is trace-free: the
    trace creeps only when ``sigma_y == 0``, and with ``sigma_y > 0``
    ``psi`` is ``+inf`` on a rate with a trace.

    Parameters
    ----------
    viscosity : float
        Viscous coefficient D > 0 (required: rate-independent plasticity is
        out of scope).
    sigma_y : float
        Yield stress, >= 0.
    hardening : float or (float, float)
        Hardening moduli C2: a scalar in 1D, ``(K2, G2)`` in 2D; may be 0.
        The elastic moduli C1 are the discretization's elasticity map.
    """

    name = "plastic_creep"

    def __init__(self, viscosity, sigma_y=0.0, hardening=0.0):
        if not viscosity > 0:
            raise ConfigError("viscosity must be > 0 (p >= 2 required)",
                              "material.viscosity")
        if sigma_y < 0:
            raise ConfigError("yield stress must be >= 0", "material.yield_stress")
        if np.isscalar(hardening):
            hardening = (hardening, hardening)
        k2, g2 = map(float, hardening)
        if k2 < 0 or g2 < 0:
            raise ConfigError("hardening must be >= 0", "material.hardening")
        self.viscosity = float(viscosity)
        self.sigma_y = float(sigma_y)
        self.hardening = (k2, g2)

    def _c2(self, disc):
        """C2 in the form of ``disc.moduli``: C2 in 1D, (K2, G2) in 2D."""
        return self.hardening[0] if disc.dim == 1 else self.hardening

    def _cbar(self, disc):
        """C1 + C2 in Python floats (numpy scalars slow the ufuncs)."""
        return np.add(disc.moduli, self._c2(disc)).tolist()

    def z_size(self, disc):
        return disc.n_s

    def z_weights(self, disc):
        return disc.sweights

    def phi(self, disc, sigma, z, g=None, s_true=None):
        # 1/2 <C1^-1 s, s> - <s, p> + 1/2 <(C1+C2) p, p> equals
        # 1/2 <C1 g, g> + 1/2 <C2 p, p> with g = C1^-1 s - p, whose terms
        # are nonnegative: no cancellation when s is close to C1 p.  The
        # true stress C* I* g is C1 g: I is the identity on these grids.
        if g is None:
            g = self.dphi_dsigma(disc, sigma, z)
        if s_true is None:
            s_true = disc.apply_C(g)
        val = 0.5 * disc.sdot(s_true, g)
        if np.any(self._c2(disc)):
            val += 0.5 * disc.sdot(disc.apply_C(z, self._c2(disc)), z)
        return val

    def dphi_dsigma(self, disc, sigma, z):
        g = disc.apply_C_inv(sigma)
        g -= z
        return g

    def dphi_dsigma_shift(self, disc, dz):
        # dphi_dsigma is C1^-1 sigma - z
        return np.negative(dz, out=dz)

    def dphi_dz(self, disc, sigma, z):
        return disc.apply_C(z, self._cbar(disc)) - sigma

    def internal_step(self, disc, sigma_next, z_k, tau, z_prev=None):
        cbar = self._cbar(disc)
        q = disc.apply_C(z_k, cbar)
        np.subtract(sigma_next, q, out=q)
        dvisc = self.viscosity / tau
        if disc.dim == 1:
            scale = kernels.radial_return(np.abs(q), self.sigma_y,
                                          dvisc + 0.5 * cbar)
            return z_k + scale * q, {}

        kbar, gbar = cbar
        factor = dvisc + gbar
        qxx = disc.sxx_view(q)
        qyy = disc.syy_view(q)
        qxy = disc.sxy_view(q)
        # z_next = z_k + delta, written component by component
        z_next = np.empty_like(q)
        nxx = disc.sxx_view(z_next)
        nyy = disc.syy_view(z_next)
        nxy = disc.sxy_view(z_next)
        # deviatoric radial return.  (q_xx - q_yy)/sqrt(2) is the
        # orthonormal (Mandel) deviator coordinate whose magnitude is the
        # tensor norm of the normal-deviator part, matching the
        # dissipation norm.  dd = s(|qd|) qd / sqrt(2), formed in place.
        dd = np.subtract(qxx, qyy)
        dd *= 1.0 / _SQRT2
        dd *= kernels.radial_return(np.abs(dd), self.sigma_y, factor)
        dd *= 1.0 / _SQRT2
        # the deviator flow enters xx with +, yy with -
        np.add(disc.sxx_view(z_k), dd, out=nxx)
        np.subtract(disc.syy_view(z_k), dd, out=nyy)
        np.multiply(kernels.radial_return(np.abs(qxy), self.sigma_y,
                                          factor), qxy, out=nxy)
        np.add(disc.sxy_view(z_k), nxy, out=nxy)
        if self.sigma_y == 0.0:
            # the trace creeps, through Kbar, only without a yield stress
            du = 0.5 * (qxx + qyy) / (dvisc + kbar)
            nxx += du
            nyy += du
        return z_next, {}

    def _flow_norm_integral(self, disc, zdot):
        """sum of w * |zdot| with the per-location group norms."""
        w = disc.sweights
        if disc.dim == 1:
            return float((w * np.abs(zdot)).sum())
        # sum of wc sqrt(zxx^2 + zyy^2) over centers, wv |zxy| over vertices
        nrm_c = np.square(disc.sxx_view(zdot))
        nrm_c += np.square(disc.syy_view(zdot))
        np.sqrt(nrm_c, out=nrm_c)
        nrm_c *= disc.sxx_view(w)
        abs_v = np.abs(disc.sxy_view(zdot))
        abs_v *= disc.sxy_view(w)
        return float(nrm_c.sum()) + float(abs_v.sum())

    def dissipation_rate(self, disc, zdot):
        quad = self.viscosity * disc.sdot(zdot, zdot)
        return self.sigma_y * self._flow_norm_integral(disc, zdot) + quad

    def step_dissipation(self, disc, dz, tau, info):
        """Xi(dz / tau) = (sigma_y F + (D / tau) <dz, dz>_w) / tau without
        forming dz / tau: F, the flow-norm integral of dz, and <dz, dz>_w
        share one set of squares.  :meth:`dissipation_rate` is the
        reference."""
        w = disc.sweights
        if disc.dim == 1:
            groups = ((np.square(dz), w),)
        else:
            sq_c = np.square(disc.sxx_view(dz))
            sq_c += np.square(disc.syy_view(dz))
            groups = ((sq_c, disc.sxx_view(w)),
                      (np.square(disc.sxy_view(dz)), disc.sxy_view(w)))
        quad = flow = 0.0
        for sq, wg in groups:
            quad += float((wg * sq).sum())
            if self.sigma_y:
                np.sqrt(sq, out=sq)  # the group norms
                sq *= wg
                flow += float(sq.sum())
        return (self.sigma_y * flow + (self.viscosity / tau) * quad) * (
            1.0 / tau)

    def psi(self, disc, zdot):
        if disc.dim == 2 and self.sigma_y > 0.0:
            # plastic flow is trace-free: a trace rate is inadmissible
            tr = np.abs(disc.sxx_view(zdot) + disc.syy_view(zdot))
            if np.any(tr > 1e-12 * max(1.0, float(np.max(np.abs(zdot))))):
                return np.inf
        # same yield term as Xi, half the rate term
        quad = 0.5 * self.viscosity * disc.sdot(zdot, zdot)
        return self.sigma_y * self._flow_norm_integral(disc, zdot) + quad

    def supports_reference_integrator(self):
        return self.sigma_y == 0.0

    def zdot_linear(self, disc, sigma, z):
        """Continuous flow rate D^-1 (sigma - Cbar z); creep only."""
        return -self.dphi_dz(disc, sigma, z) / self.viscosity


# ---------------------------------------------------------------------------
# Biot poroelasticity
# ---------------------------------------------------------------------------

class BiotMaterial(MaterialModel):
    """Biot poroelasticity with Cahn-Hilliard-type diffusant flow.

    The dissipation potential is the convex conjugate of the quadratic
    flow potential and is never evaluated directly: the internal step solves
    the equivalent implicit diffusion system, and the realized chemical
    potential gives the dissipation.

    Parameters
    ----------
    biot_modulus : float
        M > 0.
    biot_coefficient : float
        beta > 0.
    l_coefficient : float
        L >= 0, equilibrium-content penalty.
    zeta_eq : float
        Equilibrium content.
    capillarity : float
        kappa >= 0, gradient-energy coefficient.
    mobility : float
        Constant scalar mobility, > 0.
    """

    name = "biot"

    def __init__(self, biot_modulus, biot_coefficient, l_coefficient=0.0,
                 zeta_eq=0.0, capillarity=0.0, mobility=1.0):
        if not biot_modulus > 0:
            raise ConfigError("biot modulus must be > 0", "material.biot_modulus")
        if biot_coefficient < 0:
            raise ConfigError("biot coefficient must be >= 0",
                              "material.biot_coefficient")
        if l_coefficient < 0 or capillarity < 0:
            raise ConfigError("L and capillarity must be >= 0", "material")
        if not mobility > 0:
            raise ConfigError("mobility must be > 0", "material.mobility")
        self.M = float(biot_modulus)
        self.beta = float(biot_coefficient)
        self.L = float(l_coefficient)
        self.zeta_eq = float(zeta_eq)
        self.kappa = float(capillarity)
        self.mobility = float(mobility)

    def _bulk(self, disc):
        return disc.c_mod if disc.dim == 1 else disc.k_mod

    def tr_sigma(self, disc, sigma):
        """Trace of the proto-stress on the internal-variable layout."""
        if disc.dim == 1:
            return sigma
        return (disc.sxx_view(sigma) + disc.syy_view(sigma)).ravel()

    def z_size(self, disc):
        return disc.zs_n

    def z_init(self, disc):
        return np.full(disc.zs_n, self.zeta_eq)

    def z_weights(self, disc):
        return disc.zs_weights

    def _content_mismatch(self, disc, sigma, zeta):
        # beta * tr e - zeta  with  tr e = tr sigma / (d K)
        d = disc.dim
        return self.beta * self.tr_sigma(disc, sigma) / (d * self._bulk(disc)) - zeta

    def phi(self, disc, sigma, z, g=None, s_true=None):
        mism = self._content_mismatch(disc, sigma, z)
        dev_eq = z - self.zeta_eq
        val = 0.5 * disc.sdot(disc.apply_C_inv(sigma), sigma)
        val += 0.5 * self.M * disc.zdot(mism, mism)
        val += 0.5 * self.L * disc.zdot(dev_eq, dev_eq)
        val += 0.5 * self.kappa * disc.grad_z_norm2(z)
        return val

    def _coupling(self, disc):
        # beta M / (d K): the z-derivative of dphi_dsigma, up to sign, on
        # the trace
        return self.beta * self.M / (disc.dim * self._bulk(disc))

    def _add_trace(self, disc, out, g):
        """out + g on the trace (the normal stress components), in place."""
        if disc.dim == 1:
            out += g
        else:
            g2 = g.reshape(disc.shape_c)
            disc.sxx_view(out)[:] += g2
            disc.syy_view(out)[:] += g2
        return out

    def dphi_dsigma(self, disc, sigma, z):
        return self._add_trace(
            disc, disc.apply_C_inv(sigma),
            self._coupling(disc) * self._content_mismatch(disc, sigma, z))

    def dphi_dsigma_shift(self, disc, dz):
        return self._add_trace(disc, disc.zeros_s(), -self._coupling(disc) * dz)

    def dphi_dz(self, disc, sigma, z):
        """Chemical potential mu."""
        mu = -self.M * self._content_mismatch(disc, sigma, z)
        mu += self.L * (z - self.zeta_eq)
        mu -= self.kappa * disc.lap_z(z)
        return mu

    def _apply_B(self, disc, f):
        # Hessian of phi in zeta: (M + L) I - kappa * lap
        out = (self.M + self.L) * f
        out -= self.kappa * disc.lap_z(f)
        return out

    def internal_step(self, disc, sigma_next, z_k, tau, z_prev=None):
        mu_k = self.dphi_dz(disc, sigma_next, z_k)
        rhs = disc.lap_z(mu_k, self.mobility)

        def apply_A(x):
            return x / tau - 0.5 * disc.lap_z(self._apply_B(disc, x),
                                              self.mobility)

        def dot(x, y):
            # A is self-adjoint in the B-twisted weighted inner product
            return disc.zdot(self._apply_B(disc, x), y)

        info = {}
        delta = solve_linear_spd(apply_A, rhs, dot, LINEAR_SOLVE_TOL,
                                 info=info)
        z_next = z_k + delta
        info["mu_mid"] = self.dphi_dz(disc, sigma_next, 0.5 * (z_k + z_next))
        return z_next, info

    def step_dissipation(self, disc, dz, tau, info):
        mu = info.get("mu_mid")
        if mu is None:
            return self.dissipation_rate(disc, dz * (1.0 / tau))
        return disc.grad_z_norm2(mu, self.mobility)

    def dissipation_rate(self, disc, zdot):
        """Xi(zdot) = <M grad mu, grad mu> with div(M grad mu) = zdot.

        Defined only for weighted-mean-zero rates (no-flux flow).
        """
        total = disc.zdot(zdot, np.ones_like(zdot))
        scale = max(1.0, float(np.max(np.abs(zdot))) if zdot.size else 1.0)
        if abs(total) > 1e-9 * scale:
            raise SolverError("dissipation rate undefined: zdot has nonzero mean")

        wz = disc.zs_weights

        def project(f):
            return f - disc.zdot(f, np.ones_like(f)) / float(np.sum(wz))

        mu, _ = _cg(lambda x: -disc.lap_z(x, self.mobility), project(-zdot),
                    disc.zdot, LINEAR_SOLVE_TOL, project=project)
        return -disc.zdot(mu, zdot)

    def psi(self, disc, zdot):
        """Psi = R* (convex conjugate of the flow potential) = Xi/2."""
        return 0.5 * self.dissipation_rate(disc, zdot)

    def supports_reference_integrator(self):
        return True

    def zdot_linear(self, disc, sigma, z):
        """Continuous flow rate div(M grad mu)."""
        return disc.lap_z(self.dphi_dz(disc, sigma, z), self.mobility)


# ---------------------------------------------------------------------------
# damage (phase-field fracture)
# ---------------------------------------------------------------------------

class DamageMaterial(MaterialModel):
    """Scalar damage with the Ambrosio-Tortorelli coefficients.

    gamma(a) = (eps/eps0)^2 + a^2, phi_d(a) = g_c (1-a)^2 / eps and
    kappa = eps * g_c; a=1 is undamaged, a=0 fully damaged, and damaging
    means a decreasing.  Unidirectional mode forbids healing and bounds
    the damage field below: each step keeps 0 <= a' <= a (a box
    constraint on the increment), so a nonnegative field stays
    nonnegative under any stress.  Healing mode puts a stiff quadratic
    penalty on positive rates and keeps 0 <= a' <= max(1, a), a bound the
    midpoint step alone can overshoot, so gamma is largest at max(1, a0)
    for the whole run.  With the quadratic AT coefficients the paper's
    difference quotient of the driving force equals the midpoint
    derivative the scheme uses.

    In 2D the two normal stress components live at cell centers together
    with the damage field, while the shear component lives at vertices and
    is degraded by the average of gamma over the adjacent centers; the
    coupling stays an exact quadratic form.  The step's operator is
    tridiagonal in 1D: its bands form the gradients and are solved
    exactly by elimination.  2D applies it matrix-free in projected CG.

    Parameters
    ----------
    eps0, eps : float
        AT lengths (> 0).
    g_c : float
        Fracture energy (> 0).
    viscosity : float
        Rate coefficient eps1 > 0.
    mode : str
        "unidirectional" or "healing".
    strain_gradient : float
        Coefficient of the stress-gradient regularization (>= 0).
    """

    name = "damage"

    def __init__(self, eps0, eps, g_c, viscosity, mode="unidirectional",
                 strain_gradient=0.0):
        if not (eps0 > 0 and eps > 0):
            raise ConfigError("AT lengths must be > 0", "material.eps")
        if not g_c > 0:
            raise ConfigError("fracture energy must be > 0", "material.g_c")
        if not viscosity > 0:
            raise ConfigError("viscosity must be > 0", "material.viscosity")
        if mode not in ("unidirectional", "healing"):
            raise ConfigError(f"unknown damage mode {mode!r}", "material.mode")
        if strain_gradient < 0:
            raise ConfigError("strain_gradient must be >= 0",
                              "material.strain_gradient")
        self.eps0 = float(eps0)
        self.eps = float(eps)
        self.g_c = float(g_c)
        self.eps1 = float(viscosity)
        self.mode = mode
        self.eps_grad = float(strain_gradient)
        self.kappa = self.eps * self.g_c
        self.gamma_floor = (self.eps / self.eps0) ** 2

    def gamma(self, a):
        return self.gamma_floor + a * a

    def dgamma(self, a):
        return 2.0 * a

    def phi_d(self, a):
        return self.g_c * (1.0 - a) ** 2 / self.eps

    def dphi_d(self, a):
        return -2.0 * self.g_c * (1.0 - a) / self.eps

    def z_size(self, disc):
        return disc.zs_n

    def z_init(self, disc):
        return np.ones(disc.zs_n)

    def z_weights(self, disc):
        return disc.zs_weights

    def stiffest_state(self, z):
        return np.maximum(z, 1.0) if self.mode == "healing" else z

    def _split_energy_density(self, disc, sigma):
        """(center part, vertex part) of C^-1 sigma : sigma pointwise."""
        e = disc.apply_C_inv(sigma)
        if disc.dim == 1:
            return e * sigma, None
        qc = (disc.sxx_view(e) * disc.sxx_view(sigma)
              + disc.syy_view(e) * disc.syy_view(sigma)).ravel()
        qv = (disc.sxy_view(e) * disc.sxy_view(sigma)).ravel()
        return qc, qv

    def compliance_density(self, disc, sigma):
        """C^-1 sigma : sigma collocated on the damage layout."""
        qc, qv = self._split_energy_density(disc, sigma)
        if qv is None:
            return qc
        return qc + disc.scatter_vertices_to_centers(qv)

    def phi(self, disc, sigma, z, g=None, s_true=None):
        qc, qv = self._split_energy_density(disc, sigma)
        gam = self.gamma(z)
        val = disc.zdot(0.5 * gam * qc + self.phi_d(z), np.ones_like(z))
        if qv is not None:
            gam_v = disc.avg_centers_to_vertices(gam).ravel()
            wv = disc.sxy_view(disc.sweights).ravel()
            val += 0.5 * float((wv * gam_v * qv).sum())
        val += 0.5 * self.kappa * disc.grad_z_norm2(z)
        if self.eps_grad != 0.0:
            e = disc.apply_C_inv(sigma)
            val += -0.5 * self.eps_grad * disc.sdot(disc.laplacian_stress(e), sigma)
        return val

    def dphi_dsigma(self, disc, sigma, z):
        e = disc.apply_C_inv(sigma)
        gam = self.gamma(z)
        if disc.dim == 1:
            out = gam * e
        else:
            out = np.empty_like(sigma)
            gc2 = gam.reshape(disc.shape_c)
            disc.sxx_view(out)[:] = gc2 * disc.sxx_view(e)
            disc.syy_view(out)[:] = gc2 * disc.syy_view(e)
            disc.sxy_view(out)[:] = disc.avg_centers_to_vertices(gam) * disc.sxy_view(e)
        if self.eps_grad != 0.0:
            out -= self.eps_grad * disc.laplacian_stress(e)
        return out

    def dphi_dz(self, disc, sigma, z, chat=None):
        """``chat``: the compliance density of ``sigma``, if known."""
        chat = self.compliance_density(disc, sigma) if chat is None else chat
        out = 0.5 * self.dgamma(z) * chat + self.dphi_d(z)
        out -= self.kappa * disc.lap_z(z)
        return out

    def _quad_operator(self, disc, chat):
        """The Hessian of phi in z, 1/2 (chat + 2 g_c/eps) - 1/2 kappa lap_z,
        for ``chat`` the compliance density."""
        stiff = 0.5 * (chat + 2.0 * self.g_c / self.eps)

        def apply_A(x):
            out = stiff * x
            out -= 0.5 * self.kappa * disc.lap_z(x)
            return out

        return apply_A

    def _quad_bands(self, disc, chat):
        """The bands of :meth:`_quad_operator` in 1D; None in 2D."""
        if disc.lap_z_bands is None:
            return None
        sub, lap_diag, sup = disc.lap_z_bands
        c = -0.5 * self.kappa
        diag = 0.5 * (chat + 2.0 * self.g_c / self.eps) + c * lap_diag
        return c * sub, diag, c * sup

    def internal_step(self, disc, sigma_next, z_k, tau, z_prev=None):
        # the rate term's slopes below and above zero: eps1 and 1/eps1
        # when healing; irreversible steps keep eps1 and bound the
        # increment by 0 instead, the infinite slope of psi
        chat = self.compliance_density(disc, sigma_next)
        b = -self.dphi_dz(disc, sigma_next, z_k, chat=chat)
        heal = self.mode == "healing"
        info, upper = {}, None if heal else 0.0
        bands = self._quad_bands(disc, chat)
        # 1D starts at the last increment (2D's projected CG is slower so);
        # an irreversible step keeps it only where it still loads, b < 0
        x0 = None if z_prev is None or bands is None else np.where(
            heal | (b < 0.0), z_k - z_prev, 0.0)
        while True:
            z = z_k + solve_asymmetric_quadratic(
                self._quad_operator(disc, chat), b, disc.zdot, self.eps1 / tau,
                1.0 / (self.eps1 * tau) if heal else self.eps1 / tau, KKT_TOL,
                lower=-z_k, upper=upper, bands=bands, info=info, x0=x0)
            # a healing step within z' <= max(1, z_k) minimizes over that
            # box too; one that leaves it solves again with the box
            if upper is not None or np.all(z <= np.maximum(z_k, 1.0)):
                return z, info
            upper = np.maximum(1.0 - z_k, 0.0)

    def dissipation_rate(self, disc, zdot):
        if self.mode == "unidirectional":
            return 2.0 * self.eps1 * disc.zdot(zdot, zdot)
        coeff = np.where(zdot <= 0.0, 2.0 * self.eps1, 2.0 / self.eps1)
        return disc.zdot(coeff * zdot, zdot)

    def psi(self, disc, zdot):
        if self.mode == "unidirectional":
            if np.any(zdot > 1e-12 * max(1.0, float(np.max(np.abs(zdot))))):
                return np.inf
            return self.eps1 * disc.zdot(zdot, zdot)
        coeff = np.where(zdot <= 0.0, self.eps1, 1.0 / self.eps1)
        return disc.zdot(coeff * zdot, zdot)
