"""Three-step staggered time integrator with per-step energy accounting.

One step advances (Sigma, z, v, u) in this order (the order matters for
nonlinear materials and for the exact cancellation in the energy ledger):

1. proto-stress:   Sigma' = Sigma + tau * (I C E v + D)
2. internal:       dPsi((z'-z)/tau) + dPhi_z(Sigma', (z'+z)/2)  contains 0
3. velocity:       v' = v - tau * M^-1 (E* S' - F),
                   S' = C* I* dPhi_s(Sigma', (z'+z)/2),
                   u' = u + tau * v'

Every update is centered: after the bootstrap, Sigma lives on half-shifted
time levels while v and z live on integer levels, so the proto-stress rate
is centered at the integer levels and both the internal force and the true
stress are centered at the half levels (the internal variable enters S
through the same midpoint as the flow rule).  This keeps the scheme second
order in time for all shipped materials.

The very first step is special: the proto-stress bootstraps with a half
step (tau/2), which places Sigma on the half-shifted leap-frog time levels;
the kinetic ledger then uses the fictitious level -1 velocity -v0.

The per-step ledger checks the discrete energy identity

    [E^{k+1} - E^k] + tau*Xi  <=  tau*<F, v^k> + <avg dPhi_s, dG^k>
                                  - <z-anchored jumps of dPhi_s, dSigma>

with  E^{k+1} = 1/2 <M v^{k+1}, v^k> + Phi(Sigma^{k+1}, z^{k+1}),  the
averages taken over the two half-level gradients dPhi_s(Sigma, z-mid)
entering the velocity updates, and the jump terms measuring how far those
midpoints sit from the z^k anchor of the quadratic expansion of Phi in
Sigma.  Equality holds whenever the dissipation potential is smooth away
from zero.  For the bootstrap step the exact half-step variant of the
identity is used, with the physical initial energy T(v0) + Phi(Sigma0, z0)
as the left anchor.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    CflViolationError,
    ConfigError,
    EnergyInequalityError,
    InstabilityError,
    NonFiniteFieldError,
    SolverError,
)

ENERGY_BLOWUP_FACTOR = 1e6


@dataclass
class State:
    """Discrete fields at one time level (plus leap-frog bookkeeping).

    ``energy``, ``dphi_mid`` and ``dphi_end`` are values the step that
    made this state already computed, carried for the next energy audit:
    E^k = 1/2 <M v^k, v^{k-1}> + Phi(Sigma^k, z^k), dPhi_s(Sigma^k, (z^k
    + z^{k-1})/2) and, only for a material without ``dphi_dsigma_shift``,
    dPhi_s(Sigma^k, z^k).  They are None on states not made by
    :func:`advance` (initial states, and every :meth:`copy`, which drops
    them), and the audit then computes them afresh.  :func:`advance`
    checks the fields it makes for finiteness (through its ledger), so
    the next step checks ``v`` and ``sigma`` only when ``dphi_mid`` is
    None.  A caller that edits ``v``, ``sigma`` or ``z`` of an advanced
    state in place must edit a copy or set all three to None first, or
    the next ledger uses stale values and the next step trusts the edited
    fields.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    k: int = 0
    v_prev: np.ndarray = None
    z_prev: np.ndarray = None
    energy: Optional[float] = None
    dphi_mid: Optional[np.ndarray] = None
    dphi_end: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.v_prev is None:
            # fictitious level -1 velocity; makes the level-0 staggered
            # kinetic term vanish in the a-priori estimate
            self.v_prev = -self.v.copy()
        if self.z_prev is None:
            self.z_prev = self.z.copy()

    def copy(self):
        return State(self.u.copy(), self.v.copy(), self.sigma.copy(),
                     self.z.copy(), self.k, self.v_prev.copy(),
                     self.z_prev.copy())


def initial_state(disc, material, u=None, v=None, sigma=None, z=None):
    """Assemble a consistent level-0 state, masking inactive stress DOFs."""
    u = disc.zeros_v() if u is None else np.asarray(u, dtype=float).copy()
    v = disc.zeros_v() if v is None else np.asarray(v, dtype=float).copy()
    sigma = disc.zeros_s() if sigma is None else np.asarray(sigma, dtype=float).copy()
    z = material.z_init(disc) if z is None else np.asarray(z, dtype=float).copy()
    sigma[disc.s_inactive] = 0.0
    v[disc.v_inactive] = 0.0
    return State(u=u, v=v, sigma=sigma, z=z, k=0)


@dataclass
class Loading:
    """Constant body force plus an optional boundary stress drive.

    ``body_force`` is a covector on the velocity layout, constant in time
    (the stability estimate assumes it).  The drive enters as
    ``D^k = [G((k+1/2) tau) - G((k-1/2) tau)] / tau`` with
    ``G(t) = g(t) * pattern``.
    """

    body_force: np.ndarray
    traction: Optional[Callable] = None      # scalar g(t)
    traction_pattern: Optional[np.ndarray] = None

    def power(self, v):
        """<F, v>: 0.0, with no product pass over ``v``, for a zero force
        (checked on every call, so a force filled in place still counts)."""
        if not self.body_force.any():
            return 0.0
        return float((self.body_force * v).sum())

    def d_increment(self, k, tau):
        """G-increment accumulated by step k (time units already applied)."""
        if self.traction is None:
            return None
        if k == 0:
            return (self.traction(0.5 * tau) - self.traction(0.0)) * self.traction_pattern
        lo = self.traction((k - 0.5) * tau)
        hi = self.traction((k + 0.5) * tau)
        return (hi - lo) * self.traction_pattern


def no_loading(disc):
    return Loading(body_force=disc.zeros_v())


@dataclass
class IntegratorConfig:
    """Step size, horizon and safety settings.

    ``eta`` is the CFL safety margin in (0, 1): the fraction of the stored
    energy guaranteed to survive the staggered kinetic split at every step.
    ``tau_max`` is the bound at ``eta`` and the initial state, if already
    measured; it holds for the whole run.  When
    ``enforce_energy_inequality`` is set, a step whose ledger residual
    exceeds ``energy_tol * max(1, |E^k|)``, with E^k the step's own left
    anchor ``ledger.energy_prev``, raises :class:`EnergyInequalityError`
    carrying that tolerance.
    """

    tau: float
    t_end: float
    eta: float = 0.1
    enforce_energy_inequality: bool = False
    energy_tol: float = 1e-9
    tau_max: Optional[float] = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError("tau must be > 0", "integrator.tau")
        if not 0 < self.eta < 1:
            raise ConfigError("eta must be in (0, 1)", "integrator.eta")
        if not self.t_end > 0:
            raise ConfigError("t_end must be > 0", "integrator.t_end")


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping (all quantities in energy units)."""

    step: int
    time: float
    kinetic: float                # 1/2 <M v^{k+1}, v^k>
    stored: float                 # Phi(Sigma^{k+1}, z^{k+1})
    dissipated_step: float        # tau * Xi
    external_work_step: float     # loading terms of the identity
    stability_coeff: float        # a^{k+1} of the positivity split
    residual: float               # identity defect, <= 0 up to tolerance
    energy_prev: float            # E^k (left anchor of the identity)

    @property
    def total(self):
        return self.kinetic + self.stored


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def _require_finite(name, arr):
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"non-finite values in {name}")


def step_sigma(state, disc, loading, cfg):
    """Explicit proto-stress update (half step when bootstrapping).

    The fields of a state that :func:`advance` made were checked for
    finiteness at the end of that step; other states are checked here.
    """
    if state.dphi_mid is None:
        _require_finite("velocity", state.v)
        _require_finite("proto-stress", state.sigma)
    tau_eff = 0.5 * cfg.tau if state.k == 0 else cfg.tau
    # sigma + (tau_eff C) E v: tau_eff folds into the moduli (I = id)
    sigma_next = disc.apply_C(disc.apply_E(state.v),
                              np.multiply(disc.moduli, tau_eff).tolist())
    np.add(state.sigma, sigma_next, out=sigma_next)
    dg = loading.d_increment(state.k, cfg.tau)
    if dg is not None:
        sigma_next += dg
        sigma_next[disc.s_inactive] = 0.0
    return sigma_next


def step_internal(state, sigma_next, material, disc, cfg):
    """Implicit midpoint step for the internal variable (order matters:
    it sees the already-updated proto-stress), seeded by ``z_prev``."""
    return material.internal_step(disc, sigma_next, state.z, cfg.tau,
                                  z_prev=state.z_prev)


def step_velocity(state, sigma_next, z_next, disc, material, loading, cfg):
    """Explicit velocity and displacement update from the new true stress.

    The true stress is evaluated at the internal-variable midpoint
    (z' + z)/2, the same time level as the updated proto-stress, which
    keeps the update centered (second order) for coupled materials.

    Returns ``(v_next, u_next, s_true, dphi_mid)`` with ``dphi_mid`` the
    stress-side gradient dPhi_s(Sigma', (z' + z)/2) behind ``s_true =
    C* I* dphi_mid``; the energy audit reuses it.
    """
    z_mid = z_next + state.z
    z_mid *= 0.5
    dphi_mid = material.dphi_dsigma(disc, sigma_next, z_mid)
    s_true = disc.apply_C(dphi_mid)
    # v + (tau / M) * (F - E* S), with the inactive rows left at rest
    v_next = np.subtract(loading.body_force, disc.apply_E_adjoint(s_true))
    v_next *= cfg.tau * disc.inv_mass
    v_next[disc.v_inactive] = 0.0
    np.add(state.v, v_next, out=v_next)
    u_next = cfg.tau * v_next
    np.add(state.u, u_next, out=u_next)
    return v_next, u_next, s_true, dphi_mid


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def _kinetic_pair(disc, va, vb):
    p = disc.mass * va
    p *= vb
    return 0.5 * float(p.sum())


def stability_coefficient(disc, material, sigma, z, tau, phi=None,
                          s_true=None):
    """Positivity coefficient of the staggered energy at one state.

    With F = 0 the staggered energy splits exactly as

        1/2 <M v', v> + Phi  =  T((v'+v)/2) + a * Phi,
        a = 1 - (tau^2/8) <E*S, M^-1 E*S> / Phi,

    because v' - v = -tau M^-1 E*S contributes T((v'-v)/2) =
    (tau^2/8) <E*S, M^-1 E*S> to the kinetic split.  a >= eta is
    guaranteed whenever tau <= max_stable_timestep(eta).  ``phi`` and
    ``s_true``, when given, are Phi(sigma, z) and the true stress S,
    already formed by the caller.  A state with no stored energy has
    a = 1.
    """
    if phi is None:
        phi = material.phi(disc, sigma, z)
    if phi <= 0.0:
        return 1.0
    if s_true is None:
        s_true = material.true_stress(disc, sigma, z)
    # sum of (E* S)^2 / M over the active rows
    f2 = disc.apply_E_adjoint(s_true)
    np.square(f2, out=f2)
    f2[disc.v_inactive] = 0.0
    f2 *= disc.inv_mass
    quad = float(f2.sum())
    return 1.0 - 0.125 * tau * tau * quad / phi


def _end_gradient(disc, material, sigma, z, dz, dphi_mid):
    """dPhi_s(sigma, z) from ``dphi_mid`` = dPhi_s(sigma, z - dz/2), and
    its true stress C* I* dPhi_s(sigma, z)."""
    if material.dphi_dsigma_shift is None:
        g = material.dphi_dsigma(disc, sigma, z)
    else:
        # dphi_mid + A(dz/2), A the shift of the gradient
        g = material.dphi_dsigma_shift(disc, 0.5 * dz)
        g += dphi_mid
    return g, disc.apply_C(g)


def energy_audit(prev, nxt, disc, material, loading, cfg, step_info=None):
    """Ledger of the step ``prev -> nxt``; it sets only ``nxt.dphi_end``.

    The residual is the defect of the exact per-step energy identity of
    the scheme (midpoint-in-z true stress); it vanishes to round-off when
    the dissipation potential is smooth away from zero and is <= 0 (up to
    solver tolerance) otherwise.

    The stress gradient at the end of the step, dPhi_s(Sigma', z'), and
    the jump term come from the step's midpoint gradients in closed form
    when the material gives ``dphi_dsigma_shift`` (materials affine in
    z), and else from full evaluation, kept on ``nxt.dphi_end``.  That
    gradient and its true stress S' = C* I* dPhi_s(Sigma', z') give the
    stored energy and the stability coefficient.

    Values carried on the states (``prev.energy``, ``prev.dphi_mid``,
    ``prev.dphi_end``, ``nxt.dphi_mid``) are used as they are; missing
    ones are computed here by the same operations, so the ledger does not
    depend on which.  The end gradient, the dissipation and the jump term
    share one increment z' - z^k.
    """
    tau = cfg.tau
    k = prev.k
    dz = nxt.z - prev.z
    dphi_mid_next = nxt.dphi_mid
    if dphi_mid_next is None:
        dphi_mid_next = material.dphi_dsigma(disc, nxt.sigma,
                                             0.5 * (nxt.z + prev.z))
    g_next, s_next = _end_gradient(disc, material, nxt.sigma, nxt.z, dz,
                                   dphi_mid_next)
    phi_next = material.phi(disc, nxt.sigma, nxt.z, g=g_next, s_true=s_next)
    kinetic = _kinetic_pair(disc, nxt.v, prev.v)
    diss = tau * material.step_dissipation(disc, dz, tau, step_info or {})

    if k == 0:
        # exact half-step bootstrap identity, anchored at the physical
        # initial energy T(v0) + Phi(Sigma0, z0)
        energy_prev = _kinetic_pair(disc, prev.v, prev.v) + material.phi(
            disc, prev.sigma, prev.z)
        p_avg = 0.5 * (material.dphi_dsigma(disc, nxt.sigma, prev.z)
                       + material.dphi_dsigma(disc, prev.sigma, prev.z))
        work = 0.5 * tau * loading.power(prev.v)
        dg = loading.d_increment(0, tau)
        if dg is not None:
            work += disc.sdot(p_avg, dg)
        # <C*(P_avg - dPhi_s(Sigma', z-mid)), E v0>_w closes the half step
        s_gap = disc.apply_C(p_avg - dphi_mid_next)
        correction = 0.5 * tau * disc.sdot(s_gap, disc.apply_E(prev.v))
        residual = (kinetic + phi_next) - energy_prev + diss - work - correction
        # the bootstrap row, once per run, evaluates the true stress of
        # its a-coefficient in full, through material.true_stress
        a_coeff = stability_coefficient(disc, material, nxt.sigma, nxt.z,
                                        tau, phi=phi_next)
    else:
        dphi_mid_prev = prev.dphi_mid
        if dphi_mid_prev is None:
            dphi_mid_prev = material.dphi_dsigma(disc, prev.sigma,
                                                 0.5 * (prev.z + prev.z_prev))
        energy_prev = prev.energy
        if energy_prev is None:
            # as the previous step's ledger evaluated it
            g_prev, s_prev = _end_gradient(disc, material, prev.sigma, prev.z,
                                           prev.z - prev.z_prev, dphi_mid_prev)
            energy_prev = _kinetic_pair(disc, prev.v, prev.v_prev) + (
                material.phi(disc, prev.sigma, prev.z, g=g_prev,
                             s_true=s_prev))
        work = tau * loading.power(prev.v)
        # jump <J, Sigma' - Sigma>_w of the two half-level gradients away
        # from their values at the z^k anchor: J = 1/2 [dphi_mid_next -
        # dPhi_s(Sigma', z^k)] + 1/2 [dphi_mid_prev - dPhi_s(Sigma, z^k)],
        # which is 1/4 A(dz - (z^k - z^{k-1})) for a shift A of the gradient
        if material.dphi_dsigma_shift is None:
            g_prev = prev.dphi_end if prev.dphi_end is not None else (
                material.dphi_dsigma(disc, prev.sigma, prev.z))
            jump = 0.5 * (dphi_mid_next
                          - material.dphi_dsigma(disc, nxt.sigma, prev.z))
            jump += 0.5 * (dphi_mid_prev - g_prev)
            correction = disc.sdot(jump, nxt.sigma - prev.sigma)
        else:
            j = np.subtract(prev.z, prev.z_prev)
            np.subtract(dz, j, out=j)
            correction = 0.25 * disc.sdot(
                material.dphi_dsigma_shift(disc, j), nxt.sigma - prev.sigma)
        dg = loading.d_increment(k, tau)
        if dg is not None:
            p_avg = 0.5 * (dphi_mid_next + dphi_mid_prev)
            work += disc.sdot(p_avg, dg)
        residual = ((kinetic + phi_next) - energy_prev + diss - work
                    + correction)
        a_coeff = stability_coefficient(disc, material, nxt.sigma, nxt.z,
                                        tau, phi=phi_next, s_true=s_next)

    nxt.dphi_end = g_next if material.dphi_dsigma_shift is None else None
    return EnergyLedger(
        step=k, time=(k + 1) * tau, kinetic=kinetic, stored=phi_next,
        dissipated_step=diss, external_work_step=work,
        stability_coeff=a_coeff, residual=residual, energy_prev=energy_prev)


# ---------------------------------------------------------------------------
# advance and drive
# ---------------------------------------------------------------------------

def advance(state, disc, material, loading, cfg):
    """One full staggered step; returns (new state, ledger).

    The new fields are scanned for finiteness (Sigma', z', v', the first
    non-finite one raising) only when the ledger's kinetic pair or stored
    energy is not finite, which a non-finite entry of v', or of Sigma' or
    z' (the contract of ``MaterialModel.phi``), always makes it.
    """
    sigma_next = step_sigma(state, disc, loading, cfg)
    z_next, info = step_internal(state, sigma_next, material, disc, cfg)
    v_next, u_next, s_mid, dphi_mid = step_velocity(
        state, sigma_next, z_next, disc, material, loading, cfg)
    del s_mid  # the audit does not read it: one stress field fewer live
    nxt = State(u=u_next, v=v_next, sigma=sigma_next, z=z_next,
                k=state.k + 1, v_prev=state.v, z_prev=state.z,
                dphi_mid=dphi_mid)
    ledger = energy_audit(state, nxt, disc, material, loading, cfg,
                          step_info=info)
    if not (math.isfinite(ledger.kinetic) and math.isfinite(ledger.stored)):
        for name, arr in (("proto-stress", sigma_next), ("internal", z_next),
                          ("velocity", v_next)):
            _require_finite(name, arr)
    nxt.energy = ledger.total
    return nxt, ledger


RITZ_SHIFTS = 255   # shifts per multisection sweep: 8 bits each


def _top_ritz(alphas, betas):
    """Top eigenpair of a Lanczos tridiagonal matrix in O(j) time and memory.

    ``alphas`` and ``betas`` are the diagonal and the (positive)
    off-diagonal.  Returns ``(theta, y_last)``: theta is an upper bound
    on the largest eigenvalue, within 1e-9 relative, and y_last is the
    last component of its unit eigenvector.

    theta comes from Sturm-count multisection: x lies above every
    eigenvalue exactly when all pivots of the LDL^T factorization of
    T - x I are negative, and each sweep tests RITZ_SHIFTS shifts at
    once.  The eigenvector comes from three steps of inverse iteration
    with the shift theta, where theta I - T is positive definite and,
    started from a positive vector, every term of the solve is positive.
    """
    b2 = [b * b for b in betas]
    # the diagonal bounds the top eigenvalue below and Gershgorin above;
    # the bound is widened so that hi I - T is positive definite even
    # when Gershgorin is exact
    lo = max(alphas)
    hi = (1.0 + 1e-12) * max(a + l + r for a, l, r in
                             zip(alphas, [0.0] + betas, betas + [0.0]))
    dmax = np.empty(RITZ_SHIFTS)
    while hi - lo > 1e-9 * hi:
        x = np.linspace(lo, hi, RITZ_SHIFTS + 2)[1:-1]
        d = alphas[0] - x
        dmax[:] = d
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, bb in zip(alphas[1:], b2):
                np.divide(bb, d, out=d)
                d += x
                np.subtract(a, d, out=d)    # next pivot a - (x + bb / d)
                np.maximum(dmax, d, out=dmax)
        above = dmax < 0.0
        k = int(np.argmax(above))
        if above[k]:
            hi = float(x[k])
            if k:
                lo = float(x[k - 1])
        else:
            lo = float(x[-1])
    # pivots of hi I - T, negated from the same operations as above, so
    # they are all > 0 exactly as they were found to be
    d = alphas[0] - hi
    g = [-d]
    for a, bb in zip(alphas[1:], b2):
        d = a - (hi + bb / d)
        g.append(-d)
    y = [1.0] * len(alphas)
    for _ in range(3):
        u = y[0]
        v = [u / g[0]]
        for yi, b, g_prev, gi in zip(y[1:], betas, g, g[1:]):
            u = yi + b * u / g_prev
            v.append(u / gi)
        w = v[-1]
        y = [w]
        for vi, b, gi in zip(v[-2::-1], betas[::-1], g[-2::-1]):
            w = vi + b * w / gi
            y.append(w)
        y.reverse()
        norm = np.sqrt(sum(yi * yi for yi in y))
        y = [yi / norm for yi in y]
    return hi, y[-1]


def max_stable_timestep(disc, material, z_probe, eta, tol=1e-6,
                        max_iter=None, info=None):
    """Largest stable time step sqrt(8 (1 - eta) / lambda).

    ``lambda`` is the largest generalized Rayleigh quotient

        sup_S  <E* C I H S, M^-1 E* C I H S> / (1/2 <H S, S>_w)

    with H the proto-stress Hessian of the stored energy at the probe
    internal state, i.e. the top eigenvalue of T = 2 C E M^-1 E* C I H,
    which is self-adjoint in the H/2 inner product.  The probe is
    ``material.stiffest_state(z_probe)``: the bound holds for a whole run.

    The estimate is a Lanczos iteration in that inner product from a
    uniform random stress drawn with seed 0.  Its three-term recurrence
    carries H q beside each Lanczos vector, so an iteration costs one T
    (without its leading H) and one H, and memory is a few stress vectors:
    no basis is stored and none is reorthogonalised.  The top Ritz pair (theta,
    y) of the j x j tridiagonal Lanczos matrix is extracted in O(j)
    (:func:`_top_ritz`, theta rounded up) every max(8, j/2) iterations
    and once at j = the number of active stress DOFs, where the Krylov
    space is exhausted.  The iteration stops once the Ritz residual
    beta_j |e_j^T y| is at most ``tol * theta``, or on a breakdown
    (beta_j <= tol * max alpha: an invariant subspace, exact
    convergence), and returns lambda = theta + residual, so any
    remaining error makes tau smaller, never larger.  When ``info`` is a
    dict it receives ``iters`` (Lanczos iterations) and ``residual``
    (the final Ritz residual over theta).

    ``max_iter`` defaults to 2 n + 8, n the active stress DOFs: exact
    arithmetic ends the iteration by j = n, and the second n is margin for
    lost orthogonality, so a broken (E, E*) adjointness fails fast.

    Raises :class:`ConfigError` when the stored energy is not positive
    definite at the probe, and :class:`SolverError` carrying the last
    relative residual when ``max_iter`` iterations do not converge.

    The bound is sharp: tau <= tau_max(eta) makes the per-state
    stability coefficient a = 1 - (tau^2/8) q(S)/Phi at least eta for
    every state whose quotient q/Phi stays below lambda, with equality
    at eta -> 0 on the marginal mode (1D elastic: tau_max -> h
    sqrt(rho/C)).  eta must lie in [0, 1) here; it is the fraction of
    the stored energy retained by the split.
    """
    if not 0 <= eta < 1:
        raise ConfigError("cfl margin eta must be in [0, 1)",
                          "integrator.eta")
    z_probe = material.stiffest_state(z_probe)
    dphi0 = material.dphi_dsigma(disc, disc.zeros_s(), z_probe)

    def apply_H(s):
        hs = material.dphi_dsigma(disc, s, z_probe)
        hs -= dphi0
        return hs

    # apply_C(x, 2 C) is 2 C x bit for bit: doubling is exact
    moduli2 = np.multiply(disc.moduli, 2.0).tolist()

    def apply_T(hs):
        # T s from hs = H s, which the recurrence carries
        f = disc.apply_E_adjoint(disc.apply_C(hs))
        f *= disc.inv_mass
        f[disc.v_inactive] = 0.0
        return disc.apply_C(disc.apply_E(f), moduli2)

    not_pd = ConfigError("stored energy not positive definite at probe",
                         "material")
    # Python's generator: numpy.random would load OpenSSL into every run
    q = np.frombuffer(random.Random(0).randbytes(8 * disc.n_s),
                      dtype="<u8") / 2.0 ** 64 - 0.5
    q[disc.s_inactive] = 0.0
    hq = apply_H(q)
    norm2 = 0.5 * disc.sdot(hq, q)
    if not norm2 > 0.0:
        raise not_pd
    q, hq = q / np.sqrt(norm2), hq / np.sqrt(norm2)
    q_prev = beta = alpha_max = 0.0
    alphas, betas = [], []
    n_active = int(np.count_nonzero(disc.s_active))
    if max_iter is None:
        max_iter = 2 * n_active + 8
    check_at = 8
    for j in range(1, max_iter + 1):
        w = apply_T(hq)
        if j > 1:
            # w - beta q_prev; q_prev is not used again
            q_prev *= beta
            w -= q_prev
        alpha = 0.5 * disc.sdot(w, hq)
        w -= alpha * q
        hw = apply_H(w)
        beta2 = 0.5 * disc.sdot(hw, w)
        alphas.append(alpha)
        alpha_max = max(alpha_max, alpha)
        small = tol * alpha_max  # a beta below it bounds the residual
        if beta2 < -small * small:
            raise not_pd
        beta = float(np.sqrt(max(beta2, 0.0)))
        if beta <= small or j in (check_at, n_active, max_iter):
            theta, y_last = _top_ritz(alphas, betas)
            residual = beta * abs(y_last)
            if beta <= small or residual <= tol * theta:
                break
            check_at = j + max(8, j // 2)
        betas.append(beta)
        w *= 1.0 / beta
        hw *= 1.0 / beta
        q_prev, q, hq = q, w, hw
    else:
        raise SolverError(f"CFL estimate: Lanczos did not converge in "
                          f"{max_iter} iterations",
                          residuals=[residual / theta])
    if info is not None:
        info["iters"] = j
        info["residual"] = float(residual / theta)
    lam = theta + residual
    if lam <= 0.0:
        return np.inf, lam
    return float(np.sqrt(8.0 * (1.0 - eta) / lam)), float(lam)


def cfl_admissible(tau, tau_max):
    """The CFL rule: tau passes when it is at most tau_max, up to a
    relative round-off slack of 1e-12."""
    return tau <= tau_max * (1.0 + 1e-12)


def run_simulation(disc, material, loading, cfg, state, on_step=None):
    """Drive the scheme to t_end with a CFL check and a blow-up guard.

    The check uses ``cfg.tau_max`` unless it is None.  Calls
    ``on_step(state, ledger)`` after every accepted step.  Returns the
    final state and the list of ledgers.
    """
    tau = cfg.tau
    n_steps = int(round(cfg.t_end / tau))

    tau_max = cfg.tau_max
    if tau_max is None:
        tau_max, _ = max_stable_timestep(disc, material, state.z, cfg.eta)
    if not cfl_admissible(tau, tau_max):
        raise CflViolationError(tau, tau_max,
                                8.0 * (1.0 - cfg.eta) / tau_max ** 2)

    ledgers = []
    e_ref = None
    for _ in range(n_steps):
        try:
            state, ledger = advance(state, disc, material, loading, cfg)
        except NonFiniteFieldError as exc:
            raise InstabilityError(state.k, str(exc)) from exc
        if e_ref is None:
            e_ref = max(1.0, abs(ledger.energy_prev))
        if ledger.total > ENERGY_BLOWUP_FACTOR * e_ref:
            raise InstabilityError(
                ledger.step, f"energy {ledger.total:.3e} exceeds "
                f"{ENERGY_BLOWUP_FACTOR:.0e} x initial scale")
        if cfg.enforce_energy_inequality:
            tol = cfg.energy_tol * max(1.0, abs(ledger.energy_prev))
            if ledger.residual > tol:
                raise EnergyInequalityError(ledger.step, ledger.residual, tol)
        ledgers.append(ledger)
        if on_step is not None:
            on_step(state, ledger)
    return state, ledgers
