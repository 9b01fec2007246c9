"""Independent small-scale oracles and empirical convergence machinery.

Everything here is deliberately built from different primitives than the
production path: exhaustive scans instead of closed forms, one dense
monolithic midpoint solve instead of the staggered split, and central
finite differences instead of analytic derivatives.  The oracles must stay
more trustworthy than the code under test, so dense linear algebra is used
throughout (no iterative error).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import StagdynError, UnsupportedMaterialError
from .integrator import EnergyLedger, State

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# scalar brute-force prox
# ---------------------------------------------------------------------------

def brute_force_prox(objective, lo, hi, grid_points=2001, tol=1e-9,
                     max_widen=8):
    """Argmin of a convex scalar objective by scan plus golden-section.

    If the coarse minimum lands on an interval edge the interval is widened
    away from the center and the scan retried; persistent edge hits raise.
    """
    for _ in range(max_widen):
        xs = np.linspace(lo, hi, grid_points)
        vals = np.array([objective(x) for x in xs])
        i = int(np.argmin(vals))
        if i == 0:
            lo, hi = lo - (hi - lo), hi
            continue
        if i == grid_points - 1:
            lo, hi = lo, hi + (hi - lo)
            continue
        a, b = xs[i - 1], xs[i + 1]
        x = _golden_section(objective, a, b, tol)
        return _parabolic_polish(objective, x, tol)
    raise StagdynError("brute_force_prox: minimizer escaped the interval "
                       f"[{lo}, {hi}] after widening")


def _parabolic_polish(f, x, tol):
    # golden section by value comparison stalls near sqrt(machine eps);
    # one parabolic step over a resolvable span recovers smooth minima and
    # is rejected by value at kinked ones
    h = max(1e-5 * (1.0 + abs(x)), 10.0 * tol)
    fm, fl, fr = f(x), f(x - h), f(x + h)
    if not (np.isfinite(fl) and np.isfinite(fm) and np.isfinite(fr)):
        return x
    denom = fl - 2.0 * fm + fr
    if denom <= 0.0:
        return x
    v = x + 0.5 * h * (fl - fr) / denom
    return v if f(v) <= fm else x


def _golden_section(f, a, b, tol):
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def scan_internal_objective(material, disc, sigma_next, z_k, tau, index,
                            halfwidth=None, tol=1e-9):
    """Brute-force the incremental minimization in one z component.

    All other components are held at their previous values; for pointwise
    materials this is the exact per-point problem.
    """
    z0 = float(z_k[index])
    if halfwidth is None:
        halfwidth = 1.0 + abs(z0)

    def objective(x):
        z = z_k.copy()
        z[index] = x
        return material.incremental_objective(disc, sigma_next, z_k, tau, z)

    return brute_force_prox(objective, z0 - halfwidth, z0 + halfwidth,
                            tol=tol)


# ---------------------------------------------------------------------------
# dense helpers
# ---------------------------------------------------------------------------

def dense_operator(apply_fn, n):
    """Materialize a linear operator column by column."""
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols.append(np.asarray(apply_fn(e.copy()), dtype=float))
        e[j] = 0.0
    return np.column_stack(cols)


def dense_generalized_rayleigh(disc, material, z_probe):
    """Exact largest eigenvalue of the CFL quotient on a small grid."""
    dphi0 = material.dphi_dsigma(disc, disc.zeros_s(), z_probe)

    def apply_H(s):
        return material.dphi_dsigma(disc, s, z_probe) - dphi0

    def apply_N(s):
        f = disc.apply_E_adjoint(disc.apply_C(apply_H(s)))
        f = np.where(disc.v_active, f / disc.mass, 0.0)
        return apply_H(disc.apply_C(disc.apply_E(f)))

    w = disc.sweights
    act = disc.s_active
    N = dense_operator(apply_N, disc.n_s)
    H = dense_operator(apply_H, disc.n_s)
    Nm = (w[:, None] * N)[np.ix_(act, act)]
    Bm = (0.5 * w[:, None] * H)[np.ix_(act, act)]
    Nm = 0.5 * (Nm + Nm.T)
    Bm = 0.5 * (Bm + Bm.T)
    vals = np.linalg.eigvals(np.linalg.solve(Bm, Nm))
    return float(np.max(vals.real))


# ---------------------------------------------------------------------------
# monolithic implicit midpoint reference integrator
# ---------------------------------------------------------------------------

MAX_ORACLE_DOFS = 500


class ImplicitReference:
    """Crank-Nicolson reference for jointly linear materials.

    Solves one monolithic midpoint step of the semi-discrete system (same
    spatial operators as the explicit scheme, no staggering) by dense
    factorization, so only the time discretizations differ between the
    reference and the scheme under test.
    """

    def __init__(self, disc, material, loading, tau):
        if not material.supports_reference_integrator():
            raise UnsupportedMaterialError(
                f"material {material.name!r} is nonlinear; the midpoint "
                "oracle only covers jointly linear models")
        if loading.traction is not None:
            raise UnsupportedMaterialError(
                "the midpoint oracle does not support boundary drives")
        nz = material.z_size(disc)
        n = disc.n_s + disc.n_v + nz
        if n > MAX_ORACLE_DOFS:
            raise UnsupportedMaterialError(
                f"{n} DOFs exceed the dense-oracle limit {MAX_ORACLE_DOFS}")
        self.disc = disc
        self.material = material
        self.tau = tau
        self.n_s = disc.n_s
        self.n_v = disc.n_v
        self.nz = nz

        def rhs(x):
            sigma, v, z = self._split(x)
            dsig = disc.apply_C(disc.apply_E(v))
            s_true = material.true_stress(disc, sigma, z)
            dv = (loading.body_force - disc.apply_E_adjoint(s_true)) / disc.mass
            dv[~disc.v_active] = 0.0
            if nz:
                dz = material.zdot_linear(disc, sigma, z)
            else:
                dz = np.zeros(0)
            return np.concatenate([dsig, dv, dz])

        b = rhs(np.zeros(n))
        A = dense_operator(lambda x: rhs(x) - b, n)
        self.A = A
        self.b = b
        eye = np.eye(n)
        lhs = eye - 0.5 * tau * A
        # one dense factorization: x' = P x + c
        self._prop = np.linalg.solve(lhs, eye + 0.5 * tau * A)
        self._affine = np.linalg.solve(lhs, tau * b)

    def _split(self, x):
        return (x[:self.n_s], x[self.n_s:self.n_s + self.n_v],
                x[self.n_s + self.n_v:])

    def pack(self, state):
        return np.concatenate([state.sigma, state.v, state.z])

    def step(self, x):
        return self._prop @ x + self._affine

    def run(self, state, n_steps):
        x = self.pack(state)
        for _ in range(n_steps):
            x = self.step(x)
        return self._split(x)


def implicit_reference_step(disc, material, state, tau, loading=None):
    """One monolithic midpoint step; returns a new State."""
    from .integrator import no_loading

    loading = loading if loading is not None else no_loading(disc)
    ref = ImplicitReference(disc, material, loading, tau)
    sigma, v, z = ref._split(ref.step(ref.pack(state)))
    u = state.u + 0.5 * tau * (state.v + v)
    return State(u=u, v=v, sigma=sigma, z=z, k=state.k + 1,
                 v_prev=state.v.copy())


def explicit_sigma_closure(state, disc, tau):
    """Shift the half-staggered proto-stress to the integer time level."""
    return state.sigma + 0.5 * tau * disc.apply_C(disc.apply_E(state.v))


def trajectory_distance(disc, sigma_a, v_a, sigma_b, v_b):
    """Mass-weighted discrete L2 distance on (v, Sigma)."""
    dv = v_a - v_b
    ds = sigma_a - sigma_b
    return float(np.sqrt(np.sum(disc.mass * dv * dv)
                         + np.sum(disc.sweights * ds * ds)))


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def gradient_check(material, disc, samples=3, seed=1234,
                   steps=(1e-3, 1e-4, 1e-5, 1e-6)):
    """Max relative defect of dphi_dsigma / dphi_dz vs central differences.

    The defect per direction is minimized over the step ladder (optimal
    step), then maximized over samples; the metric is relative, so it is
    invariant under rescaling the fields.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        sigma = rng.standard_normal(disc.n_s)
        sigma[~disc.s_active] = 0.0
        z = material.z_init(disc) + 0.3 * rng.standard_normal(
            material.z_size(disc))
        dsig = rng.standard_normal(disc.n_s)
        dsig[~disc.s_active] = 0.0
        ana = disc.sdot(material.dphi_dsigma(disc, sigma, z), dsig)
        worst = max(worst, _fd_defect(
            lambda t: material.phi(disc, sigma + t * dsig, z), ana, steps))
        if material.z_size(disc):
            dz = rng.standard_normal(material.z_size(disc))
            wz = material.z_weights(disc)
            ana_z = float(np.sum(wz * material.dphi_dz(disc, sigma, z) * dz))
            worst = max(worst, _fd_defect(
                lambda t: material.phi(disc, sigma, z + t * dz), ana_z, steps))
    return worst


def _fd_defect(f, analytic, steps):
    best = np.inf
    scale = max(abs(analytic), 1e-8)
    for hstep in steps:
        fd = (f(hstep) - f(-hstep)) / (2.0 * hstep)
        best = min(best, abs(fd - analytic) / scale)
    return best


# ---------------------------------------------------------------------------
# reference energy ledger
# ---------------------------------------------------------------------------

def reference_ledger(prev, nxt, disc, material, loading, tau,
                     step_info=None):
    """The ledger of the step ``prev -> nxt`` by full evaluation.

    Every stored energy, stress gradient and true stress is evaluated
    afresh from the material's ``phi``, ``dphi_dsigma`` and
    ``true_stress``: no value carried on the states and none of the
    closed forms :func:`stagdyn.integrator.energy_audit` uses for
    materials affine in z.  The dissipation is ``dissipation_rate`` of
    the rate (z' - z) / tau, not the step's own form, except where the
    step's by-products define it (Biot's chemical potential ``mu_mid``).
    ``step_info`` holds those by-products, as for the audit.
    """
    k = prev.k

    def grad(sigma, z):
        return material.dphi_dsigma(disc, sigma, z)

    def kinetic_pair(va, vb):
        return 0.5 * float(np.sum(disc.mass * va * vb))

    phi_next = material.phi(disc, nxt.sigma, nxt.z)
    kinetic = kinetic_pair(nxt.v, prev.v)
    dz = nxt.z - prev.z
    if "mu_mid" in (step_info or {}):
        diss = tau * material.step_dissipation(disc, dz, tau, step_info)
    else:
        diss = tau * material.dissipation_rate(disc, dz * (1.0 / tau))
    dphi_mid_next = grad(nxt.sigma, 0.5 * (nxt.z + prev.z))
    if k == 0:
        energy_prev = kinetic_pair(prev.v, prev.v) + material.phi(
            disc, prev.sigma, prev.z)
        p_avg = 0.5 * (grad(nxt.sigma, prev.z) + grad(prev.sigma, prev.z))
        work = 0.5 * tau * float(np.sum(loading.body_force * prev.v))
        dg = loading.d_increment(0, tau)
        if dg is not None:
            work += disc.sdot(p_avg, dg)
        s_gap = disc.apply_C(p_avg - dphi_mid_next)
        correction = -0.5 * tau * disc.sdot(s_gap, disc.apply_E(prev.v))
    else:
        energy_prev = kinetic_pair(prev.v, prev.v_prev) + material.phi(
            disc, prev.sigma, prev.z)
        work = tau * float(np.sum(loading.body_force * prev.v))
        dphi_mid_prev = grad(prev.sigma, 0.5 * (prev.z + prev.z_prev))
        jump = 0.5 * (dphi_mid_next - grad(nxt.sigma, prev.z))
        jump += 0.5 * (dphi_mid_prev - grad(prev.sigma, prev.z))
        correction = disc.sdot(jump, nxt.sigma - prev.sigma)
        dg = loading.d_increment(k, tau)
        if dg is not None:
            work += disc.sdot(0.5 * (dphi_mid_next + dphi_mid_prev), dg)
    residual = (kinetic + phi_next) - energy_prev + diss - work + correction
    a_coeff = 1.0
    if phi_next > 0.0:
        f = disc.apply_E_adjoint(material.true_stress(disc, nxt.sigma,
                                                      nxt.z))
        f[~disc.v_active] = 0.0
        a_coeff -= 0.125 * tau * tau * float(np.sum(f * f / disc.mass)) / (
            phi_next)
    return EnergyLedger(
        step=k, time=(k + 1) * tau, kinetic=kinetic, stored=phi_next,
        dissipated_step=diss, external_work_step=work,
        stability_coeff=a_coeff, residual=residual, energy_prev=energy_prev)


def ledger_defects(ledger, ref):
    """``(rel, res)``: the largest relative defect of ``ledger`` against
    ``ref`` over every field but the residual, and the absolute defect of
    the residual.  A field that differs from a zero reference is
    infinitely far from it; ledgers of different steps raise."""
    if ledger.step != ref.step:
        raise StagdynError(f"ledger of step {ledger.step} compared with "
                           f"step {ref.step}")
    rel = 0.0
    for name in ("time", "kinetic", "stored", "dissipated_step",
                 "external_work_step", "stability_coeff", "energy_prev"):
        a, b = getattr(ledger, name), getattr(ref, name)
        if a != b:
            rel = max(rel, abs(a - b) / abs(b) if b else np.inf)
    return rel, abs(ledger.residual - ref.residual)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Resolutions, errors and a fitted order from a refinement study."""

    resolutions: list
    errors: list
    fitted_order: float
    reference: str  # "oracle", "finest-grid" or "exact"
    excluded: list = None

    def __post_init__(self):
        if len(self.resolutions) < 3:
            raise StagdynError("convergence report needs >= 3 resolutions")
        if any(e <= 0 for e in self.errors):
            raise StagdynError("convergence errors must be positive")
        self.excluded = self.excluded or []

    def table(self):
        lines = ["resolution      error"]
        for r, e in zip(self.resolutions, self.errors):
            lines.append(f"{r:<14.6g}  {e:.6e}")
        lines.append(f"fitted order: {self.fitted_order:.3f} "
                     f"(reference: {self.reference})")
        for note in self.excluded:
            lines.append(f"excluded: {note}")
        return "\n".join(lines)

    def rows(self):
        out = [f"row,{r:.17g},{e:.17g}" for r, e in
               zip(self.resolutions, self.errors)]
        out.append(f"order,{self.fitted_order:.17g},{self.reference}")
        return out


def fit_order(resolutions, errors):
    """Least-squares slope of log error against log resolution."""
    x = np.log(np.asarray(resolutions, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _level_runs(disc, material, loading, state0, cfg, taus):
    """Run the scheme to ``cfg.t_end`` at each CFL-admissible level.

    Each tau is shortened to divide t_end.  The bound at ``cfg.eta`` and
    the initial state is ``cfg.tau_max``, estimated once when that is
    None, and every admissible level runs with it and the other settings
    of ``cfg``.  Returns ``(levels, excluded)`` with levels a list of
    ``(tau_eff, final state)``.
    """
    from .integrator import cfl_admissible, max_stable_timestep, run_simulation

    tau_max = cfg.tau_max
    if tau_max is None:
        tau_max, _ = max_stable_timestep(disc, material, state0.z, cfg.eta)
    levels = []
    excluded = []
    for tau in taus:
        n = max(1, int(np.ceil(cfg.t_end / tau - 1e-12)))
        tau_eff = cfg.t_end / n
        if not cfl_admissible(tau_eff, tau_max):
            excluded.append(f"tau={tau_eff:.3g} violates CFL bound "
                            f"{tau_max:.3g}")
            continue
        level = replace(cfg, tau=tau_eff, tau_max=tau_max)
        final, _ = run_simulation(disc, material, loading, level,
                                  state0.copy())
        levels.append((tau_eff, final))
    return levels, excluded


def temporal_self_convergence(disc, material, loading, state0, cfg, taus,
                              oracle_refine=16):
    """Explicit staggered vs midpoint oracle under tau refinement.

    ``cfg`` is the run's :class:`IntegratorConfig`: its ``t_end`` is the
    horizon, its ``eta`` the CFL margin, its ``tau_max`` the stability
    bound at that ``eta`` and ``state0`` when already measured, and its
    other settings reach every level.  The oracle
    runs at ``tau/oracle_refine`` so its own time error is negligible
    against the measured one; spatial operators are shared, so the
    comparison isolates the time discretization.
    """
    levels, excluded = _level_runs(disc, material, loading, state0, cfg,
                                   taus)
    errors = []
    for tau_eff, final in levels:
        sig_exp = explicit_sigma_closure(final, disc, tau_eff)
        ref = ImplicitReference(disc, material, loading,
                                tau_eff / oracle_refine)
        n = int(round(cfg.t_end / tau_eff))
        sig_ref, v_ref, _ = ref.run(state0, n * oracle_refine)
        errors.append(trajectory_distance(disc, sig_exp, final.v,
                                          sig_ref, v_ref))
    used = [tau_eff for tau_eff, _ in levels]
    return ConvergenceReport(resolutions=used, errors=errors,
                             fitted_order=fit_order(used, errors),
                             reference="oracle", excluded=excluded)


def temporal_finest_grid(disc, material, loading, state0, cfg, taus,
                         refine=4):
    """Tau refinement against the finest run (nonlinear materials).

    ``cfg`` is as in :func:`temporal_self_convergence`.
    The reference is the same explicit scheme at ``min(taus)/refine``;
    errors are measured in the mass-weighted (v, Sigma) norm at t_end.
    """
    levels, excluded = _level_runs(disc, material, loading, state0, cfg,
                                   list(taus) + [min(taus) / refine])
    if len(levels) < 4:
        raise StagdynError("too few CFL-admissible levels for a fit")
    finished = [(explicit_sigma_closure(final, disc, tau_eff), final.v)
                for tau_eff, final in levels]
    sig_ref, v_ref = finished[-1]
    errors = [trajectory_distance(disc, s, v, sig_ref, v_ref)
              for s, v in finished[:-1]]
    used = [tau_eff for tau_eff, _ in levels[:-1]]
    return ConvergenceReport(resolutions=used, errors=errors,
                             fitted_order=fit_order(used, errors),
                             reference="finest-grid", excluded=excluded)


def manufactured_wave_study(levels, n0=16, c_mod=1.0, rho=1.0, t_end=0.5,
                            courant=0.5, amplitude=1.0, dim=1):
    """Elastic standing wave, joint (h, tau) refinement at fixed Courant
    ratio ``c tau / h``; errors against the exact solution.

    Uses the traction-free mode u(x,t) = cos(pi x) cos(pi c t), whose
    boundary data (sigma = 0 at both ends) the masked Neumann stress rows
    represent exactly, so the study measures the interior scheme's joint
    second order.  (The clamped zero-ghost wall carries an O(1) boundary
    consistency defect by construction and is not a valid refinement
    target for a smooth standing mode.)

    ``dim=2`` runs the same mode as ``u_x`` on the unit square with all
    sides ``neumann`` and ``K = G = c_mod / 2``: the Lame lambda ``K - G``
    vanishes, so ``sigma_yy`` and the shear stay zero, every side is
    traction-free, and ``c = sqrt((K + G) / rho)``.  Its explicit limit is
    ``c tau / h <= 1 / sqrt(2)``, so pass ``courant`` accordingly.
    """
    from .grid import Grid, build
    from .integrator import (IntegratorConfig, initial_state, no_loading,
                             run_simulation)
    from .materials import ElasticMaterial

    if dim not in (1, 2):
        raise ValueError(f"unsupported dim {dim}")
    c_wave = np.sqrt(c_mod / rho)
    omega = np.pi * c_wave
    hs = []
    errors = []
    for lvl in range(levels):
        nx = n0 * 2 ** lvl
        h = 1.0 / nx
        if dim == 1:
            disc = build(Grid(dim=1, nx=nx, h=h, bc=("neumann", "neumann")),
                         rho, {"modulus": c_mod})
            x_sigma = np.linspace(0.0, 1.0, nx + 1)
            x_v = 0.5 * (x_sigma[:-1] + x_sigma[1:])
        else:
            disc = build(Grid(dim=2, nx=nx, ny=nx, h=h, bc=("neumann",) * 4),
                         rho, {"bulk_modulus": 0.5 * c_mod,
                               "shear_modulus": 0.5 * c_mod})
            x_sigma = (np.arange(nx) + 0.5) * h
            x_v = np.arange(nx + 1) * h

        def fields(t):
            """(sigma, v) of the exact mode at time t on the layout."""
            sig = (-amplitude * c_mod * np.pi * np.sin(np.pi * x_sigma)
                   * np.cos(omega * t))
            vel = (-amplitude * omega * np.cos(np.pi * x_v)
                   * np.sin(omega * t))
            if dim == 1:
                return sig, vel
            sigma, v = disc.zeros_s(), disc.zeros_v()
            disc.sxx_view(sigma)[:] = sig[:, None]
            disc.vx_view(v)[:] = vel[:, None]
            return sigma, v

        material = ElasticMaterial()
        tau0 = courant * h / c_wave
        n = int(np.ceil(t_end / tau0))
        tau = t_end / n
        state = initial_state(disc, material, sigma=fields(0.0)[0])
        cfg = IntegratorConfig(tau=tau, t_end=t_end)
        final, _ = run_simulation(disc, material, no_loading(disc), cfg, state)
        sig = explicit_sigma_closure(final, disc, tau)
        sig_exact, v_exact = fields(t_end)
        errors.append(trajectory_distance(disc, sig, final.v,
                                          sig_exact, v_exact))
        hs.append(h)
    return ConvergenceReport(resolutions=hs, errors=errors,
                             fitted_order=fit_order(hs, errors),
                             reference="exact")
