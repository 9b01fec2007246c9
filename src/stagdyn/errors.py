"""Exception types shared across the package."""


class StagdynError(Exception):
    """Base class for all package errors."""


class ConfigError(StagdynError):
    """Invalid configuration; carries a ``section.key`` location when known."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"[{location}] {message}"
        super().__init__(message)


class LayoutError(StagdynError):
    """A field does not match the discretization layout it is used with."""


class NonFiniteFieldError(StagdynError):
    """A state field contains NaN or Inf; the step is rejected."""


class CflViolationError(StagdynError):
    """Time step exceeds the stability bound.

    Attributes
    ----------
    tau : float
        Offending time step.
    tau_max : float
        Measured bound.
    quotient : float
        Rayleigh quotient ``8 (1 - eta) / tau_max^2`` behind ``tau_max``.
    """

    def __init__(self, tau, tau_max, quotient):
        self.tau = tau
        self.tau_max = tau_max
        self.quotient = quotient
        super().__init__(
            f"time step {tau:.6g} exceeds stability bound {tau_max:.6g} "
            f"(rayleigh quotient {quotient:.6g})"
        )


class SolverError(StagdynError):
    """Inner solver exhausted its iteration budget.

    Carries the last iterate and the residual history so callers can
    diagnose near-converged failures.
    """

    def __init__(self, message, last_iterate=None, residuals=None):
        self.last_iterate = last_iterate
        self.residuals = list(residuals) if residuals is not None else []
        if self.residuals:
            message = f"{message} (last residual {self.residuals[-1]:.3e})"
        super().__init__(message)


class UnsupportedMaterialError(StagdynError):
    """Operation not defined for this material (e.g. nonlinear oracle)."""


class EnergyInequalityError(StagdynError):
    """Per-step energy residual exceeded the enforced tolerance."""

    def __init__(self, step, residual, tol):
        self.step = step
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"energy inequality violated at step {step}: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )


class InstabilityError(StagdynError):
    """Blow-up guard tripped (non-finite fields or runaway energy)."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(f"instability detected at step {step}: {message}")
