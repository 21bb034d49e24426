"""Exception types shared across the package."""


class SvparkError(Exception):
    """Base class for all errors raised by this package."""


class DerivativeMismatch(SvparkError):
    """A user-supplied derivative callback disagrees with finite differences.

    Carries the offending callback name, the worst observed error, and the
    full validation report (``.report``).
    """

    def __init__(self, callback, max_error, report=None):
        super().__init__(
            f"callback {callback!r} disagrees with finite differences "
            f"(max relative error {max_error:.3e})"
        )
        self.callback = callback
        self.max_error = max_error
        self.report = report


class NoConvergence(SvparkError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, last_residual, iterations, message=""):
        detail = message or (
            f"no convergence after {iterations} iterations "
            f"(residual {last_residual:.3e})"
        )
        super().__init__(detail)
        self.last_residual = last_residual
        self.iterations = iterations


class SingularJacobian(SvparkError):
    """The linear solve inside a Newton iteration failed."""


class RankDeficient(SvparkError):
    """A constraint Jacobian or Schur complement is numerically singular."""


class ConditionViolated(SvparkError):
    """A tableau or its noise quadrature admits no well-defined constrained update."""

    def __init__(self, reasons):
        super().__init__("integrator not admissible: " + "; ".join(reasons))
        self.reasons = list(reasons)


class InvalidResolution(SvparkError):
    """Brownian path resolutions must be powers of two and divide evenly."""


class NameNotFound(SvparkError, KeyError):
    """Lookup of a builtin object (tableau, model, method) by name failed."""

    def __str__(self):
        return SvparkError.__str__(self)


class LadderTooShort(SvparkError):
    """A convergence study needs at least three usable step sizes."""


class StatisticallyInconclusive(SvparkError):
    """Monte Carlo noise dominates the quantity a study tried to measure.

    Carries the partial results on ``.step_sizes``, ``.errors`` and
    ``.mc_stderrs`` so the caller can inspect what was measured.
    """

    def __init__(self, message, step_sizes=None, errors=None, mc_stderrs=None):
        super().__init__(message)
        self.step_sizes = step_sizes
        self.errors = errors
        self.mc_stderrs = mc_stderrs


class ConfigInvalid(SvparkError):
    """An experiment configuration failed schema or physics validation."""
