"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid physical or normalized parameter values."""


class ConfigError(ValidationError):
    """Malformed config text; the message names the offending token."""


class TrapAbsent(ValidationError):
    """Mean-field solve requested with no trap drive (E1 = 0)."""


class NonConvergence(RuntimeError):
    """Fixed-point iteration hit the iteration cap."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"mean-field solve did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class NoCoolingWindow(RuntimeError):
    """No detuning in the scanned range produced a positive net cooling rate."""


class IllConditioned(RuntimeError):
    """Steady-state solve finished but the residual target was not met."""


class GridTooCoarse(RuntimeError):
    """Extremum classification ambiguous on the supplied grid."""
