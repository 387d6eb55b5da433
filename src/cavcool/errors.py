"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid physical or normalized parameter values."""


class ConfigError(ValidationError):
    """Malformed config text; the message names the offending token."""


class NoCoolingWindow(RuntimeError):
    """No detuning in the scanned range produced a positive net cooling rate."""


class GridTooCoarse(RuntimeError):
    """Extremum classification ambiguous on the supplied grid."""
