"""The normalized parameter model, the recoil-heating rate, and the config format.

Every analysis routine in this package consumes :class:`NormalizedParams`, in
which all rates are measured in units of the mechanical frequency omega_m.
Its fields may be floats or ndarrays that broadcast together; a params object
with array fields is a block of parameter points, and every per-point routine
evaluates the whole block at once.  The only SI input is the config's
sphere description (radius_nm, epsilon, lambda_um), from which
:func:`recoil_heating` derives gamma_sc.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ValidationError

# Largest magnitude of a parameter value: `square` of anything larger overflows.
MAX_MAGNITUDE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless model state: every rate in units of omega_m.

    The phase convention rotates the drive phases away, so J and Omega_m are
    real and nonnegative.  gamma_sc is the photon-recoil phonon heating rate,
    n_th the thermal bath occupancy.  Each field is a float or an ndarray;
    `shape` is the broadcast shape of all fields, () for a single point.
    Every value must be finite and at most MAX_MAGNITUDE in magnitude.
    """

    delta2p: float
    delta3: float
    kappa: float
    kappa3: float
    J: float
    Omega_m: float
    gamma: float = 0.0
    gamma_sc: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        _require_positive(self.kappa, "kappa")
        _require_positive(self.kappa3, "kappa3")
        _require_nonnegative(self.gamma, "gamma")
        _require_nonnegative(self.gamma_sc, "gamma_sc")
        _require_nonnegative(self.n_th, "n_th")
        _require_nonnegative(self.J, "J")
        _require_nonnegative(self.Omega_m, "Omega_m")
        for name in ("delta2p", "delta3"):
            if bad := _failures(getattr(self, name), _bounded):
                raise _invalid(name, bad[0], _bounded, f"{name} must be finite")
        shapes = {getattr(getattr(self, k), "shape", ()) for k in RATE_KEYS}
        try:
            shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        except ValueError:
            raise ValidationError("parameter arrays do not broadcast to one shape")
        object.__setattr__(self, "shape", shape)

    def replace(self, **changes):
        return replace(self, **changes)


class SweptJ(NormalizedParams):
    """NormalizedParams whose J values are the points of a swept J grid.

    `response.chi_total` divides its coupled sum in numpy's complex order
    for these and in CPython's order otherwise.  The two orders differ in
    the last bit; fig5a and sweeps over a J axis use numpy's order, and the
    golden digests in tests/test_golden.py pin those bytes.
    """


def _failures(value, in_range):
    """The elements of `value` where `in_range` is false.

    Every `in_range` below fails NaN, inf and magnitudes above
    MAX_MAGNITUDE.  A Python float is compared as it is; any other value (an
    int, a numpy scalar, an array) as an array, elementwise.
    """
    if type(value) is float:
        return [] if in_range(value) else [value]
    value = np.asarray(value)
    ok = in_range(value)
    if ok.all():
        return []
    return value[~ok].tolist() if value.ndim else [value.item()]


def _positive(x):
    return (x > 0.0) & (x <= MAX_MAGNITUDE)


def _nonnegative(x):
    return (x >= 0.0) & (x <= MAX_MAGNITUDE)


def _bounded(x):
    return abs(x) <= MAX_MAGNITUDE


def _invalid(name, x, in_range, message):
    """The error for a failing value `x` of `name`: a finite `x` that
    `in_range` accepts once clipped to MAX_MAGNITUDE is too large; any other
    `x` gets `message`."""
    if math.isfinite(x) and in_range(max(-MAX_MAGNITUDE, min(x, MAX_MAGNITUDE))):
        return ValidationError(
            f"{name} must be at most {MAX_MAGNITUDE:.4g} in magnitude, got {x}"
        )
    return ValidationError(message)


def _require_positive(value, name):
    if bad := _failures(value, _positive):
        raise _invalid(name, bad[0], _positive, f"{name} must be positive and finite, got {bad[0]}")


def _require_nonnegative(value, name):
    if bad := _failures(value, _nonnegative):
        raise _invalid(
            name, bad[0], _nonnegative, f"{name} must be nonnegative and finite, got {bad[0]}"
        )


def square(x):
    """x**2 through C `pow`, elementwise.

    Python's `float ** 2` calls `pow`, while numpy's `ndarray ** 2` multiplies
    x*x; the two differ in the last bit for about 0.1% of values.  Squaring
    parameter blocks with `pow` keeps each element bit-identical to the same
    point evaluated on its own.
    """
    return np.float_power(x, 2.0)


def unwrap(x):
    """x as a Python scalar when it has no dimensions, else unchanged."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def recoil_heating(radius, epsilon=2.0, wavelength=1.0e-6):
    """Photon-recoil heating rate in units of omega_m, from SI inputs.

    gamma_sc / omega_m = (4 pi^2 / 5) * (eps-1)/(eps+2) * V / lambda^3,
    with V the sphere volume.  Grows with the cube of the radius.
    """
    _require_positive(radius, "radius")
    _require_positive(wavelength, "wavelength")
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon}")
    if not epsilon > 1.0:
        raise ValidationError(f"epsilon must exceed 1, got {epsilon}")
    volume = (4.0 / 3.0) * math.pi * radius**3
    return (
        (4.0 * math.pi**2 / 5.0)
        * (epsilon - 1.0)
        / (epsilon + 2.0)
        * volume
        / wavelength**3
    )


def j_sideband_preset(kappa_normalized):
    """J = sqrt(kappa * omega_m) in units of omega_m (figure-style choice)."""
    _require_positive(kappa_normalized, "kappa")
    return unwrap(np.sqrt(kappa_normalized))


# ---------------------------------------------------------------------------
# Flat key-value config format
# ---------------------------------------------------------------------------

RATE_KEYS = (
    "delta2p",
    "delta3",
    "kappa",
    "kappa3",
    "J",
    "Omega_m",
    "gamma",
    "gamma_sc",
    "n_th",
)
# The physical keys that derive gamma_sc when it is not given.
PHYSICAL_KEYS = ("radius_nm", "epsilon", "lambda_um")
# `omega_m` (rad/s) is required when omega_m_units = si; the rate keys alone
# carry no frequency scale to normalize against.
CONFIG_KEYS = ("omega_m_units", "omega_m") + RATE_KEYS + PHYSICAL_KEYS

_REQUIRED_RATE_KEYS = ("delta2p", "delta3", "kappa", "kappa3", "J", "Omega_m")


def parse_config(text):
    """Parse `key = value` config text into NormalizedParams.

    Lines starting with `#` and blank lines are ignored.  Unknown keys are a
    hard error.  With `omega_m_units = si` the rate keys are read as rad/s
    and divided by the mandatory `omega_m` key; the default mode
    (`normalized`) reads them as multiples of omega_m directly.  gamma_sc
    may be omitted and derived from all three physical keys (radius_nm,
    epsilon, lambda_um); a partial set, or physical keys beside gamma_sc,
    is an error.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, value)

    units = "normalized"
    if "omega_m_units" in values:
        lineno, raw_units = values.pop("omega_m_units")
        if raw_units not in ("normalized", "si"):
            raise ConfigError(
                f"line {lineno}: omega_m_units must be `normalized` or `si`, "
                f"got {raw_units!r}"
            )
        units = raw_units

    numbers = {}
    for key, (lineno, value) in values.items():
        try:
            numbers[key] = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {value!r}")

    scale = 1.0
    if units == "si":
        if "omega_m" not in numbers:
            raise ConfigError("omega_m_units = si requires an `omega_m` key (rad/s)")
        scale = numbers.pop("omega_m")
        if not (math.isfinite(scale) and scale > 0.0):
            raise ConfigError(f"omega_m must be positive, got {scale}")
    elif "omega_m" in numbers:
        raise ConfigError("`omega_m` key is only meaningful with omega_m_units = si")

    missing = [k for k in _REQUIRED_RATE_KEYS if k not in numbers]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    rates = {k: numbers[k] / scale for k in _REQUIRED_RATE_KEYS}
    rates["gamma"] = numbers.get("gamma", 0.0) / scale
    rates["n_th"] = numbers.get("n_th", 0.0)

    physical = [k for k in PHYSICAL_KEYS if k in numbers]
    if "gamma_sc" in numbers:
        if physical:
            raise ConfigError(
                f"gamma_sc is given, so {', '.join(physical)} would be ignored; "
                "give one or the other"
            )
        rates["gamma_sc"] = numbers["gamma_sc"] / scale
    elif physical:
        if missing := [k for k in PHYSICAL_KEYS if k not in numbers]:
            raise ConfigError(
                f"physical keys {', '.join(physical)} given without {', '.join(missing)}; "
                "deriving gamma_sc needs all three"
            )
        rates["gamma_sc"] = _gamma_sc_from_config(numbers)
    else:
        rates["gamma_sc"] = 0.0

    try:
        return NormalizedParams(**rates)
    except ValidationError as exc:
        raise ConfigError(str(exc))


def _gamma_sc_from_config(numbers):
    try:
        _require_positive(numbers["radius_nm"], "radius_nm")
        _require_positive(numbers["lambda_um"], "lambda_um")
        return recoil_heating(
            numbers["radius_nm"] * 1e-9,
            numbers["epsilon"],
            numbers["lambda_um"] * 1e-6,
        )
    except ValidationError as exc:
        raise ConfigError(str(exc))


def load_config(path):
    """Parse the UTF-8 config file at `path`; other bytes are a ConfigError naming their offset."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = data[exc.start]
        raise ConfigError(f"{path}: byte 0x{byte:02x} at offset {exc.start} is not UTF-8")
    return parse_config(text)
