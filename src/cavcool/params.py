"""The normalized parameter model, the recoil-heating rate, and the config format.

Every analysis routine in this package consumes :class:`NormalizedParams`, in
which all rates are measured in units of the mechanical frequency omega_m.
Its fields may be floats or ndarrays that broadcast together; a params object
with array fields is a block of parameter points, and every per-point routine
evaluates the whole block at once.  `DOMAIN` states once which values each
field accepts, and `_require` is the one check behind it, also for the SI
inputs.  The only SI input is the config's sphere description (radius_nm,
epsilon, lambda_um), from which :func:`recoil_heating` derives gamma_sc.
"""

import math
import sys
from dataclasses import MISSING, dataclass, replace

import numpy as np

from .errors import ConfigError, ValidationError

# Largest magnitude of a parameter value: `square` of anything larger overflows.
MAX_MAGNITUDE = math.sqrt(sys.float_info.max)

# The accepted values of each field, in field order.  Every kind also bounds
# the magnitude by MAX_MAGNITUDE; NaN and inf fail all three.
DOMAIN = {
    "delta2p": "finite",
    "delta3": "finite",
    "kappa": "positive",
    "kappa3": "positive",
    "J": "nonnegative",
    "Omega_m": "nonnegative",
    "gamma": "nonnegative",
    "gamma_sc": "nonnegative",
    "n_th": "nonnegative",
}
RATE_KEYS = tuple(DOMAIN)

_IN_DOMAIN = {
    "finite": lambda x: abs(x) <= MAX_MAGNITUDE,
    "positive": lambda x: (x > 0.0) & (x <= MAX_MAGNITUDE),
    "nonnegative": lambda x: (x >= 0.0) & (x <= MAX_MAGNITUDE),
}


def _require(value, name, kind):
    """Raise ValidationError naming `name` unless every element of `value` is `kind`.

    A Python float is compared as it is; any other value (an int, a numpy
    scalar, an array) as an array, elementwise.  The first failing element
    is reported: a finite one that `kind` accepts once clipped to
    MAX_MAGNITUDE is too large, any other is outside the domain.
    """
    in_domain = _IN_DOMAIN[kind]
    if type(value) is float:
        if in_domain(value):
            return
        bad = value
    else:
        value = np.asarray(value)
        ok = in_domain(value)
        if ok.all():
            return
        bad = value[~ok].item(0)
    if math.isfinite(bad) and in_domain(max(-MAX_MAGNITUDE, min(bad, MAX_MAGNITUDE))):
        raise ValidationError(f"{name} must be at most {MAX_MAGNITUDE:.4g} in magnitude, got {bad}")
    if kind == "finite":
        raise ValidationError(f"{name} must be finite")
    raise ValidationError(f"{name} must be {kind} and finite, got {bad}")


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless model state: every rate in units of omega_m.

    The phase convention rotates the drive phases away, so J and Omega_m are
    real and nonnegative.  gamma_sc is the photon-recoil phonon heating rate,
    n_th the thermal bath occupancy.  Each field is a float or an ndarray;
    `shape` is the broadcast shape of all fields, () for a single point.
    Each value must lie in its field's `DOMAIN`, checked in field order.
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
        for name, kind in DOMAIN.items():
            _require(getattr(self, name), name, kind)
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
    with V the sphere volume.  Grows with the cube of the radius.  A radius
    whose cube overflows, or a wavelength whose cube overflows or is 0, is a
    ValidationError naming it.
    """
    _require(radius, "radius", "positive")
    _require(wavelength, "wavelength", "positive")
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon}")
    if not epsilon > 1.0:
        raise ValidationError(f"epsilon must exceed 1, got {epsilon}")
    try:
        volume = (4.0 / 3.0) * math.pi * radius**3
    except OverflowError:
        raise ValidationError(f"radius {radius:g} m is too large: its cube overflows") from None
    try:
        return (
            (4.0 * math.pi**2 / 5.0)
            * (epsilon - 1.0)
            / (epsilon + 2.0)
            * volume
            / wavelength**3
        )
    except OverflowError:
        message = f"wavelength {wavelength:g} m is too large: its cube overflows"
        raise ValidationError(message) from None
    except ZeroDivisionError:
        raise ValidationError(f"wavelength {wavelength:g} m is too small: its cube is 0") from None


def j_sideband_preset(kappa_normalized):
    """J = sqrt(kappa * omega_m) in units of omega_m (figure-style choice)."""
    _require(kappa_normalized, "kappa", "positive")
    return unwrap(np.sqrt(kappa_normalized))


# ---------------------------------------------------------------------------
# Flat key-value config format
# ---------------------------------------------------------------------------

# The physical keys that derive gamma_sc when it is not given.
PHYSICAL_KEYS = ("radius_nm", "epsilon", "lambda_um")
# `omega_m` (rad/s) is required when omega_m_units = si; the rate keys alone
# carry no frequency scale to normalize against.
CONFIG_KEYS = ("omega_m_units", "omega_m") + RATE_KEYS + PHYSICAL_KEYS


def parse_config(text):
    """Parse `key = value` config text into NormalizedParams.

    Lines starting with `#` and blank lines are ignored.  Unknown keys are a
    hard error.  With `omega_m_units = si` the rate keys are read as rad/s
    and divided by the mandatory `omega_m` key, which must be positive; n_th
    is an occupancy and is never divided.  The default mode (`normalized`)
    reads them as multiples of omega_m directly.  A rate key left out takes
    its `NormalizedParams` default.  gamma_sc may be omitted and derived from
    all three physical keys (radius_nm, epsilon, lambda_um); a partial set,
    or physical keys beside gamma_sc, is an error.  Every value outside its
    domain is a ConfigError with the `ValidationError` message.
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

    if units == "si" and "omega_m" not in numbers:
        raise ConfigError("omega_m_units = si requires an `omega_m` key (rad/s)")
    if units != "si" and "omega_m" in numbers:
        raise ConfigError("`omega_m` key is only meaningful with omega_m_units = si")

    field = NormalizedParams.__dataclass_fields__
    if missing := [k for k in RATE_KEYS if k not in numbers and field[k].default is MISSING]:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    physical = [k for k in PHYSICAL_KEYS if k in numbers]
    if physical and "gamma_sc" in numbers:
        raise ConfigError(
            f"gamma_sc is given, so {', '.join(physical)} would be ignored; "
            "give one or the other"
        )
    if physical and (missing := [k for k in PHYSICAL_KEYS if k not in numbers]):
        raise ConfigError(
            f"physical keys {', '.join(physical)} given without {', '.join(missing)}; "
            "deriving gamma_sc needs all three"
        )

    try:
        scale = numbers.get("omega_m", 1.0)
        _require(scale, "omega_m", "positive")
        rates = {
            k: numbers[k] if k == "n_th" else numbers[k] / scale
            for k in RATE_KEYS
            if k in numbers
        }
        if physical:
            _require(numbers["radius_nm"], "radius_nm", "positive")
            _require(numbers["lambda_um"], "lambda_um", "positive")
            rates["gamma_sc"] = recoil_heating(
                numbers["radius_nm"] * 1e-9, numbers["epsilon"], numbers["lambda_um"] * 1e-6
            )
        return NormalizedParams(**rates)
    except ValidationError as exc:
        raise ConfigError(str(exc))


def load_config(path):
    """Parse the UTF-8 config file at `path`; other bytes are a ConfigError naming their offset.

    One leading byte-order mark is dropped after decoding, so the offsets
    count it: `utf-8-sig` would report them past the mark.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = data[exc.start]
        raise ConfigError(f"{path}: byte 0x{byte:02x} at offset {exc.start} is not UTF-8")
    return parse_config(text.removeprefix("\ufeff"))
