"""Effective two-mode reduction and closed-form dynamical stability criteria.

When the cooling cavity is far detuned and broad (|delta2p| >> |delta3|,
kappa >> kappa3, gamma, J), it can be eliminated adiabatically, leaving an
effective single-cavity optomechanical system made of the auxiliary mode and
the sphere.  The effective parameters and the Routh-Hurwitz style stability
inequalities below are exact consequences of that elimination.

Every function evaluates a single point or a block of points (see
`params.NormalizedParams`) and returns Python scalars for a single point.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .params import square, unwrap
from .response import OMEGA_M

# Each separation-of-scales condition of the elimination must hold by this factor.
REGIME_FACTOR = 10.0


@dataclass(frozen=True)
class EffectiveParams:
    """Parameters of the eliminated (auxiliary mode + sphere) system.

    eta = J / sqrt(delta2p^2 + kappa^2/4) measures how strongly the broad
    cavity participates; regime_ok reports whether every separation-of-scales
    condition holds by at least REGIME_FACTOR.
    """

    eta: float
    Omega_eff: float
    kappa_eff: float
    Delta_eff: float
    regime_ok: bool


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one closed-form stability inequality.

    `margin` is the signed, normalized slack of the governing inequality:
    positive means stable with room to spare.  stable <=> margin > 0.
    """

    stable: bool
    margin: float


def effective_params(p):
    """Effective two-mode parameters (eta, Omega_eff, kappa_eff, Delta_eff).

    eta's norm is sqrt(delta2p^2 + kappa^2/4), taken by `np.hypot` where that
    sum of squares is subnormal, 0 or inf (|delta2p| and kappa both below
    ~1e-154, or near MAX_MAGNITUDE), so eta is finite wherever its true value
    is; elsewhere the plain norm keeps its bits.  Overflow gives inf without a
    warning; an infinite eta times a zero Omega_m or delta2p still warns.
    """
    with np.errstate(all="ignore"):
        squares = square(p.delta2p) + square(p.kappa / 2.0)
        plain = (squares >= np.finfo(np.float64).tiny) & (squares < np.inf)
        eta = p.J / np.where(plain, np.sqrt(squares), np.hypot(p.delta2p, p.kappa / 2.0))
    with np.errstate(over="ignore"):
        Omega_eff, eta_squared = eta * p.Omega_m, square(eta)
        kappa_eff, Delta_eff = p.kappa3 + eta_squared * p.kappa, p.delta3 - eta_squared * p.delta2p
    checks = {
        "detuning_separation": abs(p.delta2p) >= REGIME_FACTOR * abs(p.delta3),
        "kappa_dominates_kappa3": p.kappa >= REGIME_FACTOR * p.kappa3,
        "kappa_dominates_gamma": p.kappa >= REGIME_FACTOR * p.gamma,
        "kappa_dominates_J": p.kappa >= REGIME_FACTOR * p.J,
    }
    return EffectiveParams(
        eta=unwrap(eta),
        Omega_eff=unwrap(Omega_eff),
        kappa_eff=unwrap(kappa_eff),
        Delta_eff=unwrap(Delta_eff),
        # `&` broadcasts a check on scalar fields against the array checks.
        regime_ok=unwrap(functools.reduce(operator.and_, checks.values())),
    )


def stability_single(p):
    """Single-cavity stability (J treated as zero, mechanical damping neglected).

    The general inequality is delta2p [16 delta2p Omega_m^2 +
    (4 delta2p^2 + kappa^2) omega_m] < 0; its margin is normalized by
    kappa^2 omega_m so sweeps are comparable across kappa scales.  At the
    single-cavity optimum delta2p = -kappa/2 it reduces to
    Omega_m^2 < kappa omega_m / 4.  Overflow, or a kappa^2 of 0, gives an
    infinite margin without a warning; 0/0 still warns.
    """
    delta, kappa = p.delta2p, p.kappa
    with np.errstate(over="ignore", divide="ignore"):
        lhs = delta * (
            16.0 * delta * square(p.Omega_m) + (4.0 * square(delta) + square(kappa)) * OMEGA_M
        )
        margin = -lhs / (square(kappa) * OMEGA_M)
    return StabilityVerdict(unwrap(margin > 0.0), unwrap(margin))


def stability_coupled(p, eff=None):
    """Coupled-cavity stability from the effective two-mode system.

    The closed bound is
        Omega_m^2 < (4 omega_m^2 + kappa_eff^2) / (16 eta^2),
    with normalized margin (bound - Omega_m^2)/bound.  eta = 0 is
    degenerate: the criterion constrains nothing, so the verdict is stable
    with infinite margin.  `eff` is `effective_params(p)` when the caller
    has it already; it is computed otherwise.
    """
    if eff is None:
        eff = effective_params(p)
    with np.errstate(all="ignore"):
        scale = 4.0 * square(OMEGA_M) + square(eff.kappa_eff)
        bound = scale / (16.0 * square(eff.eta))
        margin = (bound - square(p.Omega_m)) / bound
        # For tiny eta (J -> 0+) 16 eta^2 underflows or the bound
        # overflows, and inf/inf would be NaN: use the margin's other form.
        margin = np.where(np.isinf(bound), 1.0 - 16.0 * square(eff.Omega_eff) / scale, margin)
    margin = np.where(np.asarray(eff.eta) == 0.0, np.inf, margin)
    return StabilityVerdict(unwrap(margin > 0.0), unwrap(margin))


def minimum_coupled_bound(kappa, kappa3):
    """Minimum over eta of the coupled stability bound.

    S_min = (kappa/4) sqrt(omega_m^2 + kappa3^2/4) + kappa kappa3 / 8,
    attained at eta_min = (4 omega_m^2 + kappa3^2)^(1/4) / sqrt(kappa).
    Always exceeds the single-cavity bound kappa omega_m / 4.
    """
    return unwrap(kappa / 4.0 * np.sqrt(OMEGA_M**2 + square(kappa3) / 4.0) + kappa * kappa3 / 8.0)
