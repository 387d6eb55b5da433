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
    checks: dict


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one closed-form stability inequality.

    `margin` is the signed, normalized slack of the governing inequality:
    positive means stable with room to spare.  stable <=> margin > 0.
    """

    stable: bool
    margin: float
    criterion: str


def effective_params(p):
    """Effective two-mode parameters (eta, Omega_eff, kappa_eff, Delta_eff)."""
    with np.errstate(all="ignore"):
        eta = p.J / np.sqrt(square(p.delta2p) + square(p.kappa / 2.0))
    checks = {
        "detuning_separation": abs(p.delta2p) >= REGIME_FACTOR * abs(p.delta3),
        "kappa_dominates_kappa3": p.kappa >= REGIME_FACTOR * p.kappa3,
        "kappa_dominates_gamma": p.kappa >= REGIME_FACTOR * p.gamma,
        "kappa_dominates_J": p.kappa >= REGIME_FACTOR * p.J,
    }
    return EffectiveParams(
        eta=unwrap(eta),
        Omega_eff=unwrap(eta * p.Omega_m),
        kappa_eff=unwrap(p.kappa3 + square(eta) * p.kappa),
        Delta_eff=unwrap(p.delta3 - square(eta) * p.delta2p),
        # `&` broadcasts a check on scalar fields against the array checks.
        regime_ok=unwrap(functools.reduce(operator.and_, checks.values())),
        checks={name: unwrap(np.asarray(ok)) for name, ok in checks.items()},
    )


def _general_criterion(delta, coupling, kappa):
    """Signed left side of  delta [16 delta |O|^2 + (4 delta^2 + kappa^2) w] < 0."""
    return delta * (
        16.0 * delta * square(coupling) + (4.0 * square(delta) + square(kappa)) * OMEGA_M
    )


def stability_single(p):
    """Single-cavity stability (J treated as zero, mechanical damping neglected).

    The general inequality is delta2p [16 delta2p Omega_m^2 +
    (4 delta2p^2 + kappa^2) omega_m] < 0; its margin is normalized by
    kappa^2 omega_m so sweeps are comparable across kappa scales.  At the
    single-cavity optimum delta2p = -kappa/2 it reduces to
    Omega_m^2 < kappa omega_m / 4.
    """
    lhs = _general_criterion(p.delta2p, p.Omega_m, p.kappa)
    margin = -lhs / (square(p.kappa) * OMEGA_M)
    return StabilityVerdict(unwrap(margin > 0.0), unwrap(margin), "single_general")


def stability_coupled(p, form="closed"):
    """Coupled-cavity stability from the effective two-mode system.

    form="closed" evaluates the closed bound
        Omega_m^2 < (4 omega_m^2 + kappa_eff^2) / (16 eta^2),
    normalized margin (bound - Omega_m^2)/bound.  form="effective" applies
    the general inequality to (Delta_eff, Omega_eff, kappa_eff) with the
    effective mechanical frequency taken equal to omega_m.  eta = 0 is
    degenerate: the criterion constrains nothing, so the verdict is stable
    with infinite margin.
    """
    if form not in ("closed", "effective"):
        raise ValueError(f"form must be 'closed' or 'effective', got {form!r}")
    eff = effective_params(p)
    with np.errstate(all="ignore"):
        if form == "closed":
            scale = 4.0 * square(OMEGA_M) + square(eff.kappa_eff)
            bound = scale / (16.0 * square(eff.eta))
            margin = (bound - square(p.Omega_m)) / bound
            # For tiny eta (J -> 0+) 16 eta^2 underflows or the bound
            # overflows, and inf/inf would be NaN: use the margin's other form.
            margin = np.where(np.isinf(bound), 1.0 - 16.0 * square(eff.Omega_eff) / scale, margin)
        else:
            lhs = _general_criterion(eff.Delta_eff, eff.Omega_eff, eff.kappa_eff)
            margin = -lhs / (square(eff.kappa_eff) * OMEGA_M)
    margin = np.where(np.asarray(eff.eta) == 0.0, np.inf, margin)
    return StabilityVerdict(unwrap(margin > 0.0), unwrap(margin), f"coupled_{form}")


def minimum_coupled_bound(kappa, kappa3):
    """Minimum over eta of the coupled stability bound.

    S_min = (kappa/4) sqrt(omega_m^2 + kappa3^2/4) + kappa kappa3 / 8,
    attained at eta_min = (4 omega_m^2 + kappa3^2)^(1/4) / sqrt(kappa).
    Always exceeds the single-cavity bound kappa omega_m / 4.
    """
    return unwrap(kappa / 4.0 * np.sqrt(OMEGA_M**2 + square(kappa3) / 4.0) + kappa * kappa3 / 8.0)


def minimizing_eta(kappa, kappa3):
    return unwrap(np.float_power(4.0 * OMEGA_M**2 + square(kappa3), 0.25) / np.sqrt(kappa))
