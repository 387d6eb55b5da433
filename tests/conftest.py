"""Shared parameter builders for the test suite."""

import math

import numpy as np

from cavcool.params import NormalizedParams, recoil_heating, square

# Reference sphere of the cooling-limit figures: r = 50 nm, eps = 2, lambda = 1 um.
RECOIL_50NM = recoil_heating(50e-9, 2.0, 1e-6)


def fig3_params(delta2p):
    """Spectrum-figure parameter set: kappa = 100, kappa3 = 1, J = 10, Omega_m = 5."""
    return NormalizedParams(
        delta2p=delta2p,
        delta3=0.5,
        kappa=100.0,
        kappa3=1.0,
        J=10.0,
        Omega_m=5.0,
        gamma=1e-5,
    )


def fig5_coupled(kappa, Omega_m=0.25, kappa3=1.0, gamma_sc=RECOIL_50NM):
    """Cooling-limit figure family: J = sqrt(kappa), delta2p = J^2/(delta3 + 1)."""
    j = math.sqrt(kappa)
    return NormalizedParams(
        delta2p=j**2 / 1.5,
        delta3=0.5,
        kappa=kappa,
        kappa3=kappa3,
        J=j,
        Omega_m=Omega_m,
        gamma=1e-5,
        gamma_sc=gamma_sc,
    )


def fig5_single(kappa, Omega_m=0.25, gamma_sc=RECOIL_50NM):
    """Single-cavity comparison at its optimum detuning delta2p = -kappa/2."""
    return NormalizedParams(
        delta2p=-kappa / 2.0,
        delta3=0.5,
        kappa=kappa,
        kappa3=1.0,
        J=0.0,
        Omega_m=Omega_m,
        gamma=1e-5,
        gamma_sc=gamma_sc,
    )


def effective_form_margin(eff):
    """The general single-cavity inequality
    delta [16 delta O^2 + (4 delta^2 + kappa^2) omega_m] < 0 applied to
    (Delta_eff, Omega_eff, kappa_eff) of `eff`, with the effective mechanical
    frequency taken equal to omega_m, normalized by kappa_eff^2 omega_m:
    positive means stable.  Infinite where eta = 0.  A cross-check of the
    closed coupled bound of `reduction.stability_coupled`.
    """
    delta, kappa = eff.Delta_eff, eff.kappa_eff
    with np.errstate(all="ignore"):
        lhs = delta * (16.0 * delta * square(eff.Omega_eff) + (4.0 * square(delta) + square(kappa)))
        margin = -lhs / square(kappa)
    return np.where(np.asarray(eff.eta) == 0.0, np.inf, margin)
