"""The model's exact identities, each written once and evaluated over a block.

Each function takes a block of parameter points (`params.NormalizedParams`),
plus `omega` where the identity needs it, and returns the worst deviation
over the block as a float.  The worst is an `np.max`, so a NaN at any point
makes it NaN and fails a check `worst <= bound`.  Where an identity holds at
one parameter value (J = 0, Omega_m = 0), the function sets that value.
`cavcool selftest` and the tests evaluate these on their own draws and bounds.
"""

import numpy as np

from . import cooling, lyapunov, reduction, response
from .params import square
from .response import OMEGA_M

# Single-cavity points with |margin| below this sit on the stability edge,
# where the verdict turns on rounding; they are not compared.
EDGE_EXCLUSION = 1e-6


def interference(p, omega):
    """Relative deviation from 2 Re chi = |chi|^2 (kappa + J^2 kappa3 |chi3|^2).

    The right side is the force spectrum at Omega_m = 1.  Its two terms are
    the direct decay and the decay through the auxiliary mode; their
    interference sets the heating/cooling asymmetry.
    """
    rhs = response.s_ff(omega, p.replace(Omega_m=1.0))
    return float(np.max(np.abs(2.0 * np.real(response.chi_total(omega, p)) - rhs) / rhs))


def two_way_rate(p):
    """Deviation of -2 Im Sigma(omega_m) from A_minus - A_plus, relative to
    A_minus + A_plus (to 1e-300 where both vanish)."""
    a_minus, a_plus = cooling.rates(p)
    deviation = -2.0 * np.imag(response.self_energy(OMEGA_M, p)) - (a_minus - a_plus)
    return float(np.max(np.abs(deviation) / np.maximum(a_minus + a_plus, 1e-300)))


def lorentzian(p, omega):
    """Relative deviation of the J = 0 spectrum from Omega_m^2 kappa /
    ((omega + delta2p)^2 + kappa^2/4), or from 1e-300 where that vanishes."""
    lorentz = square(p.Omega_m) * p.kappa / (square(omega + p.delta2p) + square(p.kappa) / 4.0)
    s = response.s_ff(omega, p.replace(J=0.0))
    return float(np.max(np.abs(s - lorentz) / np.maximum(lorentz, 1e-300)))


def thermal_limit(p):
    """Relative deviation of the exact occupancy from n_th + gamma_sc / gamma at
    Omega_m = 0, where the sphere sees only its bath and the recoil heating."""
    p = p.replace(Omega_m=0.0)
    expected = p.n_th + p.gamma_sc / p.gamma
    n_phonon = lyapunov.solve_steady(lyapunov.build_model(p)).n_phonon
    return float(np.max(np.abs(n_phonon - expected) / expected))


def vacuum(p):
    """Largest |V - I/2| of the exact covariance at Omega_m = n_th = gamma_sc = 0,
    where every mode is in its vacuum state (so n_phonon = 0)."""
    p = p.replace(Omega_m=0.0, n_th=0.0, gamma_sc=0.0)
    v = lyapunov.solve_steady(lyapunov.build_model(p)).V
    return float(np.max(np.abs(v - 0.5 * np.eye(6))))


def enlargement(kappa, kappa3):
    """Largest ratio of the single-cavity bound kappa omega_m / 4 to the coupled
    minimum S_min; below 1 the coupled stability domain is the larger."""
    return float(np.max(kappa * OMEGA_M / 4.0 / reduction.minimum_coupled_bound(kappa, kappa3)))


def single_criterion(p):
    """Disagreement (1, else 0) of the single-cavity criterion with the drift
    eigenvalues at J = 0 and gamma = 0, as the criterion assumes.  Points with
    |margin| < EDGE_EXCLUSION count as agreeing."""
    p = p.replace(J=0.0, gamma=0.0)
    margin = reduction.stability_single(p).margin
    _, max_real = lyapunov.eigen_stable(lyapunov.build_model(p))
    disagree = np.where((max_real < 0.0) != (margin > 0.0), 1.0, 0.0)
    disagree = np.where(np.isnan(margin) | np.isnan(max_real), np.nan, disagree)
    return float(np.max(np.where(np.abs(margin) < EDGE_EXCLUSION, 0.0, disagree)))
