"""Coupled-cavity response functions and the optical force noise spectrum.

All frequencies are in units of omega_m (the mechanical frequency is 1).
The spectrum is reported as the dimensionless S_FF(omega) * x_zpf^2 / omega_m,
which is the quantity that sets the cooling and heating rates directly.

Every function accepts a scalar or an ndarray for `omega` and broadcasts.
"""

import numpy as np

from .errors import GridTooCoarse, ValidationError

OMEGA_M = 1.0  # mechanical frequency in normalized units


def chi2(omega, p):
    """Cooling-cavity response 1 / (-i(omega + delta2p) + kappa/2)."""
    return 1.0 / (-1j * (omega + p.delta2p) + p.kappa / 2.0)


def chi3(omega, p):
    """Auxiliary-cavity response 1 / (-i(omega + delta3) + kappa3/2)."""
    return 1.0 / (-1j * (omega + p.delta3) + p.kappa3 / 2.0)


def chi_m(omega, p):
    """Mechanical response 1 / (-i(omega - omega_m) + gamma/2)."""
    return 1.0 / (-1j * (omega - OMEGA_M) + p.gamma / 2.0)


def chi_total(omega, p):
    """Total response of the two coupled cavities, 1/(1/chi2 + J^2 chi3).

    Reduces to chi2 exactly when J = 0.  Satisfies the exact identity
    2 Re chi = |chi|^2 (kappa + J^2 kappa3 |chi3|^2), which encodes the
    interference between the direct and aux-mediated decay pathways.
    """
    if p.J == 0.0:
        return chi2(omega, p)
    return 1.0 / (1.0 / chi2(omega, p) + p.J**2 * chi3(omega, p))


def self_energy(omega, p, reversed_conjugate=True):
    """Optomechanical self-energy Sigma(omega).

    With `reversed_conjugate` (default) this is
        Sigma(omega) = -i Omega_m^2 [chi(omega) - chi*(-omega)],
    whose imaginary part at omega_m reproduces the net cooling rate,
    Gamma_opt = -2 Im Sigma(omega_m) = A_minus - A_plus, and whose real part
    is the optical spring shift.  The variant with chi*(+omega) is exposed
    for comparison; it is purely real and carries no damping information.
    """
    chi_fwd = chi_total(omega, p)
    if reversed_conjugate:
        chi_back = np.conj(chi_total(-np.asarray(omega), p))
    else:
        chi_back = np.conj(chi_fwd)
    sigma = -1j * p.Omega_m**2 * (chi_fwd - chi_back)
    if np.isscalar(omega):
        return complex(sigma)
    return sigma


def s_ff(omega, p):
    """Force noise spectrum S_FF(omega) x_zpf^2 in units of omega_m.

    S x_zpf^2 = Omega_m^2 |chi(omega)|^2 (kappa + kappa3 J^2 |chi3(omega)|^2).
    Nonnegative everywhere; a pure Lorentzian Omega_m^2 |chi2|^2 kappa when
    J = 0.
    """
    chi = chi_total(omega, p)
    bracket = p.kappa + p.kappa3 * p.J**2 * np.abs(chi3(omega, p)) ** 2
    return p.Omega_m**2 * np.abs(chi) ** 2 * bracket


def spectrum_scan(omega_grid, p):
    """(grid, S_FF values) on a strictly increasing grid."""
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("omega grid must be one-dimensional with >= 2 points")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("omega grid must be strictly increasing")
    return grid, s_ff(grid, p)


def find_extrema(grid, values):
    """Locate interior extrema of `values` sampled on `grid` by derivative sign change.

    Returns a list of (omega, kind) with kind in {"max", "min"}.  Raises
    GridTooCoarse when adjacent samples are exactly equal, because a flat
    segment makes the curvature test ambiguous at that resolution.
    """
    diffs = np.diff(values)
    if np.any(diffs == 0.0):
        flat_at = grid[np.nonzero(diffs == 0.0)[0][0]]
        raise GridTooCoarse(
            f"flat segment near omega = {flat_at:.6g}; refine the grid to classify extrema"
        )
    extrema = []
    signs = np.sign(diffs)
    for i in range(1, len(values) - 1):
        if signs[i - 1] > 0 and signs[i] < 0:
            extrema.append((float(grid[i]), "max"))
        elif signs[i - 1] < 0 and signs[i] > 0:
            extrema.append((float(grid[i]), "min"))
    return extrema
