"""Coupled-cavity response functions and the optical force noise spectrum.

All frequencies are in units of omega_m (the mechanical frequency is 1).
The spectrum is reported as the dimensionless S_FF(omega) * x_zpf^2 / omega_m,
which is the quantity that sets the cooling and heating rates directly.

Every function broadcasts over `omega` and over array-valued parameters, and
returns Python scalars for scalar inputs.  Two arithmetics are used:

- The spectrum of one parameter point on an omega grid (scalar params, array
  omega) uses numpy's complex division and array squaring, as the `spectrum`
  subcommand and the fig3 presets always have.
- Every other evaluation (a scalar omega, or a block of parameter points)
  follows Python's scalar arithmetic bit for bit: reciprocals in CPython's
  complex-division order and squares through C `pow`.  A block therefore
  gives each point exactly the value that point gives on its own.  The one
  exception is `params.SweptJ` (see `chi_total`).
"""

import numpy as np

from .errors import GridTooCoarse, ValidationError
from .params import SweptJ, square, unwrap

OMEGA_M = 1.0  # mechanical frequency in normalized units


def _reciprocal(z):
    """1/z in the operation order of CPython's `_Py_c_quot` with numerator 1.

    numpy multiplies by the reciprocal of |z|^2-like denominators and differs
    from Python's `1.0 / complex` in the last bit of about a quarter of the
    imaginary parts.  `_Py_c_quot` divides through by the larger part of z;
    with `big` that part and `small` the other, both of its branches reduce
    exactly to the expressions below (its `1.0 * x` and `0.0 * x` terms
    folded, and `small * ratio + big` summed in either order).
    """
    z = np.asarray(z)
    re, im = z.real, z.imag
    wide = np.abs(re) >= np.abs(im)
    big, small = np.where(wide, re, im), np.where(wide, im, re)
    with np.errstate(all="ignore"):
        ratio = small / big
        denom = big + small * ratio
        out = np.empty(wide.shape, dtype=complex)
        out.real = np.where(wide, 1.0, ratio + 0.0) / denom
        out.imag = np.where(wide, 0.0 - ratio, -1.0) / denom
    return out


def _numpy_reciprocal(z):
    return 1.0 / np.asarray(z)


def _grid_square(x):
    return x**2


def _arithmetic(omega, p):
    """(reciprocal, square) for an evaluation at `omega` (see the module docstring)."""
    if p.shape == () and np.ndim(omega) > 0:
        return _numpy_reciprocal, _grid_square
    return _reciprocal, square


def chi2(omega, p):
    """Cooling-cavity response 1 / (-i(omega + delta2p) + kappa/2)."""
    reciprocal, _ = _arithmetic(omega, p)
    return unwrap(reciprocal(-1j * (omega + p.delta2p) + p.kappa / 2.0))


def chi3(omega, p):
    """Auxiliary-cavity response 1 / (-i(omega + delta3) + kappa3/2)."""
    reciprocal, _ = _arithmetic(omega, p)
    return unwrap(reciprocal(-1j * (omega + p.delta3) + p.kappa3 / 2.0))


def chi_m(omega, p):
    """Mechanical response 1 / (-i(omega - omega_m) + gamma/2)."""
    reciprocal, _ = _arithmetic(omega, p)
    return unwrap(reciprocal(-1j * (omega - OMEGA_M) + p.gamma / 2.0))


def chi_total(omega, p):
    """Total response of the two coupled cavities, 1/(1/chi2 + J^2 chi3).

    Equals chi2 exactly where J = 0.  Satisfies the exact identity
    2 Re chi = |chi|^2 (kappa + J^2 kappa3 |chi3|^2), which encodes the
    interference between the direct and aux-mediated decay pathways.  The
    coupled sum is inverted in numpy's order for `SweptJ` parameters.
    """
    return _chi_total(omega, p, None)


def _chi_total(omega, p, aux):
    """chi_total, given chi3 at omega as `aux` (computed here when None)."""
    reciprocal, sq = _arithmetic(omega, p)
    direct = chi2(omega, p)
    if not np.any(p.J):
        return direct
    aux = chi3(omega, p) if aux is None else aux
    coupled_sum = reciprocal(direct) + sq(p.J) * aux
    outer = _numpy_reciprocal if isinstance(p, SweptJ) else reciprocal
    return unwrap(np.where(p.J == 0.0, direct, outer(coupled_sum)))


def self_energy(omega, p, reversed_conjugate=True):
    """Optomechanical self-energy Sigma(omega).

    With `reversed_conjugate` (default) this is
        Sigma(omega) = -i Omega_m^2 [chi(omega) - chi*(-omega)],
    whose imaginary part at omega_m reproduces the net cooling rate,
    Gamma_opt = -2 Im Sigma(omega_m) = A_minus - A_plus, and whose real part
    is the optical spring shift.  The variant with chi*(+omega) is exposed
    for comparison; it is purely real and carries no damping information.
    """
    _, sq = _arithmetic(omega, p)
    chi_fwd = chi_total(omega, p)
    if reversed_conjugate:
        chi_back = np.conj(chi_total(-np.asarray(omega), p))
    else:
        chi_back = np.conj(chi_fwd)
    return unwrap(-1j * sq(p.Omega_m) * (chi_fwd - chi_back))


def s_ff(omega, p):
    """Force noise spectrum S_FF(omega) x_zpf^2 in units of omega_m.

    S x_zpf^2 = Omega_m^2 |chi(omega)|^2 (kappa + kappa3 J^2 |chi3(omega)|^2).
    Nonnegative everywhere; a pure Lorentzian Omega_m^2 |chi2|^2 kappa when
    J = 0.
    """
    _, sq = _arithmetic(omega, p)
    aux = chi3(omega, p)
    chi = _chi_total(omega, p, aux)
    bracket = p.kappa + p.kappa3 * sq(p.J) * sq(np.abs(aux))
    return unwrap(sq(p.Omega_m) * sq(np.abs(chi)) * bracket)


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
