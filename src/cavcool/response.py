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

A rate pair S_FF(+-omega) (`s_ff_pair`) and the self-energy's chi(omega),
chi*(-omega) pair are one stacked evaluation over omega and -omega, in the
arithmetic that omega alone selects: a scalar omega keeps the scalar
arithmetic although its stack is an array.  Each evaluation inverts 1/chi2
and 1/chi3 in one reciprocal call.  All of it is elementwise, so every value
keeps the bits of its own evaluation.
"""

import numpy as np

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
    return unwrap(_responses(omega, p, _arithmetic(omega, p))[0])


def _responses(omega, p, arithmetic):
    """(chi_total, chi3) at `omega` in the given (reciprocal, square) arithmetic.

    1/chi2 and 1/chi3 are inverted by one reciprocal call over both.
    """
    reciprocal, sq = arithmetic
    z2 = np.asarray(-1j * (omega + p.delta2p) + p.kappa / 2.0)
    z3 = np.asarray(-1j * (omega + p.delta3) + p.kappa3 / 2.0)
    both = reciprocal(np.concatenate((z2.ravel(), z3.ravel())))
    direct, aux = both[: z2.size].reshape(z2.shape), both[z2.size :].reshape(z3.shape)
    if not np.any(p.J):
        return direct, aux
    coupled_sum = reciprocal(direct) + sq(p.J) * aux
    outer = _numpy_reciprocal if isinstance(p, SweptJ) else reciprocal
    return np.where(p.J == 0.0, direct, outer(coupled_sum)), aux


def _pair(omega, p):
    """omega and -omega stacked on a new leading axis, against which p's fields broadcast."""
    omega = np.asarray(omega)
    pad = (1,) * (len(p.shape) - omega.ndim)
    return np.stack((omega, -omega)).reshape((2,) + pad + omega.shape)


def self_energy(omega, p):
    """Optomechanical self-energy Sigma(omega) = -i Omega_m^2 [chi(omega) - chi*(-omega)].

    Its imaginary part at omega_m reproduces the net cooling rate,
    Gamma_opt = -2 Im Sigma(omega_m) = A_minus - A_plus, and its real part
    is the optical spring shift.  chi(omega) and chi(-omega) are one stacked
    evaluation.
    """
    arithmetic = _arithmetic(omega, p)
    _, sq = arithmetic
    chi_fwd, chi_rev = _responses(_pair(omega, p), p, arithmetic)[0]
    return unwrap(-1j * sq(p.Omega_m) * (chi_fwd - np.conj(chi_rev)))


def _spectrum(omega, p, arithmetic):
    """S_FF at `omega` in the given (reciprocal, square) arithmetic."""
    _, sq = arithmetic
    chi, aux = _responses(omega, p, arithmetic)
    bracket = p.kappa + p.kappa3 * sq(p.J) * sq(np.abs(aux))
    return sq(p.Omega_m) * sq(np.abs(chi)) * bracket


def s_ff(omega, p):
    """Force noise spectrum S_FF(omega) x_zpf^2 in units of omega_m.

    S x_zpf^2 = Omega_m^2 |chi(omega)|^2 (kappa + kappa3 J^2 |chi3(omega)|^2).
    Nonnegative everywhere; a pure Lorentzian Omega_m^2 |chi2|^2 kappa when
    J = 0.
    """
    return unwrap(_spectrum(omega, p, _arithmetic(omega, p)))


def s_ff_pair(omega, p):
    """(S_FF(omega), S_FF(-omega)), evaluated as one stacked block.

    Each value has the bits of its own `s_ff` call: the arithmetic is chosen
    for `omega` as given, not for the stacked pair.
    """
    plus, minus = _spectrum(_pair(omega, p), p, _arithmetic(omega, p))
    return unwrap(plus), unwrap(minus)
