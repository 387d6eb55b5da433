"""Cooling and heating rates, phonon limits, and optimum-detuning search.

Every per-point function evaluates a single point or a block of points (see
`params.NormalizedParams`) and returns Python scalars for a single point.
"""

from dataclasses import dataclass

import numpy as np

from . import response
from .errors import NoCoolingWindow, NumericError
from .params import square, unwrap
from .response import OMEGA_M


@dataclass(frozen=True)
class CoolingReport:
    """Rates and steady-state occupancy limits, all in units of omega_m.

    n_q = A_plus / Gamma_opt is the quantum backaction limit, n_c =
    gamma_sc / Gamma_opt the recoil (classical) limit, n_f their sum.  Unless
    Gamma_opt > 0 (so also where it is NaN) the occupancies are NaN and
    `cooling` is False.  For a block of points every field is an array.
    """

    A_minus: float
    A_plus: float
    Gamma_opt: float
    n_q: float
    n_c: float
    n_f: float
    cooling: bool


def rates(p):
    """Cooling and heating rates (A_minus, A_plus) = S_FF(+-omega_m) x_zpf^2."""
    return response.s_ff_pair(OMEGA_M, p)


def net_rate(p):
    """Net optical damping Gamma_opt = A_minus - A_plus (sign free)."""
    a_minus, a_plus = rates(p)
    return a_minus - a_plus


def spring_shift(p):
    """Optical spring shift Re Sigma(omega_m)."""
    return response.self_energy(OMEGA_M, p).real


def cooling_limit(p):
    """Steady-state phonon limit n_f = (A_plus + gamma_sc) / Gamma_opt.

    The thermal-bath contribution gamma*n_th/Gamma_opt is deliberately not
    included; the Lyapunov oracle carries it and comparisons zero it out.
    """
    a_minus, a_plus = rates(p)
    gamma_opt = a_minus - a_plus
    cooling = np.asarray(gamma_opt) > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n_q = np.where(cooling, np.divide(a_plus, gamma_opt), np.nan)
        n_c = np.where(cooling, np.divide(p.gamma_sc, gamma_opt), np.nan)
    return CoolingReport(
        a_minus, a_plus, gamma_opt, unwrap(n_q), unwrap(n_c), unwrap(n_q + n_c), unwrap(cooling)
    )


def closed_form_detuning(p):
    """Interference-optimal detuning delta2p = J^2 / (delta3 + omega_m).

    Places the dressed auxiliary resonance on the cooling sideband; the
    figure presets and the ground-state-window sweeps use this choice.
    At delta3 = -omega_m it is not finite, and no warning is raised: a
    caller that builds parameters from it rejects the point.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return unwrap(square(p.J) / (p.delta3 + OMEGA_M))


SCAN_SPAN = 3.0
SCAN_POINTS = 2001
SCAN_TOL = 1e-6


def optimal_detuning(p, mode="numeric", objective="n_f"):
    """Numeric optimum cooling detuning delta2p.

    Scans delta2p over +-SCAN_SPAN*kappa as one block of SCAN_POINTS points,
    then re-scans the bracket between the best point's grid neighbours as one
    block of 65 points (a block costs about as much as one point) until it is
    at most SCAN_TOL wide, or stops shrinking at float spacing.  Returns the
    best point evaluated.  The objective is the phonon limit n_f (minimized)
    or "net_rate" (Gamma_opt maximized).  `mode` must be "numeric"; the closed
    form is `closed_form_detuning`.  Raises NoCoolingWindow when no scanned
    detuning cools at all (n_f objective), and NumericError when the first
    scan's best point is an end of its grid, so the optimum may lie beyond it.
    """
    if mode != "numeric":
        raise ValueError(f"mode must be 'numeric' (closed form: closed_form_detuning), got {mode!r}")
    costs = {
        "n_f": lambda delta: cooling_limit(p.replace(delta2p=delta)).n_f,
        "net_rate": lambda delta: -net_rate(p.replace(delta2p=delta)),
    }
    if objective not in costs:
        raise ValueError(f"objective must be 'n_f' or 'net_rate', got {objective!r}")

    grid = np.linspace(-SCAN_SPAN * p.kappa, SCAN_SPAN * p.kappa, SCAN_POINTS)
    values = costs[objective](grid)
    if objective == "n_f" and not np.any(np.isfinite(values)):
        raise NoCoolingWindow(
            f"Gamma_opt <= 0 for every detuning in [{grid[0]:.3g}, {grid[-1]:.3g}]"
        )
    best_value = width = np.inf
    while True:
        # n_f is NaN where Gamma_opt <= 0; non-finite costs never win.
        values = np.where(np.isfinite(values), values, np.inf)
        i = int(np.argmin(values))
        if width == np.inf and i in (0, SCAN_POINTS - 1):  # the first scan's best is an end
            raise NumericError(
                f"the best scanned detuning is the {'lower' if i == 0 else 'upper'} end "
                f"{grid[i]:.6g} of +-{SCAN_SPAN:g} kappa; the optimum may lie beyond it"
            )
        if values[i] <= best_value:
            best, best_value = float(grid[i]), values[i]
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if not SCAN_TOL < hi - lo < width:
            return best
        width = hi - lo
        grid = np.linspace(lo, hi, 65)
        values = costs[objective](grid)
