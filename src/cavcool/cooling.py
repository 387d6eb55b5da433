"""Cooling and heating rates, phonon limits, and optimum-detuning search.

Every per-point function evaluates a single point or a block of points (see
`params.NormalizedParams`) and returns Python scalars for a single point.
"""

from dataclasses import dataclass

import numpy as np

from . import response
from .errors import NoCoolingWindow
from .params import square, unwrap
from .response import OMEGA_M


@dataclass(frozen=True)
class CoolingReport:
    """Rates and steady-state occupancy limits, all in units of omega_m.

    n_q = A_plus / Gamma_opt is the quantum backaction limit, n_c =
    gamma_sc / Gamma_opt the recoil (classical) limit, n_f their sum.  When
    Gamma_opt <= 0 the occupancies are NaN and `cooling` is False.  For a
    block of points every field is an array.
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
    cooling = ~(np.asarray(gamma_opt) <= 0.0)
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
    """
    return unwrap(square(p.J) / (p.delta3 + OMEGA_M))


def optimal_detuning(p, mode="closed_form", objective="n_f", span=3.0, points=2001, tol=1e-6):
    """Optimum cooling detuning delta2p.

    mode="closed_form" returns J^2/(delta3 + omega_m).  mode="numeric" scans
    delta2p over [-span*kappa, +span*kappa] as one block of `points` points
    and refines by block re-scan: the bracket between the best point's grid
    neighbours is evaluated again as one block of 65 points (a block costs
    about as much as one point) until it is at most `tol` wide, or no longer
    shrinks at float spacing.  The best point evaluated is returned, so the
    result is never worse than any point the search has seen.  The objective
    is the phonon limit n_f (minimized) or "net_rate" (Gamma_opt maximized).
    Raises NoCoolingWindow when no scanned detuning cools at all (n_f
    objective).
    """
    if not (np.isfinite(tol) and tol > 0.0 and np.isfinite(span) and span > 0.0):
        raise ValueError(f"tol and span must be finite and > 0, got tol={tol!r}, span={span!r}")
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)) or points < 3:
        raise ValueError(f"points must be an integer >= 3, got {points!r}")
    if mode == "closed_form":
        return closed_form_detuning(p)
    if mode != "numeric":
        raise ValueError(f"mode must be 'closed_form' or 'numeric', got {mode!r}")
    costs = {
        "n_f": lambda delta: cooling_limit(p.replace(delta2p=delta)).n_f,
        "net_rate": lambda delta: -net_rate(p.replace(delta2p=delta)),
    }
    if objective not in costs:
        raise ValueError(f"objective must be 'n_f' or 'net_rate', got {objective!r}")

    grid = np.linspace(-span * p.kappa, span * p.kappa, points)
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
        if values[i] <= best_value:
            best, best_value = float(grid[i]), values[i]
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if not tol < hi - lo < width:
            return best
        width = hi - lo
        grid = np.linspace(lo, hi, 65)
        values = costs[objective](grid)
