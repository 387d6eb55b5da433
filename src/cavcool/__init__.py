"""Coupled-cavity cooling analysis for an optically levitated nanosphere.

Normalized parameter model and config format, coupled-cavity response and
force-noise spectrum, cooling rates and phonon limits, effective two-mode
reduction with stability criteria, and an exact Lyapunov-equation covariance
oracle, plus a CLI for parameter sweeps and figure-style data sets.
"""

from .params import (
    NormalizedParams,
    j_sideband_preset,
    load_config,
    parse_config,
)
from .response import chi2, chi3, chi_m, chi_total, s_ff, self_energy
from .cooling import CoolingReport, cooling_limit, net_rate, optimal_detuning, rates, spring_shift
from .reduction import (
    EffectiveParams,
    StabilityVerdict,
    effective_params,
    stability_coupled,
    stability_single,
)
from .lyapunov import (
    CovarianceResult,
    LinearModel,
    build_model,
    eigen_stable,
    oracle_compare,
    solve_steady,
)

__version__ = "0.1.0"
