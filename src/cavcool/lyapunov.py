"""Exact steady-state oracle for the linearized three-mode model.

Builds the 6x6 drift and diffusion matrices of the quadrature equations for
(cooling mode, auxiliary mode, mechanical mode), solves the continuous
Lyapunov equation A V + V A^T + D = 0 for the steady covariance, and extracts
the phonon occupancy.  This path shares no algebra with the perturbative
spectrum formulas, so it serves as an independent cross-check.

Quadrature conventions: X = (a + a^dag)/sqrt(2), Y = -i(a - a^dag)/sqrt(2),
ordered (X2, Y2, X3, Y3, q, p); vacuum variance is 1/2 per quadrature and
n = (V_qq + V_pp - 1)/2.  The mechanical fluctuations damp at gamma/2 on both
quadratures, matching the mechanical response 1/(-i(omega-omega_m) +
gamma/2).  The diffusion entries are kappa/2 per optical quadrature (vacuum
inputs) and gamma(2 n_th + 1)/2 + gamma_sc per mechanical quadrature: the
recoil term is calibrated so an uncoupled oscillator heats at dn/dt =
gamma_sc, which is exactly how the recoil rate enters the cooling limit.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cooling as cooling_mod
from .params import unwrap
from .response import OMEGA_M

RESIDUAL_RTOL = 1e-10  # relative Lyapunov residual that a solve must meet
# Symmetric systems (21x21 each) solved per stacked LAPACK call; bounds the
# temporaries of a block's solve at about 0.7 MB.  Stacks of 32 to 256 run
# equally fast; 1,024 is about 20% slower.
SOLVE_CHUNK = 64
Eigen = NamedTuple("Eigen", [("stable", bool), ("max_real_eigenvalue", float)])


@dataclass(frozen=True)
class LinearModel:
    drift: np.ndarray  # (..., 6, 6) real
    diffusion: np.ndarray  # (..., 6, 6) real symmetric PSD


@dataclass(frozen=True)
class CovarianceResult:
    V: np.ndarray
    n_phonon: float
    stable: bool
    max_real_eigenvalue: float
    residual: float


def build_model(p):
    """Drift and diffusion matrices for NormalizedParams p (J, Omega_m real >= 0).

    Each nonzero entry is broadcast into zeros of shape p.shape + (6, 6).
    """
    k2, k3, g2 = p.kappa / 2.0, p.kappa3 / 2.0, p.gamma / 2.0
    d2, d3, om = p.delta2p, p.delta3, 2.0 * p.Omega_m
    d_mech = p.gamma * (2.0 * p.n_th + 1.0) / 2.0 + p.gamma_sc
    drift, diffusion = np.zeros(p.shape + (6, 6)), np.zeros(p.shape + (6, 6))
    for (i, j), x in {
        (0, 0): -k2, (0, 1): -d2, (0, 3): p.J, (1, 0): d2, (1, 1): -k2, (1, 2): -p.J, (1, 4): om,
        (2, 1): p.J, (2, 2): -k3, (2, 3): -d3, (3, 0): -p.J, (3, 2): d3, (3, 3): -k3,
        (4, 4): -g2, (4, 5): OMEGA_M, (5, 0): om, (5, 4): -OMEGA_M, (5, 5): -g2,
    }.items():
        drift[..., i, j] = x
    for i, x in enumerate((k2, k2, k3, k3, d_mech, d_mech)):
        diffusion[..., i, i] = x
    return LinearModel(drift=drift, diffusion=diffusion)


def eigen_stable(model):
    """Eigen(stable, max real part) from the drift-matrix eigenvalues, per stacked model."""
    max_real = np.linalg.eigvals(model.drift).real.max(axis=-1)
    return Eigen(unwrap(max_real < 0.0), unwrap(max_real))


def _norm(m):
    """Frobenius norm of each stacked matrix, summed as `np.linalg.norm` sums one."""
    flat = m.reshape(-1, 1, m.shape[-2] * m.shape[-1])
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[:, 0, 0]


def _half_vectorization():
    """Index tables of the Lyapunov equation restricted to symmetric V.

    The 21 unknowns are V[i, j] for i <= j, in row-major order; equation e is
    entry (i, j) of A V + V A^T + D = 0 for the e-th pair.  Its coefficient
    on the unknown (a, b) is A[i, k] if j is in {a, b} with k the other one,
    plus A[j, k] if i is in {a, b} with k the other one: two gathers from the
    flattened drift, where index 36 selects an appended zero.  Also returns
    the unknown of each of the 36 entries of V, and the flat index of each
    unknown's entry (to read the diffusion's).
    """
    upper = [(i, j) for i in range(6) for j in range(i, 6)]
    first = np.full((21, 21), 36)
    second = np.full((21, 21), 36)
    for e, (i, j) in enumerate(upper):
        for m, (a, b) in enumerate(upper):
            if j in (a, b):
                first[e, m] = 6 * i + (a + b - j)
            if i in (a, b):
                second[e, m] = 6 * j + (a + b - i)
    full = np.array([upper.index((min(i, j), max(i, j))) for i in range(6) for j in range(6)])
    return first, second, full, np.array([6 * i + j for i, j in upper])


_FIRST, _SECOND, _FULL, _UPPER = _half_vectorization()


def ill_conditioned(residual):
    """Where a solve misses its target: a relative residual above RESIDUAL_RTOL (not NaN)."""
    return np.greater(residual, RESIDUAL_RTOL)


def solve_steady(model):
    """Steady covariance from A V + V A^T + D = 0, solved for symmetric V.

    V is symmetric, so the equation reduces to 21 equations in the 21
    entries V[i, j] with i <= j (half-vectorization); a dense solve of that
    system is both simple and effectively exact, and V filled from its
    solution is exactly symmetric.  An unstable point (a drift eigenvalue
    with nonnegative real part) has NaN covariance, occupancy and residual,
    and an `ill_conditioned` one a NaN occupancy; nothing raises.  A single
    model gives the fields of a one-point stack as Python scalars.  Stacks
    are solved SOLVE_CHUNK systems at a time; each point gets the bits of its
    own solve.
    """
    stable, max_real = eigen_stable(model)
    shape = np.shape(stable)
    a = model.drift.reshape(-1, 6, 6)
    d = model.diffusion.reshape(-1, 6, 6)
    v = np.full(a.shape, np.nan)
    residual = np.full(len(a), np.nan)
    solvable = np.flatnonzero(np.reshape(stable, -1))
    for start in range(0, solvable.size, SOLVE_CHUNK):
        idx = solvable[start : start + SOLVE_CHUNK]
        ai, di = a[idx], d[idx]
        padded = np.concatenate([ai.reshape(-1, 36), np.zeros((len(idx), 1))], axis=1)
        system = padded[:, _FIRST] + padded[:, _SECOND]
        rhs = -di.reshape(-1, 36)[:, _UPPER, None]
        vi = np.linalg.solve(system, rhs)[:, _FULL, 0].reshape(-1, 6, 6)
        v[idx] = vi
        residual[idx] = _norm(ai @ vi + vi @ ai.swapaxes(-1, -2) + di) / _norm(di)
    n_phonon = (v[:, 4, 4] + v[:, 5, 5] - 1.0) / 2.0
    n_phonon[ill_conditioned(residual)] = np.nan
    return CovarianceResult(
        V=v.reshape(shape + (6, 6)),
        n_phonon=unwrap(n_phonon.reshape(shape)),
        stable=stable,
        max_real_eigenvalue=max_real,
        residual=unwrap(residual.reshape(shape)),
    )


@dataclass(frozen=True)
class OracleReport:
    """Perturbative formula vs exact covariance solve.

    n_formula is the bare cooling-limit formula (A_plus + gamma_sc) /
    Gamma_opt, which omits the intrinsic damping gamma from the denominator;
    n_rate restores it: (A_plus + gamma_sc + gamma n_th) / (Gamma_opt +
    gamma).  rel_dev compares the Lyapunov occupancy against n_rate, so it
    isolates the perturbative error instead of the known missing-gamma term;
    rel_dev_formula is the deviation from the bare formula.  It holds
    results only; the point's fields are read from `p`.  For a block of
    points every field is an array.
    """

    n_formula: float
    n_rate: float
    n_lyapunov: float
    rel_dev: float
    rel_dev_formula: float
    stable: bool
    residual: float


def oracle_compare(p):
    """Compare the phonon-limit formula against the exact Lyapunov solve.

    The occupancies and deviations are NaN unless the formula cools
    (Gamma_opt > 0) and the drift is stable; an ill-conditioned solve gives
    NaN n_lyapunov and deviations, with its residual reported.
    """
    report = cooling_mod.cooling_limit(p)
    result = solve_steady(build_model(p))
    valid = np.logical_and(report.cooling, result.stable)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_rate = np.divide(
            report.A_plus + p.gamma_sc + p.gamma * p.n_th, report.Gamma_opt + p.gamma
        )
    n_formula, n_rate, n_ly = (
        np.where(valid, x, np.nan) for x in (report.n_f, n_rate, result.n_phonon)
    )
    scale = np.where(n_ly != 0.0, np.abs(n_ly), 1.0)
    return OracleReport(
        n_formula=unwrap(n_formula),
        n_rate=unwrap(n_rate),
        n_lyapunov=unwrap(n_ly),
        rel_dev=unwrap(np.abs(n_ly - n_rate) / scale),
        rel_dev_formula=unwrap(np.abs(n_ly - n_formula) / scale),
        stable=result.stable,
        residual=result.residual,
    )
