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

import numpy as np

from . import cooling as cooling_mod
from .errors import IllConditioned, Unstable
from .response import OMEGA_M

QUADRATURE_ORDER = ("X2", "Y2", "X3", "Y3", "q", "p")


@dataclass(frozen=True)
class LinearModel:
    drift: np.ndarray  # 6x6 real
    diffusion: np.ndarray  # 6x6 real symmetric PSD


@dataclass(frozen=True)
class CovarianceResult:
    V: np.ndarray
    n_phonon: float
    stable: bool
    max_real_eigenvalue: float
    residual: float


def build_model(p):
    """Drift and diffusion matrices for NormalizedParams p (J, Omega_m real >= 0)."""
    k2 = p.kappa / 2.0
    k3 = p.kappa3 / 2.0
    g2 = p.gamma / 2.0
    d2, d3 = p.delta2p, p.delta3
    om = 2.0 * p.Omega_m
    a = np.array(
        [
            [-k2, -d2, 0.0, p.J, 0.0, 0.0],
            [d2, -k2, -p.J, 0.0, om, 0.0],
            [0.0, p.J, -k3, -d3, 0.0, 0.0],
            [-p.J, 0.0, d3, -k3, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -g2, OMEGA_M],
            [om, 0.0, 0.0, 0.0, -OMEGA_M, -g2],
        ]
    )
    d_mech = p.gamma * (2.0 * p.n_th + 1.0) / 2.0 + p.gamma_sc
    diffusion = np.diag([k2, k2, k3, k3, d_mech, d_mech])
    return LinearModel(drift=a, diffusion=diffusion)


def eigen_stable(model):
    """(stable, max real part) from the drift-matrix eigenvalues."""
    eigenvalues = np.linalg.eigvals(model.drift)
    max_real = float(np.max(eigenvalues.real))
    return max_real < 0.0, max_real


def solve_steady(model, rtol=1e-10):
    """Steady covariance from A V + V A^T + D = 0 via Kronecker vectorization.

    The system has 36 unknowns, so a dense solve is both simple and
    effectively exact.  Raises Unstable when the drift has a nonnegative
    eigenvalue real part and IllConditioned when the residual target is
    missed.
    """
    stable, max_real = eigen_stable(model)
    if not stable:
        raise Unstable(max_real)
    a = model.drift
    d = model.diffusion
    n = a.shape[0]
    eye = np.eye(n)
    # Row-major vec: vec(AV) = (A (x) I) vec(V), vec(V A^T) = (I (x) A) vec(V).
    system = np.kron(a, eye) + np.kron(eye, a)
    v = np.linalg.solve(system, -d.reshape(-1))
    v = v.reshape(n, n)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d)
    if residual > rtol:
        raise IllConditioned(
            f"Lyapunov residual {residual:.3e} exceeds target {rtol:.1e}"
        )
    n_phonon = float((v[4, 4] + v[5, 5] - 1.0) / 2.0)
    return CovarianceResult(
        V=v,
        n_phonon=n_phonon,
        stable=True,
        max_real_eigenvalue=max_real,
        residual=float(residual),
    )


@dataclass(frozen=True)
class OracleReport:
    """Perturbative formula vs exact covariance solve.

    n_formula is the bare cooling-limit formula (A_plus + gamma_sc) /
    Gamma_opt, which omits the intrinsic damping gamma from the denominator;
    n_rate restores it: (A_plus + gamma_sc + gamma n_th) / (Gamma_opt +
    gamma).  rel_dev compares the Lyapunov occupancy against n_rate, so it
    isolates the perturbative error instead of the known missing-gamma term;
    rel_dev_formula is the deviation from the bare formula.
    """

    kappa: float
    Omega_m: float
    n_formula: float
    n_rate: float
    n_lyapunov: float
    rel_dev: float
    rel_dev_formula: float
    stable: bool


def oracle_compare(p):
    """Compare the phonon-limit formula against the exact Lyapunov solve.

    Requires net cooling (Gamma_opt > 0) and a stable drift; propagates
    NotCooling / Unstable otherwise.
    """
    report = cooling_mod.cooling_limit(p, require_cooling=True)
    n_rate = (report.A_plus + p.gamma_sc + p.gamma * p.n_th) / (report.Gamma_opt + p.gamma)
    result = solve_steady(build_model(p))
    n_ly = result.n_phonon
    scale = abs(n_ly) if n_ly != 0.0 else 1.0
    return OracleReport(
        kappa=p.kappa,
        Omega_m=p.Omega_m,
        n_formula=report.n_f,
        n_rate=n_rate,
        n_lyapunov=n_ly,
        rel_dev=abs(n_ly - n_rate) / scale,
        rel_dev_formula=abs(n_ly - report.n_f) / scale,
        stable=True,
    )


def characteristic_polynomial(matrix):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion.

    Trace-based, so it does not rely on an eigenvalue factorization; used to
    cross-check the drift spectrum through an independent root finder.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs
