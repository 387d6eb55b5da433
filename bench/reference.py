"""Independent reference computations for the benchmark's output checks.

Nothing here imports cavcool.  The formulas are written from the documented
model (README and module docstrings), in units of the mechanical frequency:

    chi2  = 1 / (-i(omega + delta2p) + kappa/2)
    chi3  = 1 / (-i(omega + delta3) + kappa3/2)
    chi   = 1 / (1/chi2 + J^2 chi3)
    S     = Omega_m^2 |chi|^2 (kappa + kappa3 J^2 |chi3|^2)
    A_minus = S(+1), A_plus = S(-1), Gamma_opt = A_minus - A_plus
    n_f   = (A_plus + gamma_sc) / Gamma_opt  (NaN when Gamma_opt <= 0)

Every function takes a mapping of parameter names to floats or equal-shape
arrays and broadcasts.  The exact occupancy comes from the linearized
three-mode Langevin equations, solved with scipy's Bartels-Stewart
`solve_continuous_lyapunov` rather than a Kronecker-product solve.
"""

import math

import numpy as np

RATE_KEYS = ("delta2p", "delta3", "kappa", "kappa3", "J", "Omega_m", "gamma", "gamma_sc", "n_th")


def spectrum(omega, p):
    """Force noise spectrum S_FF(omega) x_zpf^2 / omega_m of the coupled cavities."""
    chi2 = 1.0 / (-1j * (omega + p["delta2p"]) + p["kappa"] / 2.0)
    chi3 = 1.0 / (-1j * (omega + p["delta3"]) + p["kappa3"] / 2.0)
    j2 = p["J"] ** 2
    chi = 1.0 / (1.0 / chi2 + j2 * chi3)
    return p["Omega_m"] ** 2 * np.abs(chi) ** 2 * (p["kappa"] + p["kappa3"] * j2 * np.abs(chi3) ** 2)


def lorentzian(omega, p):
    """Single-cavity (J = 0) spectrum Omega_m^2 kappa / ((omega + delta2p)^2 + kappa^2/4)."""
    return p["Omega_m"] ** 2 * p["kappa"] / ((omega + p["delta2p"]) ** 2 + p["kappa"] ** 2 / 4.0)


def limit(p):
    """Rates and occupancy limits as a dict of arrays (NaN occupancies when not cooling)."""
    a_minus = spectrum(1.0, p)
    a_plus = spectrum(-1.0, p)
    gamma_opt = a_minus - a_plus
    cooling = gamma_opt > 0.0
    safe = np.where(cooling, gamma_opt, 1.0)
    n_q = np.where(cooling, a_plus / safe, np.nan)
    n_c = np.where(cooling, p["gamma_sc"] / safe, np.nan)
    return {
        "A_minus": a_minus,
        "A_plus": a_plus,
        "Gamma_opt": gamma_opt,
        "n_q": n_q,
        "n_c": n_c,
        "n_f": n_q + n_c,
    }


def effective(p):
    """Adiabatic elimination of the broad cavity: eta, Omega_eff, kappa_eff, Delta_eff."""
    eta = p["J"] / np.sqrt(p["delta2p"] ** 2 + (p["kappa"] / 2.0) ** 2)
    regime_ok = (
        (np.abs(p["delta2p"]) >= 10.0 * np.abs(p["delta3"]))
        & (p["kappa"] >= 10.0 * p["kappa3"])
        & (p["kappa"] >= 10.0 * p["gamma"])
        & (p["kappa"] >= 10.0 * p["J"])
    )
    return {
        "eta": eta,
        "Omega_eff": eta * p["Omega_m"],
        "kappa_eff": p["kappa3"] + eta**2 * p["kappa"],
        "Delta_eff": p["delta3"] - eta**2 * p["delta2p"],
        "regime_ok": regime_ok.astype(float),
    }


def margin_coupled(p):
    """Normalized slack of Omega_m^2 < (4 + kappa_eff^2) / (16 eta^2); +inf when eta = 0."""
    eff = effective(p)
    eta2 = eff["eta"] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (4.0 + eff["kappa_eff"] ** 2) / (16.0 * eta2)
        margin = (bound - p["Omega_m"] ** 2) / bound
    return np.where(eta2 == 0.0, np.inf, margin)


def margin_single(p):
    """Normalized slack of delta2p [16 delta2p Omega_m^2 + 4 delta2p^2 + kappa^2] < 0."""
    d = p["delta2p"]
    return -d * (16.0 * d * p["Omega_m"] ** 2 + 4.0 * d**2 + p["kappa"] ** 2) / p["kappa"] ** 2


def recoil(radius_m, epsilon=2.0, wavelength_m=1e-6):
    """Photon-recoil heating rate gamma_sc / omega_m = (4 pi^2/5) (eps-1)/(eps+2) V / lambda^3."""
    volume = 4.0 / 3.0 * math.pi * radius_m**3
    return 4.0 * math.pi**2 / 5.0 * (epsilon - 1.0) / (epsilon + 2.0) * volume / wavelength_m**3


def drift_diffusion(p):
    """Drift A and diffusion D of the quadratures (X2, Y2, X3, Y3, q, p).

    From H = -delta2p a2'a2 - delta3 a3'a3 + J (a2'a3 + a3'a2) + b'b
    - Omega_m (a2 + a2')(b + b'), with X = (a + a')/sqrt2, Y = -i(a - a')/sqrt2,
    cavity damping kappa/2 and kappa3/2 and mechanical damping gamma/2 on each
    quadrature.  Vacuum optical inputs give kappa/2 (kappa3/2) per quadrature;
    the mechanical quadratures get gamma (2 n_th + 1)/2 + gamma_sc.  Array
    parameters give stacks of shape (..., 6, 6).
    """
    p = {k: np.asarray(p[k], dtype=float) for k in RATE_KEYS}
    shape = np.broadcast_shapes(*(v.shape for v in p.values()))
    k2, k3, g2 = p["kappa"] / 2.0, p["kappa3"] / 2.0, p["gamma"] / 2.0
    d2, d3, j, g = p["delta2p"], p["delta3"], p["J"], 2.0 * p["Omega_m"]
    a = np.zeros(shape + (6, 6))
    # cooling cavity
    a[..., 0, 0], a[..., 0, 1], a[..., 0, 3] = -k2, -d2, j
    a[..., 1, 0], a[..., 1, 1], a[..., 1, 2], a[..., 1, 4] = d2, -k2, -j, g
    # auxiliary cavity
    a[..., 2, 1], a[..., 2, 2], a[..., 2, 3] = j, -k3, -d3
    a[..., 3, 0], a[..., 3, 2], a[..., 3, 3] = -j, d3, -k3
    # sphere
    a[..., 4, 4], a[..., 4, 5] = -g2, 1.0
    a[..., 5, 0], a[..., 5, 4], a[..., 5, 5] = g, -1.0, -g2
    mech = p["gamma"] * (2.0 * p["n_th"] + 1.0) / 2.0 + p["gamma_sc"]
    d = np.zeros(shape + (6, 6))
    for i, value in enumerate((k2, k2, k3, k3, mech, mech)):
        d[..., i, i] = value
    return a, d


def max_real_eig(p):
    """Largest real part of the drift eigenvalues (negative: stable)."""
    a, _ = drift_diffusion(p)
    return np.max(np.linalg.eigvals(a).real, axis=-1)


def n_lyapunov(p):
    """Steady phonon occupancy (V_qq + V_pp - 1)/2 from A V + V A^T + D = 0."""
    from scipy.linalg import solve_continuous_lyapunov

    a, d = drift_diffusion(p)
    v = solve_continuous_lyapunov(a, -d)
    return float((v[4, 4] + v[5, 5] - 1.0) / 2.0)


def n_rate(p):
    """Rate-equation occupancy (A_plus + gamma_sc + gamma n_th) / (Gamma_opt + gamma)."""
    lim = limit(p)
    return (lim["A_plus"] + p["gamma_sc"] + p["gamma"] * p["n_th"]) / (lim["Gamma_opt"] + p["gamma"])
