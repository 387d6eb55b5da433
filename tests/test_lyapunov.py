"""Lyapunov-oracle tests: model construction, exact limits, cross-checks."""

import math

import numpy as np
import pytest
import scipy.linalg
from conftest import fig5_coupled

from cavcool import cooling, invariants, lyapunov, response
from cavcool.params import NormalizedParams

SQRT2 = math.sqrt(2.0)


def make_params(**overrides):
    base = dict(
        delta2p=66.0, delta3=0.5, kappa=100.0, kappa3=1.0, J=10.0,
        Omega_m=0.25, gamma=1e-5, gamma_sc=0.0, n_th=0.0,
    )
    base.update(overrides)
    return NormalizedParams(**base)


def complex_basis_matrix():
    """Transform from (X2,Y2,X3,Y3,q,p) to (a2,a2+,a3,a3+,b,b+)."""
    u = np.zeros((6, 6), dtype=complex)
    for mode in range(3):
        x, y = 2 * mode, 2 * mode + 1
        u[2 * mode, x] = 1 / SQRT2
        u[2 * mode, y] = 1j / SQRT2
        u[2 * mode + 1, x] = 1 / SQRT2
        u[2 * mode + 1, y] = -1j / SQRT2
    return u


class TestBuildModel:
    def test_decoupled_blocks(self):
        p = make_params(J=0.0, Omega_m=0.0)
        a = lyapunov.build_model(p).drift
        assert np.all(a[0:2, 2:] == 0)
        assert np.all(a[2:4, :2] == 0)
        assert np.all(a[2:4, 4:] == 0)
        assert np.all(a[4:, :4] == 0)

    def test_damping_trace_identity(self):
        p = make_params()
        a = lyapunov.build_model(p).drift
        assert np.trace(a) == pytest.approx(-(p.kappa + p.kappa3 + p.gamma), rel=1e-14)

    def test_complex_basis_rows_match_linearized_equations(self):
        """U A U^-1 must reproduce the complex mode equations coefficient by
        coefficient: a2 row (i delta2p - kappa/2, -iJ, +i Omega on b and b+),
        a3 row (i delta3 - kappa3/2, -iJ), b row (-i - gamma/2, +i Omega on
        a2 and a2+)."""
        p = make_params()
        a = lyapunov.build_model(p).drift
        u = complex_basis_matrix()
        a_c = u @ a @ np.linalg.inv(u)
        expect = np.zeros((6, 6), dtype=complex)
        expect[0, 0] = 1j * p.delta2p - p.kappa / 2
        expect[0, 2] = -1j * p.J
        expect[0, 4] = expect[0, 5] = 1j * p.Omega_m
        expect[2, 2] = 1j * p.delta3 - p.kappa3 / 2
        expect[2, 0] = -1j * p.J
        expect[4, 4] = -1j - p.gamma / 2
        expect[4, 0] = expect[4, 1] = 1j * p.Omega_m
        for row in (0, 2, 4):
            assert np.allclose(a_c[row], expect[row], atol=1e-12), row
        # Conjugate rows by symmetry of the real representation.
        assert np.allclose(a_c[1], np.conj(expect[0])[[1, 0, 3, 2, 5, 4]], atol=1e-12)

    def test_diffusion_entries(self):
        p = make_params(gamma=1e-3, gamma_sc=2e-4, n_th=3.0)
        d = lyapunov.build_model(p).diffusion
        assert d[0, 0] == pytest.approx(p.kappa / 2)
        assert d[2, 2] == pytest.approx(p.kappa3 / 2)
        expected_mech = p.gamma * (2 * p.n_th + 1) / 2 + p.gamma_sc
        assert d[4, 4] == pytest.approx(expected_mech)
        assert d[5, 5] == pytest.approx(expected_mech)
        assert np.all(np.linalg.eigvalsh(d) >= 0)


class TestFrequencyDomainEquivalence:
    def test_optical_response_reproduces_susceptibilities(self):
        """(-i w I - A)^-1 on the a_in,2 / a_in,3 forcing columns must equal
        chi(w) sqrt(kappa) and the chained aux response, for the decoupled
        optical sector (Omega_m = 0)."""
        p = make_params(Omega_m=0.0)
        a = lyapunov.build_model(p).drift
        u = complex_basis_matrix()
        a_c = u @ a @ np.linalg.inv(u)
        for w in np.linspace(-4, 4, 17):
            transfer = np.linalg.inv(-1j * w * np.eye(6) - a_c)
            chi = response.chi_total(w, p)
            chi3 = 1.0 / (-1j * (w + p.delta3) + p.kappa3 / 2.0)
            # a2 response to its own vacuum input.
            assert transfer[0, 0] * math.sqrt(p.kappa) == pytest.approx(
                chi * math.sqrt(p.kappa), rel=1e-10
            )
            # a2 response to the auxiliary input enters through -iJ chi3.
            expected_cross = chi * (-1j * p.J) * chi3 * math.sqrt(p.kappa3)
            assert transfer[0, 2] * math.sqrt(p.kappa3) == pytest.approx(
                expected_cross, rel=1e-10
            )
            # a3 row: chi3 with the back-coupling through the broad cavity.
            chi2 = 1.0 / (-1j * (w + p.delta2p) + p.kappa / 2.0)
            chi3_dressed = 1.0 / (1.0 / chi3 + p.J**2 * chi2)
            assert transfer[2, 2] * math.sqrt(p.kappa3) == pytest.approx(
                chi3_dressed * math.sqrt(p.kappa3), rel=1e-10
            )

    def test_mechanical_row_matches_chi_m(self):
        # chi_m = 1 / (-i(omega - omega_m) + gamma/2), the mechanical response.
        p = make_params(Omega_m=0.0, gamma=1e-3)
        a = lyapunov.build_model(p).drift
        u = complex_basis_matrix()
        a_c = u @ a @ np.linalg.inv(u)
        for w in (0.5, 1.0, 1.7):
            transfer = np.linalg.inv(-1j * w * np.eye(6) - a_c)
            chi_m = 1.0 / (-1j * (w - 1.0) + p.gamma / 2.0)
            assert transfer[4, 4] == pytest.approx(chi_m, rel=1e-10)


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


class TestEigenvalues:
    def test_uncoupled_damped_system_stable(self):
        p = make_params(J=0.0, Omega_m=0.0, gamma=1e-4)
        stable, max_real = lyapunov.eigen_stable(lyapunov.build_model(p))
        assert stable
        assert max_real == pytest.approx(-p.gamma / 2, rel=1e-9)

    def test_characteristic_polynomial_roots_match(self):
        """Faddeev-LeVerrier coefficients + companion roots as an independent
        spectrum oracle."""
        p = fig5_coupled(100.0)
        a = lyapunov.build_model(p).drift
        coeffs = characteristic_polynomial(a)
        roots = np.sort_complex(np.roots(coeffs))
        eigen = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(roots, eigen, rtol=1e-7, atol=1e-9)

    def test_resolved_sideband_boundary_crossing(self):
        kappa = 2.0
        base = NormalizedParams(
            delta2p=-kappa / 2, delta3=0.5, kappa=kappa, kappa3=1.0, J=0.0,
            Omega_m=0.1, gamma=1e-5,
        )
        below = base.replace(Omega_m=math.sqrt(kappa / 4 * (1 - 1e-3)))
        above = base.replace(Omega_m=math.sqrt(kappa / 4 * (1 + 1e-3)))
        assert lyapunov.eigen_stable(lyapunov.build_model(below))[0]
        assert not lyapunov.eigen_stable(lyapunov.build_model(above))[0]

    def test_fig5_preset_stable(self):
        stable, _ = lyapunov.eigen_stable(lyapunov.build_model(fig5_coupled(100.0)))
        assert stable


class TestSolveSteady:
    def test_vacuum(self):
        # Every quadrature at vacuum, so n_phonon = 0 too.
        assert invariants.vacuum(make_params(Omega_m=0.0, gamma=1e-3)) <= 1e-12

    def test_thermal_occupancy(self):
        p = make_params(Omega_m=0.0, gamma=1e-3, n_th=5.0)
        result = lyapunov.solve_steady(lyapunov.build_model(p))
        assert result.n_phonon == pytest.approx(5.0, rel=1e-12)

    def test_recoil_heating_balance(self):
        # Closed-form 2x2: beam-splitter damping at gamma/2 with symmetric
        # diffusion d gives V = (d/gamma) I, so n = n_th + gamma_sc / gamma,
        # here 5 (thermal bath alone) and 0.2 (recoil alone).
        p = make_params(Omega_m=0.0, gamma=1e-3, n_th=np.array([5.0, 0.0]),
                        gamma_sc=np.array([0.0, 2e-4]))
        assert invariants.thermal_limit(p) <= 1e-12

    def test_covariance_properties(self):
        p = fig5_coupled(100.0)
        result = lyapunov.solve_steady(lyapunov.build_model(p))
        assert np.array_equal(result.V, result.V.T)
        assert np.min(np.linalg.eigvalsh(result.V)) >= -1e-12
        assert result.residual <= 1e-10

    def test_unstable_is_nan(self):
        p = make_params(J=0.0, delta2p=50.0, Omega_m=0.5, gamma=1e-5)
        result = lyapunov.solve_steady(lyapunov.build_model(p))
        assert result.stable is False
        assert result.max_real_eigenvalue > 0.0
        assert math.isnan(result.n_phonon) and math.isnan(result.residual)
        assert np.isnan(result.V).all()

    def test_cooled_occupancy_matches_rate_picture(self):
        p = fig5_coupled(100.0)
        result = lyapunov.solve_steady(lyapunov.build_model(p))
        report = cooling.cooling_limit(p)
        n_rate = (report.A_plus + p.gamma_sc) / (report.Gamma_opt + p.gamma)
        assert result.n_phonon == pytest.approx(n_rate, rel=0.02)


class TestIllConditionedFlag:
    """What the `ill_conditioned` flag has to mean, against scipy's Bartels-Stewart solver.

    Two points that the residual flags today.  At the first the solve is
    backward stable to 1e-17, yet a 60-digit `mpmath` solve of the Kronecker
    form gives n = 499752623712.64859, from which cavcool's unmasked occupancy
    is 1.1e-6 off and scipy's 1.1e-5 off; the 1e-5 gap asserted below is
    scipy's error.  So the flag must bound the occupancy's forward error, not
    the solve's backward error.
    At the second the occupancy is accurate, so flagging it is the fault of
    the residual's normalisation (ROADMAP item 1).
    """

    @staticmethod
    def solve(p):
        """(model, result, occupancy of the unmasked V, occupancy of scipy's V)."""
        model = lyapunov.build_model(p)
        result = lyapunov.solve_steady(model)
        reference = scipy.linalg.solve_continuous_lyapunov(model.drift, -model.diffusion)
        n, n_ref = ((v[4, 4] + v[5, 5] - 1.0) / 2.0 for v in (result.V, reference))
        return model, result, n, n_ref

    def test_edge_point_stays_flagged(self):
        # The single-cavity point of the CLI's ill-conditioned sweep test,
        # on the edge Omega_m^2 = kappa/4.
        model, result, n, n_ref = self.solve(make_params(delta2p=-50.0, J=0.0, Omega_m=5.0))
        a, d, v = model.drift, model.diffusion, result.V
        norm = np.linalg.norm
        backward = norm(a @ v + v @ a.T + d) / (2.0 * norm(a) * norm(v) + norm(d))
        assert backward < 1e-16
        assert abs(n - n_ref) / n_ref > 1e-6
        assert result.residual > lyapunov.RESIDUAL_RTOL and math.isnan(result.n_phonon)

    def test_accurate_point_matches_scipy(self):
        p = make_params(delta2p=0.0, delta3=0.0, kappa=1.0, kappa3=1.0, J=0.0, Omega_m=1.0,
                        gamma=1e-6)
        _, _, n, n_ref = self.solve(p)
        assert abs(n - n_ref) / n_ref < 1e-10


class TestOracleCompare:
    def test_both_vanish_in_weak_coupling_vacuum_limit(self):
        p = fig5_coupled(100.0, Omega_m=1e-3, gamma_sc=0.0)
        report = lyapunov.oracle_compare(p)
        assert report.n_rate < 1e-3
        assert report.n_lyapunov < 1e-3
        assert report.rel_dev < 0.01

    def test_formula_documented_gap(self):
        report = lyapunov.oracle_compare(fig5_coupled(100.0, Omega_m=0.025))
        # The bare formula misses gamma in the denominator, so it sits far
        # above the exact answer at weak coupling.
        assert report.n_formula > 1.5 * report.n_lyapunov

    def test_not_cooling_is_nan(self):
        # Blue-detuned and weakly coupled: the formula heats, yet gamma keeps
        # the drift stable and the solve meets its residual target.
        p = fig5_coupled(100.0).replace(J=0.0, delta2p=50.0, Omega_m=0.01)
        report = lyapunov.oracle_compare(p)
        assert not cooling.cooling_limit(p).cooling
        assert report.stable is True
        assert report.residual <= lyapunov.RESIDUAL_RTOL
        for name in ("n_formula", "n_rate", "n_lyapunov", "rel_dev", "rel_dev_formula"):
            assert math.isnan(getattr(report, name)), name
