"""Response-function and force-spectrum tests against complex-arithmetic oracles."""

import numpy as np
import pytest
from conftest import fig3_params

from cavcool import invariants, response
from cavcool.params import NormalizedParams


def make_params(**overrides):
    base = dict(
        delta2p=0.0, delta3=0.5, kappa=100.0, kappa3=1.0, J=10.0,
        Omega_m=0.25, gamma=1e-5,
    )
    base.update(overrides)
    return NormalizedParams(**base)


def random_params(rng, n=None):
    """One random point, or a block of n."""
    return NormalizedParams(
        delta2p=rng.uniform(-1e3, 1e3, n),
        delta3=rng.uniform(-2, 2, n),
        kappa=10 ** rng.uniform(0, 3, n),
        kappa3=10 ** rng.uniform(-1, 1, n),
        J=rng.uniform(0, 10 ** rng.uniform(0, 1.5, n)),
        Omega_m=rng.uniform(0, 2.0, n),
        gamma=10 ** rng.uniform(-6, -2, n),
    )


def chi2(omega, p):
    """The cooling cavity's response 1 / (-i(omega + delta2p) + kappa/2)."""
    return 1.0 / (-1j * (omega + p.delta2p) + p.kappa / 2.0)


def chi3(omega, p):
    """The auxiliary cavity's response 1 / (-i(omega + delta3) + kappa3/2)."""
    return 1.0 / (-1j * (omega + p.delta3) + p.kappa3 / 2.0)


class TestChi2:
    # The cooling cavity alone is chi_total with the auxiliary cavity decoupled.
    def test_resonance_is_real(self):
        p = make_params(delta2p=3.0, J=0.0)
        assert response.chi_total(-3.0, p) == pytest.approx(2.0 / p.kappa)

    def test_frozen_complex_value(self):
        # 1 / (50 - i) evaluated by independent complex arithmetic.
        p = make_params(delta2p=0.0, kappa=100.0, J=0.0)
        oracle = (50 + 1j) / 2501.0
        assert response.chi_total(1.0, p) == pytest.approx(oracle, rel=1e-14)

    def test_vanishes_at_large_kappa(self):
        p = make_params(kappa=1e12, J=0.0)
        assert abs(response.chi_total(1.0, p)) < 1e-11

    def test_real_part_identity(self):
        # Re chi2 = kappa/2 |chi2|^2: the interference identity at J = 0.
        rng = np.random.default_rng(3)
        p = random_params(rng, 100).replace(J=0.0)
        assert invariants.interference(p, rng.uniform(-5, 5, 100)) <= 1e-12


class TestChi3:
    # The auxiliary cavity enters chi_total as J^2 chi3 = 1/chi_total - 1/chi2.
    def test_auxiliary_resonance(self):
        p = make_params()
        w = -p.delta3
        aux = (1.0 / response.chi_total(w, p) - 1.0 / chi2(w, p)) / p.J**2
        assert aux == pytest.approx(2.0 / p.kappa3, rel=1e-14)

    def test_frozen_value(self):
        # 1 / (0.5 - 1.5i).
        p = make_params(delta3=0.5, kappa3=1.0)
        aux = (1.0 / response.chi_total(1.0, p) - 1.0 / chi2(1.0, p)) / p.J**2
        assert aux == pytest.approx((0.5 + 1.5j) / 2.5, rel=1e-14)


class TestChiTotal:
    def test_decoupled_limit_is_exact(self):
        p = make_params(J=0.0)
        w = np.linspace(-5, 5, 101)
        assert np.array_equal(response.chi_total(w, p), chi2(w, p))

    def test_interference_blocking_at_auxiliary_resonance(self):
        p = make_params(kappa3=1e-6)
        chi = response.chi_total(-p.delta3, p)
        # 1/chi is dominated by 2 J^2 / kappa3, so |chi| -> kappa3 / (2 J^2).
        assert abs(chi) == pytest.approx(p.kappa3 / (2 * p.J**2), rel=1e-3)

    def test_fig3_point_frozen(self):
        # Independent evaluation at omega = -0.5 for the resonant preset:
        # 1/chi = -i(-0.5) + 50 + 100/(0.5) = 250 + 0.5i.
        p = fig3_params(0.0)
        oracle = 1.0 / (250.0 + 0.5j)
        assert response.chi_total(-0.5, p) == pytest.approx(oracle, rel=1e-14)

    def test_interference_identity_randomized(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, 300)
        assert invariants.interference(p, rng.uniform(-2e3, 2e3, 300)) <= 1e-12

    def test_cavity_responses_have_positive_real_part(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = random_params(rng)
            w = rng.uniform(-2e3, 2e3)
            assert chi2(w, p).real > 0
            assert chi3(w, p).real > 0
            assert response.chi_total(w, p).real > 0


class TestSelfEnergy:
    def test_vanishes_without_coupling(self):
        p = make_params(Omega_m=0.0)
        assert response.self_energy(1.0, p) == 0

    def test_zero_detuning_single_cavity_has_no_net_damping(self):
        p = make_params(J=0.0, delta2p=0.0)
        assert response.self_energy(1.0, p).imag == pytest.approx(0.0, abs=1e-18)

    def test_matches_rate_asymmetry(self):
        rng = np.random.default_rng(5)
        assert invariants.two_way_rate(random_params(rng, 200)) <= 1e-10

    def test_spring_shift_sign_red_detuned(self):
        p = make_params(J=0.0, delta2p=-50.0)
        assert response.self_energy(1.0, p).real < 0.0


class TestSpectrum:
    def test_zero_coupling_zero_spectrum(self):
        p = make_params(Omega_m=0.0)
        w = np.linspace(-5, 5, 11)
        assert np.all(response.s_ff(w, p) == 0)

    def test_even_function_when_symmetric(self):
        p = make_params(J=0.0, delta2p=0.0)
        w = np.linspace(0.1, 5, 40)
        assert response.s_ff(w, p) == pytest.approx(response.s_ff(-w, p), rel=1e-13)

    def test_nonnegative_and_decaying(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_params(rng)
            w = np.linspace(-3e3, 3e3, 301)
            s = response.s_ff(w, p)
            assert np.all(s >= 0)
        # 1/omega^2 far-tail falloff.
        p = make_params()
        assert response.s_ff(1e4, p) < 0.02 * response.s_ff(1e3, p)

    def test_grid_matches_pointwise_eval(self):
        p = make_params()
        grid = np.linspace(-2, 2, 21)
        for w, s in zip(grid, response.s_ff(grid, p)):
            assert s == pytest.approx(float(response.s_ff(w, p)), rel=1e-14)

    def test_lorentzian_when_decoupled(self):
        p = make_params(J=0.0, delta2p=-37.0, kappa=250.0, Omega_m=0.5)
        assert invariants.lorentzian(p, np.linspace(-400, 400, 4001)) < 1e-12


class TestFarField:
    def test_coupled_approaches_single_far_from_auxiliary_resonance(self):
        p = fig3_params(0.0)
        single = p.replace(J=0.0)
        deviations = []
        for distance in (30.0, 100.0, 600.0):
            w = -p.delta3 + distance
            dev = abs(
                float(response.s_ff(w, p)) - float(response.s_ff(w, single))
            ) / float(response.s_ff(w, single))
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-3
