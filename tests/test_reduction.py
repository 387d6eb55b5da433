"""Effective-parameter and stability-criterion tests."""

import math
import warnings

import numpy as np
import pytest
from conftest import effective_form_margin, fig5_coupled
from hypothesis import given
from hypothesis import strategies as st
from test_bit_contract import SETTINGS

from cavcool import cooling, reduction
from cavcool.params import MAX_MAGNITUDE, NormalizedParams


def full_range():
    """Log-uniform floats from the smallest normal float to MAX_MAGNITUDE."""
    lo, hi = np.finfo(np.float64).tiny, MAX_MAGNITUDE
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


class TestEffectiveParams:
    def test_decoupled(self):
        p = fig5_coupled(100.0).replace(J=0.0)
        eff = reduction.effective_params(p)
        assert eff.eta == 0.0
        assert eff.Omega_eff == 0.0
        assert eff.kappa_eff == p.kappa3
        assert eff.Delta_eff == p.delta3

    def test_fig5_point_exact_fractions(self):
        # delta2p = 200/3, kappa = 100 gives eta = 0.12 exactly.
        p = fig5_coupled(100.0)
        eff = reduction.effective_params(p)
        assert eff.eta == pytest.approx(0.12, rel=1e-12)
        assert eff.kappa_eff == pytest.approx(2.44, rel=1e-12)
        assert eff.Delta_eff == pytest.approx(-0.46, rel=1e-12)
        assert eff.Omega_eff == pytest.approx(0.12 * 0.25, rel=1e-12)

    def test_eta_scaling_with_tunnel_coupling(self):
        p = fig5_coupled(100.0)
        eff1 = reduction.effective_params(p)
        eff2 = reduction.effective_params(p.replace(J=2 * p.J))
        assert eff2.eta == pytest.approx(2 * eff1.eta, rel=1e-12)
        assert eff2.Omega_eff == pytest.approx(2 * eff1.Omega_eff, rel=1e-12)
        assert eff2.kappa_eff - p.kappa3 == pytest.approx(
            4 * (eff1.kappa_eff - p.kappa3), rel=1e-12
        )

    def test_partly_array_block_matches_points(self):
        # Only J is an array; the checks on scalar fields broadcast against it.
        point = NormalizedParams(delta2p=0, delta3=0, kappa=1, kappa3=1, J=1e-300, Omega_m=0.1)
        js = [0.0, 1e-300, 1.0]
        eff = reduction.effective_params(point.replace(J=np.array(js)))
        margin = reduction.stability_coupled(point.replace(J=np.array(js))).margin
        for i, j in enumerate(js):
            single = reduction.effective_params(point.replace(J=j))
            assert (eff.eta[i], eff.regime_ok[i]) == (single.eta, single.regime_ok)
            assert margin[i] == reduction.stability_coupled(point.replace(J=j)).margin

    @pytest.mark.parametrize(
        "J, delta2p, kappa, eta, margin",
        [
            # Both squares underflow to 0: the plain norm is 0, so eta was inf.
            (1e-200, 0.0, 1e-200, 2.0, 0.2),
            # Their sum overflows: the plain norm is inf, so eta was 0.
            (1e154, 1.3e154, 1.3e154, 1e154 / math.hypot(1.3e154, 6.5e153), 1.0),
        ],
        ids=["underflow", "overflow"],
    )
    def test_eta_at_extreme_scales(self, J, delta2p, kappa, eta, margin):
        p = NormalizedParams(
            delta2p=delta2p, delta3=0.5, kappa=kappa, kappa3=1.0, J=J, Omega_m=0.25
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eff = reduction.effective_params(p)
            verdict = reduction.stability_coupled(p, eff)
        assert eff.eta == pytest.approx(eta, rel=1e-15, abs=0.0)
        assert verdict.margin == pytest.approx(margin, rel=1e-12)

    def test_regime_diagnostics(self):
        good = reduction.effective_params(fig5_coupled(100.0))
        assert good.regime_ok
        bad = reduction.effective_params(fig5_coupled(100.0).replace(delta2p=1.0))
        assert not bad.regime_ok


@SETTINGS
@given(J=full_range(), delta2p=full_range(), kappa=full_range(), negative=st.booleans())
def test_eta_over_the_whole_domain(J, delta2p, kappa, negative):
    """eta is J / hypot(delta2p, kappa/2) to 4 ulp, or inf where that overflows, with no warning."""
    delta2p = -delta2p if negative else delta2p
    p = NormalizedParams(delta2p=delta2p, delta3=0.5, kappa=kappa, kappa3=1.0, J=J, Omega_m=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta = reduction.effective_params(p).eta
        with np.errstate(over="ignore", under="ignore"):
            expected = J / np.hypot(delta2p, kappa / 2.0)
    # Distance in ulp: positive floats order as their bits, and inf is one past the largest.
    assert abs(int(np.float64(eta).view(np.int64)) - int(expected.view(np.int64))) <= 4


class TestStabilitySingle:
    def test_blue_detuning_always_unstable(self):
        p = fig5_coupled(100.0).replace(J=0.0, delta2p=40.0)
        verdict = reduction.stability_single(p)
        assert not verdict.stable

    def test_red_detuned_weak_coupling_stable(self):
        p = NormalizedParams(delta2p=-50.0, delta3=0.5, kappa=100.0, kappa3=1.0,
                             J=0.0, Omega_m=0.25, gamma=0.0)
        assert reduction.stability_single(p).stable

    def test_boundary_margin_is_exactly_zero(self):
        # At delta2p = -kappa/2 and Omega_m^2 = kappa/4 the bracket vanishes.
        kappa = 100.0
        p = NormalizedParams(delta2p=-kappa / 2, delta3=0.5, kappa=kappa, kappa3=1.0,
                             J=0.0, Omega_m=math.sqrt(kappa / 4.0), gamma=0.0)
        assert reduction.stability_single(p).margin == 0.0

    def test_simplified_form_at_optimum(self):
        # At delta2p = -kappa/2 the general criterion reduces to Omega_m^2 < kappa/4.
        kappa = 64.0
        p = NormalizedParams(delta2p=-kappa / 2, delta3=0.5, kappa=kappa, kappa3=1.0,
                             J=0.0, Omega_m=3.0, gamma=0.0)
        verdict = reduction.stability_single(p)
        assert verdict.stable  # 9 < 16
        verdict2 = reduction.stability_single(p.replace(Omega_m=5.0))
        assert not verdict2.stable  # 25 > 16


class TestStabilityCoupled:
    def test_fig5_bound_frozen(self):
        # (4 + 2.44^2) / (16 * 0.0144) evaluated by hand.
        p = fig5_coupled(100.0)
        verdict = reduction.stability_coupled(p)
        bound = (4.0 + 2.44**2) / (16.0 * 0.0144)
        assert bound == pytest.approx(43.201388888, rel=1e-9)
        expected_margin = (bound - p.Omega_m**2) / bound
        assert verdict.margin == pytest.approx(expected_margin, rel=1e-12)
        assert verdict.stable

    def test_degenerate_eta_always_stable(self):
        p = fig5_coupled(100.0).replace(J=0.0)
        verdict = reduction.stability_coupled(p)
        assert verdict.stable
        assert math.isinf(verdict.margin)

    def test_vanishing_eta_is_stable_not_nan(self):
        # 16 eta^2 underflows to 0 for J = 1e-300: the bound is out of float range.
        p = NormalizedParams(delta2p=0.0, delta3=0.0, kappa=1.0, kappa3=1.0, J=1e-300, Omega_m=0.1)
        verdict = reduction.stability_coupled(p)
        assert verdict.stable is True
        assert verdict.margin == 1.0

    def test_minimum_bound_matches_direct_minimization(self):
        kappa, kappa3 = 137.0, 0.7
        eta_min = (4.0 + kappa3**2) ** 0.25 / math.sqrt(kappa)
        bound_at = lambda eta: (4 + (kappa3 + eta**2 * kappa) ** 2) / (16 * eta**2)
        s_min = reduction.minimum_coupled_bound(kappa, kappa3)
        assert bound_at(eta_min) == pytest.approx(s_min, rel=1e-12)
        for eta in (0.5 * eta_min, 0.9 * eta_min, 1.1 * eta_min, 2 * eta_min):
            assert bound_at(eta) >= s_min - 1e-12
        # A block gives every point the bits of that point on its own.
        kappa, kappa3 = 10 ** np.random.default_rng(43).uniform(-6, 6, (2, 500))
        bound = reduction.minimum_coupled_bound
        points = [bound(float(k), float(k3)) for k, k3 in zip(kappa, kappa3)]
        assert all(type(x) is float for x in points)
        assert bound(kappa, kappa3).tobytes() == np.array(points).tobytes()

    def test_effective_form_reduces_to_closed_bound_at_design_detuning(self):
        # delta2p chosen so Delta_eff = -1; the 5.11 inequality then collapses
        # to the closed bound of 5.13.
        kappa = 400.0
        j = math.sqrt(2.0 * kappa)
        disc = j**4 - 9.0 * (kappa / 2.0) ** 2
        delta2p = (j**2 - math.sqrt(disc)) / 3.0
        p = fig5_coupled(kappa).replace(J=j, delta2p=delta2p)
        eff = reduction.effective_params(p)
        assert eff.Delta_eff == pytest.approx(-1.0, rel=1e-12)
        closed = reduction.stability_coupled(p)
        assert closed.stable == (effective_form_margin(eff) > 0.0)


class TestReductionFidelity:
    def test_rates_match_at_feature_resonant_sideband(self):
        """Two-mode prediction vs full three-mode rate on the dressed resonance.

        Strong-feature operating point (J^2 >> kappa kappa_eff) with
        Delta_eff ~= -1: the cooling sideband sits on the effective
        resonance and the reduced model must reproduce the full rate.
        """
        p = NormalizedParams(delta2p=10000.0 / 1.5, delta3=0.5, kappa=1000.0,
                             kappa3=0.1, J=100.0, Omega_m=0.25, gamma=1e-5)
        eff = reduction.effective_params(p)
        assert eff.regime_ok
        assert eff.Delta_eff == pytest.approx(-1.0, abs=0.05)
        a_minus, _ = cooling.rates(p)
        predicted = (
            eff.Omega_eff**2 * eff.kappa_eff
            / ((eff.Delta_eff + 1.0) ** 2 + eff.kappa_eff**2 / 4.0)
        )
        assert predicted == pytest.approx(a_minus, rel=0.10)

    def test_rates_match_in_mirrored_heating_configuration(self):
        p = NormalizedParams(delta2p=10000.0 / (0.5 - 1.0), delta3=0.5, kappa=1000.0,
                             kappa3=0.1, J=100.0, Omega_m=0.25, gamma=1e-5)
        eff = reduction.effective_params(p)
        assert eff.Delta_eff == pytest.approx(+1.0, abs=0.05)
        _, a_plus = cooling.rates(p)
        predicted = (
            eff.Omega_eff**2 * eff.kappa_eff
            / ((eff.Delta_eff - 1.0) ** 2 + eff.kappa_eff**2 / 4.0)
        )
        assert predicted == pytest.approx(a_plus, rel=0.10)
