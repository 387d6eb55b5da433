"""Unit tests for parameter models, unit conversions, and the config format."""

import math

import pytest

from cavcool import params
from cavcool.errors import ConfigError, ValidationError
from cavcool.params import NormalizedParams, PhysicalParams

HBAR = 1.054571817e-34
C = 299792458.0


def make_phys(**overrides):
    base = dict(
        radius=50e-9,
        omega_m=2 * math.pi * 0.5e6,
        kappa=2 * math.pi * 50e6,
        kappa3=2 * math.pi * 0.5e6,
        E1=1e12,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestGammaSc:
    def test_reference_sphere_value(self):
        # Independent evaluation: (4 pi^2 / 5) * (1/4) * (4/3) pi r^3 / lambda^3.
        r, lam = 50e-9, 1e-6
        volume = 4.0 / 3.0 * math.pi * r**3
        oracle = 4.0 * math.pi**2 / 5.0 * 0.25 * volume / lam**3
        assert params.gamma_sc(make_phys()) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(1.0335426e-3, rel=1e-6)

    def test_vanishes_as_epsilon_approaches_one(self):
        assert params.gamma_sc(make_phys(epsilon=1.0 + 1e-12)) < 1e-13

    def test_vanishes_as_radius_shrinks(self):
        assert params.gamma_sc(make_phys(radius=1e-12)) < 1e-16

    def test_monotone_in_radius_and_polarizability(self):
        radii = [20e-9, 50e-9, 80e-9]
        values = [params.gamma_sc(make_phys(radius=r)) for r in radii]
        assert values[0] < values[1] < values[2]
        eps_values = [params.gamma_sc(make_phys(epsilon=e)) for e in (1.5, 2.0, 4.0)]
        assert eps_values[0] < eps_values[1] < eps_values[2]

    def test_degree_three_homogeneity_in_radius_over_wavelength(self):
        base = params.gamma_sc(make_phys())
        scaled = params.gamma_sc(make_phys(radius=100e-9, wavelength=2e-6))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestCouplingG:
    def test_reference_value(self):
        # g = 4 r^3 / (w^2 L) * (eps-1)/(eps+2) * 2 pi c / lambda  (hand reduction
        # of 3V/4V_c with V_c = (pi/4) w^2 L).
        phys = make_phys()
        oracle = (
            4 * phys.radius**3 / (phys.waist**2 * phys.cavity_length)
            * 0.25
            * 2 * math.pi * C / phys.wavelength
        )
        assert params.coupling_g(phys) == pytest.approx(oracle, rel=1e-13)
        assert oracle == pytest.approx(3.767303134e4, rel=1e-9)

    def test_vanishes_as_epsilon_approaches_one(self):
        assert params.coupling_g(make_phys(epsilon=1.0 + 1e-12)) < 1e-6

    def test_linear_in_sphere_volume(self):
        g1 = params.coupling_g(make_phys())
        g2 = params.coupling_g(make_phys(radius=50e-9 * 2 ** (1.0 / 3.0)))
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValidationError):
            make_phys(waist=-1e-6)


class TestXZpf:
    def test_reference_value(self):
        phys = make_phys(density=2200.0)
        m = 2200.0 * 4.0 / 3.0 * math.pi * (50e-9) ** 3
        oracle = math.sqrt(HBAR / (2 * m * phys.omega_m))
        assert params.x_zpf(phys) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(3.8171e-12, rel=1e-4)

    def test_quadrupling_mass_halves_spread(self):
        x1 = params.x_zpf(make_phys())
        x2 = params.x_zpf(make_phys(density=4 * 2200.0))
        assert x2 == pytest.approx(x1 / 2.0, rel=1e-12)

    def test_vanishes_at_high_frequency(self):
        assert params.x_zpf(make_phys(omega_m=1e15)) < 1e-15


class TestNormalize:
    def test_rate_ratio(self):
        from cavcool.steadystate import SteadyState

        phys = make_phys()
        ss = SteadyState(
            alpha1=1.0, alpha2=0.0, alpha3=0.0, x0=0.0, delta2p=0.0,
            Omega_m=0.0, converged=True, iterations=1, residual=0.0,
        )
        p = params.normalize(phys, ss)
        assert p.kappa == pytest.approx(100.0, rel=1e-12)

    def test_phase_convention_makes_couplings_real(self):
        from cavcool.steadystate import SteadyState

        phys = make_phys(J=1e6 * complex(0.3, 0.4))
        ss = SteadyState(
            alpha1=1.0, alpha2=0.0, alpha3=0.0, x0=0.0, delta2p=0.0,
            Omega_m=complex(3.0, 4.0) * 1e5, converged=True, iterations=1, residual=0.0,
        )
        p = params.normalize(phys, ss)
        assert p.J == pytest.approx(1e6 * 0.5 / phys.omega_m, rel=1e-12)
        assert p.Omega_m == pytest.approx(5e5 / phys.omega_m, rel=1e-12)


class TestJPresets:
    def test_sideband_preset(self):
        assert params.j_sideband_preset(100.0) == pytest.approx(10.0)

    def test_input_output_preset(self):
        assert params.j_input_output_preset(100.0, 1.0) == pytest.approx(10.0)
        assert params.j_input_output_preset(100.0, 4.0) == pytest.approx(20.0)


class TestValidation:
    def test_normalized_rejects_negative_kappa(self):
        with pytest.raises(ValidationError):
            NormalizedParams(delta2p=0, delta3=0, kappa=-1.0, kappa3=1.0, J=0, Omega_m=0)

    def test_normalized_rejects_negative_coupling(self):
        with pytest.raises(ValidationError):
            NormalizedParams(delta2p=0, delta3=0, kappa=1.0, kappa3=1.0, J=-1, Omega_m=0)

    def test_array_fields_validated_per_element(self):
        import numpy as np

        base = dict(delta2p=0.0, delta3=0.0, kappa=1.0, kappa3=1.0, J=0.0, Omega_m=0.0)
        block = NormalizedParams(**dict(base, kappa=np.array([1.0, 2.0]), J=np.zeros((3, 1))))
        assert block.shape == (3, 2)
        with pytest.raises(ValidationError, match="kappa must be positive and finite, got -2.0"):
            NormalizedParams(**dict(base, kappa=np.array([1.0, -2.0, np.nan])))
        with pytest.raises(ValidationError, match="delta3 must be finite"):
            NormalizedParams(**dict(base, delta3=np.array([0.0, np.inf])))
        for bad in (np.nan, np.inf, -3.0):
            message = f"n_th must be nonnegative and finite, got {bad}"
            with pytest.raises(ValidationError, match=message):
                NormalizedParams(**dict(base, n_th=np.array([0.0, bad])))
        with pytest.raises(ValidationError, match="do not broadcast"):
            NormalizedParams(**dict(base, kappa=np.ones(2), J=np.ones(3)))

    def test_physical_rejects_epsilon_below_one(self):
        with pytest.raises(ValidationError):
            make_phys(epsilon=0.5)


CONFIG_OK = """
# cooling-limit preset at kappa = 100
delta2p = 66.666666666666667
delta3 = 0.5
kappa = 100
kappa3 = 1
J = 10
Omega_m = 0.25
gamma = 1e-5
gamma_sc = 1.0335425562283847e-3
n_th = 0
"""


class TestConfig:
    def test_parse_normalized(self):
        p = params.parse_config(CONFIG_OK)
        assert p.kappa == 100.0
        assert p.gamma_sc == pytest.approx(1.0335425562283847e-3)

    def test_unknown_key_names_token(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            params.parse_config(CONFIG_OK + "bogus_key = 1\n")

    @pytest.mark.parametrize("key", ["density", "cavity_length_cm", "waist_um"])
    def test_unread_physical_keys_rejected(self, key):
        # Nothing derives a rate from these, so accepting them would ignore them.
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            params.parse_config(CONFIG_OK + f"{key} = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            params.parse_config(CONFIG_OK + "kappa = 5\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="kappa3"):
            params.parse_config("delta2p=0\ndelta3=0\nkappa=1\nJ=0\nOmega_m=0\n")

    def test_si_mode_requires_omega_m(self):
        text = CONFIG_OK + "omega_m_units = si\n"
        with pytest.raises(ConfigError, match="omega_m"):
            params.parse_config(text)

    def test_si_mode_scales_rates(self):
        omega_m = 2 * math.pi * 0.5e6
        lines = [
            "omega_m_units = si",
            f"omega_m = {omega_m}",
            f"delta2p = {66.0 * omega_m}",
            f"delta3 = {0.5 * omega_m}",
            f"kappa = {100.0 * omega_m}",
            f"kappa3 = {1.0 * omega_m}",
            f"J = {10.0 * omega_m}",
            f"Omega_m = {0.25 * omega_m}",
        ]
        p = params.parse_config("\n".join(lines))
        assert p.kappa == pytest.approx(100.0, rel=1e-12)
        assert p.Omega_m == pytest.approx(0.25, rel=1e-12)

    def test_gamma_sc_derived_from_physical_keys(self):
        text = (
            "delta2p = 0\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 10\n"
            "Omega_m = 0.25\nradius_nm = 50\nepsilon = 2\nlambda_um = 1\n"
        )
        p = params.parse_config(text)
        assert p.gamma_sc == pytest.approx(1.0335426e-3, rel=1e-6)

    def test_normalized_mode_rejects_omega_m_key(self):
        with pytest.raises(ConfigError, match="omega_m"):
            params.parse_config(CONFIG_OK + "omega_m = 1e6\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            params.parse_config("this is not a key value pair")
