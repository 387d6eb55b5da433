"""Unit tests for the normalized parameter model, the recoil rate, and the config format."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from cavcool import cli, params
from cavcool.errors import ConfigError, ValidationError
from cavcool.params import NormalizedParams


class TestGammaSc:
    def test_reference_sphere_value(self):
        # Independent evaluation: (4 pi^2 / 5) * (1/4) * (4/3) pi r^3 / lambda^3.
        r, lam = 50e-9, 1e-6
        volume = 4.0 / 3.0 * math.pi * r**3
        oracle = 4.0 * math.pi**2 / 5.0 * 0.25 * volume / lam**3
        assert params.recoil_heating(r, 2.0, lam) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(1.0335426e-3, rel=1e-6)

    def test_vanishes_as_epsilon_approaches_one(self):
        assert params.recoil_heating(50e-9, 1.0 + 1e-12) < 1e-13

    def test_vanishes_as_radius_shrinks(self):
        assert params.recoil_heating(1e-12) < 1e-16

    def test_monotone_in_radius_and_polarizability(self):
        radii = [20e-9, 50e-9, 80e-9]
        values = [params.recoil_heating(r) for r in radii]
        assert values[0] < values[1] < values[2]
        eps_values = [params.recoil_heating(50e-9, e) for e in (1.5, 2.0, 4.0)]
        assert eps_values[0] < eps_values[1] < eps_values[2]

    def test_degree_three_homogeneity_in_radius_over_wavelength(self):
        base = params.recoil_heating(50e-9, 2.0, 1e-6)
        scaled = params.recoil_heating(100e-9, 2.0, 2e-6)
        assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0,), "radius must be positive and finite, got 0.0"),
            ((-50e-9,), "radius must be positive and finite, got -5e-08"),
            ((math.inf,), "radius must be positive and finite, got inf"),
            ((math.nan,), "radius must be positive and finite, got nan"),
            ((50e-9, 2.0, 0.0), "wavelength must be positive and finite, got 0.0"),
            ((50e-9, 2.0, -1e-6), "wavelength must be positive and finite, got -1e-06"),
            ((50e-9, 2.0, math.inf), "wavelength must be positive and finite, got inf"),
            ((50e-9, 2.0, math.nan), "wavelength must be positive and finite, got nan"),
            ((50e-9, 1.0), "epsilon must exceed 1, got 1.0"),
            ((50e-9, 0.5), "epsilon must exceed 1, got 0.5"),
            ((50e-9, math.inf), "epsilon must be finite, got inf"),
            ((50e-9, math.nan), "epsilon must be finite, got nan"),
        ],
    )
    def test_rejects_bad_input_by_name(self, args, message):
        with pytest.raises(ValidationError, match=message):
            params.recoil_heating(*args)


class TestJPresets:
    def test_sideband_preset(self):
        assert params.j_sideband_preset(100.0) == pytest.approx(10.0)

    def test_sideband_preset_scalar_and_block(self):
        # A scalar kappa gives a Python float; a kappa grid gives J per element.
        assert type(params.j_sideband_preset(4.0)) is float
        kappas = np.array([1.0, 25.0, 400.0])
        np.testing.assert_array_equal(params.j_sideband_preset(kappas), [1.0, 5.0, 20.0])

    @pytest.mark.parametrize("kappa", [0.0, -100.0, math.inf, math.nan])
    def test_sideband_preset_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValidationError, match="kappa must be positive and finite"):
            params.j_sideband_preset(kappa)


class TestValidation:
    def test_normalized_rejects_negative_kappa(self):
        with pytest.raises(ValidationError):
            NormalizedParams(delta2p=0, delta3=0, kappa=-1.0, kappa3=1.0, J=0, Omega_m=0)

    def test_normalized_rejects_negative_coupling(self):
        with pytest.raises(ValidationError):
            NormalizedParams(delta2p=0, delta3=0, kappa=1.0, kappa3=1.0, J=-1, Omega_m=0)

    def test_replace_revalidates(self):
        p = NormalizedParams(delta2p=0, delta3=0, kappa=1.0, kappa3=1.0, J=0, Omega_m=0)
        assert p.replace(kappa=2.0).kappa == 2.0
        with pytest.raises(ValidationError, match="gamma must be nonnegative"):
            p.replace(gamma=-1e-3)

    def test_array_fields_validated_per_element(self):
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


VALID_POINT = dict(delta2p=0.5, delta3=-0.5, kappa=1.0, kappa3=2.0, J=0.3, Omega_m=0.2,
                   gamma=1e-5, gamma_sc=1e-4, n_th=1.0)
# field -> (requirement in the message, bad values)
CONSTRAINTS = {
    **{k: ("positive and finite", (math.nan, math.inf, -1.0, 0.0)) for k in ("kappa", "kappa3")},
    **{
        k: ("nonnegative and finite", (math.nan, math.inf, -1.0))
        for k in ("J", "Omega_m", "gamma", "gamma_sc", "n_th")
    },
    **{k: ("finite", (math.nan, math.inf, -math.inf)) for k in ("delta2p", "delta3")},
}
# Each bad value as a Python float, a numpy scalar, a 0-d and a 1-d array.
FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "1-d array": lambda x: np.array([0.5, x]),
}


class TestValidationTable:
    def test_domain_covers_every_field_as_specified(self):
        # No field can skip validation, and the table agrees with CONSTRAINTS.
        fields = tuple(f.name for f in dataclasses.fields(NormalizedParams))
        assert tuple(params.DOMAIN) == params.RATE_KEYS == fields
        spec = {name: requirement.split()[0] for name, (requirement, _) in CONSTRAINTS.items()}
        assert params.DOMAIN == spec

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize(
        "name,bad",
        [(name, bad) for name, (_, bads) in CONSTRAINTS.items() for bad in bads],
    )
    def test_bad_value_rejected_with_message(self, name, bad, form):
        requirement = CONSTRAINTS[name][0]
        message = f"{name} must be {requirement}"
        if requirement != "finite":
            message += f", got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            NormalizedParams(**dict(VALID_POINT, **{name: FORMS[form](bad)}))

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("name", params.RATE_KEYS)
    def test_magnitude_above_square_root_of_float_max_rejected(self, name, form):
        # Above sqrt(float max), `square` of the field overflows.
        assert params.MAX_MAGNITUDE == math.sqrt(sys.float_info.max)
        for big in (1e200, 1e308, math.nextafter(params.MAX_MAGNITUDE, math.inf)):
            message = f"{name} must be at most 1.341e+154 in magnitude, got {big}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                NormalizedParams(**dict(VALID_POINT, **{name: FORMS[form](big)}))
        if CONSTRAINTS[name][0] == "finite":
            with pytest.raises(ValidationError, match=f"^{name} must be at most"):
                NormalizedParams(**dict(VALID_POINT, **{name: FORMS[form](-1e200)}))
        for fine in (1.3e154, params.MAX_MAGNITUDE):
            p = NormalizedParams(**dict(VALID_POINT, **{name: FORMS[form](fine)}))
            assert np.all(np.isfinite(params.square(getattr(p, name))))

    def test_int_and_numpy_scalar_fields_are_one_point(self):
        ints = NormalizedParams(**{k: int(math.ceil(v)) for k, v in VALID_POINT.items()})
        scalars = NormalizedParams(**{k: np.float64(v) for k, v in VALID_POINT.items()})
        mixed = NormalizedParams(**dict(VALID_POINT, kappa=3, J=np.float64(0.0), n_th=0))
        assert ints.shape == scalars.shape == mixed.shape == ()


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

CONFIG_RATES = "delta2p = 0\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 10\nOmega_m = 0.25\n"


def physical_keys(**overrides):
    """Config lines for the three physical keys; an override of None omits that key."""
    values = {"radius_nm": 50, "epsilon": 2, "lambda_um": 1, **overrides}
    return "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)


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
        p = params.parse_config(CONFIG_RATES + physical_keys())
        assert p.gamma_sc == pytest.approx(1.0335426e-3, rel=1e-6)

    @pytest.mark.parametrize("key", params.PHYSICAL_KEYS)
    def test_partial_physical_keys_rejected(self, key):
        # A partial set cannot derive gamma_sc; it must not be dropped silently.
        with pytest.raises(ConfigError, match=key):
            params.parse_config(CONFIG_RATES + f"{key} = 50\n")
        with pytest.raises(ConfigError, match=key):
            params.parse_config(CONFIG_RATES + physical_keys(**{key: None}))

    def test_physical_keys_beside_gamma_sc_rejected(self):
        text = CONFIG_RATES + "gamma_sc = 1e-3\n" + physical_keys()
        with pytest.raises(ConfigError, match="gamma_sc is given, so radius_nm, epsilon, lambda_um"):
            params.parse_config(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("epsilon", 0.5, "epsilon must exceed 1, got 0.5"),
            ("radius_nm", 0, "radius_nm must be positive and finite, got 0.0"),
            ("lambda_um", -1, "lambda_um must be positive and finite, got -1.0"),
            ("epsilon", "inf", "epsilon must be finite, got inf"),
            ("epsilon", "nan", "epsilon must be finite, got nan"),
            ("radius_nm", "nan", "radius_nm must be positive and finite, got nan"),
            ("lambda_um", "inf", "lambda_um must be positive and finite, got inf"),
        ],
    )
    def test_bad_physical_value_names_key(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            params.parse_config(CONFIG_RATES + physical_keys(**{key: value}))

    @pytest.mark.parametrize("key, value, message", [
        ("radius_nm", "1e120", "radius 1e+111 m is too large: its cube overflows"),
        ("lambda_um", "1e-200", "wavelength 1e-206 m is too small: its cube is 0"),
        ("lambda_um", "1e110", "wavelength 1e+104 m is too large: its cube overflows"),
    ])
    def test_out_of_range_recoil_cube_exits_2(self, tmp_path, capsys, key, value, message):
        # These values pass their domain check, but the recoil formula's cube does not fit a float.
        text = CONFIG_RATES + physical_keys(**{key: value})
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            params.parse_config(text)
        config = tmp_path / "sphere.cfg"
        config.write_text(text)
        out = tmp_path / "limit.csv"
        assert cli.main(["limit", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_si_mode_leaves_derived_gamma_sc_unscaled(self):
        # recoil_heating already returns gamma_sc in units of omega_m.
        omega_m = 2 * math.pi * 0.5e6
        rates = "".join(
            f"{k} = {v * omega_m}\n"
            for k, v in (("delta2p", 0.0), ("delta3", 0.5), ("kappa", 100.0),
                         ("kappa3", 1.0), ("J", 10.0), ("Omega_m", 0.25))
        )
        si = params.parse_config(f"omega_m_units = si\nomega_m = {omega_m}\n" + rates + physical_keys())
        normalized = params.parse_config(CONFIG_RATES + physical_keys())
        assert si.gamma_sc == normalized.gamma_sc

    def test_si_mode_scales_damping_but_not_occupancy(self):
        text = (
            "omega_m_units = si\nomega_m = 4\n" + CONFIG_RATES
            + "gamma = 2\ngamma_sc = 1\nn_th = 3\n"
        )
        p = params.parse_config(text)
        assert (p.kappa, p.gamma, p.gamma_sc, p.n_th) == (25.0, 0.5, 0.25, 3.0)

    @pytest.mark.parametrize(
        "omega_m, message",
        [
            pytest.param("0", "omega_m must be positive and finite, got 0.0", id="0"),
            pytest.param("-1e6", "omega_m must be positive and finite, got -1000000.0", id="-1e6"),
            pytest.param("inf", "omega_m must be positive and finite, got inf", id="inf"),
            pytest.param("nan", "omega_m must be positive and finite, got nan", id="nan"),
            pytest.param(
                "1e200", "omega_m must be at most 1.341e+154 in magnitude, got 1e+200", id="1e200"
            ),
        ],
    )
    def test_si_mode_rejects_bad_omega_m(self, omega_m, message):
        text = f"omega_m_units = si\nomega_m = {omega_m}\n" + CONFIG_RATES
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            params.parse_config(text)

    def test_missing_key_is_reported_before_a_bad_omega_m(self):
        text = "omega_m_units = si\nomega_m = 0\n" + CONFIG_RATES.replace("kappa3 = 1\n", "")
        with pytest.raises(ConfigError, match="^missing required keys: kappa3$"):
            params.parse_config(text)

    def test_omitted_rate_keys_take_the_defaults(self):
        p = params.parse_config("omega_m_units = si\nomega_m = 2\n" + CONFIG_RATES)
        assert p == NormalizedParams(delta2p=0.0, delta3=0.25, kappa=50.0, kappa3=0.5,
                                     J=5.0, Omega_m=0.125)

    def test_unknown_units_rejected(self):
        with pytest.raises(ConfigError, match="line 1: omega_m_units must be `normalized` or `si`, got 'hz'"):
            params.parse_config("omega_m_units = hz\n" + CONFIG_RATES)

    def test_non_number_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 3: value for 'kappa' is not a number: 'lots'"):
            params.parse_config("delta2p = 0\ndelta3 = 0.5\nkappa = lots\n")

    def test_trailing_comment_stripped(self):
        p = params.parse_config(CONFIG_RATES.replace("kappa = 100", "kappa = 100  # cavity 2"))
        assert p.kappa == 100.0

    def test_out_of_range_rate_is_config_error(self):
        with pytest.raises(ConfigError, match="kappa3 must be positive and finite, got -1.0"):
            params.parse_config(CONFIG_RATES.replace("kappa3 = 1", "kappa3 = -1"))

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "point.cfg"
        path.write_text(CONFIG_OK, encoding="utf-8")
        assert params.load_config(path) == params.parse_config(CONFIG_OK)

    def test_load_config_names_a_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG_OK.encode("utf-8") + "# café\n".encode("latin-1"))
        offset = len(CONFIG_OK.encode("utf-8")) + len("# caf")
        message = f"{path}: byte 0xe9 at offset {offset} is not UTF-8"
        with pytest.raises(ConfigError, match=re.escape(message)):
            params.load_config(path)

    def test_load_config_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + CONFIG_OK.encode("utf-8"))
        assert params.load_config(path) == params.parse_config(CONFIG_OK)

    def test_load_config_counts_the_byte_order_mark_in_offsets(self, tmp_path):
        # `utf-8-sig` would report offset 2 and byte 0xbf here.
        path = tmp_path / "bom-latin1.cfg"
        path.write_bytes(b"\xef\xbb\xbfab\xe9c")
        message = f"{path}: byte 0xe9 at offset 5 is not UTF-8"
        with pytest.raises(ConfigError, match=re.escape(message)):
            params.load_config(path)

    def test_normalized_mode_rejects_omega_m_key(self):
        with pytest.raises(ConfigError, match="omega_m"):
            params.parse_config(CONFIG_OK + "omega_m = 1e6\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            params.parse_config("this is not a key value pair")
