"""CLI tests: subcommands, CSV discipline, presets, determinism, exit codes."""

import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavcool import cli, cooling, lyapunov, params, reduction, response

CONFIG = """
delta2p = 66.666666666666667
delta3 = 0.5
kappa = 100
kappa3 = 1
J = 10
Omega_m = 0.25
gamma = 1e-5
gamma_sc = 1.0335425562283847e-3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "preset.cfg"
    path.write_text(CONFIG)
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cli.emit_csv([], ["a", "b"], out)
        assert out.read_text() == "a,b\n"

    def test_nan_written_literally(self, tmp_path):
        out = tmp_path / "nan.csv"
        cli.emit_csv([[float("nan"), "not_cooling"]], ["n_f", "flag"], out)
        assert out.read_text().splitlines()[1] == "nan,not_cooling"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        values = list(rng.uniform(-1, 1, 50)) + [1e-300, 1e300, 2.0 / 3.0]
        out = tmp_path / "rt.csv"
        cli.emit_csv([[v] for v in values], ["x"], out)
        _, rows = read_csv(out)
        for original, row in zip(values, rows):
            assert float(row[0]) == original  # exact, not approx

    def test_duplicate_columns_rejected(self, tmp_path):
        with pytest.raises(Exception):
            cli.emit_csv([], ["x", "x"], tmp_path / "dup.csv")

    def test_cell_text_per_type(self, tmp_path):
        # Columns of one type and of mixed types format each cell by its type.
        out = tmp_path / "types.csv"
        rows = [
            [0.1, True, "ok", np.float64(2.0), 3, -0.0],
            [np.float64(1 / 3), np.False_, np.str_("unstable"), 7.5, np.int64(-4), float("inf")],
        ]
        cli.emit_csv(rows, ["a", "b", "c", "d", "e", "f"], out)
        assert out.read_text().splitlines()[1:] == [
            "0.10000000000000001,1,ok,2,3,-0",
            "0.33333333333333331,0,unstable,7.5,-4,inf",
        ]

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(Exception, match="row width 1"):
            cli.emit_csv([[1.0, 2.0], [1.0]], ["x", "y"], tmp_path / "w.csv")

    def test_column_count_checked(self, tmp_path):
        table = cli._Rows([[np.zeros(3), np.zeros(3)], [np.zeros(2)]])
        with pytest.raises(cli.ValidationError, match="1 columns do not match schema width 2"):
            cli.emit_csv(table, ["x", "y"], tmp_path / "w.csv")

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        cli.emit_csv([[1.0]], ["x"], out)
        raw = out.read_bytes()
        assert b"\r" not in raw


def float64(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(float64),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
        lambda sign_fraction: float64(sign_fraction[0] << 63 | sign_fraction[1])
    ),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]),
)
CELLS = {
    "float": FLOAT64,
    "np.float64": FLOAT64.map(np.float64),
    "bool": st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    "int": st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64)),
    "str": st.one_of(
        st.sampled_from(["ok", "not_cooling", "unstable", "ill_conditioned", "%s", "%%"]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n")),
    ),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


SIGNED_ZEROS = [0.0, -0.0]
NANS = [math.nan, float64(0x7FF8000000000001), float64(0xFFF4000000000000)]
# A float column's cells come from a small pool, so a chunk column may repeat
# values; one column always mixes signed zeros and NaNs of several payloads.
FLOAT_POOLS = {
    "float": st.lists(FLOAT64, min_size=1, max_size=4),
    "np.float64": st.lists(FLOAT64.map(np.float64), min_size=1, max_size=4),
    "zeros": st.sampled_from([SIGNED_ZEROS, SIGNED_ZEROS + NANS]),
}
# Array dtype of each kind's column in a `_Rows` table.
DTYPES = {"float": np.float64, "np.float64": np.float64, "zeros": np.float64, "bool": bool}


@st.composite
def tables(draw):
    """(schema, rows, the same rows as a `_Rows` table of blocks of unequal length)."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), "zeros")
    cells = [
        st.sampled_from(draw(FLOAT_POOLS[kind])) if kind in FLOAT_POOLS else CELLS[kind]
        for kind in kinds
    ]
    rows = draw(st.lists(st.tuples(*cells), max_size=16))
    columns = [
        np.array([row[k] for row in rows], dtype=DTYPES.get(kind, object))
        for k, kind in enumerate(kinds)
    ]
    cuts = [0] + sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3))) + [len(rows)]
    blocks = [[column[a:b] for column in columns] for a, b in zip(cuts, cuts[1:])]
    return [f"c{k}" for k in range(len(kinds))], rows, cli._Rows(blocks)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(table=tables(), chunk_rows=st.integers(1, 8))
def test_rows_match_per_cell_formatting(tmp_path, table, chunk_rows):
    """The CSV writer writes the bytes of formatting each cell by its type
    and joining them, for float64 bit patterns (NaN, +-inf, +-0, subnormals),
    bool, int and str cells, mixed-type columns, and chunks that split a
    column into all-float and mixed parts.  The same table is written from
    rows and from column blocks (float64, bool and object arrays); float
    columns repeat values from small pools, so chunk columns with few and
    with many distinct values both occur."""
    schema, rows, column_table = table
    columns = [cli._format_column(list(cells)) for cells in zip(*rows)]
    expected = ",".join(schema) + "\n" + "".join(",".join(cells) + "\n" for cells in zip(*columns))
    out = tmp_path / "table.csv"
    for written in (rows, column_table):
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows):
            cli.emit_csv(written, schema, out)
        assert out.read_bytes() == expected.encode("utf-8")


class TestSpectrumCommand:
    def test_schema_and_values(self, config_path, tmp_path):
        out = tmp_path / "spec.csv"
        rc = cli.main(["spectrum", "--config", config_path, "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["omega", "S"]
        assert len(rows) == 4001
        from cavcool import response

        p = params.parse_config(CONFIG)
        mid = rows[2000]
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(float(response.s_ff(0.0, p)), rel=1e-15)

    def test_custom_axis(self, config_path, tmp_path):
        out = tmp_path / "spec.csv"
        rc = cli.main([
            "spectrum", "--config", config_path, "--out", str(out),
            "--axis1", "omega:-2:0:41:lin",
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 41
        assert float(rows[0][0]) == -2.0

    def test_rejects_non_omega_axis(self, config_path, tmp_path):
        rc = cli.main([
            "spectrum", "--config", config_path, "--out", str(tmp_path / "x.csv"),
            "--axis1", "kappa:1:2:5:lin",
        ])
        assert rc == 2

    def test_grid_size_cap(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "capped.csv"
        argv = [
            "spectrum", "--config", config_path, "--out", str(out),
            "--axis1", "omega:-3:3:12:lin",
        ]
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
        assert cli.main(argv) == 2
        assert "spectrum of 12 points exceeds the limit of 11 points" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 12)
        assert cli.main(argv) == 0
        assert len(read_csv(out)[1]) == 12

    def test_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["spectrum", "--config", config_path, "--out", str(out1)])
        cli.main(["spectrum", "--config", config_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestPointCommands:
    def test_limit_row(self, config_path, tmp_path):
        out = tmp_path / "limit.csv"
        assert cli.main(["limit", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "kappa", "delta2p", "A_minus", "A_plus", "Gamma_opt",
            "n_q", "n_c", "n_f", "flag",
        ]
        assert rows[0][-1] == "ok"
        assert float(rows[0][7]) == pytest.approx(1.0142635694680182, rel=1e-12)

    def test_limit_single_cavity_flag(self, config_path, tmp_path):
        out = tmp_path / "single.csv"
        rc = cli.main([
            "limit", "--config", config_path, "--out", str(out), "--single-cavity",
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == -50.0  # delta2p forced to -kappa/2
        assert float(rows[0][7]) > 1.0

    def test_rates_row(self, config_path, tmp_path):
        out = tmp_path / "rates.csv"
        assert cli.main(["rates", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "delta2p", "A_minus", "A_plus", "Gamma_opt", "flag"]
        assert float(rows[0][2]) > float(rows[0][3])

    def test_stability_row(self, config_path, tmp_path):
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "kappa", "kappa3", "J", "delta2p", "eta", "Omega_eff",
            "kappa_eff", "Delta_eff", "stable", "margin",
        ]
        assert rows[0][8] == "1"
        assert float(rows[0][4]) == pytest.approx(0.12, rel=1e-12)

    @pytest.mark.parametrize("sub", ["rates", "limit"])
    def test_heating_point_flagged_not_cooling(self, tmp_path, sub):
        # At delta2p = -60 the coupled point heats: Gamma_opt = -3.2e-4.
        config = tmp_path / "heating.cfg"
        config.write_text(CONFIG.replace("delta2p = 66.666666666666667", "delta2p = -60"))
        out = tmp_path / f"{sub}.csv"
        assert cli.main([sub, "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        report = cooling.cooling_limit(params.load_config(config))
        assert report.Gamma_opt == pytest.approx(-3.2e-4, rel=0.01)
        for name in header[2:-1]:
            assert row[name] == "%.17g" % getattr(report, name), name
        assert [row[k] for k in ("n_q", "n_c", "n_f") if k in row] == (
            ["nan"] * 3 if sub == "limit" else []
        )
        assert row["flag"] == "not_cooling"

    def test_stability_row_single_cavity_verdict(self, tmp_path):
        config = tmp_path / "single.cfg"
        config.write_text(
            CONFIG.replace("delta2p = 66.666666666666667", "delta2p = -60").replace("J = 10", "J = 0")
        )
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        verdict = reduction.stability_single(params.load_config(config))
        # The coupled verdict would be stable with an infinite margin at eta = 0.
        assert verdict.margin == pytest.approx(146.04, rel=1e-12)
        assert (row["stable"], row["margin"]) == ("1", "%.17g" % verdict.margin)

    def test_effective_row(self, config_path, tmp_path):
        out = tmp_path / "eff.csv"
        assert cli.main(["effective", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[-1] == "regime_ok"
        assert rows[0][-1] == "1"

    def test_oracle_row(self, config_path, tmp_path):
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "Omega_m", "n_f_formula", "n_lyapunov", "rel_dev", "stable"]
        assert rows[0][5] == "1"
        assert float(rows[0][4]) < 0.05

    def test_oracle_unstable_flagged_not_failed(self, tmp_path):
        config = tmp_path / "unstable.cfg"
        config.write_text(
            "delta2p = 50\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 0\n"
            "Omega_m = 0.5\ngamma = 1e-5\n"
        )
        out = tmp_path / "oracle.csv"
        rc = cli.main(["oracle", "--config", str(config), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0][5] == "0"
        assert rows[0][3] == "nan"

    def test_oracle_ill_conditioned_exits_3(self, tmp_path, capsys):
        # The single-cavity point kappa = 100, Omega_m = 5 sits on the edge
        # Omega_m^2 = kappa/4, where the Lyapunov residual misses its target.
        config = tmp_path / "edge.cfg"
        config.write_text(
            "delta2p = 0\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 10\n"
            "Omega_m = 5\ngamma = 1e-5\n"
        )
        out = tmp_path / "oracle.csv"
        rc = cli.main(["oracle", "--config", str(config), "--out", str(out), "--single-cavity"])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numeric failure: Lyapunov residual \d\.\d{3}e-\d\d exceeds target 1\.0e-10\n", err
        )
        assert not out.exists()


class TestSweep:
    def test_fig5b_style_dual_sweep(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "kappa:10:100:5:log", "--quantity", "n_f",
            "--dual", "--preset-coupling",
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "n_f_coupled", "n_f_single", "flag"]
        assert len(rows) == 5
        # Coupled column beats single everywhere on this grid.
        for row in rows:
            assert float(row[1]) < float(row[2])

    def test_two_axis_order_deterministic(self, config_path, tmp_path):
        out = tmp_path / "grid.csv"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "kappa:10:100:3:log", "--axis2", "Omega_m:0.1:0.3:2:lin",
            "--quantity", "Gamma_opt",
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "Omega_m", "Gamma_opt", "flag"]
        kappas = [float(r[0]) for r in rows]
        omegas = [float(r[1]) for r in rows]
        assert kappas == sorted(kappas)
        assert omegas[0] < omegas[1] and omegas[0] == omegas[2]

    def test_omega_axis_for_spectral_quantity(self, config_path, tmp_path):
        out = tmp_path / "sff.csv"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "omega:-2:0:11:lin", "--quantity", "S_ff",
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["omega", "S_ff", "flag"]
        assert all(float(r[1]) >= 0 for r in rows)

    def test_unknown_quantity_exits_2(self, config_path, tmp_path):
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"),
            "--axis1", "kappa:1:10:3:lin", "--quantity", "entropy",
        ])
        assert rc == 2

    def test_bad_axis_spec_exits_2(self, config_path, tmp_path):
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"),
            "--axis1", "kappa:-1:10:3:log", "--quantity", "n_f",
        ])
        assert rc == 2

    REFUSED = "sets J and delta2p itself; it cannot be combined with"

    @pytest.mark.parametrize("extra, message", [
        pytest.param(["--axis1", "J:1:10:3:lin", "--preset-coupling"],
                     f"--preset-coupling {REFUSED} the swept axis 'J'", id="J-preset"),
        pytest.param(["--axis1", "Omega_m:0.1:0.3:3:lin", "--axis2", "delta2p:1:10:3:lin",
                      "--preset-coupling"],
                     f"--preset-coupling {REFUSED} the swept axis 'delta2p'", id="delta2p-preset"),
        pytest.param(["--axis1", "Omega_m:0.1:0.3:3:lin", "--single-cavity", "--preset-coupling"],
                     f"--single-cavity {REFUSED} --preset-coupling", id="single-preset"),
        pytest.param(["--axis1", "kappa:10:100:3:log", "--single-cavity"],
                     f"--single-cavity {REFUSED} the swept axis 'kappa'", id="kappa-single"),
        pytest.param(["--axis1", "J:1:10:3:lin", "--single-cavity"],
                     f"--single-cavity {REFUSED} the swept axis 'J'", id="J-single"),
        pytest.param(["--axis1", "Omega_m:0.1:0.3:3:lin", "--axis2", "delta2p:-80:-40:3:lin",
                      "--single-cavity"],
                     f"--single-cavity {REFUSED} the swept axis 'delta2p'", id="delta2p-single"),
        pytest.param(["--axis1", "kappa:10:100:3:log", "--axis2", "kappa:1:10:3:log"],
                     "axis 'kappa' is given twice", id="duplicate-axis"),
    ])
    def test_preset_coupling_refuses_overridden_axis(
        self, config_path, tmp_path, monkeypatch, capsys, extra, message
    ):
        def evaluate(*args, **kwargs):
            raise AssertionError("a refused sweep evaluated a point")

        monkeypatch.setattr(cli, "evaluate_quantities", evaluate)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "n_f"]
        rc = cli.main(argv + extra)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_single_cavity_sweep_matches_dual_single_series(self, config_path, tmp_path):
        # Over an axis other than kappa, J and delta2p, --single-cavity gives
        # the single-cavity series that --dual writes beside the coupled one.
        axis = ["--axis1", "Omega_m:0.1:0.4:7:lin", "--quantity", "n_f"]
        single, dual = tmp_path / "single.csv", tmp_path / "dual.csv"
        argv = ["sweep", "--config", config_path, "--out"]
        assert cli.main(argv + [str(single), "--single-cavity"] + axis) == 0
        assert cli.main(argv + [str(dual), "--dual"] + axis) == 0
        _, single_rows = read_csv(single)
        header, dual_rows = read_csv(dual)
        assert header == ["Omega_m", "n_f_coupled", "n_f_single", "flag"]
        assert [row[:2] for row in single_rows] == [[row[0], row[2]] for row in dual_rows]

    def test_not_cooling_points_flagged(self, config_path, tmp_path):
        out = tmp_path / "flags.csv"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "delta2p:-80:-40:3:lin", "--quantity", "n_f",
        ])
        assert rc == 0
        _, rows = read_csv(out)
        flags = {row[-1] for row in rows}
        assert "not_cooling" in flags  # red-detuned coupled preset heats

    def test_sweep_size_cap(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "capped.csv"
        argv = [
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "kappa:10:100:4:log", "--axis2", "Omega_m:0.1:0.3:3:lin",
            "--quantity", "n_f",
        ]
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
        assert cli.main(argv) == 2
        assert "sweep of 12 points exceeds the limit of 11 points" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 12)
        assert cli.main(argv) == 0
        assert len(read_csv(out)[1]) == 12

    def test_ill_conditioned_point_is_flagged_not_fatal(self, tmp_path):
        # The single-cavity series at kappa = 100, Omega_m = 5 sits on the
        # edge Omega_m^2 = kappa/4, where the Lyapunov residual misses its
        # target; that one value is NaN and every row is still written.
        config = tmp_path / "edge.cfg"
        config.write_text(
            "delta2p = 0\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 10\n"
            f"Omega_m = 0.25\ngamma = 1e-5\ngamma_sc = {cli.RECOIL_50NM!r}\n"
        )
        out = tmp_path / "edge.csv"
        rc = cli.main([
            "sweep", "--config", str(config), "--out", str(out),
            "--axis1", "kappa:1:1000:7:log", "--axis2", "Omega_m:0.05:5:6:log",
            "--quantity", "n_lyapunov", "--dual", "--preset-coupling",
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "Omega_m", "n_lyapunov_coupled", "n_lyapunov_single", "flag"]
        assert len(rows) == 42
        flagged = [row for row in rows if row[-1] == "ill_conditioned"]
        assert [(float(r[0]), float(r[1])) for r in flagged] == [(100.0, 5.0)]
        assert flagged[0][3] == "nan"

    def test_one_model_and_eigen_decomposition_per_series(self, config_path, tmp_path, monkeypatch):
        # The evaluator works on stacked (n, 6, 6) models, so count matrices,
        # not calls: the leading batch size of each model built and of each
        # model eigen-decomposed.
        matrices = {"build_model": 0, "eigen_stable": 0}
        build_model, eigen_stable = lyapunov.build_model, lyapunov.eigen_stable

        def counted_build(p):
            model = build_model(p)
            matrices["build_model"] += model.drift.shape[0]
            return model

        def counted_eigen(model):
            matrices["eigen_stable"] += model.drift.shape[0]
            return eigen_stable(model)

        monkeypatch.setattr(lyapunov, "build_model", counted_build)
        monkeypatch.setattr(lyapunov, "eigen_stable", counted_eigen)
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(tmp_path / "w.csv"),
            "--axis1", "kappa:1:1000:6:log", "--axis2", "Omega_m:0.05:4:5:log",
            "--quantity", "n_f,n_lyapunov,stable,max_real_eig", "--dual", "--preset-coupling",
        ])
        assert rc == 0
        _, rows = read_csv(tmp_path / "w.csv")
        assert {row[-1] for row in rows} >= {"ok", "unstable"}
        # 30 rows, two series each: one model and one eigen-decomposition per series.
        assert matrices == {"build_model": 2 * 30, "eigen_stable": 2 * 30}


class TestFigurePresets:
    def test_preset_constants_pinned(self):
        # Spectrum presets: delta3 = 0.5, kappa = 100, kappa3 = 1, J = sqrt(kappa),
        # Omega_m = 5; cooling presets: Omega_m = 1/4, gamma = 1e-5.
        for fig in ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"):
            preset = cli.FIGURE_PRESETS[fig]
            assert preset["delta3"] == 0.5
            assert preset["kappa"] == 100.0
            assert preset["kappa3"] == 1.0
            assert preset["J"] == math.sqrt(100.0)
            assert preset["Omega_m"] == 5.0
            assert preset["gamma"] == 1e-5
        assert cli.FIGURE_PRESETS["fig3a"]["delta2p"] == 100.0
        assert cli.FIGURE_PRESETS["fig3c"]["delta2p"] == 0.0
        assert cli.FIGURE_PRESETS["fig3e"]["delta2p"] == -100.0
        for fig in ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"):
            preset = cli.FIGURE_PRESETS[fig]
            assert preset["delta3"] == 0.5
            assert preset["Omega_m"] == 0.25
            assert preset["gamma"] == 1e-5
        assert cli.FIGURE_PRESETS["fig5a"]["delta2p"] == 1.0
        assert cli.FIGURE_PRESETS["fig5b"]["gamma_sc"] == pytest.approx(
            params.recoil_heating(50e-9, 2.0, 1e-6)
        )
        assert cli.FIGURE_PRESETS["fig6a"]["radii_nm"] == (40.0, 50.0, 60.0)
        assert cli.FIGURE_PRESETS["fig6b"]["kappas"] == (10.0, 50.0, 100.0)

    def test_fig3d_emits_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = cli.main(["figure", "--id", "fig3d", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["omega", "S_coupled", "S_single"]
        omegas = [float(r[0]) for r in rows]
        assert omegas[0] <= -2.0 and omegas[-1] >= 0.0  # covers the dip region
        sidecar = tmp_path / "d.gp"
        text = sidecar.read_text()
        assert "d.csv" in text
        assert text.startswith("#")

    def test_fig5b_dual_series(self, tmp_path):
        out = tmp_path / "5b.csv"
        assert cli.main(["figure", "--id", "fig5b", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:3] == ["kappa", "n_f_coupled", "flag_coupled"]
        # The coupled curve must stay below the single curve at large kappa.
        last = rows[-1]
        assert float(last[1]) < float(last[3])

    @staticmethod
    def _preset_sweep(tmp_path, preset, name, extra):
        """`sweep --preset-coupling` over `preset`'s parameters; (header, rows)."""
        fields = {"kappa": 1.0, **preset, "J": 0.0, "delta2p": 0.0}
        config = tmp_path / f"{name}.cfg"
        text = "".join(f"{k} = {v!r}\n" for k, v in fields.items() if k in params.RATE_KEYS)
        config.write_text(text)
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--preset-coupling"]
        assert cli.main(argv + extra) == 0
        return read_csv(out)

    def test_fig5b_is_the_preset_coupling_sweep(self, tmp_path):
        figure = tmp_path / "fig5b.csv"
        assert cli.main(["figure", "--id", "fig5b", "--out", str(figure)]) == 0
        _, fig_rows = read_csv(figure)
        header, rows = self._preset_sweep(
            tmp_path, cli.FIGURE_PRESETS["fig5b"], "sweep5b",
            ["--axis1", "kappa:1:1000:200:log", "--quantity", "n_f", "--dual"],
        )
        assert header == ["kappa", "n_f_coupled", "n_f_single", "flag"]
        expected = [
            [kappa, coupled, single, flag_c if flag_c != "ok" else flag_s]
            for kappa, coupled, flag_c, single, flag_s in fig_rows
        ]
        assert rows == expected

    def test_fig6b_curves_are_preset_coupling_sweeps(self, tmp_path):
        figure = tmp_path / "fig6b.csv"
        assert cli.main(["figure", "--id", "fig6b", "--out", str(figure)]) == 0
        fig_header, fig_rows = read_csv(figure)
        preset = cli.FIGURE_PRESETS["fig6b"]
        for kappa in preset["kappas"]:
            header, rows = self._preset_sweep(
                tmp_path, dict(preset, kappa=kappa), f"sweep6b_{kappa:g}",
                ["--axis1", "kappa3:0.05:10:200:log", "--quantity", "n_f"],
            )
            assert header == ["kappa3", "n_f", "flag"]
            n_f = fig_header.index(f"n_f_kappa{kappa:g}")
            assert rows == [[row[0], row[n_f], row[n_f + 1]] for row in fig_rows]

    def test_unknown_preset_exits_2(self, tmp_path):
        assert cli.main(["figure", "--id", "fig99", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("preset_id", sorted(cli.FIGURE_PRESETS))
    def test_every_preset_emits_wellformed_output(self, preset_id, tmp_path):
        out = tmp_path / f"{preset_id}.csv"
        assert cli.main(["figure", "--id", preset_id, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(header) >= 2
        assert len(rows) >= 100
        widths = {len(row) for row in rows}
        assert widths == {len(header)}
        assert (tmp_path / f"{preset_id}.gp").exists()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cli._SELFTEST) + 1
        for line, (name, *_) in zip(lines, cli._SELFTEST):
            assert re.fullmatch(rf"PASS  {name}  worst=\S+ bound=\S+ points=[1-9]\d*", line)
        assert lines[-1] == "all checks passed"

    def test_nan_at_one_point_fails(self, monkeypatch, capsys):
        # `_responses` is where the spectrum and chi_total get chi3.
        responses = response._responses

        def chi3_nan_at_second_point(omega, p, arithmetic):
            chi, aux = responses(omega, p, arithmetic)
            aux = np.array(aux)
            aux.flat[1] = np.nan
            return chi, aux

        monkeypatch.setattr(response, "_responses", chi3_nan_at_second_point)
        assert cli.main(["selftest"]) == 3
        # The invariant's worst is NaN, not the largest finite deviation.
        output = capsys.readouterr().out
        assert "FAIL  response interference identity  worst=nan bound=1e-12 points=200" in output

    def test_deviation_above_bound_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(reduction, "minimum_coupled_bound", lambda kappa, kappa3: kappa / 8.0)
        assert cli.main(["selftest"]) == 3
        output = capsys.readouterr().out
        assert "FAIL  coupled stability bound enlargement  worst=2 " in output
        assert output.count("FAIL") == 1
        assert output.endswith("1 check(s) failed\n")


class TestExitCodes:
    def test_unknown_key_in_config(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + "mystery = 4\n")
        rc = cli.main(["limit", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n_th", ["nan", "inf", "-3"])
    def test_invalid_n_th_exits_2(self, tmp_path, capsys, n_th):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + f"n_th = {n_th}\n")
        out = tmp_path / "o.csv"
        rc = cli.main(["limit", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "n_th must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["limit", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
