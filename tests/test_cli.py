"""CLI tests: subcommands, CSV discipline, presets, determinism, exit codes."""

import functools
import math
import re
import struct
import tracemalloc
import warnings

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


def column(*cells, dtype=None):
    return np.array(cells, dtype=dtype)


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cli.emit_csv(cli._Rows([[column(dtype=float), column(dtype=float)]], 0), ["a", "b"], out)
        assert out.read_text() == "a,b\n"

    def test_nan_written_literally(self, tmp_path):
        out = tmp_path / "nan.csv"
        table = cli._Rows([[column(math.nan), column("not_cooling", dtype=object)]], 1)
        cli.emit_csv(table, ["n_f", "flag"], out)
        assert out.read_text().splitlines()[1] == "nan,not_cooling"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        values = list(rng.uniform(-1, 1, 50)) + [1e-300, 1e300, 2.0 / 3.0]
        out = tmp_path / "rt.csv"
        cli.emit_csv(cli._Rows([[np.array(values)]], len(values)), ["x"], out)
        _, rows = read_csv(out)
        for original, row in zip(values, rows):
            assert float(row[0]) == original  # exact, not approx

    def test_duplicate_columns_rejected(self, tmp_path):
        with pytest.raises(Exception):
            cli.emit_csv(cli._Rows([], 0), ["x", "x"], tmp_path / "dup.csv")

    def test_cell_text_per_dtype(self, tmp_path):
        # float64, bool, object and unicode string columns, one-row blocks too.
        out = tmp_path / "types.csv"
        floats = column(0.1, 1 / 3, -0.0, math.inf)
        flags = column(True, False, True, False)
        table = cli._Rows([
            [floats, flags, column("ok", "unstable", "%s", "", dtype=object), column(*"abcd")],
            [column(2.0), column(True), column("ill_conditioned"), column("ok", dtype=object)],
        ], 5)
        cli.emit_csv(table, ["a", "b", "c", "d"], out)
        assert out.read_text().splitlines()[1:] == [
            "0.10000000000000001,1,ok,a",
            "0.33333333333333331,0,unstable,b",
            "-0,1,%s,c",
            "inf,0,,d",
            "2,1,ill_conditioned,ok",
        ]

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex128, "datetime64[s]"])
    def test_other_dtypes_rejected(self, tmp_path, dtype):
        cells = np.zeros(2, dtype=dtype)
        with pytest.raises(cli.ValidationError, match=re.escape(f"dtype {np.dtype(dtype)}") + "$"):
            cli.emit_csv(cli._Rows([[cells]], len(cells)), ["x"], tmp_path / "d.csv")

    def test_column_count_checked(self, tmp_path):
        table = cli._Rows([[np.zeros(3), np.zeros(3)], [np.zeros(2)]], 5)
        with pytest.raises(cli.ValidationError, match="1 columns do not match schema width 2"):
            cli.emit_csv(table, ["x", "y"], tmp_path / "w.csv")

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        cli.emit_csv(cli._Rows([[column(1.0)]], 1), ["x"], out)
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
    "bool": st.booleans(),
    "str": st.one_of(
        st.sampled_from(["ok", "not_cooling", "unstable", "ill_conditioned", "%s", "%%"]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n")),
    ),
}
# The text of one cell of each kind of column.
CELL_TEXT = {
    "float": "%.17g".__mod__, "zeros": "%.17g".__mod__, "bool": "01".__getitem__, "str": str,
}


SIGNED_ZEROS = [0.0, -0.0]
NANS = [math.nan, float64(0x7FF8000000000001), float64(0xFFF4000000000000)]
# A float column's cells come from a small pool, so a slice may repeat
# values; one column always mixes signed zeros and NaNs of several payloads.
FLOAT_POOLS = {
    "float": st.lists(FLOAT64, min_size=1, max_size=4),
    "zeros": st.sampled_from([SIGNED_ZEROS, SIGNED_ZEROS + NANS]),
}
# Array dtype of each kind's column.
DTYPES = {"float": np.float64, "zeros": np.float64, "bool": bool, "str": object}


@st.composite
def tables(draw):
    """(schema, the cell texts of each row, and the rows as a `_Rows` table
    of blocks of unequal length)."""
    kinds = draw(st.lists(st.sampled_from(sorted(DTYPES)), min_size=1, max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), "zeros")
    cells = [
        st.sampled_from(draw(FLOAT_POOLS[kind])) if kind in FLOAT_POOLS else CELLS[kind]
        for kind in kinds
    ]
    rows = draw(st.lists(st.tuples(*cells), max_size=16))
    columns = [
        np.array([row[k] for row in rows], dtype=DTYPES[kind]) for k, kind in enumerate(kinds)
    ]
    cuts = [0] + sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3))) + [len(rows)]
    blocks = [[column[a:b] for column in columns] for a, b in zip(cuts, cuts[1:])]
    text = [[CELL_TEXT[kind](cell) for kind, cell in zip(kinds, row)] for row in rows]
    return [f"c{k}" for k in range(len(kinds))], text, cli._Rows(blocks, len(rows))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_rows_match_per_cell_formatting(tmp_path, table):
    """The CSV writer writes the bytes of formatting each cell by its
    column's dtype and joining them, for float64 bit patterns (NaN
    payloads, +-inf, +-0, subnormals), bool and str cells.  Blocks are of
    unequal length, and float columns repeat values from small pools, so
    blocks with few and with many distinct values both occur."""
    schema, text, rows = table
    expected = ",".join(schema) + "\n" + "".join(",".join(cells) + "\n" for cells in text)
    out = tmp_path / "table.csv"
    cli.emit_csv(rows, schema, out)
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("argv, count", [
    *(([name], 1) for name in ("rates", "limit", "stability", "effective", "oracle")),
    (["spectrum", "--axis1", "omega:-1:1:5:lin"], 5),
    (["sweep", "--axis1", "kappa:10:100:3:log",
      "--axis2", "Omega_m:0.1:0.3:4:lin", "--quantity", "n_f,stable", "--dual"], 12),
    (["figure", "--id", "fig5b"], 200),
    (["spectrum", "--axis1", "omega:-3:3:5000:lin"], 5000),
    (["sweep", "--axis1", "kappa:10:100:50:log",
      "--axis2", "Omega_m:0.1:0.3:50:lin", "--quantity", "n_f,stable", "--dual"], 2500),
])
def test_emit_csv_row_count_is_data_lines(config_path, tmp_path, monkeypatch, argv, count):
    """`len(rows)` of the table handed to `emit_csv`, which the traced
    benchmark reports as `cli.emit_csv.rows`, is the number of data lines
    written, before and after the write, for every point subcommand,
    `oracle`, `spectrum`, a sweep and a figure; the 5,000-point spectrum and
    the 50 x 50 sweep are evaluated block by block as they are written."""
    emit, counts = cli.emit_csv, []

    def counting(rows, schema, path):
        counts.append(len(rows))
        emit(rows, schema, path)
        counts.append(len(rows))

    monkeypatch.setattr(cli, "emit_csv", counting)
    out = tmp_path / "out.csv"
    config = [] if argv[0] == "figure" else ["--config", config_path]
    assert cli.main(argv + config + ["--out", str(out)]) == 0
    assert counts == [count, count]
    assert len(out.read_text().splitlines()) == count + 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--axis1", "omega:-1:1:5:lin"],
    *([name] for name in ("rates", "limit", "stability", "effective", "oracle")),
    ["sweep", "--axis1", "kappa:10:100:3:log", "--quantity", "n_f,A_minus", "--dual"],
    *(["figure", "--id", fig] for fig in sorted(cli.FIGURE_PRESETS)),
], ids=lambda argv: argv[-1] if argv[0] == "figure" else argv[0])
def test_every_product_goes_through_the_evaluator(config_path, tmp_path, monkeypatch, argv):
    """Every CSV product takes its values from `evaluate_quantities`: it is
    called, and the spectrum and rate functions are reached only from
    inside it."""
    evaluate, state = cli.evaluate_quantities, {"calls": 0, "inside": False}

    def counting(*args, **kwargs):
        state["calls"] += 1
        state["inside"] = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            state["inside"] = False

    def inside_only(fn):
        def guarded(*args, **kwargs):
            assert state["inside"], f"{fn.__name__} called outside the evaluator"
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(cli, "evaluate_quantities", counting)
    monkeypatch.setattr(response, "s_ff", inside_only(response.s_ff))
    monkeypatch.setattr(cooling, "net_rate", inside_only(cooling.net_rate))
    config = [] if argv[0] == "figure" else ["--config", config_path]
    assert cli.main(argv + config + ["--out", str(tmp_path / "out.csv")]) == 0
    assert state["calls"] > 0


@pytest.mark.parametrize("axes, columns, message", [
    pytest.param([cli.Axis("kappa", 1.0, 2.0, 5, "lin")], [("S", "S_ff", 0)],
                 "quantity S_ff requires an `omega` axis", id="S_ff-without-omega"),
    pytest.param([cli.Axis("omega", -1.0, 1.0, 5, "lin")], [("n_f", "n_f", 0)],
                 "an `omega` axis is read only by the quantity S_ff", id="omega-without-S_ff"),
    pytest.param([cli.Axis("omega", -1.0, 1.0, 10**12, "lin")], [("S", "S_ff", 0)],
                 f"grid of {10**12} points exceeds the limit of", id="cap"),
])
def test_tabulate_refuses_before_series(axes, columns, message):
    """`tabulate` refuses a table it cannot make before `series` is called."""
    def series(point):
        raise AssertionError("a refused table called its series")

    with pytest.raises(cli.ValidationError, match=re.escape(message)):
        cli.tabulate(axes, series, columns)


def test_oracle_solves_once(config_path, tmp_path, monkeypatch):
    """One `oracle` run makes one `oracle_compare`, so one cooling limit,
    one Lyapunov solve and one eigen-decomposition: its `stable` column
    reads that solve's verdict."""
    calls = {}

    def count(module, name):
        fn, calls[name] = getattr(module, name), 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(lyapunov, "oracle_compare")
    count(cooling, "cooling_limit")
    count(lyapunov, "solve_steady")
    count(lyapunov, "eigen_stable")
    out = tmp_path / "oracle.csv"
    assert cli.main(["oracle", "--config", config_path, "--out", str(out)]) == 0
    assert calls == dict.fromkeys(calls, 1)
    assert read_csv(out)[1][0][-1] == "1"


@pytest.mark.parametrize("error, rc", [(RuntimeError, None), (KeyboardInterrupt, None), (OSError, 2)])
def test_failed_write_keeps_the_old_file(config_path, tmp_path, monkeypatch, error, rc):
    """A 5,000-point sweep that fails in its second block leaves an
    existing output file byte-identical, and no partial file beside it."""
    evaluate, calls = cli.evaluate_quantities, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error("second block")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_quantities", failing)
    out = tmp_path / "out.csv"
    out.write_bytes(b"kappa,n_f,flag\n1,2,ok\n")
    argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "n_f",
            "--axis1", "kappa:1:1000:100:log", "--axis2", "Omega_m:0.1:1:50:lin"]
    if rc is None:
        with pytest.raises(error):
            cli.main(argv)
    else:
        assert cli.main(argv) == rc
    assert len(calls) == 2
    assert out.read_bytes() == b"kappa,n_f,flag\n1,2,ok\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "preset.cfg"]


def test_directory_out_exits_2_before_evaluating(config_path, tmp_path, monkeypatch, capsys):
    """An `--out` that is a directory is refused before any point is evaluated."""
    def evaluated(*args, **kwargs):
        raise AssertionError("evaluate_quantities called")

    monkeypatch.setattr(cli, "evaluate_quantities", evaluated)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "n_f,n_lyapunov",
            "--axis1", "kappa:1:1000:200:log", "--axis2", "Omega_m:0.1:1:100:lin"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: [Errno 21] Is a directory: '{out}'\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "preset.cfg"]


def test_unwritable_sidecar_keeps_the_old_csv(tmp_path, capsys):
    """`figure` commits its sidecar before its CSV: a sidecar path that is a
    directory exits 2 naming it, and an existing CSV keeps its bytes."""
    (tmp_path / "fig.gp").mkdir()
    out = tmp_path / "fig.csv"
    out.write_bytes(b"kappa\n1\n")
    assert cli.main(["figure", "--id", "fig5b", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and f"{tmp_path / 'fig.gp'}" in err
    assert out.read_bytes() == b"kappa\n1\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fig.csv", "fig.gp"]


def test_failed_figure_keeps_the_old_pair(tmp_path, monkeypatch):
    """fig4b (61 x 121 points, 4 blocks) failing in its second block leaves
    an existing CSV and sidecar byte-identical, and no partial file."""
    out = tmp_path / "fig4b.csv"
    assert cli.main(["figure", "--id", "fig4b", "--out", str(out)]) == 0
    old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    evaluate, calls = cli.evaluate_quantities, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_quantities", failing)
    with pytest.raises(RuntimeError):
        cli.main(["figure", "--id", "fig4b", "--out", str(out)])
    assert len(calls) == 2
    assert sorted(old) == ["fig4b.csv", "fig4b.gp"]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old


@pytest.mark.parametrize("error, rc", [(RuntimeError, None), (OSError, 2)])
def test_failed_figure_keeps_another_figures_pair(tmp_path, monkeypatch, capsys, error, rc):
    """fig4b failing in its second block over fig5b's CSV and sidecar keeps
    both of fig5b's files; an OSError names the CSV once."""
    out = tmp_path / "fig.csv"
    assert cli.main(["figure", "--id", "fig5b", "--out", str(out)]) == 0
    old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    evaluate, calls = cli.evaluate_quantities, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error("second block")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_quantities", failing)
    argv = ["figure", "--id", "fig4b", "--out", str(out)]
    if rc is None:
        with pytest.raises(error):
            cli.main(argv)
    else:
        assert cli.main(argv) == rc
        assert capsys.readouterr().err == f"error: cannot write {out}: second block\n"
    assert len(calls) == 2
    assert sorted(old) == ["fig.csv", "fig.gp"]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old


def test_sweep_memory_does_not_grow_with_grid(config_path, tmp_path):
    """A sweep holds one block of its table at a time: the traced peak of a
    40,000-point sweep is at most 1.5 times that of a 4,000-point one."""
    def peak(count1, count2):
        argv = [
            "sweep", "--config", config_path, "--out", str(tmp_path / "mem.csv"),
            "--axis1", f"kappa:1:1000:{count1}:log", "--axis2", f"delta3:-0.5:2:{count2}:lin",
            "--quantity", "n_f,Gamma_opt,margin_coupled,eta", "--dual", "--preset-coupling",
        ]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4, 4)  # builds the parser and numpy's lazy state outside the measurement
    small, large = peak(80, 50), peak(200, 200)
    assert large <= 1.5 * small, (small, large)


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

    def test_rejects_non_omega_axis(self, config_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([
            "spectrum", "--config", config_path, "--out", str(out),
            "--axis1", "kappa:1:2:5:lin",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: quantity S_ff requires an `omega` axis\n"
        assert not out.exists()

    def test_grid_size_cap(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "capped.csv"
        argv = [
            "spectrum", "--config", config_path, "--out", str(out),
            "--axis1", "omega:-3:3:12:lin",
        ]
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
        assert cli.main(argv) == 2
        assert "grid of 12 points exceeds the limit of 11 points" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 12)
        assert cli.main(argv) == 0
        assert len(read_csv(out)[1]) == 12

    def test_grid_cap_precedes_allocation(self, config_path, tmp_path, capsys):
        # A 10^12-point grid would take 7.28 TiB: were it made before the
        # cap is checked, numpy would raise MemoryError and the command exit 1.
        out = tmp_path / "huge.csv"
        argv = ["spectrum", "--config", config_path, "--out", str(out)]
        assert cli.main(argv + ["--axis1", "omega:-3:3:1000000000000:lin"]) == 2
        assert capsys.readouterr().err == (
            f"error: grid of {10**12} points exceeds the limit of {cli.MAX_SWEEP_POINTS} points\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("delta2p, stable, margin", [
        ("1e120", "0", "-inf"), ("-1e120", "1", "inf"),
    ])
    def test_stability_single_overflow_is_silent(self, tmp_path, delta2p, stable, margin):
        # The inequality overflows to an infinite margin of its own sign.
        config = tmp_path / "far.cfg"
        config.write_text(
            CONFIG.replace("delta2p = 66.666666666666667", f"delta2p = {delta2p}")
            .replace("J = 10", "J = 0")
        )
        out = tmp_path / "stab.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["stability", "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["stable"], row["margin"]) == (stable, margin)

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
        # Nothing is written at exit 3: an existing file keeps its bytes.
        out.write_bytes(b"kappa\n1\n")
        rc = cli.main(["oracle", "--config", str(config), "--out", str(out), "--single-cavity"])
        assert rc == 3
        assert out.read_bytes() == b"kappa\n1\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["edge.cfg", "oracle.csv"]


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

    @pytest.mark.parametrize("count", ["2.5", "1e3", "1_0", "\u0665", "+5", " 5"])
    def test_non_integer_axis_count_is_named(self, config_path, tmp_path, capsys, count):
        axis = f"kappa:1:10:{count}:log"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"),
            "--axis1", axis, "--quantity", "n_f",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: axis count must be an integer, got {count!r} in {axis!r}\n"
        )

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
        pytest.param(["--axis1", "kappa:10:100:3:log", "--quantity", "n_f,n_f"],
                     "quantity 'n_f' is given twice", id="duplicate-quantity"),
        pytest.param(["--axis1", "omega:-3:3:4:lin", "--quantity", "n_f,Gamma_opt"],
                     "an `omega` axis is read only by the quantity S_ff", id="omega-without-S_ff"),
        pytest.param(["--axis1", "kappa:10:100:3:log", "--quantity", "S_ff"],
                     "quantity S_ff requires an `omega` axis", id="S_ff-without-omega"),
        # Gridding 10^12 points would raise MemoryError (exit 1): the cap comes first.
        pytest.param(["--axis1", "kappa:1:10:1000000000000:log"],
                     f"grid of {10**12} points exceeds the limit of {cli.MAX_SWEEP_POINTS} points",
                     id="grid-cap"),
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

    @pytest.mark.parametrize("axes", [
        pytest.param(["--axis1", "kappa:1:10:3:log", "--axis2", "delta3:-2:0:5:lin"],
                     id="first-block"),
        # 2,460 points; delta3 = -1 first comes at row 2,400, in the second block.
        pytest.param(["--axis1", "delta3:-0.5:-1:41:lin", "--axis2", "kappa:1:10:60:log"],
                     id="second-block"),
    ])
    def test_preset_coupling_pole_exits_2_before_writing(
        self, config_path, tmp_path, monkeypatch, capsys, axes
    ):
        # delta2p = J^2/(delta3 + 1) is not finite at delta3 = -1: the sweep
        # exits 2 without a warning, before any point is evaluated, and an
        # existing output file keeps its bytes.
        def evaluate(*args, **kwargs):
            raise AssertionError("an invalid sweep evaluated a point")

        monkeypatch.setattr(cli, "evaluate_quantities", evaluate)
        out = tmp_path / "x.csv"
        out.write_bytes(b"kappa,n_f,flag\n1,2,ok\n")
        argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "n_f"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + axes + ["--preset-coupling"])
        assert rc == 2
        assert capsys.readouterr().err == "error: delta2p must be finite\n"
        assert out.read_bytes() == b"kappa,n_f,flag\n1,2,ok\n"

    @pytest.mark.parametrize("preset_coupling, dual, builds", [
        (False, False, 1), (True, False, 2), (False, True, 2), (True, True, 3),
    ])
    def test_parameters_built_once_per_series_and_block(
        self, config_path, monkeypatch, preset_coupling, dual, builds
    ):
        # A block that sweeps fields builds each series' parameters once:
        # --preset-coupling builds the point and then sets its detuning, and
        # --dual adds the companion.  Unswept fields stay scalars.
        init, built = params.NormalizedParams.__init__, []

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli, "tabulate", lambda axes, series, columns: series)
        base = params.load_config(config_path)
        axes = [cli.parse_axis("kappa:1:1000:5:log"), cli.parse_axis("Omega_m:0.1:1:5:lin")]
        series = cli.run_sweep(base, axes, ("n_f",), dual, preset_coupling)
        point = {axis.name: axis.grid() for axis in axes}
        monkeypatch.setattr(params.NormalizedParams, "__init__", counted)
        ps = series(point)
        assert len(built) == builds and len(ps) == 1 + dual
        assert ps[0].kappa is point["kappa"] and ps[0].gamma == base.gamma
        assert type(ps[0].gamma) is float

    def test_swept_parameter_shapes(self, config_path, monkeypatch):
        # A J axis gives SweptJ points whose other fields stay scalars, and
        # a companion that is one point, evaluated once.  Only over an omega
        # axis is a one-point series broadcast to the block, so S_ff keeps its
        # block arithmetic.
        monkeypatch.setattr(cli, "tabulate", lambda axes, series, columns: series)
        base = params.load_config(config_path)
        shapes = {}
        for spec in ("J:0.5:15:5:lin", "omega:-3:3:7:lin"):
            axis = cli.parse_axis(spec)
            series = cli.run_sweep(base, [axis], ("n_f",), True, False)
            shapes[axis.name] = [
                (type(p), {k: np.shape(getattr(p, k)) for k in params.RATE_KEYS})
                for p in series({axis.name: axis.grid()})
            ]
        scalars = dict.fromkeys(params.RATE_KEYS, ())
        assert shapes["J"] == [(params.SweptJ, scalars | {"J": (5,)}), (params.SweptJ, scalars)]
        block = (params.NormalizedParams, dict.fromkeys(params.RATE_KEYS, (7,)))
        assert shapes["omega"] == [block, block]

    def test_companion_keeps_block_arithmetic(self, config_path, tmp_path):
        # Over J and omega the --dual companion is one point: each of its
        # S_ff cells is that point's scalar evaluation at the row's omega,
        # not the spectrum arithmetic of a point over an omega grid.
        out = tmp_path / "s.csv"
        argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "S_ff",
                "--dual", "--axis1", "J:1:10:3:lin", "--axis2", "omega:-3:3:101:lin"]
        assert cli.main(argv) == 0
        single = cli._single_cavity(params.load_config(config_path))
        rows = read_csv(out)[1]
        assert [float(row[3]) for row in rows] == [response.s_ff(float(row[1]), single)
                                                   for row in rows]

    def test_unswept_quantity_flags_broadcast(self, config_path, tmp_path):
        # n_th enters n_f but not the rates, whose not_cooling mask is then
        # one value for the block; each row is the point's own evaluation.
        out = tmp_path / "n_th.csv"
        argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", "Gamma_opt,n_f"]
        assert cli.main(argv + ["--axis1", "n_th:0:5:3:lin"]) == 0
        base = params.load_config(config_path)
        for row, n_th in zip(read_csv(out)[1], (0.0, 2.5, 5.0)):
            report = cooling.cooling_limit(base.replace(n_th=n_th))
            assert [float(cell) for cell in row[:3]] == [n_th, report.Gamma_opt, report.n_f]
            assert row[3] == "ok"

    @pytest.mark.parametrize("axis", ["J:0.05:15:5:lin", "delta2p:-300:300:5:lin"])
    def test_dual_companion_is_evaluated_as_one_point(self, config_path, tmp_path, monkeypatch,
                                                      axis):
        # Over a J or delta2p axis the --dual companion is one point: each
        # block evaluates it once, as a point, and each of its cells is that
        # point's own evaluation.
        evaluate, shapes = cli.evaluate_quantities, []

        def recorded(p, names, omega=None):
            shapes.append(p.shape)
            return evaluate(p, names, omega)

        monkeypatch.setattr(cli, "evaluate_quantities", recorded)
        monkeypatch.setattr(cli, "BLOCK_POINTS", 2)
        quantities = [q for q in cli.QUANTITIES if q != "S_ff"]
        out = tmp_path / "dual.csv"
        argv = ["sweep", "--config", config_path, "--out", str(out), "--axis1", axis,
                "--quantity", ",".join(quantities), "--dual"]
        assert cli.main(argv) == 0
        assert shapes == [(2,), (), (2,), (), (1,), ()]
        header, rows = read_csv(out)
        values, _ = evaluate(cli._single_cavity(params.load_config(config_path)), quantities)
        for q in quantities:
            cell = ("%d" if type(values[q]) is bool else "%.17g") % values[q]
            assert [row[header.index(q + "_single")] for row in rows] == [cell] * 5, q

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(keys=st.sets(st.sampled_from(params.RATE_KEYS), min_size=1),
           size=st.integers(1, 4), data=st.data())
    def test_values_and_masks_take_the_shape_of_the_fields_read(self, keys, size, data):
        # A block that sweeps only some fields gives each value and mask the
        # shape of the fields it reads: () where those are scalars, else the
        # block's, never a padded (1,).
        base = params.parse_config(CONFIG)
        factors = st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size)
        p = base.replace(**{k: getattr(base, k) * np.array(data.draw(factors)) for k in keys})
        values, conditions = cli.evaluate_quantities(
            p, [q for q in cli.QUANTITIES if q != "S_ff"]
        )
        for name, value in (values | conditions).items():
            assert np.shape(value) in ((), (size,)), name

    def test_one_effective_params_per_series_and_block(self, config_path, tmp_path, monkeypatch):
        # eta and the coupled verdict share one effective_params per series.
        shapes = []
        effective_params = reduction.effective_params

        def counted(p):
            shapes.append(p.shape)
            return effective_params(p)

        monkeypatch.setattr(reduction, "effective_params", counted)
        out = str(tmp_path / "e.csv")
        rc = cli.main([
            "sweep", "--config", config_path, "--out", out,
            "--axis1", "kappa:1:1000:50:log", "--axis2", "delta3:-0.5:2:60:lin",
            "--quantity", "n_f,Gamma_opt,margin_coupled,eta", "--dual", "--preset-coupling",
        ])
        assert rc == 0
        # 3,000 points: two blocks, each with a coupled and a single-cavity series.
        assert shapes == [(2048,), (2048,), (952,), (952,)]
        shapes.clear()
        assert cli.main(["stability", "--config", config_path, "--out", out]) == 0
        assert shapes == [()]

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

    @pytest.mark.parametrize("quantity, order", [
        ("n_f,n_lyapunov", ["not_cooling", "ill_conditioned", "unstable"]),
        ("n_lyapunov,n_f", ["ill_conditioned", "unstable", "not_cooling"]),
        # `stable` reads the solve that n_lyapunov needs, but the solve's
        # conditions are recorded where n_lyapunov is read.
        ("stable,n_f,n_lyapunov", ["not_cooling", "ill_conditioned", "unstable"]),
        ("stable,n_lyapunov,n_f", ["ill_conditioned", "unstable", "not_cooling"]),
    ])
    def test_conditions_come_in_the_order_found(self, config_path, tmp_path, quantity, order):
        # On the golden flag grid some rows are both not cooling and unstable.
        # The evaluator lists the conditions in the order it finds them, and
        # those rows' flag is the later condition.
        grid = ["--axis1", "delta2p:-80:80:5:lin", "--axis2", "Omega_m:0.1:2:3:lin"]
        delta2p, omega_m = (g.ravel() for g in np.meshgrid(
            *(cli.parse_axis(spec).grid() for spec in grid[1::2]), indexing="ij"))
        block = params.load_config(config_path).replace(delta2p=delta2p, Omega_m=omega_m)
        _, conditions = cli.evaluate_quantities(block, quantity.split(","))
        assert list(conditions) == order
        both = conditions["not_cooling"] & conditions["unstable"]
        assert both.any()
        out = tmp_path / "flags.csv"
        argv = ["sweep", "--config", config_path, "--out", str(out), "--quantity", quantity]
        assert cli.main(argv + grid) == 0
        flags = np.array([row[-1] for row in read_csv(out)[1]])
        assert set(flags[both]) == {order[-1]}

    def test_sweep_size_cap(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "capped.csv"
        argv = [
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "kappa:10:100:4:log", "--axis2", "Omega_m:0.1:0.3:3:lin",
            "--quantity", "n_f",
        ]
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
        assert cli.main(argv) == 2
        assert "grid of 12 points exceeds the limit of 11 points" in capsys.readouterr().err
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
        presets = cli.FIGURE_PRESETS
        # Spectrum presets: delta3 = 0.5, kappa = 100, kappa3 = 1, J = sqrt(kappa),
        # Omega_m = 5, on a wide and a detail omega window.
        spectrum = dict(delta3=0.5, kappa=100.0, kappa3=1.0, J=math.sqrt(100.0), Omega_m=5.0,
                        gamma=1e-5, build=cli._spectra)
        wide = (cli.Axis("omega", -300.0, 300.0, 4001, "lin"),)
        detail = (cli.Axis("omega", -30.0, 30.0, 6001, "lin"),)
        for figs, delta2p in (("ab", 100.0), ("cd", 0.0), ("ef", -100.0)):
            for fig, axes in zip(figs, (wide, detail)):
                assert presets[f"fig3{fig}"] == dict(spectrum, delta2p=delta2p, axes=axes)
        # Cooling presets: Omega_m = 1/4, gamma = 1e-5.
        for fig in ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"):
            preset = presets[fig]
            assert preset["delta3"] == 0.5
            assert preset["kappa3"] == 1.0
            assert preset["Omega_m"] == 0.25
            assert preset["gamma"] == 1e-5
        rate_map = (
            cli.Axis("kappa", 1.0, 1000.0, 61, "log"), cli.Axis("ratio", -3.0, 3.0, 121, "lin"),
        )
        for fig, single in (("fig4a", True), ("fig4b", False)):
            assert presets[fig]["axes"] == rate_map
            assert presets[fig]["single"] is single
        recoil = functools.partial(params.recoil_heating, epsilon=2.0, wavelength=1e-6)
        for fig in ("fig5a", "fig5b", "fig6b"):
            assert presets[fig]["gamma_sc"] == pytest.approx(recoil(50e-9))
        assert presets["fig5a"]["delta2p"] == 1.0
        assert presets["fig5a"]["couple"] is cli._kappa_j_squared
        assert presets["fig5a"]["axes"] == (cli.Axis("J", 0.05, 15.0, 300, "lin"),)
        kappa = (cli.Axis("kappa", 1.0, 1000.0, 200, "log"),)
        radii, kappas = (40.0, 50.0, 60.0), (10.0, 50.0, 100.0)
        curves = {
            "fig5b": (kappa, True, (("coupled", {}),)),
            "fig6a": (kappa, False, tuple(
                (f"r{r:g}nm", {"gamma_sc": recoil(r * 1e-9)}) for r in radii)),
            "fig6b": ((cli.Axis("kappa3", 0.05, 10.0, 200, "log"),), False,
                      tuple((f"kappa{k:g}", {"kappa": k}) for k in kappas)),
        }
        assert presets["fig5a"]["curves"] == curves["fig5b"][2]
        for fig, (axes, dual, fig_curves) in curves.items():
            preset = presets[fig]
            assert preset["couple"] is cli._preset_coupled
            assert (preset["axes"], preset["dual"], preset["curves"]) == (axes, dual, fig_curves)

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

    @pytest.mark.parametrize("preset_id", ["fig5b", "fig6a", "fig6b"])
    def test_preset_coupled_curves_are_sweeps(self, tmp_path, preset_id):
        """Each curve of a preset-coupled figure is `sweep --preset-coupling`
        over the figure's axis, at the preset's fields with the curve's
        changes, read from the registry."""
        figure = tmp_path / f"{preset_id}.csv"
        assert cli.main(["figure", "--id", preset_id, "--out", str(figure)]) == 0
        fig_header, fig_rows = read_csv(figure)
        preset = cli.FIGURE_PRESETS[preset_id]
        (axis,) = preset["axes"]
        spec = f"{axis.name}:{axis.lo!r}:{axis.hi!r}:{axis.count}:{axis.scale}"
        for label, changes in preset["curves"]:
            header, rows = self._preset_sweep(
                tmp_path, preset | changes, f"sweep_{label}",
                ["--axis1", spec, "--quantity", "n_f"],
            )
            assert header == [axis.name, "n_f", "flag"]
            n_f = fig_header.index(f"n_f_{label}")
            assert fig_header[n_f + 1] == f"flag_{label}"
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


SUBCOMMAND_HELP = {
    "spectrum": "force noise spectrum on a frequency grid",
    "rates": "cooling and heating rates at one parameter point",
    "limit": "steady-state phonon limit at one parameter point",
    "stability": "closed-form stability verdict",
    "effective": "effective two-mode parameters",
    "oracle": "perturbative formula vs Lyapunov covariance solve",
    "sweep": "parameter sweep over one or two axes",
    "figure": "figure-preset data set plus gnuplot sidecar",
    "selftest": "run the built-in invariant suite",
}


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    def test_subcommands_in_order_with_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
        text = help_text([], capsys)
        assert "{" + ",".join(SUBCOMMAND_HELP) + "}" in text
        assert re.findall(r"(?m)^    (\S+) +(\S.*)$", text) == list(SUBCOMMAND_HELP.items())

    @pytest.mark.parametrize("name", ["rates", "limit", "stability", "effective", "oracle"])
    def test_point_subcommand_options(self, capsys, name):
        text = help_text([name], capsys)
        assert set(re.findall(r"--[\w-]+", text)) == {
            "--help", "--config", "--out", "--single-cavity",
        }


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

    @pytest.mark.parametrize("key, value", [("Omega_m", "1e308"), ("J", "1e200")])
    @pytest.mark.parametrize("argv", [
        ["oracle"], ["limit"], ["stability"], ["spectrum"],
        ["sweep", "--axis1", "kappa:1:10:3:log", "--quantity", "stable,max_real_eig,n_lyapunov"],
    ], ids=lambda argv: argv[0])
    def test_huge_finite_parameter_exits_2(self, tmp_path, capsys, key, value, argv):
        # Above sqrt(float max) the square of a field overflows; the point is
        # rejected by name before anything is evaluated.
        config = tmp_path / "huge.cfg"
        config.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", CONFIG))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + ["--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be at most 1.341e+154 in magnitude, got {float(value)}\n"
        )
        assert not out.exists()

    def test_huge_axis_value_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli.main([
            "sweep", "--config", config_path, "--out", str(out),
            "--axis1", "Omega_m:0.1:1e200:5:log", "--quantity", "n_f,stable,max_real_eig",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: Omega_m must be at most 1.341e+154 in magnitude, got 1e+200\n"
        )
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        out = tmp_path / "o.csv"
        rc = cli.main(["limit", "--config", str(config), "--out", str(out)])
        assert rc == 2
        offset = len(CONFIG.encode()) + len("# caf")
        assert capsys.readouterr().err == (
            f"error: {config}: byte 0xe9 at offset {offset} is not UTF-8\n"
        )
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["limit", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
