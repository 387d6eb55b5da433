"""The benchmark's output checks accept cavcool's outputs and reject altered ones.

Each test writes real outputs with `cavcool.cli.main` on small inputs, checks
that they pass, then alters one cell, swaps two columns or drops a row and
checks that the same check fails.
"""

import csv

import numpy as np
import pytest

import checks
import reference
import worker
import workloads

MODS = worker.import_cavcool()
CLI = MODS["cli"]

# Omega_m stops short of 5: the point kappa = 100, Omega_m = 5 lies on the
# single-cavity stability edge, where cavcool's sweep exits 3 (CHANGES.md, FOUND).
SWEEP = workloads.Sweep(
    base=dict(workloads.sweep_exact(0).base),
    axes=(workloads.Axis("kappa", 1.0, 1000.0, 7, "log"), workloads.Axis("Omega_m", 0.05, 4.0, 6, "log")),
    quantities=("n_f", "Gamma_opt", "margin_coupled", "eta", "n_lyapunov", "stable", "max_real_eig"),
)


def _write_config(path, params):
    path.write_text(workloads.config_text(params), encoding="utf-8")
    return str(path)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _save(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _perturb(path, column):
    """Change one cell of `column`: flip a 0/1 flag in the middle row, else scale
    the finite value of median magnitude by 1 + 1e-4."""
    rows = _rows(path)
    j = rows[0].index(column)
    cells = [float(r[j]) for r in rows[1:]]
    flag = set(cells) <= {0.0, 1.0}
    finite = sorted((abs(v), i) for i, v in enumerate(cells) if np.isfinite(v) and v != 0.0)
    i = finite[len(finite) // 2][1] if not flag else len(cells) // 2
    value = cells[i]
    rows[i + 1][j] = str(1.0 - value) if flag else repr(value * (1.0 + 1e-4))
    _save(path, rows)


def _swap(path, a, b):
    rows = _rows(path)
    i, j = rows[0].index(a), rows[0].index(b)
    for row in rows:
        row[i], row[j] = row[j], row[i]
    rows[0][i], rows[0][j] = rows[0][j], rows[0][i]  # data swapped, names kept
    _save(path, rows)


def _drop(path):
    rows = _rows(path)
    del rows[len(rows) // 2]
    _save(path, rows)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    out = tmp / "sweep.csv"
    assert CLI.main(SWEEP.argv(_write_config(tmp / "base.cfg", SWEEP.base), str(out))) == 0
    return out.read_bytes()


@pytest.fixture
def sweep_file(tmp_path, sweep_csv):
    path = tmp_path / "sweep.csv"
    path.write_bytes(sweep_csv)
    return path


def test_sweep_output_passes(sweep_file):
    assert checks.check_sweep(SWEEP, sweep_file) == []
    stable = checks.numbers(checks.read_csv(sweep_file), "stable_coupled")
    assert 0 < stable.sum() < stable.size  # the grid crosses the stability edge


@pytest.mark.parametrize("column", [
    "kappa", "Omega_m",
    *(f"{q}_{s}" for q in SWEEP.quantities for s in ("coupled", "single")
      if f"{q}_{s}" != "margin_coupled_single"),  # +inf on every single-cavity row
])
def test_sweep_perturbed_cell_fails(sweep_file, column):
    _perturb(sweep_file, column)
    assert checks.check_sweep(SWEEP, sweep_file)


@pytest.mark.parametrize("a,b", [
    ("n_f_coupled", "n_f_single"),
    ("eta_coupled", "margin_coupled_coupled"),
    ("n_lyapunov_coupled", "n_f_coupled"),
    ("kappa", "Omega_m"),
])
def test_sweep_swapped_columns_fail(sweep_file, a, b):
    _swap(sweep_file, a, b)
    assert checks.check_sweep(SWEEP, sweep_file)


def test_sweep_dropped_row_fails(sweep_file):
    _drop(sweep_file)
    assert checks.check_sweep(SWEEP, sweep_file)


def test_sweep_extra_column_is_ignored(sweep_file):
    rows = _rows(sweep_file)
    _save(sweep_file, [row + [str(i)] for i, row in enumerate(rows)])
    assert checks.check_sweep(SWEEP, sweep_file) == []


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("figures")
    for fig in workloads.FIGURES:
        assert CLI.main(["figure", "--id", fig, "--out", str(tmp / f"{fig}.csv")]) == 0
    return tmp


def _figure(figure_dir, fig):
    return checks.check_figure(fig, str(figure_dir / f"{fig}.csv"), figure_dir / f"{fig}.gp")


@pytest.mark.parametrize("fig", sorted(workloads.FIGURES))
def test_figure_outputs_pass(figure_dir, fig):
    assert _figure(figure_dir, fig) == []


def _copy_figure(figure_dir, tmp_path, fig):
    """The figure's CSV and sidecar in tmp_path, the sidecar naming the copy."""
    csv_path = tmp_path / f"{fig}.csv"
    csv_path.write_bytes((figure_dir / f"{fig}.csv").read_bytes())
    sidecar = (figure_dir / f"{fig}.gp").read_text(encoding="utf-8")
    (tmp_path / f"{fig}.gp").write_text(sidecar.replace(str(figure_dir / f"{fig}.csv"), str(csv_path)))
    assert _figure(tmp_path, fig) == []
    return csv_path


@pytest.mark.parametrize("fig,column", [
    ("fig3b", "omega"), ("fig3b", "S_coupled"), ("fig3e", "S_single"),
    ("fig4a", "delta2p"), ("fig4b", "Gamma_opt"),
    ("fig5a", "n_f_coupled"), ("fig5b", "n_f_single"),
    ("fig6a", "n_f_r50nm"), ("fig6b", "n_f_kappa100"),
])
def test_figure_perturbed_cell_fails(figure_dir, tmp_path, fig, column):
    _perturb(_copy_figure(figure_dir, tmp_path, fig), column)
    assert _figure(tmp_path, fig)


@pytest.mark.parametrize("fig,a,b", [
    ("fig3d", "S_coupled", "S_single"),
    ("fig6a", "n_f_r40nm", "n_f_r60nm"),
])
def test_figure_swapped_columns_fail(figure_dir, tmp_path, fig, a, b):
    _swap(_copy_figure(figure_dir, tmp_path, fig), a, b)
    assert _figure(tmp_path, fig)


def test_figure_dropped_row_fails(figure_dir, tmp_path):
    _drop(_copy_figure(figure_dir, tmp_path, "fig5b"))
    assert _figure(tmp_path, "fig5b")


def test_sidecar_must_name_its_csv(figure_dir, tmp_path):
    sidecar = tmp_path / "fig5a.gp"
    sidecar.write_text((figure_dir / "fig5a.gp").read_text().replace("fig5a.csv", "other.csv"))
    assert checks.check_figure("fig5a", str(figure_dir / "fig5a.csv"), sidecar)


POINT = workloads.points(7, count=1)[0]


@pytest.fixture(scope="module")
def point_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("point")
    config = _write_config(tmp / "p.cfg", POINT)
    for sub in workloads.POINT_SUBCOMMANDS:
        assert CLI.main([sub, "--config", config, "--out", str(tmp / f"{sub}.csv")]) == 0
    return tmp


@pytest.mark.parametrize("sub", workloads.POINT_SUBCOMMANDS)
def test_point_outputs_pass(point_dir, sub):
    assert checks.check_point_csv(sub, point_dir / f"{sub}.csv", POINT) == []


@pytest.mark.parametrize("sub,column", [
    ("rates", "A_minus"), ("rates", "A_plus"), ("rates", "Gamma_opt"), ("rates", "kappa"),
    ("limit", "n_q"), ("limit", "n_c"), ("limit", "n_f"),
    ("stability", "eta"), ("stability", "margin"), ("stability", "stable"),
    ("effective", "Delta_eff"), ("effective", "kappa_eff"), ("effective", "regime_ok"),
    ("oracle", "n_f_formula"), ("oracle", "n_lyapunov"), ("oracle", "rel_dev"), ("oracle", "stable"),
])
def test_point_perturbed_cell_fails(point_dir, tmp_path, sub, column):
    path = tmp_path / f"{sub}.csv"
    path.write_bytes((point_dir / f"{sub}.csv").read_bytes())
    _perturb(path, column)
    assert checks.check_point_csv(sub, path, POINT)


def test_point_swapped_columns_fail(point_dir, tmp_path):
    path = tmp_path / "limit.csv"
    path.write_bytes((point_dir / "limit.csv").read_bytes())
    _swap(path, "A_minus", "A_plus")
    assert checks.check_point_csv("limit", path, POINT)


def test_point_dropped_row_fails(point_dir, tmp_path):
    path = tmp_path / "rates.csv"
    path.write_bytes((point_dir / "rates.csv").read_bytes())
    _save(path, _rows(path)[:1])
    assert checks.check_point_csv("rates", path, POINT)


@pytest.mark.parametrize("objective", workloads.OPTIMIZER_OBJECTIVES)
def test_optimum_check(objective):
    p = MODS["params"].NormalizedParams(**POINT)
    delta = MODS["cooling"].optimal_detuning(p, mode="numeric", objective=objective)
    assert checks.check_optimum(objective, delta, POINT) == []
    assert checks.check_optimum(objective, delta + 0.05 * POINT["kappa"], POINT)


def test_oracle_report_check():
    import dataclasses

    report = dataclasses.asdict(MODS["lyapunov"].oracle_compare(MODS["params"].NormalizedParams(**POINT)))
    assert checks.check_oracle_report(report, POINT) == []
    report["n_lyapunov"] *= 1.0 + 1e-4
    assert checks.check_oracle_report(report, POINT)


def test_reference_drift_matches_the_documented_limits():
    # Omega_m = 0: the sphere decouples and n = n_th + gamma_sc / gamma.
    p = dict(POINT, Omega_m=0.0)
    assert reference.n_lyapunov(p) == pytest.approx(p["n_th"] + p["gamma_sc"] / p["gamma"], rel=1e-9)
    # J = 0: the spectrum is the single-cavity Lorentzian.
    omega = np.linspace(-3.0, 3.0, 61)
    single = dict(POINT, J=0.0)
    np.testing.assert_allclose(reference.spectrum(omega, single), reference.lorentzian(omega, single), rtol=1e-12)


def test_seeds_move_values_not_sizes():
    a, b = workloads.sweep_closed(1), workloads.sweep_closed(2)
    assert a.rows() == b.rows() == 20000 and a.axes != b.axes
    assert workloads.points(1) != workloads.points(2)
    assert workloads.points(3) == workloads.points(3)
    assert sorted(workloads.figure_order(4)) == sorted(workloads.FIGURES)


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
