"""Checks of every workload's outputs against the benchmark's own computations.

CSV columns are found by header name, so a schema change that only adds
columns does not break a check.  Each check returns a list of problems; an
empty list means the output passed.  Closed-form columns are recomputed on
every row from the formulas in `reference`; `n_lyapunov` is recomputed with
scipy's Bartels-Stewart solver; axis columns must equal the `linspace` or
`geomspace` of their spec exactly; and the properties named in the README
(n_f = n_q + n_c, Lorentzian single-cavity spectrum, NaN exactly where
unstable, n_f rising with the sphere radius, optimiser no worse than a scan)
are tested where their columns appear.
"""

import csv
import json
from pathlib import Path

import numpy as np

import reference
import workloads

# Relative tolerance of a recomputed closed-form value: the benchmark evaluates
# the same formula in another order, which costs a few ulp per operation.
RTOL = 1e-10
# n_lyapunov: Bartels-Stewart against the package's solve, away from the edge.
LYAPUNOV_RTOL = 1e-7
# Rows whose drift has an eigenvalue this close to the axis are not judged.
EDGE = 1e-9
# optimal_detuning may be this much worse, relatively, than the best scan point.
OPTIMIZER_RTOL = 1e-9
OPTIMIZER_SCAN = 60001


def read_csv(path):
    """Columns of a CSV by header name, as lists of strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, header has {len(header)}")
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def numbers(table, name):
    return np.array([float(cell) for cell in table[name]])


def compare(problems, label, actual, expected, atol):
    """Elementwise |actual - expected| <= atol; NaN and inf must match exactly.

    Rows whose `atol` is inf are not judged.
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.broadcast_to(np.asarray(expected, dtype=float), actual.shape)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), actual.shape)
    with np.errstate(invalid="ignore"):
        same = (actual == expected) | (np.isnan(actual) & np.isnan(expected))
        close = np.abs(actual - expected) <= atol
    bad = ~(same | close | np.isinf(atol))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(
            f"{label}: {int(bad.sum())} of {bad.size} values differ; "
            f"first at row {i}: {float(actual[i])!r}, expected {float(expected[i])!r}"
        )


def _expect_exact(problems, label, actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        problems.append(f"{label}: {actual.size} values, expected {expected.size}")
    elif not np.array_equal(actual, expected):
        i = int(np.argmax(actual != expected))
        problems.append(f"{label}: row {i} is {float(actual[i])!r}, expected {float(expected[i])!r}")


def expected(quantity, p):
    """(values, atol) of a quantity recomputed at parameter arrays `p`."""
    p = {k: np.asarray(v, dtype=float) for k, v in p.items()}
    if quantity in ("A_minus", "A_plus", "Gamma_opt", "n_q", "n_c", "n_f", "n_f_formula"):
        lim = reference.limit(p)
        total = lim["A_minus"] + lim["A_plus"]
        gamma_opt = lim["Gamma_opt"]
        if quantity in ("A_minus", "A_plus"):
            return lim[quantity], RTOL * lim[quantity]
        if quantity == "Gamma_opt":
            return gamma_opt, RTOL * total
        value = lim["n_f" if quantity == "n_f_formula" else quantity]
        with np.errstate(divide="ignore", invalid="ignore"):
            atol = 10 * RTOL * np.abs(value) * (1.0 + total / np.abs(gamma_opt))
        # Near Gamma_opt = 0 the sign, and so NaN or not, is not determined.
        return value, np.where(np.abs(gamma_opt) <= 1e-8 * total, np.inf, atol)
    if quantity in ("eta", "Omega_eff", "kappa_eff", "Delta_eff"):
        eff = reference.effective(p)
        scale = np.abs(p["delta3"]) + eff["eta"] ** 2 * np.abs(p["delta2p"])
        return eff[quantity], RTOL * (scale if quantity == "Delta_eff" else np.abs(eff[quantity]))
    if quantity == "regime_ok":
        return reference.effective(p)["regime_ok"], 0.0
    if quantity == "margin_coupled":
        margin = reference.margin_coupled(p)
        return margin, RTOL * (1.0 + np.abs(1.0 - margin))
    if quantity == "margin_single":
        d = p["delta2p"]
        scale = np.abs(d) * (16.0 * np.abs(d) * p["Omega_m"] ** 2 + 4.0 * d**2 + p["kappa"] ** 2)
        return reference.margin_single(p), RTOL * scale / p["kappa"] ** 2
    raise KeyError(quantity)


def check_quantities(problems, label, table, columns, p):
    """Recompute each CSV column named in `columns` (column -> quantity)."""
    for column, quantity in columns.items():
        if column not in table:
            problems.append(f"{label}: no column {column!r}")
            continue
        values, atol = expected(quantity, p)
        compare(problems, f"{label} {column}", numbers(table, column), values, atol)


def check_exact_model(problems, label, table, columns, p):
    """stable / max_real_eig / n_lyapunov columns against an independent solve.

    `columns` maps "stable", "max_real_eig" and "n_lyapunov" to column names;
    any may be missing.  n_lyapunov must be NaN exactly where stable is 0.
    """
    rows = len(next(iter(table.values())))
    p = {k: np.broadcast_to(np.asarray(v, dtype=float), (rows,)) for k, v in p.items()}
    a, _ = reference.drift_diffusion(p)
    eig = np.max(np.linalg.eigvals(a).real, axis=-1)
    norm = np.max(np.abs(a), axis=(-2, -1))
    decided = np.abs(eig) > EDGE * norm
    if "stable" in columns:
        stable = numbers(table, columns["stable"])
        compare(problems, f"{label} {columns['stable']}", stable, (eig < 0).astype(float),
                np.where(decided, 0.0, np.inf))
    if "max_real_eig" in columns:
        compare(problems, f"{label} {columns['max_real_eig']}", numbers(table, columns["max_real_eig"]),
                eig, 1e-9 * norm)
    if "n_lyapunov" in columns:
        n_ly = numbers(table, columns["n_lyapunov"])
        if "stable" in columns:
            nan_rows = np.isnan(n_ly)
            unstable = numbers(table, columns["stable"]) == 0
            if not np.array_equal(nan_rows, unstable):
                i = int(np.argmax(nan_rows != unstable))
                problems.append(f"{label} {columns['n_lyapunov']}: NaN pattern differs from stable == 0 at row {i}")
        want = np.full(rows, np.nan)
        for i in np.nonzero(eig < 0)[0]:
            want[i] = reference.n_lyapunov({k: v[i] for k, v in p.items()})
        atol = np.where(decided, LYAPUNOV_RTOL * np.abs(want), np.inf)
        compare(problems, f"{label} {columns['n_lyapunov']}", n_ly, want, atol)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def check_sweep(spec, path):
    problems = []
    try:
        table = read_csv(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    a1, a2 = spec.axes
    grids = (np.repeat(a1.grid(), a2.count), np.tile(a2.grid(), a1.count))
    for axis, grid in zip(spec.axes, grids):
        if axis.name not in table:
            problems.append(f"no axis column {axis.name!r}")
        else:
            _expect_exact(problems, f"axis {axis.name}", numbers(table, axis.name), grid)
    if problems:
        return problems
    for series, p in spec.row_params(grids).items():
        closed = {f"{q}_{series}": q for q in spec.quantities
                  if q not in ("stable", "max_real_eig", "n_lyapunov")}
        check_quantities(problems, series, table, closed, p)
        exact = {q: f"{q}_{series}" for q in ("stable", "max_real_eig", "n_lyapunov") if q in spec.quantities}
        missing = [c for c in exact.values() if c not in table]
        if missing:
            problems.append(f"{series}: no columns {missing}")
        elif exact:
            check_exact_model(problems, series, table, exact, p)
    return problems


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _coupled_preset(kappa, **overrides):
    p = dict(workloads.FIG456, kappa=kappa, J=np.sqrt(kappa), gamma_sc=workloads.RECOIL_50NM)
    p.update(overrides)
    p["delta2p"] = p["J"] ** 2 / (p["delta3"] + 1.0)
    return p


def _single(p):
    return dict(p, J=0.0 * p["kappa"], delta2p=-p["kappa"] / 2.0)


def _figure_table(fig):
    """({axis column: expected values}, {value column: (quantity, omega, params)}) of a figure."""
    spec = workloads.FIGURES[fig]
    if fig.startswith("fig3"):
        omega = np.linspace(*spec["window"])
        p = dict(workloads.FIG3, delta2p=spec["delta2p"])
        return {"omega": omega}, {"S_coupled": ("S", omega, p), "S_single": ("lorentzian", omega, p)}
    if fig.startswith("fig4"):
        kappa = np.geomspace(*spec["kappa"])
        ratio = np.linspace(*spec["ratio"])
        k = np.repeat(kappa, ratio.size)
        d = (kappa[:, None] * ratio[None, :]).ravel()
        j = 0.0 * k if spec["single"] else np.sqrt(k)
        p = dict(workloads.FIG456, kappa=k, delta2p=d, J=j)
        return {"kappa": k, "delta2p": d}, {"Gamma_opt": ("Gamma_opt", None, p)}
    if fig == "fig5a":
        j = np.linspace(*spec["J"])
        p = dict(workloads.FIG456, J=j, kappa=j**2, delta2p=spec["delta2p"] + 0.0 * j,
                 gamma_sc=workloads.RECOIL_50NM)
        return {"J": j}, {"n_f_coupled": ("n_f", None, p), "n_f_single": ("n_f", None, _single(p))}
    if fig == "fig5b":
        kappa = np.geomspace(*spec["kappa"])
        p = _coupled_preset(kappa)
        return {"kappa": kappa}, {"n_f_coupled": ("n_f", None, p), "n_f_single": ("n_f", None, _single(p))}
    if fig == "fig6a":
        kappa = np.geomspace(*spec["kappa"])
        return {"kappa": kappa}, {
            f"n_f_r{r:g}nm": ("n_f", None, _coupled_preset(kappa, gamma_sc=reference.recoil(r * 1e-9)))
            for r in spec["radii_nm"]
        }
    kappa3 = np.geomspace(*spec["kappa3"])
    return {"kappa3": kappa3}, {
        f"n_f_kappa{k:g}": ("n_f", None, _coupled_preset(k + 0.0 * kappa3, kappa3=kappa3))
        for k in spec["kappas"]
    }


def check_figure(fig, csv_path, gp_path):
    problems = []
    try:
        table = read_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    axes, columns = _figure_table(fig)
    for name, values in axes.items():
        if name not in table:
            problems.append(f"no axis column {name!r}")
        else:
            _expect_exact(problems, f"axis {name}", numbers(table, name), values)
    if problems:
        return problems
    for column, (quantity, omega, p) in columns.items():
        if column not in table:
            problems.append(f"no column {column!r}")
        elif quantity == "S":
            s = reference.spectrum(omega, p)
            compare(problems, column, numbers(table, column), s, RTOL * s)
        elif quantity == "lorentzian":
            s = reference.lorentzian(omega, p)
            compare(problems, f"{column} (Lorentzian)", numbers(table, column), s, RTOL * s)
        else:
            check_quantities(problems, fig, table, {column: quantity}, p)
    if fig == "fig6a" and not problems:
        n = np.array([numbers(table, c) for c in columns])
        cools = np.all(np.isfinite(n), axis=0)
        rising = np.all(np.diff(n[:, cools], axis=0) > 0, axis=0)
        if not rising.all():
            problems.append(f"n_f does not rise with the radius at {int((~rising).sum())} cooling rows")
    try:
        sidecar = Path(gp_path).read_text(encoding="utf-8")
    except OSError as exc:
        problems.append(f"sidecar: {exc}")
    else:
        if f'"{csv_path}"' not in sidecar:
            problems.append(f"sidecar {gp_path} does not name {csv_path}")
    return problems


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

POINT_COLUMNS = {
    "rates": ("A_minus", "A_plus", "Gamma_opt"),
    "limit": ("A_minus", "A_plus", "Gamma_opt", "n_q", "n_c", "n_f"),
    "stability": ("eta", "Omega_eff", "kappa_eff", "Delta_eff"),
    "effective": ("eta", "Omega_eff", "kappa_eff", "Delta_eff", "regime_ok"),
    "oracle": ("n_f_formula",),
}


def check_point_csv(sub, path, p):
    problems = []
    try:
        table = read_csv(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if len(next(iter(table.values()))) != 1:
        return [f"expected one row, got {len(next(iter(table.values())))}"]
    for name in ("kappa", "delta2p", "kappa3", "J", "Omega_m"):
        if name in table:
            _expect_exact(problems, name, numbers(table, name), [p[name]])
    check_quantities(problems, sub, table, {c: c for c in POINT_COLUMNS[sub]}, p)
    if sub == "limit" and not problems:
        n_f, n_q, n_c = (numbers(table, c)[0] for c in ("n_f", "n_q", "n_c"))
        if abs(n_f - (n_q + n_c)) > 4 * np.spacing(abs(n_f)):
            problems.append(f"n_f = {n_f!r} is not n_q + n_c = {n_q + n_c!r}")
    if sub == "stability":
        check_quantities(problems, sub, table, {"margin": "margin_coupled"}, p)
        margin = reference.margin_coupled(p)
        compare(problems, "stability stable", numbers(table, "stable"), float(margin > 0),
                np.inf if abs(margin) < 1e-12 else 0.0)
    if sub == "oracle":
        check_exact_model(problems, sub, table, {"stable": "stable", "n_lyapunov": "n_lyapunov"}, p)
        if "rel_dev" not in table:
            problems.append("no column 'rel_dev'")
        else:
            n_ly = reference.n_lyapunov(p)
            want = abs(n_ly - reference.n_rate(p)) / abs(n_ly)
            compare(problems, "rel_dev", numbers(table, "rel_dev"), want, 1e-6 * want + 1e-12)
    return problems


def check_optimum(objective, delta, p):
    """The returned detuning is no worse than the best point of a fine scan."""
    grid = np.linspace(-3.0 * p["kappa"], 3.0 * p["kappa"], OPTIMIZER_SCAN)
    scan = reference.limit(dict(p, delta2p=grid))
    best = reference.limit(dict(p, delta2p=delta))
    if objective == "n_f":
        found, target = float(best["n_f"]), float(np.nanmin(scan["n_f"]))
        if not found <= target * (1.0 + OPTIMIZER_RTOL):
            return [f"n_f at delta2p = {delta!r} is {found!r}; a scan reaches {target!r}"]
    else:
        found, target = float(best["Gamma_opt"]), float(np.max(scan["Gamma_opt"]))
        if not found >= target * (1.0 - OPTIMIZER_RTOL):
            return [f"Gamma_opt at delta2p = {delta!r} is {found!r}; a scan reaches {target!r}"]
    return []


def check_oracle_report(report, p):
    problems = []
    n_ly = reference.n_lyapunov(p)
    n_rate = float(reference.n_rate(p))
    n_f = float(reference.limit(p)["n_f"])
    want = {
        "n_formula": n_f,
        "n_rate": n_rate,
        "n_lyapunov": n_ly,
        "rel_dev": abs(n_ly - n_rate) / abs(n_ly),
        "rel_dev_formula": abs(n_ly - n_f) / abs(n_ly),
    }
    for key, value in want.items():
        if key not in report:
            problems.append(f"oracle_compare has no {key!r}")
        else:
            compare(problems, f"oracle_compare {key}", [report[key]], [value], LYAPUNOV_RTOL * abs(value) + 1e-12)
    if report.get("stable") is not True:
        problems.append(f"oracle_compare stable = {report.get('stable')!r}")
    return problems


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def check_workload(workload, seed, workdir):
    """Problems found in the outputs of one round, by operation name."""
    workdir = Path(workdir)
    values = json.loads((workdir / "values.json").read_text(encoding="utf-8"))
    problems = {}
    if workload == "sweeps":
        for part in workloads.SWEEPS:
            problems[part] = check_sweep(workloads.sweep(part, seed), workdir / f"{part}.csv")
    else:
        for fig in workloads.figure_order(seed):
            problems[fig] = check_figure(fig, str(workdir / f"{fig}.csv"), workdir / f"{fig}.gp")
        for i, p in enumerate(workloads.points(seed)):
            for sub in workloads.POINT_SUBCOMMANDS:
                problems[f"p{i:02d}:{sub}"] = check_point_csv(sub, workdir / f"p{i:02d}_{sub}.csv", p)
            for objective in workloads.OPTIMIZER_OBJECTIVES:
                name = f"p{i:02d}:optimal_detuning:{objective}"
                status, delta = values[name]
                problems[name] = check_optimum(objective, delta, p) if status == "ok" else []
            name = f"p{i:02d}:oracle_compare"
            status, report = values[name]
            problems[name] = check_oracle_report(report, p) if status == "ok" else []
    for name, (status, value) in values.items():
        if status != "ok":
            problems.setdefault(name, []).append(str(value))
    return problems
