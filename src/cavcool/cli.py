"""Command-line front end: config ingestion, figure presets, sweeps, CSV output.

Every subcommand writes an RFC-4180-style CSV (header row, LF endings,
17-significant-digit floats) so that two runs with the same inputs produce
byte-identical files.  `figure` additionally writes a gnuplot script sidecar
referencing the CSV.  Exit codes: 0 success, 2 validation/usage error,
3 numeric failure.  Non-cooling, unstable or ill-conditioned parameter
points are data (flag columns / NaN values), not failures.  Exit 3 comes
from `oracle`, when its Lyapunov solve misses the residual target, and
from `selftest`, when an invariant check fails.
"""

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import cooling, invariants, lyapunov, params, reduction, response
from .errors import ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# Recoil rate for the reference sphere (r = 50 nm, eps = 2, lambda = 1 um).
RECOIL_50NM = params.recoil_heating(50e-9, 2.0, 1e-6)

SWEEPABLE = params.RATE_KEYS + ("omega",)

# Points evaluated per block: bounds the evaluator's temporary arrays.
BLOCK_POINTS = 2048
# Largest sweep grid (axis1.count x axis2.count), a 1000 x 1000 grid.  Rows
# are held as columns until the CSV is written, 8 bytes per cell, so the
# widest sweep (every quantity with --dual, 43 columns) stays near 350 MB.
MAX_SWEEP_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


# Rows formatted and written per chunk, which bounds the formatted text held
# in memory.
CSV_CHUNK_ROWS = 1024


@functools.cache
def _formatter(kind):
    """The cell formatter for values of type `kind`."""
    if issubclass(kind, str):
        return str
    if issubclass(kind, (bool, np.bool_)):
        return lambda value: "1" if value else "0"
    if issubclass(kind, (int, np.integer)):
        return lambda value: str(int(value))
    if kind is float:
        return "{:.17g}".format
    return lambda value: format(float(value), ".17g")


def _format_column(cells):
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        return list(map(_formatter(kinds.pop()), cells))
    return [_formatter(type(cell))(cell) for cell in cells]


def _column_chunks(rows, width):
    """`rows` as chunks of at most CSV_CHUNK_ROWS rows, each a list of columns.

    A `_Rows` table gives slices of its block arrays; a row sequence is
    transposed chunk by chunk, after each row's width is checked.
    """
    if isinstance(rows, _Rows):
        for columns in rows.blocks:
            for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                yield [column[start : start + CSV_CHUNK_ROWS] for column in columns]
        return
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
        for row in chunk:
            if len(row) != width:
                raise ValidationError(f"row width {len(row)} does not match schema width {width}")
        yield list(zip(*chunk))


def _column_field(cells):
    """The `%` field of one column chunk and the cell values that fill it.

    A float64 array column takes `%.17g`.  When at most half of its cells
    are distinct (by bits, so 0.0 and -0.0 and NaN payloads stay apart),
    each distinct value is formatted with `%.17g` once and the cells take
    its text through a `%s` field.  Any other column, a column of a row
    sequence among them, is formatted cell by cell by `_format_column`,
    without deduplication, and taken as `%s`.
    """
    if not isinstance(cells, np.ndarray):
        return "%s", _format_column(cells)
    if cells.dtype != np.float64:
        return "%s", _format_column(cells.tolist())
    distinct, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(cells):
        return "%.17g", cells.tolist()
    text = np.array(["%.17g" % x for x in distinct.view(np.float64).tolist()], dtype=object)
    return "%s", text[inverse].tolist()


def emit_csv(rows, schema, path):
    """Write rows (sequences matching `schema`, or a `_Rows` table) as CSV with LF endings.

    Floats carry 17 significant digits so a parse-back reproduces them
    bit-exactly; NaN cells are emitted as the literal `nan`, booleans as
    `1`/`0`.  The rows are read as column chunks of at most CSV_CHUNK_ROWS
    rows (see `_column_chunks`); each chunk column gets its field and
    values from `_column_field`, and each row is written with one
    `%`-format string per chunk.  Only the float64 columns of a `_Rows`
    table are deduplicated; a row sequence (the one-row point and `oracle`
    tables) is formatted cell by cell.
    """
    if len(set(schema)) != len(schema):
        raise ValidationError(f"duplicate column names in schema {schema}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(schema) + "\n")
            for columns in _column_chunks(rows, len(schema)):
                if len(columns) != len(schema):
                    raise ValidationError(
                        f"{len(columns)} columns do not match schema width {len(schema)}"
                    )
                fields = [_column_field(cells) for cells in columns]
                row_format = ",".join(field for field, _ in fields) + "\n"
                handle.writelines(row_format % row for row in zip(*(values for _, values in fields)))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _write_gnuplot(path, csv_path, title, xlabel, ylabel, columns, logy=False, surface=None):
    lines = [
        f'# gnuplot script for {title}; data in "{csv_path}"',
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logy:
        lines.append("set logscale y")
    if surface:
        # long-format (row-major) map: interpolate onto a grid for splot
        rows, cols = surface
        lines.append(f"set dgrid3d {rows},{cols}")
        lines.append(f'splot "{csv_path}" using 2:1:3 with lines')
    else:
        plots = ", ".join(f'"{csv_path}" using 1:{idx} with lines' for idx in columns)
        lines.append(f"plot {plots}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Point evaluation: the one path from parameters to output values and a flag
# ---------------------------------------------------------------------------

COOLING_QUANTITIES = ("A_minus", "A_plus", "Gamma_opt", "n_q", "n_c", "n_f")
EFFECTIVE_QUANTITIES = ("eta", "Omega_eff", "kappa_eff", "Delta_eff", "regime_ok")
STABILITY_QUANTITIES = ("stable_single", "margin_single", "stable_coupled", "margin_coupled")
EXACT_QUANTITIES = ("stable", "max_real_eig", "n_lyapunov")

QUANTITIES = (
    ("S_ff",)
    + COOLING_QUANTITIES[:3]
    + ("delta_omega_m",)
    + COOLING_QUANTITIES[3:]
    + EFFECTIVE_QUANTITIES
    + STABILITY_QUANTITIES
    + EXACT_QUANTITIES
)


def _exact(p, solve):
    """(stable, max_real_eig, n_lyapunov, flags) from one stacked model and eigen-decomposition.

    Without `solve` only the eigenvalues are computed and n_lyapunov is None.
    An unstable point yields NaN and the flag `unstable`, an ill-conditioned
    solve NaN and the flag `ill_conditioned`.
    """
    model = lyapunov.build_model(p)
    if not solve:
        return (*lyapunov.eigen_stable(model), None, _flags(p.shape))
    result = lyapunov.solve_steady(model)
    flags = _flags(p.shape)
    flags[result.residual > lyapunov.RESIDUAL_RTOL] = "ill_conditioned"
    flags[np.logical_not(result.stable)] = "unstable"
    return result.stable, result.max_real_eigenvalue, result.n_phonon, flags


def _flags(shape):
    """An all-`ok` flag array; object dtype, so rows share the flag strings."""
    return np.full(shape, "ok", dtype=object)


def evaluate_quantities(p, names, omega=None):
    """Evaluate the requested quantities at one parameter point or a block of them.

    A block `p` has array fields of one shape (see `_block`), and `omega`,
    when given, has that shape too; it gives (values dict of arrays, flags
    array).  A single point with float fields gives Python scalars and a
    0-d flags array.  Non-cooling, unstable and ill-conditioned points yield
    NaN for the affected quantities and a descriptive flag; when several
    apply, the flag of the later name in `names` wins.
    """
    out = {}
    flags = _flags(p.shape)
    report = eff = exact = None
    verdicts = {}
    for name in names:
        if name == "S_ff":
            if omega is None:
                raise ValidationError("quantity S_ff requires an `omega` axis")
            out[name] = response.s_ff(omega, p)
        elif name in COOLING_QUANTITIES:
            if report is None:
                report = cooling.cooling_limit(p)
                flags[np.logical_not(report.cooling)] = "not_cooling"
            out[name] = getattr(report, name)
        elif name == "delta_omega_m":
            out[name] = cooling.spring_shift(p)
        elif name in EFFECTIVE_QUANTITIES:
            if eff is None:
                eff = reduction.effective_params(p)
            out[name] = getattr(eff, name)
        elif name in STABILITY_QUANTITIES:
            kind, series = name.split("_")
            if series not in verdicts:
                verdicts[series] = getattr(reduction, f"stability_{series}")(p)
            out[name] = getattr(verdicts[series], kind)
        elif name in EXACT_QUANTITIES:
            if exact is None:
                *exact, exact_flags = _exact(p, "n_lyapunov" in names)
            out[name] = exact[EXACT_QUANTITIES.index(name)]
            if name == "n_lyapunov":
                flags = np.where(exact_flags == "ok", flags, exact_flags)
        else:
            raise ValidationError(f"unknown quantity {name!r}")
    return out, flags


def _block(p, shape):
    """p with every field broadcast to `shape`: a block of points for the evaluator."""
    return p.replace(**{k: np.broadcast_to(getattr(p, k), shape) for k in params.RATE_KEYS})


class _Rows:
    """Table rows held as blocks of equal-length column arrays.

    `emit_csv` writes it from column slices of the blocks, and `len` gives
    its row count.  Holding columns instead of row objects keeps a sweep
    near 8 bytes per cell.
    """

    def __init__(self, blocks):
        self.blocks = blocks

    def __len__(self):
        return sum(len(columns[0]) for columns in self.blocks)


def _columns(*arrays):
    """Rows of equal-length columns."""
    return _Rows([arrays])


# Subcommands evaluated at the config point: subcommand -> (parameter
# columns, quantity columns, whether a flag column is written).  In a
# quantity column `*` is the series, `single` when J = 0 and `coupled`
# otherwise; the CSV header drops that suffix.
POINT_SUBCOMMANDS = {
    "rates": (("kappa", "delta2p"), COOLING_QUANTITIES[:3], True),
    "limit": (("kappa", "delta2p"), COOLING_QUANTITIES, True),
    "stability": (
        ("kappa", "kappa3", "J", "delta2p"),
        EFFECTIVE_QUANTITIES[:4] + ("stable_*", "margin_*"),
        False,
    ),
    "effective": (("kappa", "kappa3", "J", "delta2p"), EFFECTIVE_QUANTITIES, False),
}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    scale: str

    def grid(self):
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


def parse_axis(text):
    parts = text.split(":")
    if len(parts) != 5:
        raise ValidationError(
            f"axis spec must be name:lo:hi:count:lin|log, got {text!r}"
        )
    name, lo, hi, count, scale = parts
    if name not in SWEEPABLE:
        raise ValidationError(f"unknown axis parameter {name!r}")
    try:
        lo, hi = float(lo), float(hi)
        count = int(count)
    except ValueError:
        raise ValidationError(f"non-numeric axis bounds in {text!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"axis bounds must be finite in {text!r}")
    if count < 2:
        raise ValidationError(f"axis count must be >= 2, got {count}")
    if scale not in ("lin", "log"):
        raise ValidationError(f"axis scale must be lin or log, got {scale!r}")
    if scale == "log" and (lo <= 0 or hi <= 0):
        raise ValidationError(f"log axis requires positive bounds, got {text!r}")
    return Axis(name, lo, hi, count, scale)


def _preset_coupled(fields):
    """NormalizedParams of `fields` with J = sqrt(kappa), delta2p = J^2/(delta3 + 1) per point."""
    fields = dict(fields, J=params.j_sideband_preset(fields["kappa"]), delta2p=0.0)
    p = params.NormalizedParams(**fields)
    return p.replace(delta2p=cooling.closed_form_detuning(p))


def _sweep_params(base, names, point, preset_coupling):
    """Block params for grid points given as axis columns; returns (params, omega or None)."""
    fields = {k: getattr(base, k) for k in params.RATE_KEYS}
    assignments = dict(zip(names, point))
    omega = assignments.pop("omega", None)
    fields.update(assignments)
    if preset_coupling:
        p = _preset_coupled(fields)
    else:
        p = (params.SweptJ if "J" in assignments else params.NormalizedParams)(**fields)
    return _block(p, point[0].shape), omega


# Sweep flags that set J and delta2p themselves -> the swept axes and flags
# they cannot be combined with.  --single-cavity sets them once, from the
# config's kappa; --preset-coupling at every point, from that point's kappa.
SWEEP_FLAG_CONFLICTS = {
    "--preset-coupling": ("J", "delta2p"),
    "--single-cavity": ("kappa", "J", "delta2p", "--preset-coupling"),
}


def _grid_size(kind, axes):
    """Points in the grid of `axes`; more than MAX_SWEEP_POINTS is a validation error."""
    size = math.prod(axis.count for axis in axes)
    if size > MAX_SWEEP_POINTS:
        raise ValidationError(
            f"{kind} of {size} points exceeds the limit of {MAX_SWEEP_POINTS} points"
        )
    return size


def _single_cavity(p):
    return p.replace(J=0.0, delta2p=-p.kappa / 2.0)


def run_sweep(base, axes, quantities, dual, preset_coupling):
    """(rows, schema) of `quantities` over the grid of `axes`, in axis order, in blocks of points.

    With `preset_coupling` each point takes J and delta2p from `_preset_coupled`.
    With `dual` each point is evaluated for the coupled and the single-cavity
    series; the row's flag is the coupled one unless that is `ok`.  Grids of
    more than MAX_SWEEP_POINTS points are rejected before anything is allocated.
    """
    size = _grid_size("sweep", axes)
    names = [axis.name for axis in axes]
    mesh = np.meshgrid(*(axis.grid() for axis in axes), indexing="ij")
    grid = [column.ravel() for column in mesh]
    blocks = []
    for start in range(0, size, BLOCK_POINTS):
        point = [column[start : start + BLOCK_POINTS] for column in grid]
        p, omega = _sweep_params(base, names, point, preset_coupling)
        series = (p, _single_cavity(p)) if dual else (p,)
        results = [evaluate_quantities(q, quantities, omega) for q in series]
        columns = list(point)
        for name in quantities:
            columns.extend(values[name] for values, _ in results)
        coupled_flags, last_flags = results[0][1], results[-1][1]
        columns.append(np.where(coupled_flags != "ok", coupled_flags, last_flags))
        blocks.append(columns)

    schema = names
    if dual:
        for name in quantities:
            schema.extend([f"{name}_coupled", f"{name}_single"])
    else:
        schema.extend(quantities)
    schema.append("flag")
    return _Rows(blocks), schema


# ---------------------------------------------------------------------------
# Figure presets: named parameter sets for the standard lineshape, net-rate,
# and cooling-limit data products
# ---------------------------------------------------------------------------

FIG3_COMMON = dict(delta3=0.5, kappa=100.0, kappa3=1.0, J=10.0, Omega_m=5.0, gamma=1e-5)
FIG456_COMMON = dict(delta3=0.5, kappa3=1.0, Omega_m=0.25, gamma=1e-5)

FIGURE_PRESETS = {
    "fig3a": dict(FIG3_COMMON, delta2p=100.0, window=(-300.0, 300.0, 4001)),
    "fig3b": dict(FIG3_COMMON, delta2p=100.0, window=(-30.0, 30.0, 6001)),
    "fig3c": dict(FIG3_COMMON, delta2p=0.0, window=(-300.0, 300.0, 4001)),
    "fig3d": dict(FIG3_COMMON, delta2p=0.0, window=(-30.0, 30.0, 6001)),
    "fig3e": dict(FIG3_COMMON, delta2p=-100.0, window=(-300.0, 300.0, 4001)),
    "fig3f": dict(FIG3_COMMON, delta2p=-100.0, window=(-30.0, 30.0, 6001)),
    "fig4a": dict(FIG456_COMMON, single=True),
    "fig4b": dict(FIG456_COMMON, single=False),
    "fig5a": dict(FIG456_COMMON, delta2p=1.0, gamma_sc=RECOIL_50NM),
    "fig5b": dict(FIG456_COMMON, gamma_sc=RECOIL_50NM),
    "fig6a": dict(FIG456_COMMON, radii_nm=(40.0, 50.0, 60.0)),
    "fig6b": dict(FIG456_COMMON, gamma_sc=RECOIL_50NM, kappas=(10.0, 50.0, 100.0)),
}


def _fig3_rows(preset):
    keys = ("delta2p", "delta3", "kappa", "kappa3", "J", "Omega_m", "gamma")
    p = params.NormalizedParams(**{k: preset[k] for k in keys})
    lo, hi, count = preset["window"]
    grid = np.linspace(lo, hi, count)
    s_coupled = response.s_ff(grid, p)
    s_single = response.s_ff(grid, p.replace(J=0.0))
    return _columns(grid, s_coupled, s_single), ["omega", "S_coupled", "S_single"]


def _fig4_rows(preset):
    kappa, ratio = (c.ravel() for c in np.meshgrid(
        np.geomspace(1.0, 1000.0, 61), np.linspace(-3.0, 3.0, 121), indexing="ij"
    ))
    delta2p = ratio * kappa
    p = params.NormalizedParams(
        delta2p=delta2p,
        delta3=preset["delta3"],
        kappa=kappa,
        kappa3=preset["kappa3"],
        J=0.0 if preset["single"] else params.j_sideband_preset(kappa),
        Omega_m=preset["Omega_m"],
        gamma=preset["gamma"],
    )
    return _columns(kappa, delta2p, cooling.net_rate(p)), ["kappa", "delta2p", "Gamma_opt"]


def _n_f_rows(x_name, grid, labels, points):
    """n_f and its flag for each series along one axis; `points(grid)` gives one block per label."""
    columns = [grid]
    for p in points(grid):
        values, flags = evaluate_quantities(p, ("n_f",))
        columns.extend([values["n_f"], flags])
    schema = [x_name] + [f"{k}_{label}" for label in labels for k in ("n_f", "flag")]
    return _columns(*columns), schema


def _coupled_preset_params(kappa, preset, kappa3=None, gamma_sc=None):
    return _preset_coupled(dict(
        delta3=preset["delta3"],
        kappa=kappa,
        kappa3=preset["kappa3"] if kappa3 is None else kappa3,
        Omega_m=preset["Omega_m"],
        gamma=preset["gamma"],
        gamma_sc=preset.get("gamma_sc", 0.0) if gamma_sc is None else gamma_sc,
    ))


def _fig5a_rows(preset):
    def points(j):
        p = params.SweptJ(
            delta2p=preset["delta2p"],
            delta3=preset["delta3"],
            kappa=params.square(j),
            kappa3=preset["kappa3"],
            J=j,
            Omega_m=preset["Omega_m"],
            gamma=preset["gamma"],
            gamma_sc=preset["gamma_sc"],
        )
        return p, _single_cavity(p)

    return _n_f_rows("J", np.linspace(0.05, 15.0, 300), ("coupled", "single"), points)


def _fig5b_rows(preset):
    def points(kappa):
        p = _coupled_preset_params(kappa, preset)
        return p, _single_cavity(p)

    return _n_f_rows("kappa", np.geomspace(1.0, 1000.0, 200), ("coupled", "single"), points)


def _fig6a_rows(preset):
    radii = preset["radii_nm"]
    recoils = [params.recoil_heating(r * 1e-9, 2.0, 1e-6) for r in radii]
    return _n_f_rows(
        "kappa",
        np.geomspace(1.0, 1000.0, 200),
        [f"r{r:g}nm" for r in radii],
        lambda kappa: [_coupled_preset_params(kappa, preset, gamma_sc=g) for g in recoils],
    )


def _fig6b_rows(preset):
    kappas = preset["kappas"]
    return _n_f_rows(
        "kappa3",
        np.geomspace(0.05, 10.0, 200),
        [f"kappa{k:g}" for k in kappas],
        lambda kappa3: [_coupled_preset_params(k, preset, kappa3=kappa3) for k in kappas],
    )


# Figure builder -> (rows function, x label, y label, log y axis).
_FIGURES = {
    "fig3": (_fig3_rows, "omega / omega_m", "S xzpf^2 / omega_m", False),
    "fig4": (_fig4_rows, "delta2p / omega_m", "kappa / omega_m", True),
    "fig5a": (_fig5a_rows, "J / omega_m", "n_f", True),
    "fig5b": (_fig5b_rows, "kappa / omega_m", "n_f", True),
    "fig6a": (_fig6a_rows, "kappa / omega_m", "n_f", True),
    "fig6b": (_fig6b_rows, "kappa3 / omega_m", "n_f", True),
}


def run_figure(preset_id, out_path):
    if preset_id not in FIGURE_PRESETS:
        raise ValidationError(f"unknown figure preset {preset_id!r}")
    builder = preset_id[:4] if preset_id[:4] in ("fig3", "fig4") else preset_id
    rows_fn, xlabel, ylabel, logy = _FIGURES[builder]
    rows, schema = rows_fn(FIGURE_PRESETS[preset_id])
    emit_csv(rows, schema, out_path)
    gp_path = str(out_path).removesuffix(".csv") + ".gp"
    value_columns = [i + 1 for i, name in enumerate(schema) if not name.startswith("flag")][1:]
    _write_gnuplot(
        gp_path, out_path, preset_id, xlabel, ylabel, value_columns,
        logy=logy, surface=(61, 121) if builder == "fig4" else None,
    )
    return gp_path


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def _random_block(rng, n):
    """n random parameter points (one point for n = None)."""
    return params.NormalizedParams(
        delta2p=rng.uniform(-1e3, 1e3, n),
        delta3=rng.uniform(-2.0, 2.0, n),
        kappa=10 ** rng.uniform(0, 3, n),
        kappa3=10 ** rng.uniform(-1, 1, n),
        J=rng.uniform(0.0, 10 ** rng.uniform(0, 1.5, n)),
        Omega_m=rng.uniform(0.0, 1.0, n),
        gamma=10 ** rng.uniform(-6, -2, n),
        gamma_sc=10 ** rng.uniform(-5, -2, n),
        n_th=rng.uniform(0.0, 10.0, n),
    )


def _single_cavity_block(rng, n):
    kappa = 10 ** rng.uniform(0, 3, n)
    delta = rng.choice([-1.0, 1.0], n) * kappa * 10 ** rng.uniform(-2, 0.5, n)
    return params.NormalizedParams(
        delta2p=delta, delta3=0.5, kappa=kappa, kappa3=1.0, J=0.0,
        Omega_m=rng.uniform(0.05, 3.0, n),
    )


# (name, invariant, bound, draw): `draw(rng)` gives the invariant's arguments.
# The enlargement bound is the float below 1: the ratio must stay under 1.
_SELFTEST = (
    ("response interference identity", invariants.interference, 1e-12,
     lambda rng: (_random_block(rng, 200), rng.uniform(-3, 3, 200))),
    ("net rate two-way consistency", invariants.two_way_rate, 1e-10,
     lambda rng: (_random_block(rng, 200),)),
    ("single-cavity Lorentzian reduction", invariants.lorentzian, 1e-12,
     lambda rng: (_random_block(rng, None), np.linspace(-3, 3, 1001))),
    ("Lyapunov thermal limit", invariants.thermal_limit, 1e-10,
     lambda rng: (_random_block(rng, 20).replace(gamma=10 ** rng.uniform(-3, 0, 20)),)),
    ("Lyapunov vacuum occupancy", invariants.vacuum, 1e-10,
     lambda rng: (params.NormalizedParams(
         delta2p=1.0, delta3=0.5, kappa=10.0, kappa3=1.0, J=2.0, Omega_m=0.0, gamma=1e-3),)),
    ("coupled stability bound enlargement", invariants.enlargement, math.nextafter(1.0, 0.0),
     lambda rng: (10 ** rng.uniform(0, 3, 200), 10 ** rng.uniform(-2, 1, 200))),
    ("single-cavity criterion vs eigenvalues", invariants.single_criterion, 0.0,
     lambda rng: (_single_cavity_block(rng, 200),)),
)


def run_selftest():
    """Print one PASS/FAIL line per invariant; a check fails when its worst
    deviation is above its bound or NaN.  Returns the number of failed checks."""
    rng = np.random.default_rng(20240817)
    failures = 0
    for name, invariant, bound, draw in _SELFTEST:
        args = draw(rng)
        worst = invariant(*args)
        points = math.prod(np.broadcast_shapes(*(getattr(a, "shape", ()) for a in args)))
        failures += not worst <= bound
        print(
            f"{'PASS' if worst <= bound else 'FAIL'}  {name}  worst={worst:.3g} "
            f"bound={bound!r} points={points}"
        )
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return failures


# ---------------------------------------------------------------------------
# Argument parsing and subcommand dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argparse parser, built on the first `main` call and reused."""
    parser = argparse.ArgumentParser(
        prog="cavcool",
        description="Coupled-cavity cooling analysis for a levitated nanosphere",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument(
            "--single-cavity",
            action="store_true",
            help="force J = 0 with delta2p = -kappa/2 (single-cavity optimum)",
        )

    sp = sub.add_parser("spectrum", help="force noise spectrum on a frequency grid")
    add_common(sp)
    sp.add_argument(
        "--axis1",
        default="omega:-3:3:4001:lin",
        help="omega grid as omega:lo:hi:count:lin|log",
    )

    for name, text in (
        ("rates", "cooling and heating rates at one parameter point"),
        ("limit", "steady-state phonon limit at one parameter point"),
        ("stability", "closed-form stability verdict"),
        ("effective", "effective two-mode parameters"),
        ("oracle", "perturbative formula vs Lyapunov covariance solve"),
    ):
        sp = sub.add_parser(name, help=text)
        add_common(sp)

    sp = sub.add_parser("sweep", help="parameter sweep over one or two axes")
    add_common(sp)
    sp.add_argument("--axis1", required=True, help="axis as name:lo:hi:count:lin|log")
    sp.add_argument("--axis2", default=None, help="optional second axis")
    sp.add_argument("--quantity", required=True, help="comma-separated quantity names")
    sp.add_argument(
        "--dual",
        action="store_true",
        help="emit coupled and single-cavity (J=0, delta2p=-kappa/2) series",
    )
    sp.add_argument(
        "--preset-coupling",
        action="store_true",
        help="per point, set J = sqrt(kappa) and delta2p = J^2/(delta3+1)",
    )

    sp = sub.add_parser("figure", help="figure-preset data set plus gnuplot sidecar")
    sp.add_argument("--id", required=True, help=f"one of {', '.join(sorted(FIGURE_PRESETS))}")
    sp.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("selftest", help="run the built-in invariant suite")

    return parser


def _dispatch(args):
    if args.subcommand == "selftest":
        return EXIT_NUMERIC if run_selftest() else EXIT_OK

    if args.subcommand == "figure":
        run_figure(args.id, args.out)
        return EXIT_OK

    base = params.load_config(args.config)
    if args.single_cavity:
        base = _single_cavity(base)

    if args.subcommand == "spectrum":
        axis = parse_axis(args.axis1)
        if axis.name != "omega":
            raise ValidationError("spectrum axis must be `omega`")
        _grid_size("spectrum", [axis])
        grid = axis.grid()
        emit_csv(_columns(grid, response.s_ff(grid, base)), ["omega", "S"], args.out)
        return EXIT_OK

    if args.subcommand in POINT_SUBCOMMANDS:
        columns, quantities, with_flag = POINT_SUBCOMMANDS[args.subcommand]
        series = "single" if base.J == 0.0 else "coupled"
        names = [q.replace("*", series) for q in quantities]
        values, flags = evaluate_quantities(base, names)
        row = [getattr(base, c) for c in columns] + [values[n] for n in names]
        schema = list(columns) + [q.replace("_*", "") for q in quantities]
        if with_flag:
            row.append(flags.item())
            schema.append("flag")
        emit_csv([row], schema, args.out)
        return EXIT_OK

    if args.subcommand == "oracle":
        r = lyapunov.oracle_compare(base)
        if r.residual > lyapunov.RESIDUAL_RTOL:
            print(
                f"numeric failure: Lyapunov residual {r.residual:.3e} "
                f"exceeds target {lyapunov.RESIDUAL_RTOL:.1e}",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
        emit_csv(
            [[r.kappa, r.Omega_m, r.n_formula, r.n_lyapunov, r.rel_dev, r.stable]],
            ["kappa", "Omega_m", "n_f_formula", "n_lyapunov", "rel_dev", "stable"],
            args.out,
        )
        return EXIT_OK

    if args.subcommand == "sweep":
        axes = [parse_axis(text) for text in (args.axis1, args.axis2) if text]
        if len(axes) == 2 and axes[0].name == axes[1].name:
            raise ValidationError(f"axis {axes[0].name!r} is given twice")
        quantities = tuple(q.strip() for q in args.quantity.split(",") if q.strip())
        if not quantities:
            raise ValidationError("--quantity must name at least one quantity")
        for q in quantities:
            if q not in QUANTITIES:
                raise ValidationError(
                    f"unknown quantity {q!r}; choose from {', '.join(QUANTITIES)}"
                )
        given = {axis.name for axis in axes}
        given.update(f for f in SWEEP_FLAG_CONFLICTS if getattr(args, f[2:].replace("-", "_")))
        for flag, conflicts in SWEEP_FLAG_CONFLICTS.items():
            for other in conflicts:
                if flag in given and other in given:
                    what = other if other.startswith("--") else f"the swept axis {other!r}"
                    raise ValidationError(
                        f"{flag} sets J and delta2p itself; it cannot be combined with {what}"
                    )
        rows, schema = run_sweep(base, axes, quantities, args.dual, args.preset_coupling)
        emit_csv(rows, schema, args.out)
        return EXIT_OK

    raise ValidationError(f"unknown subcommand {args.subcommand!r}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
