"""Command-line front end: config ingestion, figure presets, sweeps, CSV output.

Every subcommand writes an RFC-4180-style CSV (header row, LF endings,
17-significant-digit floats) so that two runs with the same inputs produce
byte-identical files.  `figure` also writes a gnuplot sidecar naming the CSV,
and each figure is one `FIGURE_PRESETS` entry.  Every CSV is a `tabulate`
table (axes, the parameters of each series, columns), evaluated by
`evaluate_quantities` one block at a time as `emit_csv` writes it; every
file, CSV or sidecar, is written by `_committed`, whole or not at all.  Exit
codes: 0 success, 2 validation/usage error, 3 numeric failure: `oracle`'s
Lyapunov solve missing its residual target, or a failed `selftest` check.
Non-cooling, unstable or ill-conditioned parameter points are data (flag
columns / NaN values), not failures: `evaluate_quantities` returns a
boolean mask per condition, and `tabulate` renders each series' flag
column from the masks.
"""

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import cooling, invariants, lyapunov, params, reduction, response
from .errors import NumericError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# Recoil rate for the reference sphere (r = 50 nm, eps = 2, lambda = 1 um).
RECOIL_50NM = params.recoil_heating(50e-9, 2.0, 1e-6)

# Points evaluated per block: bounds the evaluator's temporary arrays, and a
# `tabulate` table (a sweep, spectrum or figure) holds one block at a time.
BLOCK_POINTS = 2048
# Largest grid of any `tabulate` table (the product of its axis counts), a
# 1000 x 1000 grid.  Only the axis grids (8 bytes per value) and one block are
# held, so the cap bounds run time and file size: the widest sweep (every
# quantity but S_ff with --dual, 41 columns) writes about 600 bytes per row, 0.6 GB here.
MAX_SWEEP_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _column_field(cells):
    """The `%` field of one column (a 1-d array) of a block and the values that fill it.

    The dtype alone decides: float64 takes `%.17g`, bool `%d` (so `1`/`0`),
    and strings (object or unicode arrays) `%s`, written as they are.  A
    float64 column of which at most half the cells are distinct (by bits, so
    0.0 and -0.0 and NaN payloads stay apart) formats each distinct value
    with `%.17g` once, and the cells take its text through `%s`.  Any other
    dtype is a validation error naming it.
    """
    if cells.dtype == np.float64:
        if len(cells) > 1:
            distinct, inverse = np.unique(cells.view(np.int64), return_inverse=True)
            if 2 * len(distinct) <= len(cells):
                text = ["%.17g" % x for x in distinct.view(np.float64).tolist()]
                return "%s", np.array(text, dtype=object)[inverse].tolist()
        return "%.17g", cells.tolist()
    if cells.dtype == bool:
        return "%d", cells.tolist()
    if cells.dtype == object or cells.dtype.kind == "U":
        return "%s", cells.tolist()
    raise ValidationError(f"cannot write a CSV column of dtype {cells.dtype}")


class _WriteError(OSError):
    """An OSError that names the file `_committed` could not write."""


@contextlib.contextmanager
def _committed(path):
    """The one way cavcool writes a file: a UTF-8, LF handle on `<path>.part`,
    which replaces `path` only when the block ends cleanly and is removed
    however it ends.  A directory `path` is refused before the block runs;
    an `OSError` is raised again as a `_WriteError` naming `path`, unless a
    commit nested in the block has named its own file already.
    """
    part = f"{path}.part"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        with open(part, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(part, path)
    except _WriteError:
        raise
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(part)  # nothing is left there once it has replaced `path`


def emit_csv(rows, schema, path):
    """Write a `_Rows` table under the header `schema` as CSV with LF endings.

    Floats carry 17 significant digits so a parse-back reproduces them
    bit-exactly; NaN cells are emitted as the literal `nan`, booleans as
    `1`/`0`.  The blocks are read, so evaluated, once and in order after the
    header; each is formatted as it comes, every column by `_column_field`
    and each row by one `%`-format string.  The file is written through
    `_committed`, so it appears whole or not at all.
    """
    if len(set(schema)) != len(schema):
        raise ValidationError(f"duplicate column names in schema {schema}")
    with _committed(path) as handle:
        handle.write(",".join(schema) + "\n")
        for columns in rows.blocks:
            if len(columns) != len(schema):
                raise ValidationError(
                    f"{len(columns)} columns do not match schema width {len(schema)}"
                )
            fields = [_column_field(column) for column in columns]
            row_format = ",".join(field for field, _ in fields) + "\n"
            handle.writelines(row_format % row for row in zip(*(v for _, v in fields)))
            del fields  # this block's text is freed before the next block is evaluated


# ---------------------------------------------------------------------------
# Point evaluation: the one path from parameters to output values and conditions
# ---------------------------------------------------------------------------

def _oracle(p, *_):
    """`lyapunov.oracle_compare(p)`; an `ill_conditioned` solve raises NumericError."""
    r, tol = lyapunov.oracle_compare(p), lyapunov.RESIDUAL_RTOL
    if np.any(lyapunov.ill_conditioned(r.residual)):
        raise NumericError(f"Lyapunov residual {np.nanmax(r.residual):.3e} exceeds target {tol:.1e}")
    return r


# Intermediate -> its one computation, from the parameters, S_ff's `omega` and `once` (below).
INTERMEDIATES = {
    "spectrum": lambda p, omega, once: response.s_ff(omega, p),
    "cooling": lambda p, *_: cooling.cooling_limit(p),
    "spring": lambda p, *_: cooling.spring_shift(p),
    "effective": lambda p, *_: reduction.effective_params(p),
    "single": lambda p, *_: reduction.stability_single(p),
    "coupled": lambda p, omega, once: reduction.stability_coupled(p, eff=once("effective")),
    "eigen": lambda p, *_: lyapunov.eigen_stable(lyapunov.build_model(p)),
    "solve": lambda p, *_: lyapunov.solve_steady(lyapunov.build_model(p)),
    "oracle": _oracle,
}

# Condition -> its mask, from the intermediate of the quantity that raises it.
CONDITIONS = {
    "not_cooling": lambda report: np.logical_not(report.cooling),
    "ill_conditioned": lambda result: lyapunov.ill_conditioned(result.residual),
    "unstable": lambda result: np.logical_not(result.stable),
}

# Quantity -> (intermediates, attribute, conditions); see `evaluate_quantities`.  The
# `oracle.*` rows are `oracle`'s own: its occupancy is NaN wherever the formula does not cool.
QUANTITY_TABLE = {
    "S_ff": (("spectrum",), None, ()),
    **{q: (("cooling",), q, ("not_cooling",)) for q in ("A_minus", "A_plus", "Gamma_opt")},
    "delta_omega_m": (("spring",), None, ()),
    **{q: (("cooling",), q, ("not_cooling",)) for q in ("n_q", "n_c", "n_f")},
    **{q: (("effective",), q, ()) for q in ("eta", "Omega_eff", "kappa_eff", "Delta_eff")},
    "regime_ok": (("effective",), "regime_ok", ()),
    **{f"{a}_{s}": ((s,), a, ()) for s in ("single", "coupled") for a in ("stable", "margin")},
    "stable": (("solve", "eigen"), "stable", ()),
    "max_real_eig": (("solve", "eigen"), "max_real_eigenvalue", ()),
    "n_lyapunov": (("solve",), "n_phonon", ("ill_conditioned", "unstable")),
    "oracle.n_f_formula": (("oracle",), "n_formula", ()),
    **{f"oracle.{a}": (("oracle",), a, ()) for a in ("n_lyapunov", "rel_dev", "stable")},
}
# The quantities a sweep may request: every row but `oracle`'s own.
QUANTITIES = tuple(q for q, (keys, _, _) in QUANTITY_TABLE.items() if keys[-1] != "oracle")


def evaluate_quantities(p, names, omega=None):
    """Evaluate the requested quantities at one parameter point or a block of them.

    A block `p` (fields that broadcast together and with `omega`, which
    `S_ff` requires) gives a dict of values shaped as the fields each reads,
    () or `p.shape`; a point with float fields gives Python scalars.  Returns
    (values, conditions): `conditions` maps each condition found, in the order
    found, to a boolean mask, shaped in the same way, of the points where it holds.

    A name's `QUANTITY_TABLE` row gives its value: the row's attribute (all
    of it for None) of the first of the row's intermediates that a requested
    quantity has last, so with `n_lyapunov` requested `stable` reads the
    solve.  `once` computes each intermediate at most once.  A quantity read
    records those of its conditions not found yet, by their `CONDITIONS`
    masks: `not_cooling` at the first cooling quantity, `ill_conditioned`
    (residual above RESIDUAL_RTOL) then `unstable` at `n_lyapunov`.
    """
    rows = [QUANTITY_TABLE[name] for name in names]
    needed = {keys[-1] for keys, _, _ in rows}
    values, conditions = {}, {}

    @functools.cache
    def once(key):
        return INTERMEDIATES[key](p, omega, once)

    for name, (keys, attribute, raised) in zip(names, rows):
        result = once(next(key for key in keys if key in needed))
        values[name] = result if attribute is None else getattr(result, attribute)
        for condition in raised:
            if condition not in conditions:
                conditions[condition] = CONDITIONS[condition](result)
    del once  # it refers to itself: unbinding it frees its intermediates without a gc pass
    return values, conditions


@dataclass
class _Rows:
    """A table as blocks of equal-length 1-d column arrays, and its row
    count: the one table form that `emit_csv` writes.

    Each column is float64, bool, or strings (object or unicode), and its
    dtype decides how its cells are written (see `_column_field`).
    `blocks` is read once: `tabulate` passes a generator that evaluates
    each block as it is written, so only one block is held.  `len` gives
    the row count `count`, known before any block is made.
    """

    blocks: object
    count: int

    def __len__(self):
        return self.count


def tabulate(axes, series, columns):
    """(rows, schema) of `columns` over the grid of `axes`: the one path from
    parameters to a CSV table, for every product.

    `axes` are `Axis` specs, gridded here; the rows run over their grid with
    the last axis varying fastest, and with no axes there is one row.
    `series(point)` gives the parameters of each series for one block, whose
    axis columns `point` holds by name; a series may be one point, or keep
    unswept fields scalar (see `_swept_series`).  Values meet the block only
    here: each flag indexes its masks directly, and each column is broadcast.
    `columns` are (header, source, series index) triples.  A source is a
    quantity or `flag` of that series, an axis name, or a parameter field of
    that series; an `omega` axis is the frequency of `S_ff`.  A series' `flag`
    is built here, the one place flag text is made: `ok`, overwritten by each
    of its conditions in order where that condition's mask holds, so a later
    condition wins.  A `flag` of series None is the first series' flag where
    that is not `ok`, and the last series' flag elsewhere.

    A table with `S_ff` but no `omega` axis or the reverse, then one of more
    than MAX_SWEEP_POINTS points, is refused before any grid or `series` call.
    Every block's parameters are built once first, so a point outside its
    field's domain raises before the CSV is opened.  The rows are then
    evaluated one block of BLOCK_POINTS points at a time, as `emit_csv`
    writes them, each series by one `evaluate_quantities` call.
    """
    names = [axis.name for axis in axes]
    spectrum = any(source == "S_ff" for _, source, _ in columns)
    if spectrum != ("omega" in names):
        raise ValidationError("quantity S_ff requires an `omega` axis" if spectrum
                              else "an `omega` axis is read only by the quantity S_ff")
    shape = tuple(axis.count for axis in axes)
    size = math.prod(shape)
    if size > MAX_SWEEP_POINTS:
        raise ValidationError(f"grid of {size} points exceeds the limit of {MAX_SWEEP_POINTS} points")
    grids = [axis.grid() for axis in axes]

    def points():
        for start in range(0, size, BLOCK_POINTS):
            stop = min(start + BLOCK_POINTS, size)
            index = np.unravel_index(np.arange(start, stop), shape) if shape else ()
            point = {name: grid[i] for name, grid, i in zip(names, grids, index)}
            yield stop - start, point, series(point)

    for _ in points():  # the parameters-only pass
        pass

    def blocks():
        for count, point, ps in points():
            sources = []  # per series: its fields, quantities and flag by name
            for i, p in enumerate(ps):
                wanted = [s for _, s, j in columns if j == i and s in QUANTITY_TABLE]
                values, conditions = evaluate_quantities(p, wanted, point.get("omega"))
                # Object dtype, so rows share the flag strings; a later condition wins.
                flag = np.full(p.shape, "ok", dtype=object)
                for condition, mask in conditions.items():
                    flag[mask] = condition
                sources.append({**vars(p), **values, "flag": flag})
            first, last = sources[0]["flag"], sources[-1]["flag"]
            shared = point | {"flag": np.where(first != "ok", first, last)}
            yield [
                np.broadcast_to((shared if i is None else sources[i])[source], count)
                for _, source, i in columns
            ]

    return _Rows(blocks(), size), [header for header, _, _ in columns]


# Subcommands evaluated at the config point -> (parser help, column sources; see
# `tabulate`), in the parser's order.  In a source `*` is the series, `single` when
# J = 0 and `coupled` otherwise; a column's header is its source's last dotted part
# without `_*`, so `oracle.n_f_formula` heads `n_f_formula` and `stable_*` `stable`.
POINT_SUBCOMMANDS = {
    "rates": ("cooling and heating rates at one parameter point",
              ("kappa", "delta2p", "A_minus", "A_plus", "Gamma_opt", "flag")),
    "limit": ("steady-state phonon limit at one parameter point",
              ("kappa", "delta2p", "A_minus", "A_plus", "Gamma_opt", "n_q", "n_c", "n_f", "flag")),
    "stability": ("closed-form stability verdict",
                  ("kappa", "kappa3", "J", "delta2p", "eta", "Omega_eff", "kappa_eff",
                   "Delta_eff", "stable_*", "margin_*")),
    "effective": ("effective two-mode parameters",
                  ("kappa", "kappa3", "J", "delta2p", "eta", "Omega_eff", "kappa_eff",
                   "Delta_eff", "regime_ok")),
    "oracle": ("perturbative formula vs Lyapunov covariance solve",
               ("kappa", "Omega_m", "oracle.n_f_formula", "oracle.n_lyapunov", "oracle.rel_dev",
                "oracle.stable")),
}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """A sweep or figure axis: `count` points from `lo` to `hi`, spaced `lin` or `log`."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str

    def grid(self):
        return (np.geomspace if self.scale == "log" else np.linspace)(self.lo, self.hi, self.count)


def parse_axis(text):
    """The Axis of `name:lo:hi:count:lin|log`: lo and hi by Python's `float`, count in ASCII digits."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ValidationError(f"axis spec must be name:lo:hi:count:lin|log, got {text!r}")
    name, lo, hi, count, scale = parts
    if name not in params.RATE_KEYS + ("omega",):
        raise ValidationError(f"unknown axis parameter {name!r}")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"non-numeric axis bounds in {text!r}")
    if not (count.isascii() and count.isdigit()):
        raise ValidationError(f"axis count must be an integer, got {count!r} in {text!r}")
    count = int(count)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"axis bounds must be finite in {text!r}")
    if count < 2:
        raise ValidationError(f"axis count must be >= 2, got {count}")
    if scale not in ("lin", "log"):
        raise ValidationError(f"axis scale must be lin or log, got {scale!r}")
    if scale == "log" and (lo <= 0 or hi <= 0):
        raise ValidationError(f"log axis requires positive bounds, got {text!r}")
    return Axis(name, lo, hi, count, scale)


def _preset_coupled(**fields):
    """NormalizedParams of `fields` with J = sqrt(kappa), delta2p = J^2/(delta3 + 1) per point."""
    fields = dict(fields, J=params.j_sideband_preset(fields["kappa"]), delta2p=0.0)
    p = params.NormalizedParams(**fields)
    return p.replace(delta2p=cooling.closed_form_detuning(p))


# Sweep flags that set J and delta2p themselves -> the swept axes and flags
# they cannot be combined with.  --single-cavity sets them once, from the
# config's kappa; --preset-coupling at every point, from that point's kappa.
SWEEP_FLAG_CONFLICTS = {
    "--preset-coupling": ("J", "delta2p"),
    "--single-cavity": ("kappa", "J", "delta2p", "--preset-coupling"),
}


def _single_cavity(p):
    return p.replace(J=0.0, delta2p=-p.kappa / 2.0)


def _swept_series(fields, couple, curves, dual):
    """`tabulate`'s `series` for `sweep`, fig4 and the fig5-6 curves: per block, the curve
    `couple(fields | changes | axis columns)` for each field `changes` of `curves` (`omega`
    is not passed; fig4's `ratio` is its `couple`'s), and with `dual` the first curve's
    `_single_cavity` companion.  Unswept fields stay scalars, and a series that is one
    point (the companion of a J or delta2p sweep) stays a point, evaluated once per block.
    Only over an `omega` axis is a one-point series broadcast to the block, so that
    `S_ff` keeps its block arithmetic.
    """
    def series(point):
        swept = {k: v for k, v in point.items() if k != "omega"}
        ps = [couple(**fields | changes | swept) for changes in curves]
        ps += [_single_cavity(ps[0])] if dual else []
        shape = np.shape(point.get("omega"))  # () unless an omega axis is swept
        return [p.replace(**{k: np.broadcast_to(getattr(p, k), shape) for k in params.RATE_KEYS})
                if shape and not p.shape else p for p in ps]

    return series


def run_sweep(base, axes, quantities, dual, preset_coupling):
    """(rows, schema) of `quantities` over the grid of `axes`, by `tabulate`.

    The series is `base` with the axis values, built by `_swept_series` as fig4's maps
    and the fig5-6 curves are: with `preset_coupling` by `_preset_coupled`, which sets
    J and delta2p per point, and otherwise as `SweptJ` exactly when J is an axis.  With
    `dual` each point is evaluated for the coupled and the single-cavity series;
    the row's flag is the coupled one unless that is `ok`.
    """
    plain = params.SweptJ if any(axis.name == "J" for axis in axes) else params.NormalizedParams
    couple = _preset_coupled if preset_coupling else plain
    series = _swept_series({k: getattr(base, k) for k in params.RATE_KEYS}, couple, ({},), dual)
    suffixes = ("_coupled", "_single") if dual else ("",)
    columns = [(axis.name, axis.name, None) for axis in axes]
    columns += [(q + suffix, q, i) for q in quantities for i, suffix in enumerate(suffixes)]
    columns.append(("flag", "flag", None))
    return tabulate(axes, series, columns)


# ---------------------------------------------------------------------------
# Figure presets: each entry of FIGURE_PRESETS is a whole figure (see `run_figure`)
# ---------------------------------------------------------------------------


def _preset_fields(preset):
    """The parameter fields that `preset` sets."""
    return {k: preset[k] for k in params.RATE_KEYS if k in preset}


def _spectra(preset):
    """fig3: S_ff of the preset point and of its J = 0 companion over the omega axis."""
    # The preset point itself, not a block: its omega grid keeps numpy's arithmetic.
    p = params.NormalizedParams(**_preset_fields(preset))
    pair = (p, p.replace(J=0.0))
    columns = [("omega", "omega", None), ("S_coupled", "S_ff", 0), ("S_single", "S_ff", 1)]
    return lambda point: pair, columns, ("omega / omega_m", "S xzpf^2 / omega_m", False)


def _rate_map(preset):
    """fig4: Gamma_opt over kappa and delta2p / kappa, at J = 0 (`single`) or J = sqrt(kappa)."""
    def couple(ratio, kappa, **fields):
        j = 0.0 if preset["single"] else params.j_sideband_preset(kappa)
        return params.NormalizedParams(**fields, kappa=kappa, delta2p=ratio * kappa, J=j)

    series = _swept_series(_preset_fields(preset), couple, ({},), False)
    columns = [("kappa", "kappa", None), ("delta2p", "delta2p", 0), ("Gamma_opt", "Gamma_opt", 0)]
    return series, columns, ("delta2p / omega_m", "kappa / omega_m", True)


def _curves(preset):
    """figs 5-6: n_f and its flag along the one axis, per (label, field changes) of `curves`.

    The series are `_swept_series`', as for a `sweep`, with the preset's `couple`
    and `dual`; with `dual` the first curve's companion is the curve `single`.
    """
    (axis,) = preset["axes"]
    changes = [c for _, c in preset["curves"]]
    series = _swept_series(_preset_fields(preset), preset["couple"], changes, preset["dual"])
    labels = [label for label, _ in preset["curves"]] + (["single"] if preset["dual"] else [])
    columns = [(axis.name, axis.name, None)]
    columns += [(f"{k}_{label}", k, i) for i, label in enumerate(labels) for k in ("n_f", "flag")]
    return series, columns, (f"{axis.name} / omega_m", "n_f", True)


def _kappa_j_squared(**fields):
    """SweptJ parameters of `fields` with kappa = J^2 (fig5a's coupling)."""
    return params.SweptJ(**fields | {"kappa": params.square(fields["J"])})


FIG3 = dict(delta3=0.5, kappa=100.0, kappa3=1.0, J=10.0, Omega_m=5.0, gamma=1e-5, build=_spectra)
FIG3_WIDE = (Axis("omega", -300.0, 300.0, 4001, "lin"),)
FIG3_DETAIL = (Axis("omega", -30.0, 30.0, 6001, "lin"),)
FIG456 = dict(delta3=0.5, kappa3=1.0, Omega_m=0.25, gamma=1e-5)
FIG4 = dict(FIG456, build=_rate_map,
            axes=(Axis("kappa", 1.0, 1000.0, 61, "log"), Axis("ratio", -3.0, 3.0, 121, "lin")))
# Curves whose points take J = sqrt(kappa) and delta2p = J^2/(delta3 + 1), unless set otherwise.
CURVES = dict(FIG456, build=_curves, couple=_preset_coupled, dual=False)
KAPPA_AXES = (Axis("kappa", 1.0, 1000.0, 200, "log"),)

FIGURE_PRESETS = {
    "fig3a": dict(FIG3, delta2p=100.0, axes=FIG3_WIDE),
    "fig3b": dict(FIG3, delta2p=100.0, axes=FIG3_DETAIL),
    "fig3c": dict(FIG3, delta2p=0.0, axes=FIG3_WIDE),
    "fig3d": dict(FIG3, delta2p=0.0, axes=FIG3_DETAIL),
    "fig3e": dict(FIG3, delta2p=-100.0, axes=FIG3_WIDE),
    "fig3f": dict(FIG3, delta2p=-100.0, axes=FIG3_DETAIL),
    "fig4a": dict(FIG4, single=True),
    "fig4b": dict(FIG4, single=False),
    "fig5a": dict(CURVES, couple=_kappa_j_squared, delta2p=1.0, gamma_sc=RECOIL_50NM, dual=True,
                  axes=(Axis("J", 0.05, 15.0, 300, "lin"),), curves=(("coupled", {}),)),
    "fig5b": dict(CURVES, gamma_sc=RECOIL_50NM, dual=True, axes=KAPPA_AXES,
                  curves=(("coupled", {}),)),
    "fig6a": dict(CURVES, axes=KAPPA_AXES, curves=tuple(
        (f"r{r:g}nm", {"gamma_sc": params.recoil_heating(r * 1e-9, 2.0, 1e-6)})
        for r in (40.0, 50.0, 60.0))),
    "fig6b": dict(CURVES, gamma_sc=RECOIL_50NM, axes=(Axis("kappa3", 0.05, 10.0, 200, "log"),),
                  curves=tuple((f"kappa{k:g}", {"kappa": k}) for k in (10.0, 50.0, 100.0))),
}


def run_figure(preset_id, out_path):
    """Write the CSV of figure preset `preset_id` and its gnuplot sidecar (`.gp` for `.csv`).

    The preset's `FIGURE_PRESETS` entry is the whole figure: parameter fields, `axes`, and a
    builder `build` that takes the entry, with its settings, and gives the (series, columns) of
    `tabulate` and the plot's (x label, y label, log y).  A figure over two axes is a long-format
    map, plotted as a surface of its axes' sizes.  The CSV is written inside the sidecar's commit,
    so a sidecar that cannot be written, or a CSV that fails part-way, leaves both files as they
    were; the sidecar replaces its old file right after the CSV does.
    """
    if preset_id not in FIGURE_PRESETS:
        raise ValidationError(f"unknown figure preset {preset_id!r}")
    preset = FIGURE_PRESETS[preset_id]
    axes = preset["axes"]
    series, columns, (xlabel, ylabel, logy) = preset["build"](preset)
    rows, schema = tabulate(axes, series, columns)
    lines = [
        f'# gnuplot script for {preset_id}; data in "{out_path}"',
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logy:
        lines.append("set logscale y")
    if len(axes) == 2:  # long-format (row-major) map: interpolate onto a grid for splot
        lines += [f"set dgrid3d {axes[0].count},{axes[1].count}",
                  f'splot "{out_path}" using 2:1:3 with lines']
    else:
        values = [i + 1 for i, name in enumerate(schema) if not name.startswith("flag")][1:]
        lines.append("plot " + ", ".join(f'"{out_path}" using 1:{i} with lines' for i in values))
    with _committed(str(out_path).removesuffix(".csv") + ".gp") as handle:
        handle.write("\n".join(lines) + "\n")
        emit_csv(rows, schema, out_path)


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
        sp.add_argument("--single-cavity", action="store_true",
                        help="force J = 0 with delta2p = -kappa/2 (single-cavity optimum)")
        return sp

    sp = add_common(sub.add_parser("spectrum", help="force noise spectrum on a frequency grid"))
    sp.add_argument("--axis1", default="omega:-3:3:4001:lin",
                    help="omega grid as omega:lo:hi:count:lin|log")

    for name, (text, _) in POINT_SUBCOMMANDS.items():
        add_common(sub.add_parser(name, help=text))

    sp = add_common(sub.add_parser("sweep", help="parameter sweep over one or two axes"))
    sp.add_argument("--axis1", required=True, help="axis as name:lo:hi:count:lin|log")
    sp.add_argument("--axis2", default=None, help="optional second axis")
    sp.add_argument("--quantity", required=True, help="comma-separated quantity names")
    sp.add_argument("--dual", action="store_true",
                    help="emit coupled and single-cavity (J=0, delta2p=-kappa/2) series")
    sp.add_argument("--preset-coupling", action="store_true",
                    help="per point, set J = sqrt(kappa) and delta2p = J^2/(delta3+1)")

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
        # The config point itself, not a block: its omega grid keeps numpy's arithmetic.
        columns = [("omega", "omega", None), ("S", "S_ff", 0)]
        rows, schema = tabulate([parse_axis(args.axis1)], lambda point: (base,), columns)
    elif args.subcommand in POINT_SUBCOMMANDS:
        series = "single" if base.J == 0.0 else "coupled"
        _, sources = POINT_SUBCOMMANDS[args.subcommand]
        columns = [(s.split(".")[-1].replace("_*", ""), s.replace("*", series), 0) for s in sources]
        rows, schema = tabulate([], lambda point: (base,), columns)
    else:  # sweep
        axes = [parse_axis(text) for text in (args.axis1, args.axis2) if text]
        if len(axes) == 2 and axes[0].name == axes[1].name:
            raise ValidationError(f"axis {axes[0].name!r} is given twice")
        quantities = tuple(q.strip() for q in args.quantity.split(",") if q.strip())
        if not quantities:
            raise ValidationError("--quantity must name at least one quantity")
        for i, q in enumerate(quantities):
            if q not in QUANTITIES:
                raise ValidationError(
                    f"unknown quantity {q!r}; choose from {', '.join(QUANTITIES)}"
                )
            if q in quantities[:i]:
                raise ValidationError(f"quantity {q!r} is given twice")
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
