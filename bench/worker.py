"""One workload in a fresh process: set-up, timed rounds, optional trace.

Started by run.py, never by hand.  Prints `ready` once set-up is done, then
runs whole rounds of the workload's operations until `--seconds` would be
exceeded, and prints one JSON line with the per-round times, the peak RSS and
the failed operations.  An operation fails when it raises, when a `cavcool`
command exits non-zero, or when its output differs from the first round's.
The checks in run.py then test the first round's outputs, which therefore
stand for every round.  The process never imports scipy, so its peak RSS is
the workload's own.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cavcool():
    """Import cavcool from the checkout's `src`, never from an installed copy."""
    init = SRC / "cavcool" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no cavcool sources at {init}")
    sys.path.insert(0, str(SRC))
    import cavcool
    from cavcool import cli, cooling, lyapunov, params, reduction, response

    if Path(cavcool.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cavcool from {cavcool.__file__}, not {init}")
    return {
        "cli": cli, "params": params, "response": response,
        "cooling": cooling, "reduction": reduction, "lyapunov": lyapunov,
    }


@dataclasses.dataclass
class Op:
    """One operation of a round: a call and the files it writes."""

    name: str
    call: object
    files: tuple = ()


def _cli_op(mods, name, argv, files):
    def call():
        code = mods["cli"].main(argv)
        if code != 0:
            raise RuntimeError(f"cavcool {argv[0]} exited with {code}")

    return Op(name, call, tuple(files))


def _sweep_op(mods, part, seed, workdir):
    spec = workloads.sweep(part, seed)
    config = workdir / f"{part}.cfg"
    config.write_text(workloads.config_text(spec.base), encoding="utf-8")
    mods["params"].parse_config(config.read_text(encoding="utf-8"))
    out = workdir / f"{part}.csv"
    return _cli_op(mods, part, spec.argv(str(config), str(out)), [out])


def _figure_ops(mods, seed, workdir):
    ops = []
    for fig in workloads.figure_order(seed):
        out = workdir / f"{fig}.csv"
        ops.append(_cli_op(mods, fig, ["figure", "--id", fig, "--out", str(out)], [out, workdir / f"{fig}.gp"]))
    return ops


def _point_ops(mods, seed, workdir):
    cooling, lyapunov = mods["cooling"], mods["lyapunov"]
    ops = []
    for i, point in enumerate(workloads.points(seed)):
        config = workdir / f"p{i:02d}.cfg"
        config.write_text(workloads.config_text(point), encoding="utf-8")
        p = mods["params"].parse_config(config.read_text(encoding="utf-8"))
        for sub in workloads.POINT_SUBCOMMANDS:
            out = workdir / f"p{i:02d}_{sub}.csv"
            ops.append(_cli_op(mods, f"p{i:02d}:{sub}", [sub, "--config", str(config), "--out", str(out)], [out]))
        for objective in workloads.OPTIMIZER_OBJECTIVES:
            ops.append(Op(
                f"p{i:02d}:optimal_detuning:{objective}",
                lambda p=p, objective=objective: cooling.optimal_detuning(p, mode="numeric", objective=objective),
            ))
        ops.append(Op(
            f"p{i:02d}:oracle_compare",
            lambda p=p: {k: v for k, v in dataclasses.asdict(lyapunov.oracle_compare(p)).items()
                         if isinstance(v, (bool, int, float))},
        ))
    return ops


def setup(workload, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    mods = import_cavcool()
    if workload == "sweeps":
        ops = [_sweep_op(mods, part, seed, workdir) for part in workloads.SWEEPS]
    else:
        ops = _figure_ops(mods, seed, workdir) + _point_ops(mods, seed, workdir)
    return mods, ops


def _run_round(ops, tracer):
    """Values of one round's operations and, with a tracer, span totals per operation."""
    values, trace = [], {}
    for op in ops:
        try:
            values.append(("ok", op.call()))
        except Exception as exc:  # a failed operation is data, counted by run.py
            values.append(("error", f"{type(exc).__name__}: {exc}"))
        if tracer is not None:
            trace[op.name] = tracer.collect()
    return values, trace


def _fingerprint(op, value):
    digest = hashlib.sha256(json.dumps(value, sort_keys=True).encode())
    for path in op.files:
        try:
            digest.update(Path(path).read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


def measure(ops, seconds, tracer=None, modules=None):
    """Whole rounds until the next one would end after `seconds`.

    Returns per-round wall and CPU times, per-round failed operation names,
    the first round's values, and with a tracer the span totals of each
    operation of the traced rounds.  With a tracer the first half of the time runs
    untraced and the second half traced.
    """
    phases = [(seconds, None)] if tracer is None else [(seconds / 2.0, None), (seconds / 2.0, tracer)]
    rounds, first, reference = [], None, None
    for budget, active in phases:
        if active is not None:
            active.install(modules)
        start = time.perf_counter()
        walls = []
        try:
            while True:
                w0, c0 = time.perf_counter(), time.process_time()
                values, trace = _run_round(ops, active)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
                prints = [_fingerprint(op, v) for op, v in zip(ops, values)]
                if reference is None:
                    reference, first = prints, values
                failed = [op.name for op, v, fp, ref in zip(ops, values, prints, reference)
                          if v[0] != "ok" or fp != ref]
                rounds.append({"wall_s": wall, "cpu_s": cpu, "traced": active is not None,
                               "failed": failed, "trace": trace})
                walls.append(wall)
                if time.perf_counter() - start + statistics.median(walls) > budget:
                    break
        finally:
            if active is not None:
                active.uninstall()
    return rounds, first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    mods, ops = setup(args.workload, args.seed, workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    rounds, first = measure(ops, args.seconds, tracer, mods)
    (workdir / "values.json").write_text(
        json.dumps({op.name: v for op, v in zip(ops, first)}, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "ops": [op.name for op in ops],
        "rounds": rounds,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
