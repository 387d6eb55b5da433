"""cavcool benchmark: run one workload (or both) and print its metrics.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 55 --trace 0
    python3 bench/run.py                   # both workloads, seed 0, untraced

Each workload runs in a fresh worker process (worker.py) that imports cavcool
from this checkout's `src`.  With `--trace 0` the run reports the end-to-end
metrics (set-up time, wall and CPU time per round, throughput, peak RSS);
with `--trace 1` it reports the per-module metrics of a traced run (see
README.md).  The outputs of the run are then checked against the benchmark's
own computations (checks.py); an operation whose output fails a check counts
as failed.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A record of the run goes to
bench/out/records/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Set-up is sampled before and after the timed worker, to span the run.
SETUP_SAMPLES = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "params.construct.calls_per_point": "calls/point",
    "params.construct.cpu_s": "s",
    "params.parse_config.us": "us",
    "response.chi_total.calls_per_point": "calls/point",
    "response.s_ff.calls_per_point": "calls/point",
    "response.cpu_s": "s",
    "cooling.cooling_limit.calls": "count",
    "cooling.cooling_limit.us_per_call": "us",
    "cooling.cpu_s": "s",
    "reduction.calls_per_point": "calls/point",
    "reduction.cpu_s": "s",
    "lyapunov.build_model.calls_per_point": "calls/point",
    "lyapunov.eigen_stable.calls_per_point": "calls/point",
    "lyapunov.solve_steady.us_per_call": "us",
    "lyapunov.cpu_s": "s",
    "cli.emit_csv.cpu_s": "s",
    "cli.emit_csv.mb_per_s": "MB/s",
    "cli.emit_csv.rows": "count",
    "cli.sweep.threads": "count",
    "cli.sweep.wait_s": "s",
    "cli.main.overhead_us": "us",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(workload, seed, workdir, extra):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )


def _wait_ready(proc, t0):
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return time.perf_counter() - t0


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure_setup(workload, seed, workdir, warm_up):
    """Set-up times (process start to ready) of SETUP_SAMPLES fresh worker processes.

    With `warm_up` one more process runs first, uncounted, so that the file
    cache is filled and bytecode is written.
    """
    times = []
    for i in range(SETUP_SAMPLES + int(warm_up)):
        t0 = time.perf_counter()
        proc = _worker(workload, seed, workdir / f"setup{len(times)}", ["--setup-only"])
        elapsed = _wait_ready(proc, t0)
        _finish(proc, 60)
        if i or not warm_up:
            times.append(elapsed)
    return times


def merge_totals(totals):
    """Sum span totals (tracer.Tracer.collect results) of several operations."""
    spans, counts = {}, {}
    for t in totals:
        for name, entry in t["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                acc[key] += value
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {
        "spans": spans,
        "counts": counts,
        "worker_threads": max((t["worker_threads"] for t in totals), default=0),
        "worker_wait_s": sum(t["worker_wait_s"] for t in totals),
        "emitted_bytes": sum(t["emitted_bytes"] for t in totals),
        "emitted_rows": sum(t["emitted_rows"] for t in totals),
    }


def layer_metrics(traced, units):
    """Per-module metrics from the span totals of traced rounds, per round or per unit of work."""
    n = len(traced)

    def span(name, key):
        return sum(t["spans"].get(name, {}).get(key, 0.0) for t in traced)

    def layer(prefix, key):
        return sum(v[key] for t in traced for k, v in t["spans"].items() if k.startswith(prefix + "."))

    def per_call(name, key):
        calls = span(name, "calls")
        return 1e6 * span(name, key) / calls if calls else 0.0

    emit_wall = span("cli.emit_csv", "wall")
    per_point = n * units
    return {
        "params.construct.calls_per_point": span("params.construct", "calls") / per_point,
        "params.construct.cpu_s": span("params.construct", "cpu") / n,
        "params.parse_config.us": per_call("params.parse_config", "wall"),
        "response.chi_total.calls_per_point": sum(t["counts"].get("response.chi_total", 0) for t in traced) / per_point,
        "response.s_ff.calls_per_point": span("response.s_ff", "calls") / per_point,
        "response.cpu_s": layer("response", "self_cpu") / n,
        "cooling.cooling_limit.calls": span("cooling.cooling_limit", "calls") / n,
        "cooling.cooling_limit.us_per_call": per_call("cooling.cooling_limit", "cpu"),
        "cooling.cpu_s": layer("cooling", "self_cpu") / n,
        "reduction.calls_per_point": layer("reduction", "calls") / per_point,
        "reduction.cpu_s": layer("reduction", "self_cpu") / n,
        "lyapunov.build_model.calls_per_point": span("lyapunov.build_model", "calls") / per_point,
        "lyapunov.eigen_stable.calls_per_point": span("lyapunov.eigen_stable", "calls") / per_point,
        "lyapunov.solve_steady.us_per_call": per_call("lyapunov.solve_steady", "cpu"),
        "lyapunov.cpu_s": layer("lyapunov", "self_cpu") / n,
        "cli.emit_csv.cpu_s": span("cli.emit_csv", "cpu") / n,
        "cli.emit_csv.mb_per_s": sum(t["emitted_bytes"] for t in traced) / 1e6 / emit_wall if emit_wall else 0.0,
        "cli.emit_csv.rows": sum(t["emitted_rows"] for t in traced) / n,
        "cli.sweep.threads": max(t["worker_threads"] for t in traced),
        "cli.sweep.wait_s": sum(t["worker_wait_s"] for t in traced) / n,
        "cli.main.overhead_us": per_call("cli.main", "self_wall"),
    }


def _versions():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(workload, seed, seconds, trace):
    """Run, check and record one workload; returns the result object."""
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = [] if trace else measure_setup(workload, seed, workdir, warm_up=True)
    t0 = time.perf_counter()
    proc = _worker(workload, seed, workdir / "run",
                   ["--seconds", str(seconds), "--trace", str(trace)])
    ready = _wait_ready(proc, t0)
    out = _finish(proc, seconds + 60)
    if not trace:
        setup_times += [ready] + measure_setup(workload, seed, workdir, warm_up=False)
    result = json.loads(out.strip().splitlines()[-1])

    import checks

    problems = checks.check_workload(workload, seed, workdir / "run")
    bad_ops = {name for name, found in problems.items() if found}
    rounds = result["rounds"]
    attempted = len(rounds) * len(result["ops"])
    failed = sum(len(bad_ops | set(r["failed"])) for r in rounds)

    units = workloads.units_per_round(workload)
    if trace:
        parts = [{part: merge_totals([t for op, t in r["trace"].items() if workloads.part_of(op) == part])
                  for part in workloads.WORKLOAD_PARTS[workload]} for r in rounds if r["traced"]]
        values = layer_metrics([merge_totals(list(r.values())) for r in parts], units)
        walls = {flag: statistics.median(r["wall_s"] for r in rounds if r["traced"] == flag) for flag in (True, False)}
        values["trace.overhead_s"] = walls[True] - walls[False]
        by_part = {part: layer_metrics([r[part] for r in parts], workloads.units(part))
                   for part in workloads.WORKLOAD_PARTS[workload]}
        units_of = PER_LAYER
    else:
        wall = statistics.median(r["wall_s"] for r in rounds)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "points_per_s": units / wall,
            "peak_rss_mb": result["maxrss_kib"] / 1024.0,
        }
        by_part = {}
        units_of = END_TO_END
    metrics = {k: {"value": values[k], "unit": units_of[k]} for k in units_of}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **_versions(),
        "attempted": attempted,
        "failed": failed,
        "problems": {k: v for k, v in problems.items() if v},
        "units_per_round": units,
        "setup_s_samples": setup_times,
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "traced", "failed")} for r in rounds],
        "metrics": metrics,
        "metrics_by_part": by_part,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{stamp}-{workload}-seed{seed}-trace{trace}-{os.getpid()}.json"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / name).write_text(json.dumps(parts, indent=1), encoding="utf-8")
    if not bad_ops:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": not bad_ops, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavcool" / "__init__.py").is_file():
        print(f"error: no cavcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            result, record = run_workload(workload, args.seed, args.seconds, args.trace)
            results[workload] = result
            for key, problems in record["problems"].items():
                print(f"{workload} FAILED CHECK {key}: {'; '.join(problems)}")
            for key, metric in result["metrics"].items():
                print(f"{workload} {key} = {metric['value']:.6g} {metric['unit']}")
            for part, values in record["metrics_by_part"].items():
                for key, value in values.items():
                    print(f"{workload} [{part}] {key} = {value:.6g} {PER_LAYER[key]}")
            print(f"{workload} attempted = {result['attempted']}, failed = {result['failed']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
