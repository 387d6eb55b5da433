"""Span recorder for the traced benchmark run.

`install` replaces public functions of the cavcool modules with wrappers
(and wraps `NormalizedParams.__init__`, so `replace` is seen too).  Calls
between cavcool modules look functions up as module attributes, so nested
calls pass through the wrappers as well.  Each timed call records a span:
name, parent span name, wall time (`perf_counter`) and thread CPU time
(`thread_time`), on a per-thread stack.  Inside the sweep's thread pool a
span's wall time includes waits for the interpreter lock.  Functions that
cost about a microsecond are counted, not timed.

Spans are kept in per-thread arrays and folded into per-name totals by
`collect`, which the worker calls after each operation of a traced round;
the totals are written when the run ends.
"""

import os
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

# (module, attribute) pairs that get a timed span, named "<module>.<attribute>".
TIMED = (
    ("params", "parse_config"),
    ("response", "s_ff"),
    ("response", "self_energy"),
    ("cooling", "rates"),
    ("cooling", "net_rate"),
    ("cooling", "spring_shift"),
    ("cooling", "cooling_limit"),
    ("cooling", "optimal_detuning"),
    ("reduction", "effective_params"),
    ("reduction", "stability_single"),
    ("reduction", "stability_coupled"),
    ("lyapunov", "build_model"),
    ("lyapunov", "eigen_stable"),
    ("lyapunov", "solve_steady"),
    ("lyapunov", "oracle_compare"),
    ("cli", "main"),
    ("cli", "evaluate_quantities"),
    ("cli", "run_sweep"),
    ("cli", "run_figure"),
    ("cli", "emit_csv"),
)
COUNTED = (("response", "chi_total"),)
CONSTRUCT = "params.construct"
EMIT = "cli.emit_csv"


class _Thread:
    """Spans and counts of one thread."""

    def __init__(self, main):
        self.main = main
        self.stack = []
        self.name = array("i")
        self.parent = array("i")
        self.wall = array("d")
        self.cpu = array("d")
        self.child_wall = array("d")
        self.child_cpu = array("d")
        self.counts = {}

    def clear(self):
        for buf in (self.name, self.parent, self.wall, self.cpu, self.child_wall, self.child_cpu):
            del buf[:]
        self.counts.clear()


class Tracer:
    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._restore = []
        self.emitted_bytes = 0
        self.emitted_rows = 0

    def _thread(self):
        try:
            return self._local.state
        except AttributeError:
            state = _Thread(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def _id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def timed(self, name, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            state = self._thread()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [nid, 0.0, 0.0]
            stack.append(frame)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - c0
                wall = perf_counter() - w0
                stack.pop()
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                state.name.append(nid)
                state.parent.append(parent[0] if parent is not None else -1)
                state.wall.append(wall)
                state.cpu.append(cpu)
                state.child_wall.append(frame[1])
                state.child_cpu.append(frame[2])

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            counts = self._thread().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _emit(self, fn):
        timed = self.timed(EMIT, fn)

        def wrapper(rows, schema, path):
            timed(rows, schema, path)
            self.emitted_rows += len(rows)
            self.emitted_bytes += os.path.getsize(path)

        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules):
        """Wrap the traced functions of `modules` (a dict of name -> module)."""
        for mod, attr in TIMED:
            fn = getattr(modules[mod], attr)
            wrapped = self._emit(fn) if f"{mod}.{attr}" == EMIT else self.timed(f"{mod}.{attr}", fn)
            self._patch(modules[mod], attr, wrapped)
        for mod, attr in COUNTED:
            self._patch(modules[mod], attr, self.counted(f"{mod}.{attr}", getattr(modules[mod], attr)))
        cls = modules["params"].NormalizedParams
        self._patch(cls, "__init__", self.timed(CONSTRUCT, cls.__init__))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def collect(self):
        """Fold the spans recorded since the last call into per-name totals.

        Returns a dict with, per span name, the call count and the inclusive
        and self wall and CPU time; the counted calls; the number of worker
        threads that recorded spans; the summed wall-minus-CPU time of the
        worker threads' outermost spans; and the CSV bytes and rows emitted.
        """
        n = len(self.names)
        totals = {k: np.zeros(n) for k in ("calls", "wall", "cpu", "self_wall", "self_cpu")}
        counts = {}
        workers = 0
        worker_wait = 0.0
        with self._lock:
            threads = list(self._threads)
            # Pool threads end with their sweep; only the main thread's state lives on.
            self._threads = [t for t in threads if t.main]
        for t in threads:
            name = np.frombuffer(t.name, dtype=np.int32)
            wall = np.frombuffer(t.wall)
            cpu = np.frombuffer(t.cpu)
            totals["calls"] += np.bincount(name, minlength=n)
            totals["wall"] += np.bincount(name, wall, minlength=n)
            totals["cpu"] += np.bincount(name, cpu, minlength=n)
            totals["self_wall"] += np.bincount(name, wall - np.frombuffer(t.child_wall), minlength=n)
            totals["self_cpu"] += np.bincount(name, cpu - np.frombuffer(t.child_cpu), minlength=n)
            for key, value in t.counts.items():
                counts[key] = counts.get(key, 0) + value
            if not t.main and len(name):
                workers += 1
                root = np.frombuffer(t.parent, dtype=np.int32) == -1
                worker_wait += float(np.sum(wall[root] - cpu[root]))
            del name, wall, cpu
            t.clear()
        spans = {}
        for i, label in enumerate(self.names):
            if totals["calls"][i]:
                entry = spans.setdefault(label, dict.fromkeys(totals, 0.0))
                for key in totals:
                    entry[key] += float(totals[key][i])
        result = {
            "spans": spans,
            "counts": counts,
            "worker_threads": workers,
            "worker_wait_s": worker_wait,
            "emitted_bytes": self.emitted_bytes,
            "emitted_rows": self.emitted_rows,
        }
        self.emitted_bytes = 0
        self.emitted_rows = 0
        return result
