"""In-memory span tracing around the calls into each marginlab layer.

Public functions are imported by name into the modules that call them (for
example ``experiments.sample_disorder`` or ``cli.scan_negativity``), so a
wrapper is swapped into every module whose attribute is the original
function.  Spans are recorded only inside an op; each op has a root span
whose self time is the work no wrapper covers.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time

import marginlab
from marginlab import cli, disorder, experiments, landscape, mvn, solvers, thresholds

_MODULES = (marginlab, disorder, mvn, landscape, thresholds, solvers, experiments, cli)

ROOT = "op"


def _arg(a: tuple, k: dict, pos: int, name: str):
    return a[pos] if len(a) > pos else k[name]


def _fresh_entries(a, k, result) -> int:
    delta = _arg(a, k, 1, "delta")
    return result.rows * int(math.floor(delta * result.cols + 1e-9))


def _bytes_written(a, k, result) -> int:
    argv = _arg(a, k, 0, "argv")
    out = argv[argv.index("--out-dir") + 1]
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


#: (module, function, work done by one call or None, rate metric or None).
#: A rate is work per self-second, except ``points_per_s`` which is per span
#: second so that moving quadrature work into the scan itself does not read
#: as a slower scan.
TARGETS = (
    ("disorder", "sample_disorder", lambda a, k, r: r.rows * r.cols, "entries_per_s"),
    ("disorder", "resample_columns", _fresh_entries, "fresh_entries_per_s"),
    ("disorder", "interpolate", None, None),
    ("solvers", "majority_solve", None, None),
    ("solvers", "kim_roche_solve", None, None),
    ("solvers", "online_solve", lambda a, k, r: _arg(a, k, 0, "mat").cols, "steps_per_s"),
    ("mvn", "box_probability_equicorrelated", None, "us_per_call"),
    ("thresholds", "scan_negativity", lambda a, k, r: len(r.points), "points_per_s"),
    ("landscape", "count_overlap_tuples_exact", None, None),
    ("landscape", "enumerate_solutions",
     lambda a, k, r: 2 ** _arg(a, k, 0, "mat").cols, "configs_per_s"),
    ("landscape", "discrepancy",
     lambda a, k, r: 2 ** (_arg(a, k, 0, "mat").cols - 1), "configs_per_s"),
    ("experiments", "majority_stability_trial", None, None),
    ("experiments", "kim_roche_stability_trial", None, None),
    ("experiments", "online_two_stage_trial", None, None),
    ("cli", "main", _bytes_written, "bytes_written"),
)

RATE_UNITS = {
    "entries_per_s": "1/s", "fresh_entries_per_s": "1/s", "steps_per_s": "1/s",
    "us_per_call": "us", "points_per_s": "1/s", "configs_per_s": "1/s",
    "bytes_written": "bytes/op",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for mod, fn, _, rate in TARGETS:
        name = f"{mod}.{fn}"
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
        units[f"{name}.errors"] = "errors/op"
        if rate:
            units[f"{name}.{rate}"] = RATE_UNITS[rate]
    units.update({
        "trace.op_wall_s": "s/op", "trace.unwrapped_s": "s/op",
        "trace.overhead_frac": "ratio", "run.cpu_per_wall": "ratio",
    })
    return units


class Tracer:
    """Records spans (name, start, end, parent, op id) while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object, object]] = []
        for mod, fn, work, _ in TARGETS:
            original = getattr(getattr(marginlab, mod), fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, work)
            for consumer in _MODULES:
                if consumer.__dict__.get(fn) is original:
                    self._patches.append((consumer, fn, original, wrapper))

    def install(self) -> None:
        for consumer, fn, _, wrapper in self._patches:
            setattr(consumer, fn, wrapper)

    def uninstall(self) -> None:
        for consumer, fn, original, _ in self._patches:
            setattr(consumer, fn, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span."""
        self._op = op_id
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    def _wrap(self, name: str, fn, work):
        self.work[name] = 0
        self.errors[name] = 0

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if self._op is None:
                return fn(*a, **k)
            idx = self._open(name)
            try:
                result = fn(*a, **k)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self._close(idx)
            if work is not None:
                self.work[name] += work(a, k, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, dict[str, float]], int]:
        """Per span name: calls, span seconds and self seconds; and op count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        agg: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            t = agg.setdefault(name, {"calls": 0, "span_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["span_s"] += end - start
            t["self_s"] += end - start - c
        return agg, int(agg.get(ROOT, {"calls": 0})["calls"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics normalised per traced op (rates per second)."""
        agg, ops = self.totals()
        out: dict[str, float] = {}
        for mod, fn, _, rate in TARGETS:
            name = f"{mod}.{fn}"
            t = agg.get(name, {"calls": 0, "span_s": 0.0, "self_s": 0.0})
            out[f"{name}.calls"] = t["calls"] / ops
            out[f"{name}.self_s"] = t["self_s"] / ops
            out[f"{name}.errors"] = self.errors[name] / ops
            if rate == "us_per_call":
                out[f"{name}.{rate}"] = 1e6 * t["self_s"] / t["calls"] if t["calls"] else 0.0
            elif rate == "bytes_written":
                out[f"{name}.{rate}"] = self.work[name] / ops
            elif rate:
                secs = t["span_s"] if rate == "points_per_s" else t["self_s"]
                out[f"{name}.{rate}"] = self.work[name] / secs if secs > 0 else 0.0
        root = agg[ROOT]
        out["trace.op_wall_s"] = root["span_s"] / ops
        out["trace.unwrapped_s"] = root["self_s"] / ops
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
