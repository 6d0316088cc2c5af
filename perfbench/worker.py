"""One workload in one fresh process: set up, signal READY, run the op loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up is the import,
the first op's input and one untimed warm-up op; the parent times a fresh
process up to the ``READY`` line.  The loop then runs whole cycles of ops
until ``--seconds`` have passed and at least ``MIN_OPS`` ops were timed (or
until ``--ops`` ops in short mode), checks every output, and prints one JSON
line.  With ``--trace 1`` odd cycles run under the tracer and even
cycles untraced, so that the tracing overhead is measured on the same mix.

End-to-end op latencies are normalised by the speed probe (``probe.py``),
run after the warm-up and then between ops whenever ``PROBE_EVERY_S`` have
passed: the ops between two probes are scaled by the mean of their factors.
The probe right after the warm-up also normalises this process's set-up
time.  The raw values are reported next to them; per-layer metrics are not
normalised.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy

import marginlab
from probe import SpeedProbe
from spans import Tracer, layer_metric_units
from workloads import DEFAULT_SEED, WORKLOADS

#: Enough timed ops that ten lie beyond the 90th percentile.
MIN_OPS = 100

#: Seconds between two speed probes.  The host can switch between a fast
#: and a 1.5x slower state within seconds, so the probe samples it densely
#: (about 5% of a run).
PROBE_EVERY_S = 0.1

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MiB", "ok_frac": "ratio"}

HERE = os.path.dirname(os.path.abspath(__file__))


class Loop:
    """Runs and checks ops of one workload, accumulating latencies and failures."""

    def __init__(self, workload, seed: int, workdir: str, reference: list | None) -> None:
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference or []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, i: int, call=None) -> float:
        """Run op ``i`` (through ``call`` if given), check it, return its latency."""
        spec = self.wl.spec(self.seed, i)
        opdir = os.path.join(self.workdir, f"op{i}")
        os.mkdir(opdir)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(i, self.wl.run, spec, opdir) if call else self.wl.run(spec, opdir)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - t0
            bad = [f"raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - t0
            ref = self.reference[i] if i < len(self.reference) else None
            try:
                bad = self.wl.check(spec, out, opdir, ref)
            except Exception as exc:  # unreadable output fails the check
                bad = [f"check raised {exc!r}"]
        shutil.rmtree(opdir)
        if bad:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"op {i} {spec}: {'; '.join(bad)}")
        return elapsed


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                return getter()
    return None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args: argparse.Namespace, workdir: str) -> dict:
    wl = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)[wl.name]
    loop = Loop(wl, args.seed, workdir, reference)
    probe = SpeedProbe()
    loop.op(0)  # warm-up: counted as attempted, never timed
    print("READY", flush=True)
    setup_factor = probe.factor(repeats=3)
    if args.setup_only:
        return {"setup_factor": setup_factor}

    tracer = Tracer() if args.trace else None
    lat = {False: [], True: []}
    normalised: list[float] = []
    pending: list[float] = []  # untraced latencies since the last probe
    factor, probed = setup_factor, time.perf_counter()
    cpu = wall = 0.0
    i = 1
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = bool(tracer) and cycle % 2 == 1
        if traced:
            tracer.install()
        for k in range(wl.cycle):
            c0, w0 = time.process_time(), time.perf_counter()
            lat[traced].append(loop.op(i, tracer.run_op if traced else None))
            i += 1
            if traced:
                continue
            cpu += time.process_time() - c0
            wall += time.perf_counter() - w0
            pending.append(lat[False][-1])
            if time.perf_counter() - probed >= PROBE_EVERY_S or k == wl.cycle - 1:
                new = probe.factor()
                normalised += [t * (factor + new) / 2 for t in pending]
                pending.clear()
                factor, probed = new, time.perf_counter()
        if traced:
            tracer.uninstall()
        cycle += 1
        timed = len(lat[False]) + len(lat[True])
        if args.ops is not None:
            done = timed >= args.ops
        else:
            done = time.perf_counter() - start >= args.seconds and timed >= MIN_OPS
        if done and (not tracer or cycle % 2 == 0):
            break

    result = {"attempted": loop.attempted, "failed": loop.failed, "errors": loop.errors,
              "correct": True, "provenance": {
                  "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "marginlab": marginlab.__version__,
                  "blas_threads": blas_threads(), "timed_ops": timed, "cycles": cycle},
              "setup_factor": setup_factor}
    untraced = lat[False]
    if not tracer:
        result["metrics"], result["raw_metrics"] = (
            {"ops_per_s": len(times) / sum(times),
             "op_p50_ms": 1e3 * statistics.median(times),
             "op_p90_ms": 1e3 * percentile(times, 90),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "ok_frac": 1.0 - loop.failed / loop.attempted}
            for times in (normalised, untraced))
        result["units"] = dict(E2E_UNITS)
        return result
    metrics = tracer.metrics()
    traced_rate = len(lat[True]) / sum(lat[True])
    untraced_rate = len(untraced) / sum(untraced)
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    metrics["run.cpu_per_wall"] = cpu / wall
    # Self times of the wrapped layers plus the unwrapped remainder must add
    # up to the traced op wall time.
    agg, _ = tracer.totals()
    self_sum = sum(t["self_s"] for t in agg.values())
    if abs(self_sum - agg["op"]["span_s"]) > 1e-9 * agg["op"]["span_s"]:
        result["correct"] = False
        result["errors"].append(f"self times sum to {self_sum}, op wall {agg['op']['span_s']}")
    result["metrics"] = metrics
    result["units"] = layer_metric_units()
    tracer.write(os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.jsonl"))
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = p.parse_args(argv)
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
