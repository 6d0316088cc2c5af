"""marginlab benchmark: one workload, fresh processes, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload rotation --seed 1 --seconds 20 --trace 0

Workloads are ``rotation``, ``online``, ``analytic`` and ``exhaustive`` (see
``perfbench/README.md``).  The package is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2 before measuring.

``--trace 0`` starts ``SETUP_RUNS`` fresh processes one after another and
times each from spawn to the end of its warm-up op (``setup_s`` is the
median, normalised by the speed probe each process runs right after); the
last one then runs the closed op loop and reports the other end-to-end
metrics.  ``--trace 1`` runs one process whose loop alternates
traced and untraced cycles and reports the per-layer metrics.  Every op's
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.  Full results, and the spans of a traced run, are
written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("rotation", "online", "analytic", "exhaustive")

#: Fresh processes timed to their first op; the last one runs the loop.
SETUP_RUNS = 5

#: Whole-run budget; the benchmark must exit within 180 s.
DEADLINE_S = 170.0

#: marginlab's BLAS calls are small matrix-vector products; an idle second
#: OpenBLAS thread spins after each one, which makes timings depend on load
#: on the other core.  One BLAS thread keeps ``run.cpu_per_wall`` a measure of
#: the package's own parallelism.
CHILD_ENV = {"PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}



class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    with open(os.path.join(git, "HEAD")) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if os.path.isfile(os.path.join(git, ref)):
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


class Child:
    """A worker process, started at construction."""

    def __init__(self, args: argparse.Namespace, setup_only: bool) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        if setup_only:
            cmd.append("--setup-only")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env={**os.environ, **CHILD_ENV},
                                     stdout=subprocess.PIPE, text=True)

    def wait_ready(self) -> float:
        """Seconds from spawn to the READY line."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise BenchError(f"worker did not become ready (got {line!r})")
        return time.perf_counter() - self.start

    def finish(self, deadline: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the time budget") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure(args: argparse.Namespace) -> dict:
    """Run the set-up processes and then the measuring process, one at a time."""
    deadline = time.monotonic() + DEADLINE_S
    children: list[Child] = []
    # readline() cannot time out, so a timer kills stuck workers at the deadline.
    timer = threading.Timer(DEADLINE_S, lambda: [c.proc.kill() for c in children
                                                 if c.proc.poll() is None])
    timer.start()
    try:
        runs = 1 if args.trace else SETUP_RUNS
        setups, factors = [], []
        for k in range(runs):
            children.append(Child(args, setup_only=k < runs - 1))
            setups.append(children[-1].wait_ready())
            result = json.loads(children[-1].finish(deadline).strip().splitlines()[-1])
            factors.append(result["setup_factor"])
    finally:
        timer.cancel()
        for child in children:
            child.stop()
    result["provenance"]["setup_samples_s"] = setups
    result["provenance"]["setup_probe_factors"] = factors
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(s * f for s, f in zip(setups, factors))
        result["raw_metrics"]["setup_s"] = statistics.median(setups)
        result["units"]["setup_s"] = "s"
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--ops", type=int, default=None,
                   help="short mode: about this many timed ops (whole cycles), any duration")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marginlab", "__init__.py")):
        print(f"perfbench: no marginlab package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, units = result["metrics"], result["units"]
    provenance = result["provenance"]
    provenance.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.machine(), "git_commit": _git_commit(),
    })
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    correct = (result["correct"] and result["failed"] == 0
               and units == {m["name"]: m["unit"] for m in declared})
    for err in result["errors"]:
        print(f"FAILED {err}")
    raw = result.get("raw_metrics", {})
    for name, unit in units.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw and raw[name] != metrics[name] else ""
        print(f"{name:<52} {metrics[name]:>14.6g} {unit}{extra}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=2)
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": bool(correct), "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
