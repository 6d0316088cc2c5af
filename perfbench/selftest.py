"""Self-test of the benchmark (kept out of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Short runs of every workload must emit every metric named in BENCHMARK.json
with its unit and no failed op; corrupted op results must be counted as
failed; traced self times must add up; and without ``src/`` the benchmark
must refuse to run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import marginlab  # noqa: E402
from marginlab import cli, experiments, landscape  # noqa: E402
from spans import Tracer, layer_metric_units  # noqa: E402
from worker import E2E_UNITS, Loop  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(workload: str, trace: int, seed: int = DEFAULT_SEED, cwd: str = ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--ops", "4"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_emitted_metric():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert e2e == {**E2E_UNITS, "setup_s": "s"}
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == layer_metric_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_emits_every_metric_and_fails_nothing(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 5
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0.0


def _first_op(workload: str, kind: str, seed: int) -> int:
    wl = WORKLOADS[workload]
    return next(i for i in range(12) if kind in wl.spec(seed, i).values())


def _corrupt_majority(res):
    return dataclasses.replace(res, per_trial=(res.per_trial[0], 10_001.0))


def _swap_majority(res):
    # Still a valid result, but not the recorded one for the default seed.
    return dataclasses.replace(res, per_trial=res.per_trial[::-1])


def _corrupt_two_stage(res):
    return dataclasses.replace(res, successes=res.trials + 1)


def _drop_last_solution(sols):
    return sols[:-1]


def _shift_discrepancy(res):
    return res[0] + 1e-3, res[1]


CORRUPTIONS = [
    ("rotation", "majority", experiments, "majority_stability_trial", _corrupt_majority, 1),
    ("rotation", "majority", experiments, "majority_stability_trial", _swap_majority,
     DEFAULT_SEED),
    ("online", "greedy_minimax", experiments, "online_two_stage_trial", _corrupt_two_stage, 1),
    ("exhaustive", "enumerate", landscape, "enumerate_solutions", _drop_last_solution, 1),
    ("exhaustive", "discrepancy", landscape, "discrepancy", _shift_discrepancy, 1),
]


@pytest.mark.parametrize("workload,kind,module,fn,corrupt,seed", CORRUPTIONS)
def test_corrupted_result_counts_as_failed(tmp_path, monkeypatch, workload, kind, module, fn,
                                           corrupt, seed):
    original = getattr(module, fn)
    monkeypatch.setattr(module, fn, lambda *a, **k: corrupt(original(*a, **k)))
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload]
    loop = Loop(WORKLOADS[workload], seed, str(tmp_path), ref if seed == DEFAULT_SEED else None)
    loop.op(_first_op(workload, kind, seed))
    assert (loop.attempted, loop.failed) == (1, 1), loop.errors


@pytest.mark.parametrize("kind", ["count-tuples", "thresholds"])
def test_corrupted_cli_output_counts_as_failed(tmp_path, monkeypatch, kind):
    original = cli.main

    def main(argv):
        code = original(argv)
        out = argv[argv.index("--out-dir") + 1]
        (name,) = [f for f in os.listdir(out) if f.endswith(".csv")]
        with open(os.path.join(out, name)) as fh:
            lines = fh.read().splitlines()
        lines = lines[:-1]  # a truncated table
        with open(os.path.join(out, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(cli, "main", main)
    loop = Loop(WORKLOADS["analytic"], 1, str(tmp_path), None)
    loop.op(_first_op("analytic", kind, 1))
    assert (loop.attempted, loop.failed) == (1, 1), loop.errors


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("online prefix property violated")

    monkeypatch.setattr(experiments, "online_two_stage_trial", boom)
    loop = Loop(WORKLOADS["online"], 1, str(tmp_path), None)
    loop.op(0)
    assert (loop.attempted, loop.failed) == (1, 1)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_self_times_add_up_and_wrappers_come_off(tmp_path, workload):
    tracer = Tracer()
    loop = Loop(WORKLOADS[workload], 1, str(tmp_path), None)
    tracer.install()
    try:
        for i in range(WORKLOADS[workload].cycle):
            loop.op(i, tracer.run_op)
    finally:
        tracer.uninstall()
    assert loop.failed == 0, loop.errors
    m = tracer.metrics()
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unwrapped_s"] == pytest.approx(m["trace.op_wall_s"], rel=1e-9)
    assert sum(v for k, v in m.items() if k.endswith(".calls")) > 0
    assert experiments.sample_disorder is marginlab.disorder.sample_disorder
    assert cli.main.__module__ == "marginlab.cli" and not hasattr(cli.main, "__wrapped__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("rotation", 0, seed=1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
