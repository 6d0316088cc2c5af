"""The four benchmark workloads: per-op inputs, the library call, output checks.

Every op is a pure function of (workload, seed, op index): ``spec`` derives
its parameters and library seeds, ``run`` makes the library call, ``check``
tests invariants that hold for any seed, and ``summary`` reduces the output to
a JSON record that is compared against ``reference.json`` for the default
seed.  Library functions are looked up on their modules at call time, so the
traced run sees the wrappers it swaps in.

Where a workload's op kinds differ in cost, its cycle runs them 1:2 or 1:3
rather than 1:1: with equal shares the median latency would fall in the gap
between the two cost clusters and jump from run to run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random

import numpy as np

from marginlab import cli, disorder, experiments, landscape

DEFAULT_SEED = 0

#: Relative and absolute tolerance for floats compared against references.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _lib_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _int_in(x, lo: int, hi: int) -> bool:
    return float(x) == int(x) and lo <= int(x) <= hi


# --- rotation: coupled majority / multi-round stability at README sizes ----

ROT_N = 10_000
ROT_TAUS = (0.05, 0.1, 0.3)


def rotation_spec(seed: int, i: int) -> dict:
    rng = _rng("rotation", seed, i)
    kind = ("majority", "kim_roche")[i % 2]
    return {"kind": kind, "tau": ROT_TAUS[i % 3], "seed": _lib_seed(rng)}


def rotation_run(spec: dict, workdir: str):
    if spec["kind"] == "majority":
        return experiments.majority_stability_trial(
            n=ROT_N, k_rows=100, tau=spec["tau"], trials=2, seed=spec["seed"])
    return experiments.kim_roche_stability_trial(
        n=ROT_N, alpha=0.01, tau=spec["tau"], trials=2, seed=spec["seed"])


def rotation_check(spec: dict, out, workdir: str) -> list[str]:
    bad = []
    if spec["kind"] == "majority":
        if len(out.per_trial) != 2:
            bad.append(f"expected 2 trials, got {len(out.per_trial)}")
        if not all(_int_in(d, 0, ROT_N) for d in out.per_trial):
            bad.append(f"hamming distance outside [0, n]: {out.per_trial}")
        elif not math.isclose(out.mean, sum(out.per_trial) / len(out.per_trial)):
            bad.append("mean does not match per-trial distances")
        return bad
    if len(out.final_distances) != 2:
        bad.append(f"expected 2 trials, got {len(out.final_distances)}")
    for final, rounds in zip(out.final_distances, out.round_disagreements):
        if not _int_in(final, 0, ROT_N):
            bad.append(f"final hamming distance {final} outside [0, n]")
        if not all(_int_in(c, 0, ROT_N) for c in rounds) or list(rounds) != sorted(rounds):
            bad.append(f"cumulative disagreements not a nondecreasing count: {rounds}")
        elif rounds[-1] != final:
            bad.append(f"last cumulative disagreement {rounds[-1]} != final {final}")
    if not all(0.0 <= a <= 1.0 for ag in out.vote_set_agreements for a in ag):
        bad.append("vote-set agreement outside [0, 1]")
    return bad


def rotation_summary(spec: dict, out, workdir: str) -> dict:
    if spec["kind"] == "majority":
        return {"per_trial": [int(d) for d in out.per_trial],
                "mean": out.mean, "std_error": out.std_error}
    return {"final_distances": list(out.final_distances),
            "round_disagreements": [list(r) for r in out.round_disagreements],
            "vote_set_agreements": [list(a) for a in out.vote_set_agreements],
            "median_final_ratio": out.median_final_ratio}


# --- online: column-by-column solvers on a block-resampled pair -------------

ONLINE_CYCLE = ("greedy_minimax", "exp_potential", "exp_potential")


def online_spec(seed: int, i: int) -> dict:
    rng = _rng("online", seed, i)
    return {"strategy": ONLINE_CYCLE[i % 3], "seed": _lib_seed(rng)}


def online_run(spec: dict, workdir: str):
    # The shared-prefix assertion raises inside the call, failing the op.
    return experiments.online_two_stage_trial(
        n=1000, alpha=0.25, delta=0.1, trials=1, seed=spec["seed"],
        strategy=spec["strategy"], kappa=1.0)


def online_check(spec: dict, out, workdir: str) -> list[str]:
    bad = []
    if not _int_in(out.successes, 0, out.trials):
        bad.append(f"successes {out.successes} outside [0, trials]")
    elif out.fraction != out.successes / out.trials:
        bad.append("fraction does not match successes / trials")
    if not (0.0 <= out.wilson_lo <= out.fraction <= out.wilson_hi <= 1.0):
        bad.append("Wilson interval does not bracket the fraction")
    return bad


def online_summary(spec: dict, out, workdir: str) -> dict:
    return {"successes": out.successes, "wilson_lo": out.wilson_lo,
            "wilson_hi": out.wilson_hi}


# --- analytic: in-process CLI scans and exact tuple counts ------------------

SCAN_ALPHAS = {"f1": (1.70, 1.80), "f2": (1.64, 1.74), "f3": (1.60, 1.70)}
SCAN_POINTS = 100
# A 100-point window at the start of the default f1 grid (1e-5 step 1e-4).
F1_WINDOW = ["--lo", "1e-05", "--hi", "0.00991", "--step", "0.0001"]
SCAN_HEADER = ["abscissa", "value", "counting_part", "probability_part", "prob_error"]
COUNT_HEADER = ["n", "m", "beta", "eta", "kappa", "tau_set_id", "count", "seconds"]
ANALYTIC_CYCLE = ("f1", "count-tuples", "f2", "f3")


def analytic_spec(seed: int, i: int) -> dict:
    rng = _rng("analytic", seed, i)
    which = ANALYTIC_CYCLE[i % 4]
    if which != "count-tuples":
        alpha = round(rng.uniform(*SCAN_ALPHAS[which]), 3)
        return {"kind": "thresholds", "which": which, "alpha": alpha}
    # beta*n and eta*n are integers so the band is exact; a band of 16
    # distances at overlap ~1/2 keeps each count under 0.1 s.
    n = 800 + 4 * rng.randint(-3, 3)
    beta_n = n // 2 + 2 * rng.randint(-5, 5)
    return {"kind": "count-tuples", "n": n, "beta": beta_n / n, "eta": 16 / n}


def _argv(spec: dict, workdir: str) -> list[str]:
    if spec["kind"] == "thresholds":
        argv = ["thresholds", "--which", spec["which"], "--alpha", repr(spec["alpha"])]
        if spec["which"] == "f1":
            argv += F1_WINDOW
    else:
        argv = ["count-tuples", "--n", str(spec["n"]), "--m", "3",
                "--beta", repr(spec["beta"]), "--eta", repr(spec["eta"])]
    return argv + ["--out-dir", workdir]


def analytic_run(spec: dict, workdir: str) -> int:
    argv = _argv(spec, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(workdir: str, prefix: str) -> list[list[str]]:
    names = [f for f in os.listdir(workdir) if f.startswith(prefix) and f.endswith(".csv")]
    if len(names) != 1:
        raise ValueError(f"expected one {prefix}*.csv, found {names}")
    with open(os.path.join(workdir, names[0]), newline="") as fh:
        return list(csv.reader(fh))


def _scan_rows(workdir: str) -> tuple[list[list[float]], dict]:
    rows = _read_csv(workdir, "scan_")
    if rows[0] != SCAN_HEADER:
        raise ValueError(f"scan CSV header {rows[0]}")
    (name,) = [f for f in os.listdir(workdir) if f.endswith("_summary.json")]
    with open(os.path.join(workdir, name)) as fh:
        summary = json.load(fh)
    return [[float(x) for x in r] for r in rows[1:]], summary


def analytic_check(spec: dict, code: int, workdir: str) -> list[str]:
    if spec["kind"] == "count-tuples":
        if code != 0:
            return [f"count-tuples exit code {code}"]
        rows = _read_csv(workdir, "tuple_counts_")
        if rows[0] != COUNT_HEADER or len(rows) != 2:
            return [f"tuple-count CSV has header {rows[0]} and {len(rows) - 1} rows"]
        row = dict(zip(COUNT_HEADER, rows[1]))
        n = spec["n"]
        if (int(row["n"]), int(row["m"]), float(row["beta"]), float(row["eta"])) != (
                n, 3, spec["beta"], spec["eta"]):
            return [f"tuple-count row {row} does not echo the query"]
        count = int(row["count"])
        if count <= 0 or count % (1 << n):
            return [f"count {count} is not a positive multiple of 2^{n}"]
        return []
    if code not in (0, 2):
        return [f"thresholds exit code {code}"]
    rows, summary = _scan_rows(workdir)
    bad = []
    if len(rows) != SCAN_POINTS or summary["n_points"] != SCAN_POINTS:
        bad.append(f"scan has {len(rows)} rows, summary {summary['n_points']}, "
                   f"grid {SCAN_POINTS}")
    certified = [r[0] for r in rows if r[1] + r[4] < 0.0]
    if summary["n_negative"] != len(certified):
        bad.append(f"n_negative {summary['n_negative']} but {len(certified)} rows "
                   "have value + prob_error < 0")
    if code != (0 if certified else 2):
        bad.append(f"exit code {code} with {len(certified)} certified-negative points")
    interval = [certified[0], certified[-1]] if certified else None
    if summary["negative_interval"] != interval:
        bad.append(f"negative interval {summary['negative_interval']} != {interval}")
    if rows and summary["min_value"] != min(r[1] for r in rows):
        bad.append("min_value is not the CSV minimum")
    return bad


def analytic_summary(spec: dict, code: int, workdir: str) -> dict:
    if spec["kind"] == "count-tuples":
        # The wall-clock seconds column is not a reproducible output.
        return {"count": _read_csv(workdir, "tuple_counts_")[1][6]}
    rows, summary = _scan_rows(workdir)
    return {"code": code, "n_negative": summary["n_negative"],
            "values": [r[1] for r in rows]}


# --- exhaustive: meet-in-the-middle cube scans ------------------------------

ENUM_N = 20
DISC_N = 21
ENUM_KAPPA = 1.0


EXHAUSTIVE_CYCLE = ("enumerate", "discrepancy", "discrepancy")


def exhaustive_spec(seed: int, i: int) -> dict:
    rng = _rng("exhaustive", seed, i)
    return {"kind": EXHAUSTIVE_CYCLE[i % 3], "seed": _lib_seed(rng)}


def exhaustive_run(spec: dict, workdir: str):
    if spec["kind"] == "enumerate":
        mat = disorder.sample_disorder(ENUM_N, 0.5, seed=spec["seed"])
        return mat, landscape.enumerate_solutions(mat, kappa=ENUM_KAPPA)
    mat = disorder.sample_disorder(DISC_N, 0.5, seed=spec["seed"])
    return mat, landscape.discrepancy(mat)


def _max_abs_margin(entries: np.ndarray, masks: np.ndarray, n: int) -> float:
    # In blocks, so that checking a large solution set adds little to peak RSS.
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    worst = 0.0
    for k in range(0, masks.size, 1024):
        bits = (masks[k:k + 1024, None] >> shifts) & np.uint64(1)
        signs = 1.0 - 2.0 * bits.astype(np.float64)
        worst = max(worst, float(np.max(np.abs(signs @ entries.T))))
    return worst


def _masks(sols) -> np.ndarray:
    return np.fromiter((sv.bits for sv in sols), dtype=np.uint64, count=len(sols))


def exhaustive_check(spec: dict, out, workdir: str) -> list[str]:
    mat, res = out
    if spec["kind"] == "enumerate":
        if any(sv.n != ENUM_N for sv in res):
            return ["solution of the wrong dimension"]
        masks = _masks(res)
        if np.any(masks[1:] <= masks[:-1]):
            return ["solutions are not in strictly increasing mask order"]
        # Negation x -> full ^ x reverses mask order, so a sorted set closed
        # under negation equals its reversed negation.
        if not np.array_equal(masks[::-1] ^ np.uint64((1 << ENUM_N) - 1), masks):
            return ["solution set is not closed under negation"]
        thr = ENUM_KAPPA * math.sqrt(ENUM_N)
        if _max_abs_margin(mat.entries, masks, ENUM_N) > thr * (1 + 1e-12):
            return ["an enumerated configuration violates a margin"]
        return []
    value, sigma = res
    if sigma.n != DISC_N or sigma[0] != 1:
        return [f"optimizer has n={sigma.n}, sigma_0={sigma[0]}"]
    direct = float(np.max(np.abs(mat.entries @ sigma.signs().astype(np.float64))))
    if not math.isclose(value, direct, rel_tol=1e-12, abs_tol=1e-12):
        return [f"discrepancy {value!r} != max|A sigma| = {direct!r}"]
    return []


def exhaustive_summary(spec: dict, out, workdir: str) -> dict:
    mat, res = out
    if spec["kind"] == "enumerate":
        masks = _masks(res)
        return {"count": int(masks.size),
                "sha256": hashlib.sha256(masks.astype("<u8").tobytes()).hexdigest()}
    value, sigma = res
    return {"value": value, "mask": sigma.bits}


class Workload:
    """One named op stream; ``cycle`` ops cover every op kind equally often."""

    def __init__(self, name, cycle, spec, run, check, summary):
        self.name = name
        self.cycle = cycle
        self.spec = spec
        self.run = run
        self._check = check
        self._summary = summary

    def check(self, spec: dict, out, workdir: str, reference: dict | None) -> list[str]:
        """Invariant violations of one op's output, plus reference mismatches."""
        bad = self._check(spec, out, workdir)
        if not bad and reference is not None:
            got = json.loads(json.dumps(self.summary(spec, out, workdir)))
            bad = [f"differs from reference: {d}" for d in mismatches(got, reference)]
        return bad

    def summary(self, spec: dict, out, workdir: str) -> dict:
        return self._summary(spec, out, workdir)


WORKLOADS = {
    w.name: w for w in (
        Workload("rotation", 6, rotation_spec, rotation_run, rotation_check, rotation_summary),
        Workload("online", 3, online_spec, online_run, online_check, online_summary),
        Workload("analytic", 4, analytic_spec, analytic_run, analytic_check, analytic_summary),
        Workload("exhaustive", 3, exhaustive_spec, exhaustive_run, exhaustive_check,
                 exhaustive_summary),
    )
}


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between two JSON records; floats compare to the tolerance."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and math.isclose(
                got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
