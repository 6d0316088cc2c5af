import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marginlab
from marginlab import cli, solvers
from marginlab.disorder import sample_disorder
from marginlab.errors import CapExceededError, DomainError, SizingError
from marginlab.landscape import SignVector, discrepancy, enumerate_solutions, is_solution
from marginlab.solvers import (
    ONLINE_STRATEGIES,
    exhaustive_solve,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
    running_max_abs_margin,
)
from test_disorder import BAD_ENTRIES, assert_entry_refused


def test_schedule_shape_at_desk_scale():
    s = kim_roche_schedule(10_000, 4.0, (1000.0, 3.0))
    assert s.rounds == 2
    assert s.f[0] == 1.0
    assert s.f[1] == pytest.approx(1.0 / 200.0)
    assert s.k == (11, 1)
    assert sum(s.n_blocks) == 10_000
    assert all(b >= 1 for b in s.n_blocks)
    assert all(kk % 2 == 1 for kk in s.k)


def test_schedule_large_n_first_vote_count():
    # at production sizes the first refinement round uses a tiny odd panel
    s = kim_roche_schedule(200_000_000, 4.0, (1e8, 3.0))
    assert s.k[0] == 3
    assert s.rounds == 4
    assert s.k[1:] == (1, 1, 1)
    assert sum(s.n_blocks) == 200_000_000


def test_schedule_round_count_grows_like_log_log():
    for n, rounds in [(1000, 2), (10_000, 2), (100_000, 3)]:
        assert kim_roche_schedule(n, 4.0, (1000.0, 3.0)).rounds == rounds


def test_schedule_integer_power_branch_matches_the_float_formula():
    # p = 1 with p * 2^2 <= log10(n) + 1 builds n * f_2^p exactly as a Fraction
    s = kim_roche_schedule(100_000, 4.0, (1000.0, 1.0))
    assert s.k == (101, 11, 1)
    assert s.k[1] == 2 * math.floor(100_000 * float(Fraction(1, 10**4)) ** 1.0 / 2.0) + 1


def test_schedule_zero_rounds_small_n():
    s = kim_roche_schedule(8, 4.0, (1000.0, 3.0))
    assert s.rounds == 0
    assert s.n_blocks == (8,)


def test_schedule_rejects_tiny_n():
    with pytest.raises(SizingError):
        kim_roche_schedule(1, 4.0, (1000.0, 3.0))


def _schedule_in_child(args: str) -> str:
    """repr(kim_roche_schedule(<args>)), computed by a child held to 10 s and 1 GiB.

    A schedule that builds a huge power fails the test instead of hanging it.
    """
    src = os.path.dirname(os.path.dirname(marginlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\nfrom marginlab.solvers import kim_roche_schedule\n"
            f"print(repr(kim_roche_schedule({args})))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_schedule_round_target_stops_at_the_first_negligible_block():
    # ceil(40 * log10 log10 1000) = 20 rounds would need f_20 = 10^(-2^20),
    # but n * f_2 = 0.1 already leaves every later round empty.
    assert _schedule_in_child("1000, 40.0") == repr(kim_roche_schedule(1000, 30.0))


def test_schedule_vote_power_is_not_built_when_the_vote_is_one():
    assert _schedule_in_child("1000, 4.0, (1000.0, 1e308)") == repr(kim_roche_schedule(1000))


def test_schedule_accepts_an_infinite_round_target():
    # c_rounds * log10 log10 n overflows; 2^9 is the first 2^j above log10(2n) = 300.3
    out = _schedule_in_child("10**300, sys.float_info.max")
    assert out.startswith(f"KimRocheSchedule(n={10**300}, rounds=9, ")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=250_000))
def test_property_schedule_partitions_coordinates(n):
    s = kim_roche_schedule(n, 4.0, (1000.0, 3.0))
    assert sum(s.n_blocks) == n
    assert all(b >= 1 for b in s.n_blocks)
    assert all(kk % 2 == 1 and kk >= 1 for kk in s.k)
    assert len(s.n_blocks) == s.rounds + 1
    assert len(s.k) == s.rounds
    assert s.f[0] == 1.0
    assert all(a > b for a, b in zip(s.f, s.f[1:]))


def test_majority_sign_of_column_sums_with_plus_ties():
    entries = np.array([
        [1.0, -2.0, 0.5],
        [-1.0, -1.0, 0.5],
    ])
    mat = sample_disorder(3, 2.0 / 3.0, seed=0)
    object.__setattr__(mat, "entries", entries)
    sv = majority_solve(mat)
    # column sums: 0 (tie -> +1), -3 -> -1, 1 -> +1
    assert list(sv.signs()) == [1, -1, 1]


def test_zero_round_schedule_is_plain_majority():
    mat = sample_disorder(9, 0.5, seed=2)
    sched = kim_roche_schedule(9, 4.0, (1000.0, 3.0))
    sv, rounds = kim_roche_solve(mat, sched)
    assert sv == majority_solve(mat)
    assert len(rounds) == 1
    assert rounds[0].selected_rows is None  # round 0 lets every row vote


def test_trace_blocks_partition_coordinates():
    mat = sample_disorder(10_000, 0.002, seed=3)
    sched = kim_roche_schedule(10_000, 4.0, (1000.0, 3.0))
    sv, rounds = kim_roche_solve(mat, sched)
    assert len(sv) == 10_000
    spans = [(r.block_start, r.block_start + r.block_size) for r in rounds]
    assert spans[0][0] == 0
    assert spans[-1][1] == 10_000
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c  # contiguous, no gaps or overlap
    for r in rounds[1:]:
        assert r.selected_rows is not None
        assert len(r.selected_rows) == min(r.k_used, mat.rows)


@pytest.mark.parametrize("n,alpha,divisors", [
    (500, 0.4, (50.0, 3.0)), (2000, 0.1, (200.0, 3.0)), (10_000, 0.002, (1000.0, 3.0)),
])
def test_trace_keeps_the_solution_and_recounts_violations(tmp_path, capsys, n, alpha,
                                                           divisors):
    # Each round must follow the schedule and pick the rows the final sign
    # vector ranks lowest on the prefix before it, and the CLI trace must
    # count the negative prefix margins of the same vector (nonzero on most
    # seeds of the first two sizes).
    sched = kim_roche_schedule(n, 4.0, divisors)
    starts = np.cumsum((0,) + sched.n_blocks[:-1]).tolist()
    violated = []
    for seed in range(10):
        mat = sample_disorder(n, alpha, seed=seed)
        sv, rounds = kim_roche_solve(mat, sched)
        sigma = sv.signs().astype(np.float64)
        assert [(r.round_index, r.block_start, r.block_size) for r in rounds] == list(
            zip(range(sched.rounds + 1), starts, sched.n_blocks))
        assert [r.k_used for r in rounds] == [mat.rows, *(min(k, mat.rows) for k in sched.k)]
        assert rounds[0].selected_rows is None
        for r in rounds[1:]:
            margins = mat.entries[:, :r.block_start] @ sigma[:r.block_start]
            want = np.argsort(margins, kind="stable")[:r.k_used].tolist()
            assert list(r.selected_rows) == want
        out = tmp_path / str(seed)
        assert cli.main(["solve", "--algo", "kim-roche", "--n", str(n), "--alpha", str(alpha),
                         "--d1", str(divisors[0]), "--power", str(divisors[1]),
                         "--seed", str(seed), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "solution.json").read_text())["signs"] == "".join(
            "+" if x > 0 else "-" for x in sv.signs())
        recount = [int(np.count_nonzero(mat.entries[:, :stop] @ sigma[:stop] < 0))
                   for stop in np.cumsum(sched.n_blocks).tolist()]
        trace = json.loads((out / "trace.json").read_text())
        assert [r["violated_rows_after"] for r in trace["rounds"]] == recount
        violated += recount
    assert any(violated) or n == 10_000  # 20 rows stay positive on every prefix


def test_refinement_beats_majority_on_minimum_margin():
    # operating point chosen so the first refinement panel (k = 11) is a
    # strict subset of the rows and the minimum margin is not yet trivially
    # safe; the refinement should then usually lift it
    sched = kim_roche_schedule(2000, 4.0, (200.0, 3.0))
    assert sched.k[0] < 200  # genuinely selective
    gains = []
    wins = 0
    for seed in range(30):
        mat = sample_disorder(2000, 0.1, seed=seed)
        base = mat.entries @ majority_solve(mat).signs().astype(np.float64)
        ref = mat.entries @ kim_roche_solve(mat, sched)[0].signs().astype(np.float64)
        gains.append(float(ref.min() - base.min()))
        wins += float(ref.min()) > float(base.min())
    assert np.mean(gains) > 0.0
    assert wins >= 18


def test_one_sided_margins_are_large_and_positive():
    mat = sample_disorder(5000, 0.002, seed=1)
    sv, _ = kim_roche_solve(mat)
    margins = mat.entries @ sv.signs().astype(np.float64)
    # all rows end far above zero at this aspect ratio
    assert float(margins.min()) > 3.0 * math.sqrt(5000)


def test_online_strategies_listed():
    assert set(ONLINE_STRATEGIES) == {"greedy_minimax", "exp_potential"}


def test_online_feasibility_flag_matches_margins():
    for strategy in ONLINE_STRATEGIES:
        for seed in (0, 1, 2):
            mat = sample_disorder(400, 0.25, seed=seed)
            sv, feasible = online_solve(mat, 1.0, strategy)
            margins = mat.entries @ sv.signs().astype(np.float64)
            assert feasible == bool(np.max(np.abs(margins)) <= math.sqrt(400))
            trace = running_max_abs_margin(mat, sv)
            assert trace.shape == (400,)
            # the trace's final max margin is the verdict margin
            assert trace[-1] == pytest.approx(float(np.max(np.abs(margins))), abs=1e-9)


def _online_sha256(strategy, with_trace, kappa=1.0):
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        mat = sample_disorder(1000, 0.25, seed=seed)
        sv, feasible = online_solve(mat, kappa, strategy)
        h.update(sv.signs().tobytes())
        h.update(bytes([feasible]))
        if with_trace:
            trace = running_max_abs_margin(mat, sv).tolist()
            for t, (sign, worst) in enumerate(zip(sv.signs().tolist(), trace)):
                h.update(struct.pack("<qbd", t, sign, worst))
    return h.hexdigest()


# SHA-256 of the sign bytes, the feasibility flag and, with the trace, the
# packed (t, sign_t, running_max_abs_margin_t) of seeds 0-2 at n = 1000,
# alpha = 0.25, kappa = 1.
ONLINE_DIGESTS = [
    ("greedy_minimax", False, "c7f8729d6dfa94293b1aed792e7493cfd6de7a6d9ec34bcc4d5e5f83800e543e"),
    ("greedy_minimax", True, "fc99169e725dfef45516f6babe8e6d4ec1fa4d4bc9a01d418e6239f99163b7d8"),
    ("exp_potential", False, "a0f908de4f4df233b3c85af95801706a4d62dac7ab4bbff4979656eedad11dcb"),
    ("exp_potential", True, "d1e8dcae7e40269d226cfbc92a4d8787ccce06d36f83f29013398652c5a4ef0e"),
]


@pytest.mark.parametrize("strategy,with_trace,sha", ONLINE_DIGESTS)
def test_online_golden_digest(strategy, with_trace, sha):
    assert _online_sha256(strategy, with_trace) == sha


def _count_exp_fallbacks(monkeypatch):
    steps = []
    fallback = solvers._exp_potential_fallback

    def counted(*args):
        steps.append(1)
        return fallback(*args)

    monkeypatch.setattr(solvers, "_exp_potential_fallback", counted)
    return steps


# The same digest as ONLINE_DIGESTS at kappa = 100, where no sinh overflows.
EXP_KAPPA_100_DIGESTS = [
    (False, "0a4e2349ba9292791fd21ca3d3f9f596560bbc5738f7f454d1efc6390075993b"),
    (True, "b6a19d765ba053a60e6c7c7963ea3c3b9f881c416ce2f3428fddf76b7b5ced21"),
]


@pytest.mark.parametrize("kappa,with_trace,sha", [
    *((1.0, trace, sha) for strategy, trace, sha in ONLINE_DIGESTS
      if strategy == "exp_potential"),
    *((100.0, trace, sha) for trace, sha in EXP_KAPPA_100_DIGESTS),
])
def test_exp_potential_without_overflow_keeps_its_decisions(monkeypatch, kappa,
                                                            with_trace, sha):
    steps = _count_exp_fallbacks(monkeypatch)
    assert _online_sha256("exp_potential", with_trace, kappa) == sha
    assert not steps


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exp_potential_at_huge_kappa_is_greedy(monkeypatch, seed):
    # Every sinh correlation overflows at kappa = 1e6; the log-sum-exp
    # comparison then follows the lam -> infinity limit of the potential.
    steps = _count_exp_fallbacks(monkeypatch)
    mat = sample_disorder(1000, 0.25, seed=seed)
    greedy = online_solve(mat, 1e6, "greedy_minimax")
    assert online_solve(mat, 1e6, "exp_potential") == greedy
    assert len(steps) == 1000


@pytest.mark.parametrize("kappa", [1e4, 1e-300])
def test_exp_potential_answers_alike_when_float_errors_raise(kappa):
    # At 1e4 the fallback's e^(-large) underflows, at 1e-300 the sinh products
    # do; 0 is the intended value of both, so a caller's error setting is moot.
    mat = sample_disorder(200, 0.25, seed=0)
    plain = online_solve(mat, kappa, "exp_potential")
    with np.errstate(all="raise"):
        assert online_solve(mat, kappa, "exp_potential") == plain


def test_entries_near_the_bound_scale_every_answer_exactly():
    # Scaling by 2^500 is exact, so every margin, vote and threshold is the
    # original's times 2^500; the entry bound 2^512 keeps every sum finite.
    mat = sample_disorder(16, 0.5, seed=3)
    scale = 2.0**500
    big = dataclasses.replace(mat, entries=mat.entries * scale)
    value, best = discrepancy(mat)
    found = {(kappa, symmetric): enumerate_solutions(mat, kappa, symmetric)
             for kappa, symmetric in [(1.0, True), (0.1, False)]}
    assert all(found.values())
    online, _ = online_solve(mat, 1.0, "greedy_minimax")
    with np.errstate(all="raise"):
        assert discrepancy(big) == (value * scale, best)
        for (kappa, symmetric), sols in found.items():
            assert enumerate_solutions(big, kappa * scale, symmetric) == sols
            assert exhaustive_solve(big, kappa * scale, symmetric) == sols[0]
        assert majority_solve(big) == majority_solve(mat)
        assert kim_roche_solve(big) == kim_roche_solve(mat)
        assert online_solve(big, scale, "greedy_minimax")[0] == online
        assert np.array_equal(running_max_abs_margin(big, online),
                              running_max_abs_margin(mat, online) * scale)


# Regenerate with tests/oracles/exp_potential_mpmath.py: the package's
# exp_potential signs on sample_disorder(200, 0.5, seed=0) at kappa = 1e3 as
# "+"/"-", then (Phi(+1) - Phi(-1)) / max(Phi(+1), Phi(-1)) at each step of
# that path, computed at 50 digits (negative prefers +1).
FROZEN_EXP_POTENTIAL = (
    "+---++++-+--+---+++++-+++++++++---+---+++-+++--++-"
    "-++-++-+-++++-+++-------+++------+--++--+-++-+++-+"
    "---+++-+--+++--++----+--+-+-++-+--+-++----++---+--"
    "---+-+------+--+------+++--+---+-++-+--+++-+++--++"
    ,
    (
        0.000e+00, 9.681e-01, 1.000e+00, 1.000e+00, -1.000e+00, -1.000e+00, -1.000e+00, -1.000e+00,
        1.000e+00, -9.999e-01, 1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00,
        -9.999e-01, -9.985e-01, -9.996e-01, -1.000e+00, -1.000e+00, 9.985e-01, -1.000e+00, -1.000e+00,
        -1.000e+00, -8.688e-01, -1.000e+00, -1.000e+00, -1.000e+00, -1.000e+00, -1.000e+00, 1.000e+00,
        1.000e+00, 1.000e+00, -1.000e+00, 9.513e-01, 1.000e+00, 1.000e+00, -1.000e+00, -1.000e+00,
        -1.000e+00, 9.999e-01, -1.000e+00, -1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, -1.000e+00,
        -1.000e+00, 9.994e-01, 9.972e-01, -1.000e+00, -9.576e-01, 1.000e+00, -1.000e+00, -1.000e+00,
        1.000e+00, -1.000e+00, 1.000e+00, -1.000e+00, -1.000e+00, -9.994e-01, -1.000e+00, 1.000e+00,
        -1.000e+00, -1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00, 9.938e-01,
        1.000e+00, 9.998e-01, -1.000e+00, -1.000e+00, -1.000e+00, 9.995e-01, 1.000e+00, 1.000e+00,
        1.000e+00, 1.000e+00, 9.997e-01, -1.000e+00, 1.000e+00, 9.997e-01, -1.000e+00, -1.840e-01,
        1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, -9.537e-01, -1.000e+00, 1.000e+00, -1.000e+00,
        -1.000e+00, -1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00, -1.000e+00,
        -5.712e-01, -1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, -1.000e+00, -9.980e-01,
        -1.000e+00, 1.000e+00, 9.999e-01, -1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, 9.990e-01,
        1.000e+00, -9.999e-01, 1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, -6.867e-01, 9.938e-01,
        -1.000e+00, -1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00,
        -1.000e+00, -9.983e-01, 9.934e-01, 1.000e+00, 1.000e+00, 9.867e-01, -9.965e-01, -1.000e+00,
        1.000e+00, 1.000e+00, 9.990e-01, -1.000e+00, 1.000e+00, 9.444e-01, 1.000e+00, 1.000e+00,
        1.000e+00, -1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00,
        9.992e-01, 1.000e+00, -1.000e+00, 9.403e-01, 1.000e+00, -1.000e+00, 1.000e+00, 1.000e+00,
        1.000e+00, 8.816e-01, 1.000e+00, 1.000e+00, -1.000e+00, -9.706e-01, -1.000e+00, 1.000e+00,
        1.000e+00, -1.000e+00, 2.527e-01, 1.000e+00, 1.000e+00, -1.000e+00, 1.000e+00, -8.161e-01,
        -1.000e+00, 1.000e+00, -1.000e+00, 9.999e-01, 1.000e+00, -1.000e+00, -7.967e-01, -9.951e-01,
        1.000e+00, -1.000e+00, -1.000e+00, -1.000e+00, 1.000e+00, 9.977e-01, -1.000e+00, -1.000e+00,
    ),
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exp_potential_follows_the_50_digit_potential(monkeypatch):
    steps = _count_exp_fallbacks(monkeypatch)
    sv, _ = online_solve(sample_disorder(200, 0.5, seed=0), 1e3, "exp_potential")
    replay, gaps = FROZEN_EXP_POTENTIAL
    ties = []
    for t, (sign, gap) in enumerate(zip(sv.signs().tolist(), gaps)):
        if abs(gap) > 1e-12:
            assert sign == (1 if gap < 0 else -1), f"step {t} contradicts the potential ({gap})"
        else:
            ties.append(t)
        assert sign == (1 if replay[t] == "+" else -1), f"path left the replay at tie step {t}"
    # Only step 0 (run = 0, an exact tie, resolved to +1) is within 1e-12;
    # 75 of the 200 steps decide through _exp_potential_fallback.
    assert ties == [0]
    assert len(steps) == 75


@pytest.mark.parametrize("n,alpha", [(200, 0.3), (1000, 0.25), (3000, 0.1)])
def test_online_trace_keeps_the_solution_and_recounts_margins(n, alpha):
    # The recomputed trace, taken in row chunks, must match the running
    # margins of the whole matrix and the final sign vector, and the solver's
    # feasibility flag must be its last value's verdict.
    for strategy in ONLINE_STRATEGIES:
        for seed in range(5):
            mat = sample_disorder(n, alpha, seed=seed)
            sv, feasible = online_solve(mat, 1.0, strategy)
            run = np.cumsum(mat.entries * sv.signs(), axis=1)
            trace = running_max_abs_margin(mat, sv)
            assert trace.tolist() == np.abs(run).max(axis=0).tolist()
            assert feasible == bool(trace[-1] <= math.sqrt(n))


@pytest.mark.parametrize("n,alpha", [(40_000, 2 / 40_000), (5, 8000.0)])
def test_running_max_abs_margin_of_any_sign_vector(n, alpha):
    # A row longer than one chunk goes alone; 40,000 rows of 5 go in 7 chunks.
    mat = sample_disorder(n, alpha, seed=1)
    sigma = SignVector(n, random.Random(0).getrandbits(n))
    run = np.cumsum(mat.entries * sigma.signs(), axis=1)
    assert running_max_abs_margin(mat, sigma).tolist() == np.abs(run).max(axis=0).tolist()
    with pytest.raises(SizingError):
        running_max_abs_margin(mat, SignVector(n - 1, 0))


def _online_whole_matrix_loop(entries, kappa, strategy):
    # Reference for the block-staged solver, independent of solvers: the
    # whole transpose and the whole sinh table built up front, one column per
    # step, each step's arrays freshly allocated.  Returns the signs, the
    # feasibility flag, the (step, sign, worst |running margin|) records and
    # the number of steps whose sinh correlation overflowed.
    rows, n = entries.shape
    cols = np.ascontiguousarray(entries.T)
    lam = kappa / (2.0 * math.sqrt(n))
    run, signs, trace, fallbacks = np.zeros(rows), [], [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        sinh_cols = np.sinh(lam * cols)
        for t in range(n):
            if strategy == "greedy_minimax":
                cand = np.stack([run + cols[t], run - cols[t]])
                cost = np.abs(cand).max(axis=1)
                k = 0 if cost[0] <= cost[1] else 1
                run = cand[k].copy()
                worst = cost[k]
            else:
                dot = float(np.dot(np.sinh(lam * run), sinh_cols[t]))
                if math.isfinite(dot):
                    k = 0 if dot <= 0.0 else 1
                else:  # log-sum-exp of log cosh, shifted by the largest |margin|
                    fallbacks += 1
                    x = np.abs([run + cols[t], run - cols[t]])
                    terms = np.exp(lam * (x - x.max())) * (1.0 + np.exp(-2.0 * lam * x))
                    phi = terms.sum(axis=1)
                    k = 0 if phi[0] <= phi[1] else 1
                run = run - cols[t] if k else run + cols[t]
                worst = np.abs(run).max()
            signs.append(1 - 2 * k)
            trace.append((t, 1 - 2 * k, float(worst)))
    feasible = bool(np.max(np.abs(run)) <= kappa * math.sqrt(n))
    return signs, feasible, trace, fallbacks


# (n, alpha): 250 rows stage 131 columns a block, so n = 1000 ends on a
# partial block and n = 100 fits in one; 40,000 rows stage one column a block.
STAGING_SHAPES = [(1000, 0.25), (100, 2.5), (3, 40000 / 3), (50, 0.02)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kappa", [1.0, 100.0, 1e3])
@pytest.mark.parametrize("n,alpha", STAGING_SHAPES)
def test_block_staging_matches_the_whole_matrix_loop(n, alpha, kappa):
    mat = sample_disorder(n, alpha, seed=3)
    assert mat.rows == {1000: 250, 100: 250, 3: 40000, 50: 1}[n]
    for strategy in ONLINE_STRATEGIES:
        sv, feasible = online_solve(mat, kappa, strategy)
        signs, ok, records, fallbacks = _online_whole_matrix_loop(mat.entries, kappa, strategy)
        assert sv.signs().tolist() == signs
        assert feasible == ok
        # the recomputed trace is the worst margin the loop saw after each step
        trace = running_max_abs_margin(mat, sv).tolist()
        assert list(zip(range(n), signs, trace)) == records
        if strategy == "exp_potential" and (n, kappa) == (1000, 1e3):
            assert fallbacks > 0  # the overflow branch is compared too


@pytest.mark.parametrize("strategy", ONLINE_STRATEGIES)
def test_online_solve_builds_no_matrix_sized_temporary(strategy):
    # The whole transpose or sinh table of a 250 x 1000 matrix is 2 MB each,
    # as is the whole matrix of running margins behind the trace.
    mat = sample_disorder(1000, 0.25, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sv, _ = online_solve(mat, 1.0, strategy)
        solve_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        running_max_abs_margin(mat, sv)
        trace_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert solve_peak < 1 << 20
    assert trace_peak < 1 << 20


def test_online_is_prefix_measurable():
    # at a fixed horizon, each decision depends only on columns seen so far:
    # resampling a suffix cannot change the preceding outputs
    from marginlab.disorder import resample_columns

    for strategy in ONLINE_STRATEGIES:
        mat = sample_disorder(120, 0.2, seed=9)
        full, _ = online_solve(mat, 1.0, strategy)
        other, _ = online_solve(resample_columns(mat, 0.3, seed=9), 1.0, strategy)
        keep = 120 - 36
        assert np.array_equal(other.signs()[:keep], full.signs()[:keep])


def test_greedy_rule_is_horizon_free():
    # the minimax rule never looks at n, so a truncated instance reproduces
    # the output prefix exactly (the potential rule scales with the horizon
    # and intentionally lacks this stronger property)
    mat = sample_disorder(120, 0.2, seed=9)
    full, _ = online_solve(mat, 1.0, "greedy_minimax")
    sub = sample_disorder(70, 24.0 / 70.0, seed=9)
    assert np.array_equal(sub.entries, mat.entries[:, :70])
    part, _ = online_solve(sub, 1.0, "greedy_minimax")
    assert np.array_equal(part.signs(), full.signs()[:70])


@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_solvers_refuse_a_non_finite_entry(bad, tmp_path):
    # Kim-Roche read (0, 11) and (5, 11) only in its last block's vote; the
    # matrix refuses the entry wherever it sits, so no solver sees one.
    mat = sample_disorder(12, 0.5, seed=0)
    for where in [(2, 5), (0, 11), (5, 11)]:
        assert_entry_refused(mat, where, bad, tmp_path / "m.bin")


def test_online_rejects_bad_kappa():
    mat = sample_disorder(50, 0.2, seed=0)
    with pytest.raises(DomainError):
        online_solve(mat, 0.0, "greedy_minimax")
    for strategy in ONLINE_STRATEGIES:
        with pytest.raises(DomainError, match="kappa must be positive, got nan"):
            online_solve(mat, math.nan, strategy)
    with pytest.raises(DomainError):
        online_solve(mat, 1.0, "nonsense")


def test_exhaustive_solve_finds_lexicographic_minimum():
    mat = sample_disorder(12, 0.25, seed=4)
    sv = exhaustive_solve(mat, 1.0)
    assert sv is not None
    assert is_solution(mat, sv, 1.0)
    # nothing lexicographically earlier satisfies the constraints
    from marginlab.landscape import enumerate_solutions

    assert enumerate_solutions(mat, 1.0)[0] == sv


def test_exhaustive_solve_none_when_infeasible():
    mat = sample_disorder(12, 0.25, seed=4)
    assert exhaustive_solve(mat, 1e-6) is None


def test_exhaustive_solve_cap():
    mat = sample_disorder(26, 0.1, seed=0)
    with pytest.raises(CapExceededError):
        exhaustive_solve(mat, 1.0)
