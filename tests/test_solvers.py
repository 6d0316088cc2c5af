import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.disorder import sample_disorder
from marginlab.errors import CapExceededError, DomainError, SizingError
from marginlab.landscape import SignVector, is_solution
from marginlab.solvers import (
    ONLINE_STRATEGIES,
    exhaustive_solve,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
)


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


def test_schedule_zero_rounds_small_n():
    s = kim_roche_schedule(8, 4.0, (1000.0, 3.0))
    assert s.rounds == 0
    assert s.n_blocks == (8,)


def test_schedule_rejects_tiny_n():
    with pytest.raises(SizingError):
        kim_roche_schedule(1, 4.0, (1000.0, 3.0))


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
    sv, trace = kim_roche_solve(mat, sched, collect_trace=True)
    assert sv == majority_solve(mat)
    assert len(trace) == 1
    assert trace[0].selected_rows is None  # round 0 lets every row vote


def test_trace_blocks_partition_coordinates():
    mat = sample_disorder(10_000, 0.002, seed=3)
    sched = kim_roche_schedule(10_000, 4.0, (1000.0, 3.0))
    sv, trace = kim_roche_solve(mat, sched, collect_trace=True)
    assert len(sv) == 10_000
    spans = [(r.block_start, r.block_start + r.block_size) for r in trace]
    assert spans[0][0] == 0
    assert spans[-1][1] == 10_000
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c  # contiguous, no gaps or overlap
    for r in trace[1:]:
        assert r.selected_rows is not None
        assert len(r.selected_rows) == min(r.k_used, mat.rows)


@pytest.mark.parametrize("n,alpha,divisors", [
    (500, 0.4, (50.0, 3.0)), (2000, 0.1, (200.0, 3.0)), (10_000, 0.002, (1000.0, 3.0)),
])
def test_trace_keeps_the_solution_and_recounts_violations(n, alpha, divisors):
    # The traced run must not change the output, and each round's count must
    # match a direct recount of the prefix margins of the final sign vector
    # (nonzero on most seeds of the first two sizes).
    sched = kim_roche_schedule(n, 4.0, divisors)
    for seed in range(10):
        mat = sample_disorder(n, alpha, seed=seed)
        sv, trace = kim_roche_solve(mat, sched, collect_trace=True)
        assert kim_roche_solve(mat, sched) == (sv, None)
        sigma = sv.signs().astype(np.float64)
        for r in trace:
            stop = r.block_start + r.block_size
            assert r.violated_after == np.count_nonzero(mat.entries[:, :stop] @ sigma[:stop] < 0)


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
            sv, feasible, trace = online_solve(mat, 1.0, strategy, collect_trace=True)
            margins = mat.entries @ sv.signs().astype(np.float64)
            assert feasible == bool(np.max(np.abs(margins)) <= math.sqrt(400))
            assert len(trace) == 400
            # the trace's final max margin is the verdict margin
            assert trace[-1].max_abs_margin == pytest.approx(
                float(np.max(np.abs(margins))), abs=1e-9
            )


def test_online_is_prefix_measurable():
    # at a fixed horizon, each decision depends only on columns seen so far:
    # resampling a suffix cannot change the preceding outputs
    from marginlab.disorder import resample_columns

    for strategy in ONLINE_STRATEGIES:
        mat = sample_disorder(120, 0.2, seed=9)
        full, _, _ = online_solve(mat, 1.0, strategy)
        other, _, _ = online_solve(resample_columns(mat, 0.3, seed=9), 1.0, strategy)
        keep = 120 - 36
        assert np.array_equal(other.signs()[:keep], full.signs()[:keep])


def test_greedy_rule_is_horizon_free():
    # the minimax rule never looks at n, so a truncated instance reproduces
    # the output prefix exactly (the potential rule scales with the horizon
    # and intentionally lacks this stronger property)
    mat = sample_disorder(120, 0.2, seed=9)
    full, _, _ = online_solve(mat, 1.0, "greedy_minimax")
    sub = sample_disorder(70, 24.0 / 70.0, seed=9)
    assert np.array_equal(sub.entries, mat.entries[:, :70])
    part, _, _ = online_solve(sub, 1.0, "greedy_minimax")
    assert np.array_equal(part.signs(), full.signs()[:70])


def test_online_rejects_bad_kappa():
    mat = sample_disorder(50, 0.2, seed=0)
    with pytest.raises(DomainError):
        online_solve(mat, 0.0, "greedy_minimax")
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
