import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from marginlab import disorder, experiments
from marginlab.disorder import interpolate, philox_key, sample_disorder
from marginlab.errors import DomainError, SizingError
from marginlab.experiments import (
    expected_majority_flip_probability,
    kim_roche_stability_trial,
    majority_stability_curve,
    majority_stability_trial,
    online_failure_census,
    online_two_stage_trial,
    overlap_trajectory,
    stable_replica_parameters,
    universality_gap,
    wilson_interval,
)
from marginlab.landscape import SignVector, enumerate_solutions, hamming
from marginlab.solvers import majority_solve
from test_disorder import count_pools


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.404, abs=2e-3)
    assert hi == pytest.approx(0.596, abs=2e-3)
    lo, hi = wilson_interval(0, 40)
    assert lo == 0.0
    assert 0.0 < hi < 0.12
    lo, hi = wilson_interval(40, 40)
    assert hi == 1.0
    assert 0.88 < lo < 1.0


def test_expected_flip_probability_is_angle_over_pi():
    assert expected_majority_flip_probability(0.0) == 0.0
    assert expected_majority_flip_probability(math.pi / 2) == pytest.approx(0.5)
    assert expected_majority_flip_probability(0.3) == pytest.approx(0.3 / math.pi)


def test_majority_stability_mean_matches_flip_rate():
    n, tau, trials = 2000, 0.3, 120
    res = majority_stability_trial(n, 20, tau, trials, seed=11)
    expected = n * tau / math.pi
    assert abs(res.mean - expected) <= 3.0 * res.std_error
    # per-coordinate flips are nearly independent, so the spread is nearly
    # binomial
    var = float(np.var(res.per_trial, ddof=1))
    binom = n * (tau / math.pi) * (1.0 - tau / math.pi)
    assert 0.7 * binom <= var <= 1.3 * binom


def test_majority_stability_zero_angle_is_exactly_stable():
    res = majority_stability_trial(500, 10, 0.0, 5, seed=0)
    assert res.mean == 0.0
    assert res.std_error == 0.0


def test_majority_stability_validation():
    with pytest.raises(SizingError):
        majority_stability_trial(100, 10, 0.1, 1, seed=0)
    with pytest.raises(DomainError):
        majority_stability_trial(100, 10, -0.1, 5, seed=0)


def test_majority_stability_curve_equals_one_angle_calls():
    taus = (0.05, 0.1, 0.4)
    curve = majority_stability_curve(300, 6, taus, 5, 9)
    assert len(curve) == len(taus)
    for summary, tau in zip(curve, taus):
        assert summary == majority_stability_trial(300, 6, tau, 5, 9)


@pytest.mark.parametrize("taus", [(0.1, 0.1), (0.4, 0.1), ()])
def test_majority_stability_curve_needs_a_strictly_increasing_grid(taus):
    with pytest.raises(DomainError):
        majority_stability_curve(300, 6, taus, 5, 9)


def test_kim_roche_stability_zero_angle():
    res = kim_roche_stability_trial(2000, 0.005, 0.0, 6, seed=1)
    assert list(res.final_distances) == [0] * 6
    assert res.median_final_ratio == 0.0
    assert res.fraction_below == 1.0
    for per_round in res.vote_set_agreements:
        assert all(a == 1.0 for a in per_round)


def test_kim_roche_stability_tracks_flip_rate():
    tau = 0.2
    res = kim_roche_stability_trial(2000, 0.005, tau, 10, seed=2)
    # nearly every coordinate is assigned in the full-vote round, so the
    # flip rate matches the two-sided gaussian sign-flip probability
    assert res.median_final_ratio == pytest.approx(tau / math.pi, abs=0.03)
    for per_trial in res.round_disagreements:
        assert all(a <= b for a, b in zip(per_trial, per_trial[1:]))


def test_trajectory_boundary_slices():
    traj = overlap_trajectory(400, 0.05, 1.0, "majority", n_replicas=3,
                              q_steps=4, seed=5)
    T, Q1 = traj.values.shape[0], traj.values.shape[2]
    assert (T, Q1) == (3, 5)
    # at angle zero every replica sees the base instance
    assert np.allclose(traj.values[:, :, 0], 1.0)
    # the diagonal compares a replica with itself
    for k in range(Q1):
        assert np.allclose(np.diag(traj.values[:, :, k]), 1.0)
    # at a right angle the instances are independent
    off = traj.values[:, :, -1][~np.eye(T, dtype=bool)]
    assert np.all(np.abs(off) < 0.3)
    assert np.all((traj.values >= -1.0) & (traj.values <= 1.0))
    assert traj.values == pytest.approx(np.swapaxes(traj.values, 0, 1), abs=0.0)


def test_trajectory_angle_continuity():
    # overlap decay per angle step is bounded by the per-step flip rate
    traj = overlap_trajectory(2000, 0.01, 1.0, "majority", n_replicas=2,
                              q_steps=8, seed=6)
    steps = np.diff(traj.values[0, 1, :])
    dtau = math.pi / 2 / 8
    assert np.all(np.abs(steps) <= 2.0 * (2.0 * dtau / math.pi) + 0.1)


def test_trajectory_holds_one_replica_at_a_time():
    # A 200 x 20000 matrix is 32 MB.  The base, one replica and one angle's
    # instance are alive at once (3x); holding all six replicas takes 9x.
    matrix = 8 * 200 * 20_000
    overlap_trajectory(200, 0.1, 1.0, "majority", 2, 1, seed=3)  # warm up lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        overlap_trajectory(20_000, 0.01, 1.0, "majority", n_replicas=6, q_steps=2, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * matrix


def test_census_more_room_at_wider_margin():
    fractions = []
    for kappa in (1.0, 0.35, 0.25):
        r = online_failure_census(12, 0.5, 0.25, 40, seed=2, kappa=kappa)
        assert 0.0 <= r.wilson_lo <= r.fraction <= r.wilson_hi <= 1.0
        fractions.append(r.fraction)
    assert fractions[0] == 1.0
    assert fractions[0] >= fractions[1] >= fractions[2]


@pytest.mark.parametrize("block", [None, 7])
def test_census_matches_the_all_pairs_loop(monkeypatch, block):
    # The closest pair of several trials lies exactly at d_max = floor(0.3*10)
    # = 3, others closer or farther; a block of 7 cuts every solution set of
    # more than a few elements into several chunks.
    if block:
        monkeypatch.setattr(experiments, "_SCAN_BYTES", 8 * block)  # uint64 elements
    n, alpha, delta, kappa, trials, seed = 10, 0.4, 0.3, 0.3, 30, 3
    got = online_failure_census(n, alpha, delta, trials, seed, kappa=kappa).per_trial
    enum = functools.partial(enumerate_solutions, kappa=kappa)
    pairs = experiments._coupled_solutions(n, alpha, trials, seed, enum, delta=delta)
    want = tuple(any(hamming(x, y) <= 3 for x in a for y in b) for a, [b] in pairs)
    assert got == want
    assert 0 < sum(want) < trials


def test_census_cap():
    with pytest.raises(SizingError):
        online_failure_census(20, 0.5, 0.25, 5, seed=0)


def test_two_stage_hedging_rule_wins_at_tight_margin():
    greedy = online_two_stage_trial(200, 0.1, 0.2, 30, seed=3,
                                    strategy="greedy_minimax", kappa=0.5)
    exp = online_two_stage_trial(200, 0.1, 0.2, 30, seed=3,
                                 strategy="exp_potential", kappa=0.5)
    # the smooth potential hedges both sides of the window and survives a
    # resampled suffix far more often than the short-sighted minimax rule
    assert exp.fraction > greedy.fraction + 0.2
    wide = online_two_stage_trial(200, 0.1, 0.2, 10, seed=3, kappa=2.0)
    assert wide.fraction == 1.0


def test_two_stage_catches_a_rule_that_reads_a_later_column(monkeypatch):
    # every coordinate takes the sign of the last column's first entry, which
    # the resampling redraws, so some trial's two runs part on the prefix
    def peeking(mat, kappa, strategy):
        sign = 1 if mat.entries[0, -1] >= 0.0 else -1
        return SignVector.from_signs(np.full(mat.cols, sign)), True

    monkeypatch.setattr(experiments, "online_solve", peeking)
    with pytest.raises(AssertionError, match="online prefix property violated at trial"):
        online_two_stage_trial(40, 0.25, 0.1, 20, seed=0)


def test_universality_wide_band_saturates():
    res = universality_gap((100,), 10.0, trials=500, seed=0)
    assert res.rows[0].p_gaussian == 1.0
    assert res.rows[0].p_rademacher == 1.0
    assert res.rows[0].gap == 0.0


def test_universality_matches_exact_lattice_marginals():
    # sign-sum band probability has an exact binomial value
    # (tests/oracles/lattice_gaps.py); the sampled estimates must straddle it
    res = universality_gap((100,), 0.6745, trials=20_000, seed=4)
    row = res.rows[0]
    se = 3.0 / math.sqrt(20_000)
    assert row.p_rademacher == pytest.approx(0.5158815864, abs=se)
    assert row.p_gaussian == pytest.approx(0.5000065143, abs=se)
    assert row.gap_std_error < 0.01


def test_universality_repeated_sizes_fit_no_slope():
    # Equal sizes draw equal rows (the Philox key is (seed, n)), so the fit
    # has two resolved gaps but no spread in log n.
    res = universality_gap((100, 100), 0.6745, trials=20_000, seed=4)
    assert res.rows[0] == res.rows[1]
    assert res.rows[0].gap >= 0.5 / res.trials
    assert (res.slope, res.slope_std_error) == (None, None)


def test_universality_pair_and_triple_paths():
    r2 = universality_gap((60,), 0.6745, m=2, beta=0.8, trials=4000, seed=1)
    r3 = universality_gap((60,), 1.0, m=3, beta=0.8, trials=4000, seed=1)
    for r in (r2, r3):
        row = r.rows[0]
        assert 0.0 < row.p_gaussian < 1.0
        assert 0.0 < row.p_rademacher < 1.0
    with pytest.raises(DomainError):
        universality_gap((61,), 1.0, m=2, beta=0.8, trials=200, seed=0)


@pytest.mark.parametrize("m,beta,bad_n", [(2, 0.5, 401), (3, 0.8, 70)])
def test_universality_sizes_are_checked_before_any_draw(monkeypatch, m, beta, bad_n):
    # experiments imports _rows by name, so the spy replaces that binding
    draws = []
    monkeypatch.setattr(experiments, "_rows", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(DomainError, match=r"n\*\(1-beta\)/2|even flip count"):
        universality_gap((100, bad_n), 0.6745, m=m, beta=beta, trials=200, seed=0)
    assert draws == []


def _sequential_universality_counts(n, m, beta, kappa, trials, seed):
    """(count_g, count_r, n_split) from one sequential Philox generator per size.

    An independent reference for ``universality_gap``'s draw: numpy's own
    stream of uniforms u on key (seed, n), 2^22-entry chunks, ndtri(u) for
    the gaussian row and a median split of u for the sign row.
    """
    sigs = experiments._universality_tuple(n, m, beta)
    thr = kappa * math.sqrt(n)
    rng = np.random.Generator(
        np.random.Philox(key=philox_key(seed, n))
    )
    count_g = count_r = n_split = 0  # trials passing each law, and either law alone
    chunk_rows = max(1, min(trials, (1 << 22) // max(n, 1)))
    for c0 in range(0, trials, chunk_rows):
        u = rng.random((min(chunk_rows, trials - c0), n))
        xg = ndtri(u)
        xr = np.where(u < 0.5, -1.0, 1.0)
        ok_g = np.all(np.abs(xg @ sigs.T) <= thr, axis=1)
        ok_r = np.all(np.abs(xr @ sigs.T) <= thr, axis=1)
        count_g += int(np.count_nonzero(ok_g))
        count_r += int(np.count_nonzero(ok_r))
        n_split += int(np.count_nonzero(ok_g != ok_r))
    return count_g, count_r, n_split


def _row_counts(row):
    """(count_g, count_r, n_split) recovered from a row's fractions and standard error."""
    t, mean_d = row.trials, row.p_gaussian - row.p_rademacher
    return (round(row.p_gaussian * t), round(row.p_rademacher * t),
            round((row.gap_std_error ** 2 * t + mean_d * mean_d) * t))


@pytest.mark.parametrize("n,m,beta,kappa,trials,seed", [
    (7, 1, None, 0.6745, 10_000, 3),  # chunks start at words 0, 32767, 65534: c0 % 4 != 0
    (101, 1, None, 0.6745, 1000, 5),  # three chunks of 324 trials and a last one of 28
    (40_001, 1, None, 0.6745, 100, 2),  # wider than one sampler chunk: one trial a chunk
    (60, 2, 0.8, 0.6745, 4000, 1),
    (60, 3, 0.8, 1.0, 4000, 1),
], ids=["n7", "n101-partial", "n40001-wide", "m2", "m3"])
def test_universality_counts_match_the_sequential_generator(n, m, beta, kappa, trials, seed):
    # Trial t is words [t*n, (t+1)*n) of stream n, in the sampler's counter
    # layout as in numpy's sequential stream; the sampler's uniforms are
    # k * 2^-53 + 2^-54 against the reference's k * 2^-53.
    row = universality_gap((n,), kappa, m=m, beta=beta, trials=trials, seed=seed).rows[0]
    assert _row_counts(row) == _sequential_universality_counts(n, m, beta, kappa, trials, seed)


def test_universality_readme_counts_are_frozen():
    # (count_g, count_r, n_split) of the README command at seed 0.
    res = universality_gap((100, 400, 1600), 0.6745, trials=100_000, seed=0)
    assert [_row_counts(row) for row in res.rows] == [
        (50043, 51567, 31392), (49758, 48205, 31885), (50196, 50189, 31871)]


@pytest.mark.parametrize("n,m,beta,kappa", [(101, 1, None, 0.6745), (60, 3, 0.8, 1.0)])
def test_universality_counts_do_not_depend_on_the_thread_count(monkeypatch, n, m, beta, kappa):
    # 20,000 trials of n >= 60 are at least 2^20 entries: four bands, so two
    # cores draw and count on two threads.
    built, rows = count_pools(monkeypatch), []
    for cores in (1, 2):
        monkeypatch.setattr(disorder, "_CORES", cores)
        rows.append(universality_gap((n,), kappa, m=m, beta=beta, trials=20_000, seed=3).rows)
        assert built == ([] if cores == 1 else [1])
    assert rows[0] == rows[1]


def test_universality_keeps_every_chunk_count_under_frequent_switches(monkeypatch):
    # Seven threads on 16 chunks, switching every microsecond: a chunk whose
    # counts were lost or taken twice would move the totals.
    want = _sequential_universality_counts(101, 1, None, 0.6745, 5000, 5)
    monkeypatch.setattr(disorder, "_CORES", 7)
    monkeypatch.setattr(disorder, "_BAND", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        row = universality_gap((101,), 0.6745, trials=5000, seed=5).rows[0]
    finally:
        sys.setswitchinterval(interval)
    assert _row_counts(row) == want


def test_universality_validation():
    with pytest.raises(DomainError):
        universality_gap((100,), 1.0, trials=10, seed=0)
    # A masked seed would let -3 and 2^64 - 3 draw the same rows.
    for seed in (1 << 63, (1 << 64) - 3, -(1 << 63) - 1):
        with pytest.raises(DomainError, match=f"seed={seed},"):
            universality_gap((100,), 1.0, trials=100, seed=seed)
    assert universality_gap((100,), 1.0, trials=100, seed=-(1 << 63)).seed == -(1 << 63)


def test_universality_triple_needs_beta_at_least_minus_one_third():
    # Three sign vectors with pairwise overlap beta exist only for beta >= -1/3.
    sigs = experiments._universality_tuple(6, 3, -1.0 / 3.0)
    assert np.array_equal(sigs @ sigs.T, np.array([[6, -2, -2], [-2, 6, -2], [-2, -2, 6]]))
    with pytest.raises(DomainError, match="beta >= -1/3"):
        experiments._universality_tuple(8, 3, -0.5)
    with pytest.raises(DomainError, match="beta >= -1/3"):
        universality_gap((8,), 1.0, m=3, beta=-0.5, trials=100)


def test_stable_replica_parameter_arithmetic():
    p = stable_replica_parameters(0.01, 0.001, 2, 1e-5, 1.0)
    assert p.stability_rate == pytest.approx(1e-10 / 1600.0, rel=1e-12)
    q = 4800.0 * math.pi * math.sqrt(0.001) / 1e-10
    assert p.q_steps == pytest.approx(q, rel=1e-12)
    assert p.rho_step == pytest.approx(math.cos(math.pi / (2.0 * q)), rel=1e-15)
    assert p.log2_log2_t == pytest.approx(8.0 * q * math.log2(q), rel=1e-12)
    assert p.eta_compatible  # 1e-5 < kappa^2 = 1e-4
    assert p.beta_floor == pytest.approx(1.0 - 5e-4 + 1e-5, abs=1e-15)
    tighter = stable_replica_parameters(0.01, 0.001, 2, 1e-5, 2.0)
    assert tighter.q_steps == pytest.approx(2.0 * p.q_steps, rel=1e-12)
    loose = stable_replica_parameters(0.001, 0.001, 2, 1e-5, 1.0)
    assert not loose.eta_compatible  # eta above kappa^2 breaks the scheme


@pytest.mark.parametrize("eta,sensitivity,what", [
    (1e-170, 1.0, "q_steps = inf"),  # eta * eta underflows to 0
    (1e-4, 1e300, "q_steps = inf"),
    (1e200, 1.0, "q_steps = 0.0"),  # eta * eta overflows
    (1e-4, 1e295, "log2 log2 T = inf"),
    (1e-5, 5e-324, r"pi / \(2 q_steps\) = inf"),  # q_steps is a subnormal
])
def test_stable_replica_parameters_reject_unbounded_step_counts(eta, sensitivity, what):
    with pytest.raises(DomainError, match=what):
        stable_replica_parameters(0.01, 0.001, 2, eta, sensitivity)


def test_stable_replica_parameters_reject_an_infinite_beta_floor():
    with pytest.raises(DomainError, match="beta_floor = -inf"):
        stable_replica_parameters(1e308, 0.001, 2, 1e-5, 1.0)


def _record_calls(monkeypatch, name):
    # Spy on a solver as the experiments module calls it; each call's output
    # is one per-trial record.
    real = getattr(experiments, name)
    calls = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(experiments, name, spy)
    return calls


def _per_trial_records(run, trials):
    if run == "majority":
        return majority_stability_trial(300, 6, 0.4, trials, seed=9).per_trial
    if run == "kim_roche":
        res = kim_roche_stability_trial(2000, 0.01, 0.3, trials, seed=9)
        return tuple(zip(res.final_distances, res.round_disagreements,
                         res.vote_set_agreements))
    if run == "census":
        return online_failure_census(12, 0.5, 0.25, trials, seed=9, kappa=0.35).per_trial
    raise AssertionError(run)


@pytest.mark.parametrize("run", ["majority", "kim_roche", "census"])
def test_each_trial_is_pure_in_seed_and_index(run):
    assert _per_trial_records(run, 3) == _per_trial_records(run, 5)[:3]


def test_two_stage_trial_is_pure_in_seed_and_index(monkeypatch):
    # The result keeps only a success count, so the records are the two
    # online runs of each trial.
    calls = _record_calls(monkeypatch, "online_solve")
    records = []
    for trials in (3, 5):
        calls.clear()
        online_two_stage_trial(100, 0.2, 0.2, trials, seed=9, kappa=1.0)
        assert len(calls) == 2 * trials
        records.append([(sv.signs().tobytes(), ok) for sv, ok in calls])
    assert records[0] == records[1][:6]


def test_majority_trial_is_a_rotation_of_streams_2t_and_2t_plus_1():
    n, k_rows, tau, seed = 300, 6, 0.4, 9
    res = majority_stability_trial(n, k_rows, tau, 3, seed)
    base = sample_disorder(n, k_rows / n, "gaussian", seed, stream=2)
    replica = sample_disorder(n, k_rows / n, "gaussian", seed, stream=3)
    twisted = interpolate(base, replica, tau)
    assert res.per_trial[1] == hamming(majority_solve(base), majority_solve(twisted))


def test_majority_trial_holds_the_base_and_one_rotation():
    # A 100 x 10^4 matrix is 8 MB.  Drawing the replica of each rotation
    # straight into the rotated matrix leaves at most two matrices alive
    # (the next base is drawn while the last one is held), plus one chunk
    # temporary per sampling thread; storing the replica as well holds more.
    matrix, chunk = 8 * 100 * 10_000, 8 * disorder._DRAW_BLOCK
    majority_stability_trial(10_000, 100, 0.3, 2, seed=1)  # warm up lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        majority_stability_trial(10_000, 100, 0.3, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * matrix + 4 * chunk


@pytest.mark.parametrize("taus", [(0.1, 0.1), (0.1, 2.0), (-0.1,), (math.nan,), ()])
def test_coupled_angles_are_checked_before_any_draw(monkeypatch, taus):
    draws = []
    monkeypatch.setattr(disorder, "_rows", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(DomainError):
        majority_stability_curve(300, 6, taus, 5, 9)
    if len(taus) == 1:
        with pytest.raises(DomainError):
            kim_roche_stability_trial(300, 0.02, taus[0], 2, seed=1)
    assert draws == []
