"""Randomized experiments probing solver stability and disorder universality.

The four coupled experiments (majority and Kim-Roche stability under
rotation, the census and the online two-stage trial under column
resampling) draw trial t through one runner, ``_coupled_solutions``: the
base on stream 2t, then each partner from it, rotated toward a replica
drawn from stream 2t + 1 straight into the rotated matrix (one
``sample_rotation`` per angle) or resampled on stream RESAMPLE_STREAM + t.
Trial t is thus pure in (seed, t), and trials are independent.  Summaries
carry per-trial statistics plus a standard error; binomial fractions also
get a Wilson interval, which stays honest at the extremes where the normal
approximation collapses.

The universality experiment draws trial t at size n as row 0, columns
[t*n, (t+1)*n) of stream n, on the sampler's own row-chunk engine, and takes
the sign row as the signs of the gaussian row: both laws see the same
uniforms, which strips most of the Monte Carlo noise from their probability
gap.  Each sampling thread reduces whole chunks of trials to three integer
counts, which sum in any order, so the counts do not depend on the thread
count.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .disorder import (
    RESAMPLE_STREAM,
    _check_angles,
    _resampled_columns,
    _rows,
    interpolate,
    philox_key,
    resample_columns,
    sample_disorder,
    sample_rotation,
    uniform_tau_grid,
)
from .errors import DomainError, SizingError, check_float_range, check_matrix_size
from .landscape import _SCAN_BYTES, _scan_masks, hamming, is_solution
from .solvers import kim_roche_schedule, kim_roche_solve, majority_solve, online_solve

__all__ = [
    "CensusResult",
    "KimRocheStabilityResult",
    "OverlapTrajectory",
    "StableReplicaParameters",
    "TrialSummary",
    "TwoStageResult",
    "UniversalityResult",
    "UniversalityRow",
    "expected_majority_flip_probability",
    "kim_roche_stability_trial",
    "majority_stability_curve",
    "majority_stability_trial",
    "online_failure_census",
    "online_two_stage_trial",
    "overlap_trajectory",
    "stable_replica_parameters",
    "universality_gap",
    "wilson_interval",
]

TRAJECTORY_SOLVERS = ("majority", "kim_roche", "online_greedy", "online_exp")
_CENSUS_CAP = 14  # the census enumerates the 2^n cube twice per trial


@dataclass(frozen=True)
class TrialSummary:
    """Mean and spread of one scalar statistic over independent trials."""

    experiment: str
    n: int
    alpha: float
    trials: int
    seed: int
    mean: float
    std_error: float
    per_trial: tuple[float, ...]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial fraction."""
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if not (0 <= successes <= trials):
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p, z = successes / trials, 1.96
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _binomial_fields(successes: int, trials: int) -> dict:
    """The successes, fraction and Wilson fields of a binomial result."""
    lo, hi = wilson_interval(successes, trials)
    return {"successes": successes, "fraction": successes / trials,
            "wilson_lo": lo, "wilson_hi": hi}


def _coupled_solutions(
    n: int,
    alpha: float,
    trials: int,
    seed: int,
    solve: Callable,
    taus: tuple[float, ...] | None = None,
    delta: float | None = None,
    min_trials: int = 1,
) -> Iterator[tuple]:
    """Yield (solve(base), [solve(partner), ...]) for each trial.

    The partners are the base rotated by each angle of ``taus`` (the base is
    solved once for all of them; each rotation draws the replica afresh) or,
    given ``delta``, the one base with its last columns resampled; the
    module docstring gives the streams.  Every check runs before any draw.
    """
    if trials < min_trials:
        raise SizingError(f"need at least {min_trials} trial(s), got {trials}")
    if delta is None:
        _check_angles("angle grid", taus)
    for t in range(trials):
        base = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t)
        if delta is None:
            # solve each rotation as it is drawn: a trial holds the base and one rotation
            yield solve(base), [solve(sample_rotation(base, tau, seed, 2 * t + 1)) for tau in taus]
        else:
            partner = resample_columns(base, delta, seed, stream=RESAMPLE_STREAM + t)
            yield solve(base), [solve(partner)]


def expected_majority_flip_probability(tau: float) -> float:
    """Per-coordinate flip rate of the one-shot majority under a rotation by tau.

    The two column sums are jointly gaussian with correlation cos(tau), and a
    gaussian pair at correlation rho disagrees in sign with probability
    arccos(rho)/pi, so the flip rate is exactly tau/pi, independent of the
    number of voting rows.
    """
    _check_angles("tau", (tau,))
    return tau / math.pi


def majority_stability_curve(
    n: int, k_rows: int, taus: tuple[float, ...], trials: int, seed: int
) -> tuple[TrialSummary, ...]:
    """Hamming distances between majority outputs of a base and its rotations, per angle.

    Trial t solves the base once, and its rotation toward one independent
    replica by each angle of the strictly increasing grid ``taus``.  Each
    coordinate flips independently with probability tau/pi, so the distance
    at angle tau is Binomial(n, tau/pi) exactly.
    """
    if k_rows < 1:
        raise SizingError(f"need at least one voting row, got {k_rows}")
    check_float_range("k_rows", k_rows)
    alpha = k_rows / n
    solved = _coupled_solutions(n, alpha, trials, seed, majority_solve, taus=taus, min_trials=2)
    dists = [[float(hamming(a, b)) for b in bs] for a, bs in solved]
    return tuple(
        TrialSummary(experiment="majority_stability", n=n, alpha=alpha, trials=trials, seed=seed,
                     mean=float(np.mean(col)), per_trial=col,
                     std_error=float(np.std(col, ddof=1) / math.sqrt(trials)))
        for col in zip(*dists)
    )


def majority_stability_trial(
    n: int, k_rows: int, tau: float, trials: int, seed: int
) -> TrialSummary:
    """The one-angle :func:`majority_stability_curve`."""
    return majority_stability_curve(n, k_rows, (tau,), trials, seed)[0]


@dataclass(frozen=True)
class KimRocheStabilityResult:
    """Coupled multi-stage runs on a base and its rotation.

    Per trial: the final Hamming distance, the cumulative disagreement counts
    after each round, and for each voting round the fraction of the vote set
    shared between the two runs.  ``fraction_below`` is the share of trials
    with final distance at most ``threshold * n``.
    """

    n: int
    alpha: float
    tau: float
    trials: int
    seed: int
    threshold: float
    final_distances: tuple[int, ...]
    round_disagreements: tuple[tuple[int, ...], ...]
    vote_set_agreements: tuple[tuple[float, ...], ...]
    median_final_ratio: float
    fraction_below: float


def kim_roche_stability_trial(
    n: int,
    alpha: float,
    tau: float,
    trials: int,
    seed: int,
    threshold: float = 0.05,
) -> KimRocheStabilityResult:
    """Run the multi-stage solver on coupled instances and compare their rounds.

    Trial t solves the base and its rotation by tau toward an independent
    replica.  Round 0 assigns its n_blocks[0] coordinates by full-row
    majority, so each of them flips with probability exactly tau/pi (see
    ``expected_majority_flip_probability``), whatever the number of rows.
    Only the later blocks, n - n_blocks[0] coordinates voted on by selected
    rows, can add disagreement beyond that.
    """
    if not 0.0 <= threshold < math.inf:
        raise DomainError(f"threshold must be nonnegative and finite, got {threshold}")
    solve = functools.partial(kim_roche_solve, schedule=kim_roche_schedule(n))
    finals: list[int] = []
    per_round: list[tuple[int, ...]] = []
    agreements: list[tuple[float, ...]] = []
    for (sv_a, tr_a), [(sv_b, tr_b)] in _coupled_solutions(n, alpha, trials, seed, solve, (tau,)):
        finals.append(hamming(sv_a, sv_b))
        # flips[i]: disagreements among the first i + 1 coordinates
        flips = np.cumsum(sv_a.signs() != sv_b.signs())
        per_round.append(tuple(int(flips[r.block_start + r.block_size - 1]) for r in tr_a))
        agreements.append(tuple(
            len(set(ra.selected_rows) & set(rb.selected_rows)) / len(ra.selected_rows)
            for ra, rb in zip(tr_a, tr_b)
            if ra.selected_rows is not None
        ))
    return KimRocheStabilityResult(
        n=n,
        alpha=alpha,
        tau=tau,
        trials=trials,
        seed=seed,
        threshold=threshold,
        final_distances=tuple(finals),
        round_disagreements=tuple(per_round),
        vote_set_agreements=tuple(agreements),
        median_final_ratio=statistics.median(d / n for d in finals),
        fraction_below=sum(d <= threshold * n for d in finals) / trials,
    )


@dataclass(frozen=True)
class OverlapTrajectory:
    """Pairwise overlaps of solver outputs along the interpolation path.

    ``values[i, j, k]`` is the overlap of the outputs for replicas i and j at
    the k-th angle; the diagonal and the angle-0 slice are identically 1.
    ``feasible[i, k]`` flags whether the output satisfied the two-sided
    window of its own instance.
    """

    solver: str
    n: int
    alpha: float
    kappa: float
    seed: int
    tau_grid: tuple[float, ...]
    values: np.ndarray
    feasible: np.ndarray

    @property
    def n_replicas(self) -> int:
        return self.values.shape[0]


def _trajectory_solver(name: str, kappa: float, n: int):
    if name == "majority":
        return lambda mat: majority_solve(mat)
    if name == "kim_roche":
        schedule = kim_roche_schedule(n)
        return lambda mat: kim_roche_solve(mat, schedule)[0]
    if name == "online_greedy":
        return lambda mat: online_solve(mat, kappa, "greedy_minimax")[0]
    if name == "online_exp":
        return lambda mat: online_solve(mat, kappa, "exp_potential")[0]
    raise DomainError(f"unknown solver {name!r}, expected one of {TRAJECTORY_SOLVERS}")


def overlap_trajectory(
    n: int,
    alpha: float,
    kappa: float,
    solver: str,
    n_replicas: int,
    q_steps: int,
    seed: int,
) -> OverlapTrajectory:
    """Solve every interpolated instance and tabulate pairwise output overlaps.

    The base is drawn on stream 0 and replica i on stream 1 + i; one replica
    is held at a time, and instance (i, k) is the base rotated toward it by
    the k-th angle of ``uniform_tau_grid(q_steps)``.
    """
    if n_replicas < 2:
        raise SizingError(f"need at least two replicas, got {n_replicas}")
    solve = _trajectory_solver(solver, kappa, n)
    tau_grid = uniform_tau_grid(q_steps)
    base = sample_disorder(n, alpha, "gaussian", seed)
    signs = np.empty((n_replicas, q_steps + 1, n), dtype=np.int8)
    feasible = np.zeros((n_replicas, q_steps + 1), dtype=bool)
    for i in range(n_replicas):
        replica = sample_disorder(n, alpha, "gaussian", seed, stream=1 + i)
        for k, tau in enumerate(tau_grid):
            inst = interpolate(base, replica, tau)
            sv = solve(inst)
            signs[i, k] = sv.signs()
            feasible[i, k] = is_solution(inst, sv, kappa, symmetric=True)
            del inst  # so the next angle's instance is not built beside it
    # mismatches[i, j, k]: coordinates where replicas i and j disagree at angle k,
    # tallied one row i at a time so no (r, r, q + 1, n) temporary is built
    mismatches = np.stack([np.count_nonzero(row != signs, axis=-1) for row in signs])
    values = 1.0 - 2.0 * mismatches / n  # ``overlap`` of each pair, term for term
    return OverlapTrajectory(
        solver=solver,
        n=n,
        alpha=alpha,
        kappa=kappa,
        seed=seed,
        tau_grid=tau_grid,
        values=values,
        feasible=feasible,
    )


@dataclass(frozen=True)
class CensusResult:
    """Fraction of instance pairs admitting an in-band solution pair.

    A trial succeeds when some solution of the base and some solution of the
    block-resampled instance agree on all but at most delta*n coordinates.
    """

    n: int
    alpha: float
    delta: float
    kappa: float
    trials: int
    seed: int
    successes: int
    fraction: float
    wilson_lo: float
    wilson_hi: float
    per_trial: tuple[bool, ...]


def online_failure_census(
    n: int,
    alpha: float,
    delta: float,
    trials: int,
    seed: int,
    kappa: float = 1.0,
) -> CensusResult:
    """Exhaustively decide, per coupled pair, whether close solution pairs exist.

    Decides existence by full enumeration of both solution sets, so n is
    capped; the fraction estimates the probability that the coupled pair
    leaves any room for an algorithm whose output moves slowly under the
    resampling.
    """
    if n > _CENSUS_CAP:
        raise SizingError(f"census enumerates 2^n cube twice; needs n <= {_CENSUS_CAP}")
    d_max = _resampled_columns(delta, n)
    scan = functools.partial(_scan_masks, kappa=kappa, symmetric=True)
    hits = []
    for a, [b] in _coupled_solutions(n, alpha, trials, seed, scan, delta=delta):
        # Both sets are closed under negation, which keeps distances, so the
        # first half of a (coordinate 0 = +1) meets b within d_max iff a does.
        a = a[:a.size // 2]
        step = max(1, _SCAN_BYTES // (8 * max(1, b.size)))  # rows of a per (step, |b|) uint64 block
        hits.append(any((np.bitwise_count(a[i:i + step, None] ^ b) <= d_max).any()
                        for i in range(0, a.size, step)))
    return CensusResult(
        n=n,
        alpha=alpha,
        delta=delta,
        kappa=kappa,
        trials=trials,
        seed=seed,
        per_trial=tuple(hits),
        **_binomial_fields(sum(hits), trials),
    )


@dataclass(frozen=True)
class TwoStageResult:
    """Online runs on a base and its block-resampled partner.

    The shared column prefix forces identical prefixes of the two outputs
    (asserted per trial); success means both runs were feasible and their
    outputs stayed within Hamming distance delta*n.
    """

    n: int
    alpha: float
    delta: float
    kappa: float
    strategy: str
    trials: int
    seed: int
    successes: int
    fraction: float
    wilson_lo: float
    wilson_hi: float


def online_two_stage_trial(
    n: int,
    alpha: float,
    delta: float,
    trials: int,
    seed: int,
    strategy: str = "greedy_minimax",
    kappa: float = 1.0,
) -> TwoStageResult:
    """Estimate how often an online rule lands in the in-band pair set."""
    b = _resampled_columns(delta, n)
    if b < 1:
        raise SizingError(f"floor(delta*n) = {b}, nothing resampled")
    solve = functools.partial(online_solve, kappa=kappa, strategy=strategy)
    pairs = _coupled_solutions(n, alpha, trials, seed, solve, delta=delta)
    successes = 0
    for t, ((sv_a, ok_a), [(sv_b, ok_b)]) in enumerate(pairs):
        if not np.array_equal(sv_a.signs()[:n - b], sv_b.signs()[:n - b]):
            raise AssertionError(
                f"online prefix property violated at trial {t}: decisions on a "
                "shared column prefix must agree"
            )
        if ok_a and ok_b and hamming(sv_a, sv_b) <= b:
            successes += 1
    return TwoStageResult(
        n=n,
        alpha=alpha,
        delta=delta,
        kappa=kappa,
        strategy=strategy,
        trials=trials,
        seed=seed,
        **_binomial_fields(successes, trials),
    )


@dataclass(frozen=True)
class UniversalityRow:
    """Probability estimates for one system size under both disorder laws."""

    n: int
    p_gaussian: float
    p_rademacher: float
    gap: float
    gap_std_error: float
    trials: int


@dataclass(frozen=True)
class UniversalityResult:
    """Gap between gaussian and sign disorder across sizes, with a decay fit.

    ``slope`` is the fitted exponent of |gap| against n on log-log axes
    (weighted least squares, weights from per-row standard errors); None when
    fewer than two rows have a gap resolvably different from zero.
    """

    kappa: float
    m: int
    beta: float | None
    trials: int
    seed: int
    rows: tuple[UniversalityRow, ...]
    slope: float | None
    slope_std_error: float | None


def _universality_tuple(n: int, m: int, beta: float | None) -> np.ndarray:
    if m == 1:
        return np.ones((1, n))
    if beta is None:
        raise DomainError("beta is required for m >= 2")
    d = (1.0 - beta) / 2.0 * n
    if abs(d - round(d)) > 1e-9:
        raise DomainError(
            f"n*(1-beta)/2 = {d} must be an integer to realize overlap beta exactly"
        )
    d = round(d)
    sigs = np.ones((m, n))
    sigs[1, :d] = -1.0
    if m == 3:
        if d % 2:
            raise DomainError(
                f"pairwise overlap beta needs an even flip count, got {d}"
            )
        half = d // 2
        if d + half > n:  # the third vector's flips would run past coordinate n
            raise DomainError(f"three vectors with pairwise overlap beta need beta >= -1/3, "
                              f"got {beta}")
        sigs[2, :half] = -1.0
        sigs[2, d:d + half] = -1.0
    elif m > 3:
        raise DomainError(f"fixed tuples are built for m <= 3, got m={m}")
    return sigs


def universality_gap(
    n_list: tuple[int, ...],
    kappa: float,
    m: int = 1,
    beta: float | None = None,
    trials: int = 100_000,
    seed: int = 0,
) -> UniversalityResult:
    """Compare P(all |X sigma_j| <= kappa sqrt(n)) under gaussian vs sign entries.

    For each size the same fixed sign tuple is used for both laws, and each
    trial transforms one uniform row two ways (the sampler's inverse CDF for
    the gaussian row, a median split for the sign row), so the gap is a paired
    difference with its own standard error.  The central limit theorem makes
    the gap shrink like n^(-1/2) with a Berry-Esseen constant.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if beta is not None and not -1.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [-1, 1], got {beta}")
    if trials < 100:
        raise DomainError(f"trials too few for a gap estimate: {trials}")
    if any(n < 1 for n in n_list):
        raise DomainError(f"sizes must be positive, got {n_list}")
    for n in n_list:
        check_matrix_size(m, n)
    tuples = [_universality_tuple(n, m, beta) for n in n_list]  # refuse any size before a draw
    rows: list[UniversalityRow] = []
    for n, sigs in zip(n_list, tuples):
        thr = kappa * math.sqrt(n)
        counts: list[tuple[int, int, int]] = []  # per chunk; list.append is atomic

        def count(t0: int, xg: np.ndarray) -> None:
            # the median split: u < 1/2 exactly where xg < 0, and u = 1/2 gives 0.0, so +1
            xr = np.where(xg < 0.0, -1.0, 1.0)
            ok_g = np.all(np.abs(xg @ sigs.T) <= thr, axis=1)
            ok_r = np.all(np.abs(xr @ sigs.T) <= thr, axis=1)
            counts.append((int(np.count_nonzero(ok_g)), int(np.count_nonzero(ok_r)),
                           int(np.count_nonzero(ok_g != ok_r))))

        _rows(philox_key(seed, n), (trials, n), 0, "gaussian", count)
        # trials passing each law, and either law alone
        count_g, count_r, n_split = (sum(c) for c in zip(*counts))
        # the paired difference ok_g - ok_r is +-1 on split trials, else 0
        mean_d = (count_g - count_r) / trials
        var_d = max(n_split / trials - mean_d * mean_d, 0.0)
        rows.append(
            UniversalityRow(
                n=n,
                p_gaussian=count_g / trials,
                p_rademacher=count_r / trials,
                gap=abs(mean_d),
                gap_std_error=math.sqrt(var_d / trials),
                trials=trials,
            )
        )
    slope, slope_se = _fit_gap_slope(rows)
    return UniversalityResult(
        kappa=kappa,
        m=m,
        beta=beta,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
        slope=slope,
        slope_std_error=slope_se,
    )


def _fit_gap_slope(rows: list[UniversalityRow]) -> tuple[float | None, float | None]:
    # Keep rows whose gap is resolved away from zero: below half a count the
    # log would be fit to pure noise.
    usable = [r for r in rows if r.gap >= 0.5 / r.trials]
    if len(usable) < 2:
        return None, None
    x = np.array([math.log(r.n) for r in usable])
    y = np.array([math.log(r.gap) for r in usable])
    # delta method: se(log gap) = se(gap)/gap
    w = np.array([(r.gap / r.gap_std_error) ** 2 if r.gap_std_error > 0 else 1.0 for r in usable])
    wx = np.sum(w * x)
    wy = np.sum(w * y)
    ws = np.sum(w)
    xbar = wx / ws
    ybar = wy / ws
    sxx = np.sum(w * (x - xbar) ** 2)
    if sxx <= 0.0:
        return None, None
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    slope_se = float(math.sqrt(1.0 / sxx))
    return slope, slope_se


@dataclass(frozen=True)
class StableReplicaParameters:
    """Parameter prescription for the replicated stability argument.

    Given a margin kappa, density alpha, tuple size m, band width eta, and
    sensitivity budget L, reports the stability rate eta^2/1600, the angle
    count 4800*L*pi*sqrt(alpha)/eta^2, the per-step correlation
    cos(pi/(2*Q)), and the tower exponent log2 log2 T = 4*m*Q*log2(Q).  T
    itself is astronomically large and is never materialized; only its
    iterated logarithm is reported.  ``eta_compatible`` flags eta < kappa^2
    and ``beta_floor`` is the smallest admissible overlap 1 - 5*kappa^2 +
    eta.
    """

    kappa: float
    alpha: float
    m: int
    eta: float
    sensitivity: float
    stability_rate: float
    q_steps: float
    rho_step: float
    log2_log2_t: float
    eta_compatible: bool
    beta_floor: float


def stable_replica_parameters(
    kappa: float,
    alpha: float,
    m: int,
    eta: float,
    sensitivity: float,
) -> StableReplicaParameters:
    """Evaluate the replicated-stability parameter formulas."""
    if not all(0.0 < x < math.inf for x in (kappa, alpha, eta, sensitivity)):
        raise DomainError("kappa, alpha, eta, and sensitivity must all be positive")
    if m < 2:
        raise DomainError(f"tuple size must be at least 2, got {m}")
    check_float_range("m", m)
    eta2 = eta * eta  # 0 once eta is below about 1e-162
    q = 4800.0 * sensitivity * math.pi * math.sqrt(alpha) / eta2 if eta2 > 0.0 else math.inf
    if not 0.0 < q < math.inf:
        raise DomainError(f"these inputs give q_steps = {q}; it must be positive and finite")
    log2_log2_t = 4.0 * m * q * math.log2(q)
    if not math.isfinite(log2_log2_t):
        raise DomainError(f"these inputs give log2 log2 T = {log2_log2_t}; it must be finite")
    angle = math.pi / (2.0 * q)  # inf once q is below about 1e-308
    if not angle < math.inf:
        raise DomainError(f"these inputs give pi / (2 q_steps) = {angle}; it must be finite")
    beta_floor = 1.0 - 5.0 * kappa * kappa + eta
    if not -math.inf < beta_floor:
        raise DomainError(f"these inputs give beta_floor = {beta_floor}; it must be finite")
    return StableReplicaParameters(
        kappa=kappa,
        alpha=alpha,
        m=m,
        eta=eta,
        sensitivity=sensitivity,
        stability_rate=eta * eta / 1600.0,
        q_steps=q,
        rho_step=math.cos(angle),
        log2_log2_t=log2_log2_t,
        eta_compatible=eta < kappa * kappa,
        beta_floor=beta_floor,
    )
