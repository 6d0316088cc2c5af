"""Randomized experiments probing solver stability and disorder universality.

Each experiment couples instances through the counter-based sampler: trial t
draws its base from stream 2t and its replica (or resampled block) from an
independent stream, so runs are reproducible from (experiment, seed) alone
and trials are independent.  Summaries carry per-trial statistics plus a
standard error; binomial fractions also get a Wilson interval, which stays
honest at the extremes where the normal approximation collapses.

The universality experiment deliberately bypasses the matrix type and draws
its disorder in bulk with coupled uniforms: the gaussian and sign samples
per trial are antithetic transforms of the same uniforms, which strips most
of the Monte Carlo noise from their probability gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .disorder import (
    DisorderMatrix,
    RESAMPLE_STREAM,
    interpolate,
    philox_key,
    resample_columns,
    sample_disorder,
    sample_ensemble,
    uniform_tau_grid,
)
from .errors import DomainError, SizingError
from .landscape import SignVector, _scan_masks, hamming, is_solution, overlap
from .solvers import (
    KimRocheSchedule,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
)

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
    "majority_stability_trial",
    "online_failure_census",
    "online_two_stage_trial",
    "overlap_trajectory",
    "stable_replica_parameters",
    "universality_gap",
    "wilson_interval",
]

TRAJECTORY_SOLVERS = ("majority", "kim_roche", "online_greedy", "online_exp")


@dataclass(frozen=True)
class TrialSummary:
    """Mean and spread of one scalar statistic over independent trials."""

    experiment: str
    statistic: str
    n: int
    alpha: float
    trials: int
    seed: int
    mean: float
    std_error: float
    per_trial: tuple[float, ...]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if not (0 <= successes <= trials):
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def expected_majority_flip_probability(tau: float) -> float:
    """Per-coordinate flip rate of the one-shot majority under a rotation by tau.

    The two column sums are jointly gaussian with correlation cos(tau), and a
    gaussian pair at correlation rho disagrees in sign with probability
    arccos(rho)/pi, so the flip rate is exactly tau/pi, independent of the
    number of voting rows.
    """
    if not (0.0 <= tau <= math.pi / 2.0):
        raise DomainError(f"tau must lie in [0, pi/2], got {tau}")
    return tau / math.pi


def majority_stability_trial(
    n: int,
    k_rows: int,
    tau: float,
    trials: int,
    seed: int,
) -> TrialSummary:
    """Hamming distance between majority outputs of a base and its rotation.

    Trial t solves the base (stream 2t) and the base rotated by tau toward an
    independent replica (stream 2t+1).  Each coordinate flips independently
    with probability tau/pi, so the distance is Binomial(n, tau/pi) exactly.
    """
    if trials < 2:
        raise SizingError(f"need at least 2 trials, got {trials}")
    if k_rows < 1:
        raise SizingError(f"need at least one voting row, got {k_rows}")
    alpha = k_rows / n
    dists = []
    for t in range(trials):
        base = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t)
        repl = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t + 1)
        twisted = interpolate(base, repl, tau)
        dists.append(float(hamming(majority_solve(base), majority_solve(twisted))))
    arr = np.array(dists)
    return TrialSummary(
        experiment="majority_stability",
        statistic="hamming_distance",
        n=n,
        alpha=alpha,
        trials=trials,
        seed=seed,
        mean=float(arr.mean()),
        std_error=float(arr.std(ddof=1) / math.sqrt(trials)),
        per_trial=tuple(dists),
    )


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
    schedule: KimRocheSchedule | None = None,
    threshold: float = 0.05,
) -> KimRocheStabilityResult:
    """Run the multi-stage solver on coupled instances and compare traces.

    Trial t solves the base (stream 2t) and the base rotated by tau toward an
    independent replica (stream 2t+1).  Round 0 assigns its n_blocks[0]
    coordinates by full-row majority, so each of them flips with probability
    exactly tau/pi (see ``expected_majority_flip_probability``), whatever
    the number of rows.  Only the later blocks, n - n_blocks[0] coordinates
    voted on by selected rows, can add disagreement beyond that.
    """
    if trials < 1:
        raise SizingError(f"need at least one trial, got {trials}")
    sched = schedule if schedule is not None else kim_roche_schedule(n)
    finals: list[int] = []
    per_round: list[tuple[int, ...]] = []
    agreements: list[tuple[float, ...]] = []
    for t in range(trials):
        base = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t)
        repl = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t + 1)
        twisted = interpolate(base, repl, tau)
        sv_a, tr_a = kim_roche_solve(base, sched, collect_trace=True)
        sv_b, tr_b = kim_roche_solve(twisted, sched, collect_trace=True)
        finals.append(hamming(sv_a, sv_b))
        sig_a = sv_a.signs()
        sig_b = sv_b.signs()
        cums = []
        for rec in tr_a:
            stop = rec.block_start + rec.block_size
            cums.append(int(np.count_nonzero(sig_a[:stop] != sig_b[:stop])))
        per_round.append(tuple(cums))
        ag = []
        for ra, rb in zip(tr_a, tr_b):
            if ra.selected_rows is None:
                continue
            shared = len(set(ra.selected_rows) & set(rb.selected_rows))
            ag.append(shared / len(ra.selected_rows))
        agreements.append(tuple(ag))
    ratios = sorted(d / n for d in finals)
    mid = len(ratios) // 2
    median = ratios[mid] if len(ratios) % 2 else 0.5 * (ratios[mid - 1] + ratios[mid])
    below = sum(1 for d in finals if d <= threshold * n) / trials
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
        median_final_ratio=median,
        fraction_below=below,
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


def _trajectory_solver(name: str, kappa: float, schedule: KimRocheSchedule | None):
    if name == "majority":
        return lambda mat: majority_solve(mat)
    if name == "kim_roche":
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
    schedule: KimRocheSchedule | None = None,
) -> OverlapTrajectory:
    """Solve every interpolated instance and tabulate pairwise output overlaps."""
    if n_replicas < 2:
        raise SizingError(f"need at least two replicas, got {n_replicas}")
    sched = schedule
    if solver == "kim_roche" and sched is None:
        sched = kim_roche_schedule(n)
    solve = _trajectory_solver(solver, kappa, sched)
    ensemble = sample_ensemble(n, alpha, n_replicas, uniform_tau_grid(q_steps), seed)
    outputs: list[list[SignVector]] = []
    feasible = np.zeros((n_replicas, q_steps + 1), dtype=bool)
    for i in range(n_replicas):
        row = []
        for k in range(q_steps + 1):
            inst = ensemble.instance(i, k)
            sv = solve(inst)
            row.append(sv)
            feasible[i, k] = is_solution(inst, sv, kappa, symmetric=True)
        outputs.append(row)
    values = np.ones((n_replicas, n_replicas, q_steps + 1), dtype=np.float64)
    for i in range(n_replicas):
        for j in range(n_replicas):
            if i == j:
                continue
            for k in range(q_steps + 1):
                values[i, j, k] = overlap(outputs[i][k], outputs[j][k])
    return OverlapTrajectory(
        solver=solver,
        n=n,
        alpha=alpha,
        kappa=kappa,
        seed=seed,
        tau_grid=ensemble.tau_grid,
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
    n_cap: int = 14,
) -> CensusResult:
    """Exhaustively decide, per coupled pair, whether close solution pairs exist.

    Decides existence by full enumeration of both solution sets, so n is
    capped; the fraction estimates the probability that the coupled pair
    leaves any room for an algorithm whose output moves slowly under the
    resampling.
    """
    if n > n_cap:
        raise SizingError(f"census enumerates 2^n cube twice; needs n <= {n_cap}")
    if trials < 1:
        raise SizingError(f"need at least one trial, got {trials}")
    d_max = int(math.floor(delta * n + 1e-9))
    hits = []
    for t in range(trials):
        base = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t)
        resampled = resample_columns(base, delta, seed, stream=RESAMPLE_STREAM + t)
        a = np.array(_scan_masks(base, kappa, True, n_cap), dtype=np.uint64)
        b = np.array(_scan_masks(resampled, kappa, True, n_cap), dtype=np.uint64)
        found = False
        for mask in a:
            if b.size and int(np.min(np.bitwise_count(b ^ mask))) <= d_max:
                found = True
                break
        hits.append(found)
    successes = sum(hits)
    lo, hi = wilson_interval(successes, trials)
    return CensusResult(
        n=n,
        alpha=alpha,
        delta=delta,
        kappa=kappa,
        trials=trials,
        seed=seed,
        successes=successes,
        fraction=successes / trials,
        wilson_lo=lo,
        wilson_hi=hi,
        per_trial=tuple(hits),
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
    if trials < 1:
        raise SizingError(f"need at least one trial, got {trials}")
    b = int(math.floor(delta * n + 1e-9))
    if b < 1:
        raise SizingError(f"floor(delta*n) = {b}, nothing resampled")
    prefix = n - b
    d_max = b
    successes = 0
    for t in range(trials):
        base = sample_disorder(n, alpha, "gaussian", seed, stream=2 * t)
        resampled = resample_columns(base, delta, seed, stream=RESAMPLE_STREAM + t)
        sv_a, ok_a, _ = online_solve(base, kappa, strategy)
        sv_b, ok_b, _ = online_solve(resampled, kappa, strategy)
        sig_a = sv_a.signs()
        sig_b = sv_b.signs()
        if not np.array_equal(sig_a[:prefix], sig_b[:prefix]):
            raise AssertionError(
                f"online prefix property violated at trial {t}: decisions on a "
                "shared column prefix must agree"
            )
        if ok_a and ok_b and hamming(sv_a, sv_b) <= d_max:
            successes += 1
    lo, hi = wilson_interval(successes, trials)
    return TwoStageResult(
        n=n,
        alpha=alpha,
        delta=delta,
        kappa=kappa,
        strategy=strategy,
        trials=trials,
        seed=seed,
        successes=successes,
        fraction=successes / trials,
        wilson_lo=lo,
        wilson_hi=hi,
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
    trial transforms one uniform row two ways (inverse CDF for the gaussian
    row, a median split for the sign row), so the reported gap is a paired
    difference with its own standard error.  The central limit theorem makes
    the gap shrink like n^(-1/2) with a Berry-Esseen constant.
    """
    if kappa <= 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if trials < 100:
        raise DomainError(f"trials too few for a gap estimate: {trials}")
    rows: list[UniversalityRow] = []
    for n in n_list:
        sigs = _universality_tuple(n, m, beta)
        thr = kappa * math.sqrt(n)
        rng = np.random.Generator(
            np.random.Philox(key=philox_key(seed, n))
        )
        remaining = trials
        count_g = 0
        count_r = 0
        diff_sum = 0.0
        diff_sq = 0.0
        chunk_rows = max(1, min(trials, (1 << 22) // max(n, 1)))
        while remaining > 0:
            c = min(remaining, chunk_rows)
            u = rng.random((c, n))
            xg = ndtri(u)
            xr = np.where(u < 0.5, -1.0, 1.0)
            ok_g = np.all(np.abs(xg @ sigs.T) <= thr, axis=1)
            ok_r = np.all(np.abs(xr @ sigs.T) <= thr, axis=1)
            count_g += int(np.count_nonzero(ok_g))
            count_r += int(np.count_nonzero(ok_r))
            d = ok_g.astype(np.float64) - ok_r.astype(np.float64)
            diff_sum += float(d.sum())
            diff_sq += float((d * d).sum())
            remaining -= c
        mean_d = diff_sum / trials
        var_d = max(diff_sq / trials - mean_d * mean_d, 0.0)
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
    if kappa <= 0.0 or alpha <= 0.0 or eta <= 0.0 or sensitivity <= 0.0:
        raise DomainError("kappa, alpha, eta, and sensitivity must all be positive")
    if m < 2:
        raise DomainError(f"tuple size must be at least 2, got {m}")
    q = 4800.0 * sensitivity * math.pi * math.sqrt(alpha) / (eta * eta)
    return StableReplicaParameters(
        kappa=kappa,
        alpha=alpha,
        m=m,
        eta=eta,
        sensitivity=sensitivity,
        stability_rate=eta * eta / 1600.0,
        q_steps=q,
        rho_step=math.cos(math.pi / (2.0 * q)),
        log2_log2_t=4.0 * m * q * math.log2(q),
        eta_compatible=eta < kappa * kappa,
        beta_floor=1.0 - 5.0 * kappa * kappa + eta,
    )
