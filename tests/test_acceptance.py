"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one ``ACCEPTANCE k: PASS/FAIL`` line (visible even under
pytest's capture) and then asserts.  Tolerances are fixed here, not derived
at runtime; randomized checks run on pinned seeds so the gate is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from marginlab.disorder import resample_columns, sample_disorder
from marginlab.experiments import (
    kim_roche_stability_trial,
    majority_stability_curve,
    universality_gap,
)
from marginlab.landscape import (
    count_overlap_tuples_bruteforce,
    count_overlap_tuples_exact,
)
from marginlab.mvn import (
    box_probability_equicorrelated,
    conditional_mean,
    quadrant_probability,
    std_normal_cdf,
)
from marginlab.solvers import (
    ONLINE_STRATEGIES,
    kim_roche_schedule,
    kim_roche_solve,
    online_solve,
)
from marginlab.thresholds import (
    alpha_c,
    find_negative_psi,
    necessity_scan,
    scan_negativity,
    upsilon,
)


def report(capsys, k: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {k}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_trivariate_scan_locates_negative_window(capsys):
    t0 = time.monotonic()
    res = scan_negativity("f3", 1.667, lo=0.9, hi=0.999, step=1e-3)
    elapsed = time.monotonic() - t0
    box = box_probability_equicorrelated(3, res.argmin_abscissa, 1.0).value
    ok = (
        res.has_negative
        and abs(res.argmin_abscissa - 0.978) <= 0.003
        and abs(box - 0.6205) <= 1e-3
        and elapsed < 60.0
    )
    report(capsys, 1, ok,
           f"argmin={res.argmin_abscissa:.3f} box={box:.6f} "
           f"negatives={res.n_negative} elapsed={elapsed:.1f}s")
    assert res.has_negative
    assert res.argmin_abscissa == pytest.approx(0.978, abs=0.003)
    assert box == pytest.approx(0.6205, abs=1e-3)
    assert elapsed < 60.0


def test_criterion_02_threshold_trio_negativity_windows(capsys):
    cases = [
        ("f1", 1.77, dict(lo=1e-5, hi=0.1, step=1e-4)),
        ("f2", 1.71, {}),
        ("f3", 1.667, {}),
    ]
    details = []
    ok = True
    for which, alpha, grid in cases:
        present = scan_negativity(which, alpha, **grid)
        absent = scan_negativity(which, alpha - 0.15, **grid)
        # a point counts as negative only when value plus the propagated
        # probability error stays below zero
        certified = [p for p in present.points if p.value + p.prob_error < 0.0]
        case_ok = (present.has_negative and len(certified) == present.n_negative
                   and not absent.has_negative)
        ok = ok and case_ok
        details.append(f"{which}:{present.n_negative}/{absent.n_negative}")
    report(capsys, 2, ok, "certified negatives at/below threshold " + " ".join(details))
    assert ok


def test_criterion_03_critical_density_at_unit_margin(capsys):
    direct = -1.0 / math.log2(2.0 * std_normal_cdf(1.0) - 1.0)
    val = alpha_c(1.0)
    ok = abs(val - 1.8159) <= 1e-3 and abs(val - direct) <= 1e-12
    report(capsys, 3, ok, f"alpha_c(1)={val:.6f}")
    assert val == pytest.approx(1.8159, abs=1e-3)
    assert val == pytest.approx(direct, abs=1e-12)


def test_criterion_04_gaussian_identities(capsys):
    worst_q = 0.0
    for rho10 in range(-10, 11):
        rho = rho10 / 10.0
        closed = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst_q = max(worst_q, abs(quadrant_probability(rho) - closed))
    exact_cm = all(
        conditional_mean(r / 10.0) == (r / 10.0) * math.sqrt(2.0 / math.pi)
        for r in range(-10, 11)
    )
    worst_f = 0.0
    for m in (1, 2, 3, 5):
        for kappa in (0.5, 1.0, 2.0):
            p1 = 2.0 * std_normal_cdf(kappa) - 1.0
            got = box_probability_equicorrelated(m, 0.0, kappa).value
            worst_f = max(worst_f, abs(got - p1 ** m))
    ok = worst_q <= 1e-10 and exact_cm and worst_f <= 1e-8
    report(capsys, 4, ok,
           f"quadrant dev={worst_q:.1e} conditional-mean exact={exact_cm} "
           f"factorization dev={worst_f:.1e}")
    assert worst_q <= 1e-10
    assert exact_cm
    assert worst_f <= 1e-8


def test_criterion_05_majority_stability_law(capsys):
    n, k, trials, seed = 10_000, 100, 200, 0
    t0 = time.monotonic()
    stats = []
    ok = True
    taus = (0.05, 0.1, 0.3)
    for tau, res in zip(taus, majority_stability_curve(n, k, taus, trials, seed)):
        expected = n * tau / math.pi
        z = abs(res.mean - expected) / res.std_error
        var = float(np.var(res.per_trial, ddof=1))
        binom = n * (tau / math.pi) * (1.0 - tau / math.pi)
        ratio = var / binom
        ok = ok and z <= 3.0 and 0.75 <= ratio <= 1.25
        stats.append(f"tau={tau}: z={z:.2f} var_ratio={ratio:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 5, ok, " ".join(stats) + f" elapsed={elapsed:.0f}s")
    assert ok
    assert elapsed < 120.0


def test_criterion_06_exact_counts_equal_brute_force(capsys):
    checked = 0
    for n in range(2, 13):
        bns = sorted(set(int(round(x)) for x in np.linspace(2, n, 5)))
        for bn in bns:
            ens = sorted(set(int(round(x)) for x in np.linspace(1, bn - 1, 5)))
            for en in ens:
                beta, eta = bn / n, en / n
                for m in (2, 3):
                    exact = count_overlap_tuples_exact(n, m, beta, eta)
                    brute = count_overlap_tuples_bruteforce(n, m, beta, eta)
                    assert exact == brute, (n, m, bn, en, exact, brute)
                    checked += 1
    report(capsys, 6, True, f"{checked} (n, m, beta, eta) cases, exact integer match")


def test_criterion_07_small_margin_negativity_and_floors(capsys):
    details = []
    ok = True
    for kappa in (0.02, 0.01, 0.005):
        alpha = 10.0 * kappa * kappa * math.log2(1.0 / kappa)
        beta = 1.0 - 4.0 * kappa * kappa
        u = upsilon(beta, alpha, kappa)
        pt = find_negative_psi(kappa, alpha)
        floor3 = 3.0 * kappa * kappa * math.log2(1.0 / kappa)
        rows = necessity_scan(kappa)
        floors_ok = bool(rows) and all(r.alpha_implied >= floor3 for r in rows)
        case_ok = u < 0.0 and pt is not None and pt.value < 0.0 and floors_ok
        ok = ok and case_ok
        m_str = pt.m if pt is not None else "-"
        details.append(f"k={kappa}: Y={u:.2e} psi_m={m_str} floors_ok={floors_ok}")
    report(capsys, 7, ok, " ".join(details))
    assert ok


def test_criterion_08_iterated_majority_structure_and_stability(capsys):
    n = 10_000
    sched = kim_roche_schedule(n, 4.0, (1000.0, 3.0))
    structure_ok = sum(sched.n_blocks) == n and all(kk % 2 == 1 for kk in sched.k)
    for seed in range(50):
        mat = sample_disorder(n, 0.002, seed=seed)
        _, rounds = kim_roche_solve(mat, 4.0, (1000.0, 3.0))
        spans = [(r.block_start, r.block_start + r.block_size) for r in rounds]
        structure_ok = structure_ok and spans[0][0] == 0 and spans[-1][1] == n
        structure_ok = structure_ok and all(
            b == c for (_, b), (c, _) in zip(spans, spans[1:])
        )
    tau = n ** (-0.02)
    res = kim_roche_stability_trial(n, 0.002, tau, 50, seed=0)
    # Stability at this n is the tau/pi flip law, not a small distance: the
    # coupled column sums of a full-row vote are jointly gaussian with
    # correlation cos(tau), so each round-0 coordinate flips with probability
    # exactly tau/pi = 0.265 whatever the row count; a 0.05 median would need
    # tau/pi <= 0.05, i.e. n >= (0.05*pi)**-50 ~ 1e40.
    p = tau / math.pi
    b0 = kim_roche_schedule(n).n_blocks[0]
    pooled = res.trials * b0
    flips = sum(per_trial[0] for per_trial in res.round_disagreements)
    rate = flips / pooled
    z = abs(rate - p) / math.sqrt(p * (1.0 - p) / pooled)
    law_ok = z <= 3.0
    # Only the n - b0 coordinates of the later (selected-row) blocks may add
    # disagreement beyond round 0.  tol covers sampling noise: the median of
    # 50 trials has standard error ~8e-4 (per-trial sd ~sqrt(p(1-p)/n)).
    tol = 0.003
    lo = p * b0 / n - tol
    hi = p * b0 / n + (n - b0) / n + tol
    envelope_ok = lo <= res.median_final_ratio <= hi
    ok = structure_ok and law_ok and envelope_ok
    report(capsys, 8, ok,
           f"structure_ok={structure_ok} (50 instances); round-0 flip rate "
           f"{rate:.5f} vs tau/pi={p:.5f} at tau=n^-0.02={tau:.4f} "
           f"(z={z:.2f}, bound 3, over {pooled} coordinates); median d_H/n="
           f"{res.median_final_ratio:.5f}, envelope [{lo:.5f}, {hi:.5f}]")
    assert structure_ok
    assert law_ok, (
        f"round-0 flip rate {rate:.5f} over {pooled} coordinates is "
        f"z={z:.2f} > 3 standard errors from tau/pi={p:.5f}: a full-row "
        f"majority under a rotation by tau must flip each coordinate with "
        f"probability exactly tau/pi"
    )
    assert envelope_ok, (
        f"median final d_H/n = {res.median_final_ratio:.5f} outside "
        f"[{lo:.5f}, {hi:.5f}]: round 0 contributes tau/pi*b0/n = "
        f"{p * b0 / n:.5f} and the later blocks at most (n-b0)/n = "
        f"{(n - b0) / n:.5f}, with tolerance {tol}"
    )


def test_criterion_09_online_prefix_agreement(capsys):
    rng = np.random.default_rng(2026)
    violations = 0
    pairs = 0
    for strategy in ONLINE_STRATEGIES:
        for _ in range(100):
            n = int(rng.integers(50, 401))
            alpha = float(rng.uniform(0.05, 0.3))
            if int(alpha * n) < 1:
                alpha = 2.0 / n
            delta = float(rng.uniform(0.05, 0.45))
            seed = int(rng.integers(0, 2**31))
            mat = sample_disorder(n, alpha, seed=seed)
            other = resample_columns(mat, delta, seed=seed)
            keep = n - int(math.floor(delta * n + 1e-9))
            a, _ = online_solve(mat, 1.0, strategy)
            b, _ = online_solve(other, 1.0, strategy)
            if not np.array_equal(a.signs()[:keep], b.signs()[:keep]):
                violations += 1
            pairs += 1
    ok = violations == 0 and pairs == 200
    report(capsys, 9, ok, f"{pairs} (matrix, delta) pairs, {violations} violations")
    assert violations == 0


def test_criterion_10_distribution_gap_shrinks_with_n(capsys):
    res = universality_gap((100, 400, 1600), 0.6745, m=1, trials=100_000, seed=1)
    gaps = [r.gap for r in res.rows]
    ses = [r.gap_std_error for r in res.rows]
    monotone = all(a >= b for a, b in zip(gaps, gaps[1:]))
    ci_overlap = all(
        abs(g1 - g2) <= 1.96 * (s1 + s2)
        for (g1, s1), (g2, s2) in zip(zip(gaps, ses), zip(gaps[1:], ses[1:]))
    )
    slope_ok = False
    if res.slope is not None and res.slope_std_error is not None:
        lo = res.slope - 1.96 * res.slope_std_error
        hi = res.slope + 1.96 * res.slope_std_error
        slope_ok = lo <= -0.2 and hi >= -0.8
    ok = monotone or (ci_overlap and slope_ok)
    slope_str = "n/a" if res.slope is None else f"{res.slope:.3f}"
    report(capsys, 10, ok,
           f"gaps={[f'{g:.5f}' for g in gaps]} monotone={monotone} "
           f"ci_overlap={ci_overlap} slope={slope_str}")
    assert ok
