import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from marginlab import mvn
from marginlab.errors import DomainError, NotPositiveDefiniteError
from marginlab.mvn import (
    CovarianceSpec,
    ProbResult,
    box_probabilities_equicorrelated,
    box_probability_equicorrelated,
    box_probability_general,
    box_probability_upper_bound,
    conditional_mean,
    quadrant_probability,
    std_normal_cdf,
)
from marginlab.thresholds import scan_negativity

# Regenerate with tests/oracles/box_probabilities.py (scipy dblquad/tplquad
# on the explicit densities; independent of the one-factor quadrature).
FROZEN_BOX2 = {
    (0.5, 1.0): 0.49797177783921,
    (0.9, 1.0): 0.59635994972777,
    (0.978, 1.0): 0.642192145507918,
    (0.9954, 1.0): 0.66417138105537,
}
FROZEN_BOX3 = {
    (0.978, 1.0): 0.6204669888792478,
}


def test_cdf_against_erf_identity():
    for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
        assert std_normal_cdf(x) == pytest.approx(
            0.5 * (1.0 + math.erf(x / math.sqrt(2.0))), abs=1e-15
        )


def test_quadrant_closed_form_and_limits():
    assert quadrant_probability(0.0) == pytest.approx(0.25, abs=1e-15)
    assert quadrant_probability(1.0) == pytest.approx(0.5, abs=1e-15)
    assert quadrant_probability(-1.0) == pytest.approx(0.0, abs=1e-15)
    for rho in np.linspace(-1.0, 1.0, 21):
        expected = 0.25 + math.asin(float(rho)) / (2.0 * math.pi)
        assert quadrant_probability(float(rho)) == pytest.approx(expected, abs=1e-14)


def test_conditional_mean_exact_expression():
    for rho in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert conditional_mean(rho) == rho * math.sqrt(2.0 / math.pi)


def test_frozen_two_dim_boxes():
    for (beta, kappa), expected in FROZEN_BOX2.items():
        res = box_probability_equicorrelated(2, beta, kappa)
        assert res.value == pytest.approx(expected, abs=5e-13)
        assert res.abs_error_estimate < 1e-10


def test_frozen_three_dim_box():
    for (beta, kappa), expected in FROZEN_BOX3.items():
        res = box_probability_equicorrelated(3, beta, kappa)
        assert res.value == pytest.approx(expected, abs=5e-13)


def test_equicorrelated_matches_general_integrator():
    for m, beta, kappa in [(2, 0.3, 1.0), (2, 0.9, 0.5), (3, 0.6, 1.2), (3, 0.978, 1.0)]:
        a = box_probability_equicorrelated(m, beta, kappa)
        spec = CovarianceSpec(dim=m, beta=beta)
        b = box_probability_general(spec, kappa)
        assert a.value == pytest.approx(b.value, abs=1e-6)
        assert a.method == "factor_quadrature"
        assert b.method == "tensor_quadrature"


def test_independence_factorization():
    p1 = 2.0 * std_normal_cdf(1.0) - 1.0
    for m in (1, 2, 3, 5):
        res = box_probability_equicorrelated(m, 0.0, 1.0)
        assert res.value == pytest.approx(p1 ** m, abs=1e-8)
        assert res.method == "analytic"


@functools.cache
def _leggauss(order):
    return leggauss(order)


def _factor_integral_loop(m, beta, kappa, order):
    # Full-line reference for the half-line kernel, independent of mvn:
    # [-8, 8] cut at +-kappa/sqrt(beta) +- 10 sqrt(1-beta)/sqrt(beta), nodes
    # lo + half*(x + 1), one numpy reduction per panel, sums in order.
    s = math.sqrt(beta)
    d = math.sqrt(2.0 * (1.0 - beta))
    t0 = kappa / s
    r = 10.0 * math.sqrt(1.0 - beta) / s
    cuts = sorted({-8.0, 8.0} | {c for c in (-t0 - r, -t0 + r, t0 - r, t0 + r) if -8.0 < c < 8.0})
    x, wx = _leggauss(order)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 1e-12:
            continue
        half = 0.5 * (hi - lo)
        w = lo + half * (x + 1.0)
        g = 0.5 * (erf((kappa - s * w) / d) - erf((-kappa - s * w) / d))
        phi = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * w * w)
        total += float(np.sum(half * wx * phi * g**m))
    return total


def _kernel(m, beta, kappa, order):
    return float(mvn._factor_integrals(m, np.array([beta]), kappa, order)[0])


# 14 betas: more than one quadrature block and not a multiple of its size;
# the first block mixes betas with one (beta <= 0.5), two (0.6) and three
# half-line panels.
BATCH_BETAS = [0.0, 1e-6, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.95, 0.978, 0.99, 0.9954, 0.999,
               0.999999]


def test_batched_quadrature_equals_one_beta_loop():
    for m in (2, 3):
        for kappa in (0.5, 1.0):
            batch = box_probabilities_equicorrelated(m, BATCH_BETAS, kappa)
            assert batch == [box_probability_equicorrelated(m, b, kappa) for b in BATCH_BETAS]
            for beta, res in zip(BATCH_BETAS[1:], batch[1:]):
                coarse, fine = _kernel(m, beta, kappa, 201), _kernel(m, beta, kappa, 402)
                assert res == ProbResult(fine, abs(fine - coarse) + 1e-15, "factor_quadrature")
                assert abs(coarse - _factor_integral_loop(m, beta, kappa, 201)) <= 2e-15
                assert abs(fine - _factor_integral_loop(m, beta, kappa, 402)) <= 2e-15
            assert batch[0].method == "analytic"


def test_refinement_applies_only_to_betas_that_need_it(monkeypatch):
    # No grid in the suite reaches the 801-node rule, so push one beta's
    # coarse estimate 1e-6 off and check that only that beta is refined.
    real = mvn._factor_integrals

    def coarse_off(m, betas, kappa, order):
        out = real(m, betas, kappa, order)
        if order == 201:
            out[betas == 0.9] += 1e-6
        return out

    expected = {}
    for beta in (0.5, 0.9, 0.978):
        coarse, fine, finer = (_kernel(3, beta, 1.0, n) for n in (201, 402, 801))
        if beta == 0.9:
            expected[beta] = ProbResult(finer, abs(finer - fine) + 1e-15, "factor_quadrature")
            reference = _factor_integral_loop(3, beta, 1.0, 801)
        else:
            expected[beta] = ProbResult(fine, abs(fine - coarse) + 1e-15, "factor_quadrature")
            reference = _factor_integral_loop(3, beta, 1.0, 402)
        assert abs(expected[beta].value - reference) <= 2e-15
    monkeypatch.setattr(mvn, "_factor_integrals", coarse_off)
    assert box_probabilities_equicorrelated(3, list(expected), 1.0) == list(expected.values())


def test_default_scan_builds_only_the_rules_it_uses(monkeypatch):
    # No default grid needs the 801-node refinement; building that rule anyway
    # (an 801 x 801 companion matrix) raises the peak memory of every scan.
    monkeypatch.setattr(mvn, "_GL_CACHE", {})
    scan_negativity("f3", 1.667)
    assert sorted(mvn._GL_CACHE) == [201, 402]


def test_batch_validation_and_degenerate_cases():
    assert box_probabilities_equicorrelated(2, [], 1.0) == []
    assert box_probabilities_equicorrelated(2, [0.2, 0.7], 0.0) == [
        ProbResult(0.0, 0.0, "analytic")
    ] * 2
    with pytest.raises(DomainError, match="m must be at least 1"):
        box_probabilities_equicorrelated(0, [0.5], 1.0)
    with pytest.raises(DomainError, match=r"beta=1.0 >= 1"):
        box_probabilities_equicorrelated(2, [0.5, 1.0], 1.0)
    with pytest.raises(DomainError, match="beta must be nonnegative"):
        box_probabilities_equicorrelated(2, [0.5, -0.1], 1.0)
    with pytest.raises(DomainError, match="kappa must be nonnegative"):
        box_probabilities_equicorrelated(2, [0.5], -1.0)


def test_perfect_correlation_collapses_to_one_dim():
    # beta -> 1 limit: all coordinates equal, so the box is one band.
    p1 = 2.0 * std_normal_cdf(1.0) - 1.0
    res = box_probability_equicorrelated(4, 0.999999, 1.0)
    assert res.value == pytest.approx(p1, abs=1e-3)
    with pytest.raises(DomainError):
        box_probability_equicorrelated(2, 1.0, 1.0)


def test_monotone_in_correlation():
    values = [box_probability_equicorrelated(3, b, 1.0).value
              for b in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_positive_dependence_dominates_product():
    # Equicorrelated bands are positively associated, so the joint box
    # probability is at least the independent product.
    p1 = 2.0 * std_normal_cdf(1.0) - 1.0
    for m in (2, 3, 6):
        for beta in (0.1, 0.5, 0.9):
            res = box_probability_equicorrelated(m, beta, 1.0)
            assert res.value >= p1 ** m - 1e-12


def test_upper_bound_dominates_probability():
    for m, beta, kappa in [(2, 0.5, 0.3), (3, 0.9, 0.2), (2, 0.978, 0.05)]:
        spec = CovarianceSpec(dim=m, beta=beta)
        bound = box_probability_upper_bound(spec, kappa)
        exact = box_probability_equicorrelated(m, beta, kappa)
        assert bound >= exact.value
        # at small kappa the density is flat over the box, so the bound is
        # tight; the residual gap scales like kappa^2 / (1 - beta)
        if kappa <= 0.05:
            assert bound == pytest.approx(exact.value, rel=5e-2)


def test_zero_kappa():
    assert box_probability_equicorrelated(3, 0.5, 0.0).value == 0.0
    assert box_probability_upper_bound(CovarianceSpec(dim=2, beta=0.5), 0.0) == 0.0


def test_monte_carlo_path():
    spec = CovarianceSpec(dim=5, beta=0.4)
    res = box_probability_general(spec, 1.0, budget=120_000)
    assert res.method == "monte_carlo"
    direct = box_probability_equicorrelated(5, 0.4, 1.0)
    assert abs(res.value - direct.value) < 4.0 * max(res.abs_error_estimate, 1e-4)
    again = box_probability_general(spec, 1.0, budget=120_000)
    assert res.value == again.value


def test_covariance_spec_validation():
    with pytest.raises(DomainError):
        CovarianceSpec(dim=0, beta=0.5)
    with pytest.raises(DomainError):
        CovarianceSpec(dim=2, beta=-1.2)
    pert = np.zeros((2, 2))
    pert[0, 1] = pert[1, 0] = -0.01
    spec = CovarianceSpec(dim=2, beta=0.5, perturbation=pert, eta_bound=0.02)
    sig = spec.sigma()
    assert sig[0, 1] == pytest.approx(0.49)
    with pytest.raises(DomainError):
        CovarianceSpec(dim=2, beta=0.5, perturbation=pert, eta_bound=0.001)
    bad = np.zeros((2, 2))
    bad[0, 1] = bad[1, 0] = 0.01  # positive entries not allowed
    with pytest.raises(DomainError):
        CovarianceSpec(dim=2, beta=0.5, perturbation=bad, eta_bound=0.02)


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        box_probability_general(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
    # singular, yet its rounded Cholesky factor has a positive last pivot
    with pytest.raises(NotPositiveDefiniteError):
        box_probability_general(np.array([[2.0, 2.0], [2.0, 2.0]]), 1.0)
    pert = np.zeros((2, 2))
    pert[0, 1] = pert[1, 0] = -0.02
    spec = CovarianceSpec(dim=2, beta=0.99, perturbation=pert, eta_bound=0.03)
    assert spec.is_positive_definite()


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=0.995),
    kappa=st.floats(min_value=0.01, max_value=3.0),
    m=st.integers(min_value=1, max_value=6),
)
def test_property_box_in_unit_interval_and_monotone_in_kappa(beta, kappa, m):
    res = box_probability_equicorrelated(m, beta, kappa)
    assert 0.0 <= res.value <= 1.0
    wider = box_probability_equicorrelated(m, beta, kappa * 1.5)
    assert wider.value >= res.value - 1e-12
