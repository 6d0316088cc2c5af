import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.polynomial.legendre import leggauss
from scipy.special import erf

import marginlab
from marginlab import mvn
from marginlab.errors import DomainError, SizingError
from marginlab.mvn import (
    CovarianceSpec,
    ProbResult,
    box_probabilities_equicorrelated,
    box_probability_equicorrelated,
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

# Regenerate with tests/oracles/box_mpmath.py (30-digit mpmath integral of the
# one-factor reduction at the exact double inputs; independent of numpy).
FROZEN_BOX_MPMATH = {
    (2, 0.0001, 0.05): 0.0015902239209791408,
    (2, 0.1, 0.05): 0.0015982217243992944,
    (2, 0.5, 0.05): 0.0018357228961245772,
    (2, 0.9, 0.05): 0.0036353277587100586,
    (2, 0.978, 0.05): 0.007486618328469991,
    (2, 0.999, 0.05): 0.02581628234740246,
    (2, 0.999999, 0.05): 0.039428015827445276,
    (2, 0.0001, 0.5): 0.14663149692816185,
    (2, 0.1, 0.5): 0.14725517936290253,
    (2, 0.5, 0.5): 0.16508526069133217,
    (2, 0.9, 0.5): 0.2581073853084553,
    (2, 0.978, 0.5): 0.3239200015418877,
    (2, 0.999, 0.5): 0.3703615724661953,
    (2, 0.999999, 0.5): 0.382527659343014,
    (2, 0.0001, 1.0): 0.4660649438453889,
    (2, 0.1, 1.0): 0.4672398543601861,
    (2, 0.5, 1.0): 0.497971777839208,
    (2, 0.9, 1.0): 0.5963599497277655,
    (2, 0.978, 1.0): 0.64219214550791,
    (2, 0.999, 1.0): 0.6740553761447126,
    (2, 0.999999, 1.0): 0.6824164574124876,
    (2, 0.0001, 2.0): 0.9110697464551234,
    (2, 0.1, 2.0): 0.9113031477825323,
    (2, 0.5, 2.0): 0.9171118526196426,
    (2, 0.9, 2.0): 0.9357219844613217,
    (2, 0.978, 2.0): 0.9455133369780979,
    (2, 0.999, 2.0): 0.9525736860885533,
    (2, 0.999999, 2.0): 0.9544388138370464,
    (3, 0.0001, 0.05): 6.341433263290085e-05,
    (3, 0.1, 0.05): 6.431973427137553e-05,
    (3, 0.5, 0.05): 8.96254212072199e-05,
    (3, 0.9, 0.05): 0.0003762497837416005,
    (3, 0.978, 0.05): 0.0016166951314124823,
    (3, 0.999, 0.05): 0.018966455647039422,
    (3, 0.999999, 0.05): 0.039203212410952086,
    (3, 0.0001, 0.5): 0.05614885507890931,
    (3, 0.1, 0.5): 0.05682929549507662,
    (3, 0.5, 0.5): 0.0749680991909164,
    (3, 0.9, 0.5): 0.1925671374327965,
    (3, 0.978, 0.5): 0.2933409601649628,
    (3, 0.999, 0.5): 0.3640313529362278,
    (3, 0.999999, 0.5): 0.38232897921454245,
    (3, 0.0001, 1.0): 0.31817764141544885,
    (3, 0.1, 1.0): 0.32048558761216406,
    (3, 0.5, 1.0): 0.3756674897364701,
    (3, 0.9, 1.0): 0.5463347412439332,
    (3, 0.978, 1.0): 0.6204669888792392,
    (3, 0.999, 1.0): 0.6696715968886648,
    (3, 0.999999, 1.0): 0.6822798733474438,
    (3, 0.0001, 2.0): 0.8696158330085992,
    (3, 0.1, 2.0): 0.8702733077933636,
    (3, 0.5, 2.0): 0.8850862207854345,
    (3, 0.9, 2.0): 0.9234013646283319,
    (3, 0.978, 2.0): 0.9403673064992998,
    (3, 0.999, 2.0): 0.9515808984388278,
    (3, 0.999999, 2.0): 0.9544083229369731,
    (5, 0.0001, 0.05): 1.008429917051134e-07,
    (5, 0.1, 0.05): 1.0521264992446641e-07,
    (5, 0.5, 0.05): 2.3256390569950336e-07,
    (5, 0.9, 0.05): 4.633501883425741e-06,
    (5, 0.978, 0.05): 8.738954721534301e-05,
    (5, 0.999, 0.05): 0.011713517813016126,
    (5, 0.999999, 0.05): 0.03895084346992332,
    (5, 0.0001, 0.5): 0.008233190879754835,
    (5, 0.1, 0.5): 0.008537538391710951,
    (5, 0.5, 0.5): 0.016709628228160894,
    (5, 0.9, 0.5): 0.12053963641999267,
    (5, 0.978, 0.5): 0.25826679634013466,
    (5, 0.999, 0.5): 0.356888080915393,
    (5, 0.999999, 0.5): 0.3821059027601422,
    (5, 0.0001, 1.0): 0.14829144681418385,
    (5, 0.1, 1.0): 0.15162098844186248,
    (5, 0.5, 1.0): 0.22596766901235932,
    (5, 0.9, 1.0): 0.4848219570364268,
    (5, 0.978, 1.0): 0.5949277457199494,
    (5, 0.999, 1.0): 0.6646983481016709,
    (5, 0.999999, 1.0): 0.6821264918429482,
    (5, 0.0001, 2.0): 0.7922806777091995,
    (5, 0.1, 2.0): 0.7942157604512098,
    (5, 0.5, 2.0): 0.8317593859775745,
    (5, 0.9, 2.0): 0.906720898133184,
    (5, 0.978, 2.0): 0.9340248947125754,
    (5, 0.999, 2.0): 0.9504426491068874,
    (5, 0.999999, 2.0): 0.9543740705782477,
    (10, 0.0001, 0.05): 1.0169310244070628e-14,
    (10, 0.1, 0.05): 1.1850266635334564e-14,
    (10, 0.5, 0.05): 9.778346110860585e-14,
    (10, 0.9, 0.05): 1.0311103156457465e-10,
    (10, 0.978, 0.05): 7.927517775150446e-08,
    (10, 0.999, 0.05): 0.004591076497537393,
    (10, 0.999999, 0.05): 0.03865136433873301,
    (10, 0.0001, 0.5): 6.778543921973034e-05,
    (10, 0.1, 0.5): 7.73905367184629e-05,
    (10, 0.5, 0.5): 0.0004748062653939323,
    (10, 0.9, 0.5): 0.04777134973850084,
    (10, 0.978, 0.5): 0.21575594224289174,
    (10, 0.999, 0.5): 0.3483626692450703,
    (10, 0.999999, 0.5): 0.3818411382573347,
    (10, 0.0001, 1.0): 0.021990354578740094,
    (10, 0.1, 1.0): 0.023915708932506666,
    (10, 0.5, 1.0): 0.07362996343705909,
    (10, 0.9, 1.0): 0.40492819853032574,
    (10, 0.978, 1.0): 0.5630848025025998,
    (10, 0.999, 1.0): 0.6587267231021678,
    (10, 0.999999, 1.0): 0.6819444116317332,
    (10, 0.0001, 2.0): 0.6277086762874076,
    (10, 0.1, 2.0): 0.6341357335635252,
    (10, 0.5, 2.0): 0.7340935645165332,
    (10, 0.9, 2.0): 0.8823977326714236,
    (10, 0.978, 2.0): 0.9256711159742744,
    (10, 0.999, 2.0): 0.9490593204541404,
    (10, 0.999999, 2.0): 0.9543333936952849,
}


def test_error_bar_covers_the_mpmath_reference():
    misses = []
    for (m, beta, kappa), ref in FROZEN_BOX_MPMATH.items():
        res = box_probability_equicorrelated(m, beta, kappa)
        assert res.method == "factor_quadrature"
        if not abs(res.value - ref) <= res.abs_error_estimate:
            misses.append((m, beta, kappa, abs(res.value - ref), res.abs_error_estimate))
    assert misses == []


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


def _error(reference, value):
    # Order gap + discarded tails + QUADPACK's roundoff floor 50*eps*value.
    return abs(value - reference) + 1.3e-15 + 50.0 * np.finfo(np.float64).eps * value


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
                coarse, fine = _kernel(m, beta, kappa, 101), _kernel(m, beta, kappa, 202)
                assert res == ProbResult(fine, _error(coarse, fine), "factor_quadrature")
                assert abs(coarse - _factor_integral_loop(m, beta, kappa, 101)) <= 2e-15
                assert abs(fine - _factor_integral_loop(m, beta, kappa, 202)) <= 2e-15
            assert batch[0].method == "analytic"


def test_refinement_applies_only_to_betas_that_need_it(monkeypatch):
    # No grid in the suite reaches the 404-node rule, so push one beta's
    # coarse estimate 1e-6 off and check that only that beta is refined.
    real = mvn._factor_integrals

    def coarse_off(m, betas, kappa, order):
        out = real(m, betas, kappa, order)
        if order == 101:
            out[betas == 0.9] += 1e-6
        return out

    expected = {}
    for beta in (0.5, 0.9, 0.978):
        coarse, fine, finer = (_kernel(3, beta, 1.0, n) for n in (101, 202, 404))
        if beta == 0.9:
            expected[beta] = ProbResult(finer, _error(fine, finer), "factor_quadrature")
            reference = _factor_integral_loop(3, beta, 1.0, 404)
        else:
            expected[beta] = ProbResult(fine, _error(coarse, fine), "factor_quadrature")
            reference = _factor_integral_loop(3, beta, 1.0, 202)
        assert abs(expected[beta].value - reference) <= 2e-15
    monkeypatch.setattr(mvn, "_factor_integrals", coarse_off)
    assert box_probabilities_equicorrelated(3, list(expected), 1.0) == list(expected.values())


def test_default_scan_builds_only_the_rules_it_uses(monkeypatch):
    # No default grid needs the 404-node refinement; building that rule anyway
    # (a 404 x 404 companion matrix) raises the peak memory of every scan.
    monkeypatch.setattr(mvn, "_GL_CACHE", {})
    scan_negativity("f3", 1.667)
    assert sorted(mvn._GL_CACHE) == [101, 202]


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


def test_covariance_spec_validation():
    with pytest.raises(DomainError):
        CovarianceSpec(dim=0, beta=0.5)
    with pytest.raises(DomainError):
        CovarianceSpec(dim=2, beta=-1.2)
    # 11585^2 <= 2^27 < 11586^2; the check runs before sigma() allocates
    assert CovarianceSpec(dim=11585, beta=0.5).dim == 11585
    with pytest.raises(SizingError, match="11586 x 11586 matrix exceeds the limit"):
        CovarianceSpec(dim=11586, beta=0.5)


def test_general_integrator_is_not_exported():
    for module in (marginlab, mvn):
        assert "box_probability_general" not in module.__all__
        assert "NotPositiveDefiniteError" not in module.__all__


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
