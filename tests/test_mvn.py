import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.polynomial.legendre import leggauss
from scipy.special import erf

import marginlab
from marginlab import mvn, thresholds
from marginlab.errors import DomainError
from marginlab.mvn import (
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
    # The scan's box probabilities may be cached by an earlier test; clear
    # them so this scan integrates its grid.
    thresholds._box_column.cache_clear()
    built = []

    @functools.cache
    def rule(order):
        built.append(order)
        return leggauss(order)

    monkeypatch.setattr(mvn, "_gl_rule", rule)
    scan_negativity("f3", 1.667)
    assert sorted(built) == [101, 202]


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
        for beta in (0.0, 0.1, 0.5, 0.9, 1.0 - 2.0**-53):
            res = box_probability_equicorrelated(m, beta, 1.0)
            assert res.value >= p1 ** m - 1e-12


def test_upper_bound_dominates_probability():
    for m, beta, kappa in [(2, 0.5, 0.3), (3, 0.9, 0.2), (2, 0.978, 0.05)]:
        bound = box_probability_upper_bound(m, beta, kappa)
        exact = box_probability_equicorrelated(m, beta, kappa)
        assert bound >= exact.value
        # at small kappa the density is flat over the box, so the bound is
        # tight; the residual gap scales like kappa^2 / (1 - beta)
        if kappa <= 0.05:
            assert bound == pytest.approx(exact.value, rel=5e-2)


def test_zero_kappa():
    assert box_probability_equicorrelated(3, 0.5, 0.0).value == 0.0
    assert box_probability_upper_bound(2, 0.5, 0.0) == 0.0


@pytest.mark.parametrize("m,beta,kappa", [(0, 0.5, 0.2), (2, -1.2, 0.2), (2, 1.0, 0.2),
                                          (2, 0.5, math.nan)],
                         ids=["m-0", "beta-negative", "beta-1", "kappa-nan"])
def test_upper_bound_validation(m, beta, kappa):
    with pytest.raises(DomainError):
        box_probability_upper_bound(m, beta, kappa)


# Regenerate with tests/oracles/upper_bound_mpmath.py (50-digit sums over the
# eigenvalues, checked against mp.det of the explicit matrix for m <= 16):
# (m, beta, kappa) -> (log det Sigma, log bound).
FROZEN_UPPER_BOUND_MPMATH = {
    (1, 0.0, 0.01): (0.0, -4.830961538632819),
    (1, 0.0, 0.2): (0.0, -1.8352292650788278),
    (1, 0.0, 1.0): (0.0, -0.22579135264472744),
    (1, 0.1, 0.01): (0.0, -4.830961538632819),
    (1, 0.1, 0.2): (0.0, -1.8352292650788278),
    (1, 0.1, 1.0): (0.0, -0.22579135264472744),
    (1, 0.5, 0.01): (0.0, -4.830961538632819),
    (1, 0.5, 0.2): (0.0, -1.8352292650788278),
    (1, 0.5, 1.0): (0.0, -0.22579135264472744),
    (1, 0.9, 0.01): (0.0, -4.830961538632819),
    (1, 0.9, 0.2): (0.0, -1.8352292650788278),
    (1, 0.9, 1.0): (0.0, -0.22579135264472744),
    (1, 0.999, 0.01): (0.0, -4.830961538632819),
    (1, 0.999, 0.2): (0.0, -1.8352292650788278),
    (1, 0.999, 1.0): (0.0, -0.22579135264472744),
    (1, 0.999999, 0.01): (0.0, -4.830961538632819),
    (1, 0.999999, 0.2): (0.0, -1.8352292650788278),
    (1, 0.999999, 1.0): (0.0, -0.22579135264472744),
    (1, 0.9999999999999999, 0.01): (0.0, -4.830961538632819),
    (1, 0.9999999999999999, 0.2): (0.0, -1.8352292650788278),
    (1, 0.9999999999999999, 1.0): (0.0, -0.22579135264472744),
    (2, 0.0, 0.01): (0.0, -9.661923077265637),
    (2, 0.0, 0.2): (0.0, -3.6704585301576556),
    (2, 0.0, 1.0): (0.0, -0.4515827052894549),
    (2, 0.1, 0.01): (-0.010050335853501442, -9.656897909338888),
    (2, 0.1, 0.2): (-0.010050335853501442, -3.665433362230905),
    (2, 0.1, 1.0): (-0.010050335853501442, -0.44655753736270415),
    (2, 0.5, 0.01): (-0.2876820724517809, -9.518082041039747),
    (2, 0.5, 0.2): (-0.2876820724517809, -3.526617493931765),
    (2, 0.5, 1.0): (-0.2876820724517809, -0.3077416690635644),
    (2, 0.9, 0.01): (-1.660731206821651, -8.831557473854811),
    (2, 0.9, 0.2): (-1.660731206821651, -2.84009292674683),
    (2, 0.9, 1.0): (-1.660731206821651, 0.37878289812137067),
    (2, 0.999, 0.01): (-6.215108223463873, -6.554368965533701),
    (2, 0.999, 0.2): (-6.215108223463873, -0.5629044184257189),
    (2, 0.999, 1.0): (-6.215108223463873, 2.6559714064424815),
    (2, 0.999999, 0.01): (-13.122363877375697, -3.1007411385777885),
    (2, 0.999999, 0.2): (-13.122363877375697, 2.8907234085301936),
    (2, 0.999999, 1.0): (-13.122363877375697, 6.109599233398394),
    (2, 0.9999999999999999, 0.01): (-36.04365338911715, 8.359903617292941),
    (2, 0.9999999999999999, 0.2): (-36.04365338911715, 14.351368164400922),
    (2, 0.9999999999999999, 1.0): (-36.04365338911715, 17.570243989269123),
    (3, 0.0, 0.01): (0.0, -14.492884615898456),
    (3, 0.0, 0.2): (0.0, -5.505687795236483),
    (3, 0.0, 1.0): (0.0, -0.6773740579341823),
    (3, 0.1, 0.01): (-0.02839947452169798, -14.478684878637607),
    (3, 0.1, 0.2): (-0.02839947452169798, -5.491488057975634),
    (3, 0.1, 1.0): (-0.02839947452169798, -0.6631743206733333),
    (3, 0.5, 0.01): (-0.6931471805599453, -14.146311025618484),
    (3, 0.5, 0.2): (-0.6931471805599453, -5.15911420495651),
    (3, 0.5, 1.0): (-0.6931471805599453, -0.3308004676542096),
    (3, 0.9, 0.01): (-3.5755507688069335, -12.705109231494989),
    (3, 0.9, 0.2): (-3.5755507688069335, -3.7179124108330166),
    (3, 0.9, 1.0): (-3.5755507688069335, 1.1104013264692845),
    (3, 0.999, 0.01): (-12.717565158283866, -8.134102036756524),
    (3, 0.999, 0.2): (-12.717565158283866, 0.8530947839054499),
    (3, 0.999, 1.0): (-12.717565158283866, 5.681408521207751),
    (3, 0.999999, 0.01): (-26.532409493869817, -1.2266798689635483),
    (3, 0.999999, 0.2): (-26.532409493869817, 7.760516951698425),
    (3, 0.999999, 1.0): (-26.532409493869817, 12.588830689000726),
    (3, 0.9999999999999999, 0.01): (-72.3749888506861, 21.69460980944459),
    (3, 0.9999999999999999, 0.2): (-72.3749888506861, 30.681806630106564),
    (3, 0.9999999999999999, 1.0): (-72.3749888506861, 35.51012036740887),
    (8, 0.0, 0.01): (0.0, -38.64769230906255),
    (8, 0.0, 0.2): (0.0, -14.681834120630622),
    (8, 0.0, 1.0): (0.0, -1.8063308211578195),
    (8, 0.1, 0.01): (-0.20689535854261373, -38.544244629791244),
    (8, 0.1, 0.2): (-0.20689535854261373, -14.578386441359315),
    (8, 0.1, 1.0): (-0.20689535854261373, -1.7028831418865127),
    (8, 0.5, 0.01): (-3.347952867143343, -36.97371587549088),
    (8, 0.5, 0.2): (-3.347952867143343, -13.00785768705895),
    (8, 0.5, 1.0): (-3.347952867143343, -0.13235438758614793),
    (8, 0.9, 0.01): (-14.130221302803976, -31.582581657660562),
    (8, 0.9, 0.2): (-14.130221302803976, -7.616723469228634),
    (8, 0.9, 1.0): (-14.130221302803976, 5.258779830244168),
    (8, 0.999, 0.01): (-46.27572079423107, -15.509831911947014),
    (8, 0.999, 0.2): (-46.27572079423107, 8.456026276484913),
    (8, 0.999, 1.0): (-46.27572079423107, 21.331529575957717),
    (8, 0.999999, 0.01): (-94.62913323886917, 8.666874310372037),
    (8, 0.999999, 0.2): (-94.62913323886917, 32.63273249880397),
    (8, 0.999999, 1.0): (-94.62913323886917, 45.50823579827677),
    (8, 0.9999999999999999, 0.01): (-255.07816244605988, 88.89138891396739),
    (8, 0.9999999999999999, 0.2): (-255.07816244605988, 112.85724710239931),
    (8, 0.9999999999999999, 1.0): (-255.07816244605988, 125.73275040187212),
    (100, 0.0, 0.01): (0.0, -483.09615386328187),
    (100, 0.0, 0.2): (0.0, -183.52292650788277),
    (100, 0.0, 1.0): (0.0, -22.579135264472743),
    (100, 0.1, 0.01): (-8.041928260889707, -479.07518973283703),
    (100, 0.1, 0.2): (-8.041928260889707, -179.50196237743793),
    (100, 0.1, 1.0): (-8.041928260889707, -18.55817113402789),
    (100, 0.5, 0.01): (-64.69959753915327, -450.74635509370523),
    (100, 0.5, 0.2): (-64.69959753915327, -151.17312773830614),
    (100, 0.5, 1.0): (-64.69959753915327, 9.770663505103892),
    (100, 0.9, 0.01): (-223.45500404179626, -371.36865184238377),
    (100, 0.9, 0.2): (-223.45500404179626, -71.79542448698464),
    (100, 0.9, 1.0): (-223.45500404179626, 89.14836675642539),
    (100, 0.999, 0.01): (-679.263592923617, -143.46435740147334),
    (100, 0.999, 0.2): (-679.263592923617, 156.10886995392576),
    (100, 0.999, 1.0): (-679.263592923617, 317.0526611973358),
    (100, 0.999999, 0.01): (-1363.1303760396288, 198.46903415653247),
    (100, 0.999999, 0.2): (-1363.1303760396288, 498.0422615119316),
    (100, 0.999999, 1.0): (-1363.1303760396288, 658.9860527553416),
    (100, 0.9999999999999999, 0.01): (-3632.338086212045, 1333.0728892427405),
    (100, 0.9999999999999999, 0.2): (-3632.338086212045, 1632.6461165981398),
    (100, 0.9999999999999999, 1.0): (-3632.338086212045, 1793.5899078415498),
    (10000, 0.0, 0.01): (0.0, -48309.61538632819),
    (10000, 0.0, 0.2): (0.0, -18352.292650788277),
    (10000, 0.0, 1.0): (0.0, -2257.9135264472743),
    (10000, 0.1, 0.01): (-1046.5911411883803, -47786.319815734),
    (10000, 0.1, 0.2): (-1046.5911411883803, -17828.997080194087),
    (10000, 0.1, 1.0): (-1046.5911411883803, -1734.6179558530841),
    (10000, 0.5, 0.01): (-6922.261365232476, -44848.48470371195),
    (10000, 0.5, 0.2): (-6922.261365232476, -14891.161968172039),
    (10000, 0.5, 1.0): (-6922.261365232476, 1203.217156168964),
    (10000, 0.9, 0.01): (-23014.4433538801, -36802.39370938814),
    (10000, 0.9, 0.2): (-23014.4433538801, -6845.070973848229),
    (10000, 0.9, 1.0): (-23014.4433538801, 9249.308150492774),
    (10000, 0.999, 0.01): (-69061.43569457064, -13778.89753904287),
    (10000, 0.999, 0.2): (-69061.43569457064, 16178.42519649704),
    (10000, 0.999, 1.0): (-69061.43569457064, 32272.804320838044),
    (10000, 0.999999, 0.01): (-138132.07972942517, 20756.4244783844),
    (10000, 0.999999, 0.2): (-138132.07972942517, 50713.74721392431),
    (10000, 0.999999, 1.0): (-138132.07972942517, 66808.12633826531),
    (10000, 0.9999999999999999, 0.01): (-367322.05855582934, 135351.4138915865),
    (10000, 0.9999999999999999, 0.2): (-367322.05855582934, 165308.7366271264),
    (10000, 0.9999999999999999, 1.0): (-367322.05855582934, 181403.1157514674),
}


def test_upper_bound_follows_the_mpmath_reference():
    # Each eigenvalue's log1p is within an ulp of its own size, so the closed
    # form is within 4 eps of the sum of their magnitudes; a Cholesky of the
    # explicit matrix would miss by about 3,400 of those at (2, 0.999999).
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    misses = []
    for (m, beta, kappa), (log_det, log_bound) in FROZEN_UPPER_BOUND_MPMATH.items():
        scale = -(m - 1) * math.log1p(-beta) + math.log1p((m - 1) * beta)
        if not abs(mvn._log_det_equicorrelated(m, beta) - log_det) <= 4 * eps * scale:
            misses.append((m, beta, "log det"))
        if log_bound > math.log(sys.float_info.max):
            with pytest.raises(DomainError, match="the bound overflows"):
                box_probability_upper_bound(m, beta, kappa)
            continue
        bound = box_probability_upper_bound(m, beta, kappa)
        if log_bound < math.log(tiny):
            ok = bound < tiny
        else:
            size = 0.5 * scale + m * (0.5 * math.log(2.0 * math.pi) + abs(math.log(2.0 * kappa)))
            ok = abs(math.log(bound) - log_bound) <= 4 * eps * (size + 1.0)
        if not ok:
            misses.append((m, beta, kappa, "bound"))
    assert misses == []


def test_general_integrator_is_not_exported():
    for module in (marginlab, mvn):
        assert "box_probability_general" not in module.__all__
        assert "NotPositiveDefiniteError" not in module.__all__
        assert "CovarianceSpec" not in module.__all__


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
