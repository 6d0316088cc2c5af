import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import mvn, thresholds
from marginlab.cli import main
from marginlab.errors import DomainError
from marginlab.disorder import sample_disorder
from marginlab.landscape import enumerate_forbidden_tuples
from marginlab.mvn import box_probability_equicorrelated
from marginlab.thresholds import (
    alpha_c,
    alpha_ogp,
    binary_entropy,
    chaos_exponent,
    critical_kappa,
    f1,
    f2,
    f3,
    find_negative_psi,
    necessity_scan,
    necessity_terms,
    negativity_onset,
    phi_count,
    psi_free_energy,
    psi_upper_bound,
    scan_negativity,
    upsilon,
)

# SHA-256 of the scan CSV that ``marginlab thresholds`` writes for each
# criterion-2 scan: f1 at and 0.15 below its threshold on the criterion grid,
# f2 and f3 likewise on the default grids.  Any change to a value's last bit
# changes the digest.
F1_CRITERION_GRID = dict(lo=1e-5, hi=0.1, step=1e-4)
GOLDEN_SCAN_DIGESTS = [
    ("f1", 1.77, F1_CRITERION_GRID,
     "716bae407650d9d9cbb373bfa636a816d2706c2b3753ac8e96888cf085d58e57"),
    ("f1", 1.62, F1_CRITERION_GRID,
     "4f4a715c65b6fd7d715c0aea1a26b77abc4a0f8fd23713c33a6b222165eec0d9"),
    ("f2", 1.71, {}, "36472b48f946e8e857b8fdcae63428400d9ce818b13a883ee23fd37afb669d4a"),
    ("f2", 1.56, {}, "e748884f258e9cc84b8f757a34a2ba365cef5685970b99703e459901a2d4c40d"),
    ("f3", 1.667, {}, "3a9cb52bfe0ecebf3cd7d50fe4c779374b5650e3910587a1b0ac43ae3a5a5343"),
    ("f3", 1.667 - 0.15, {},
     "fecc2a33cf5b1ef5ec0183cc28e537b5ff0a6e1dfa210ca208f1f0b9c68a937d"),
]


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(binary_entropy(0.75), abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(
        -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-15
    )


def test_critical_capacity_frozen():
    assert alpha_c(1.0) == pytest.approx(1.815875495837207, abs=1e-12)
    # where the band captures mass 1/2, capacity is exactly one constraint
    # per coordinate
    assert critical_kappa() == pytest.approx(0.6744897501960817, abs=1e-15)
    assert alpha_c(critical_kappa()) == pytest.approx(1.0, abs=1e-12)


def test_alpha_c_monotone_in_kappa():
    ks = np.linspace(0.2, 3.0, 20)
    vals = [alpha_c(float(k)) for k in ks]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_alpha_ogp_log_conventions():
    # the natural-log and base-2 (alpha_c) conventions differ exactly by a factor ln 2
    assert alpha_ogp(1.0) == pytest.approx(alpha_c(1.0) / math.log(2.0), abs=1e-12)


def test_free_energy_frozen_points():
    assert f3(0.978, 1.667).value == pytest.approx(-0.00039044530675869105, abs=1e-12)
    assert f1(0.0046, 1.77).value == pytest.approx(-0.002623186759132201, abs=1e-12)
    assert f2(0.968, 1.71).value == pytest.approx(-0.006472162312691321, abs=1e-12)


def test_free_energy_decomposition():
    pt = f3(0.978, 1.667)
    assert pt.value == pytest.approx(pt.counting_part + pt.probability_part, abs=1e-15)
    assert pt.prob_error < 1e-10
    # probability part reconstructs from the box probability itself
    box = box_probability_equicorrelated(3, 0.978, 1.0)
    assert pt.probability_part == pytest.approx(1.667 * math.log2(box.value), abs=1e-12)


def test_f2_counting_part_is_pair_entropy():
    for beta in (0.9, 0.95, 0.99):
        pt = f2(beta, 1.7)
        assert pt.counting_part == pytest.approx(
            1.0 + binary_entropy((1.0 - beta) / 2.0), abs=1e-14
        )
        # and matches the tuple-count growth functional with a zero-width band
        assert pt.counting_part == pytest.approx(phi_count(beta, 0.0, 2), abs=1e-14)


def test_f3_counting_part_matches_phi_count():
    for beta in (0.9, 0.978):
        pt = f3(beta, 1.667)
        assert pt.counting_part == pytest.approx(phi_count(beta, 0.0, 3), abs=1e-14)


def test_phi_count_of_a_zero_width_band_at_full_overlap():
    # delta = 0: every entropy term vanishes, leaving one bit per coordinate
    assert phi_count(1.0, 0.0, 3) == 1.0
    assert phi_count(1.0, 0.0, 2) == 1.0


def test_domain_guards():
    with pytest.raises(DomainError):
        f1(0.0, 1.77)
    with pytest.raises(DomainError):
        f2(1.0, 1.71)
    with pytest.raises(DomainError):
        f3(-0.1, 1.667)


def test_scan_certifies_negativity_with_error_budget():
    res = scan_negativity("f3", 1.667)
    assert res.has_negative
    assert res.argmin_abscissa == pytest.approx(0.978, abs=1e-12)
    assert res.n_negative == 7
    lo, hi = res.negative_interval
    assert lo == pytest.approx(0.975, abs=1e-12)
    assert hi == pytest.approx(0.981, abs=1e-12)
    for pt in res.points:
        if pt.value + pt.prob_error < 0.0:
            continue
        # anything not certified negative must not be in the negative set
        assert not (lo <= pt.abscissa <= hi and pt.value < 0.0 and
                    pt.value + pt.prob_error < 0.0)


def test_scan_rejects_a_grid_above_its_point_limit():
    # 1,000,001 abscissas: refused from the count alone, before any list of
    # the grid exists.
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="grid of 1000001 points exceeds the limit"):
            scan_negativity("f2", 1.7, lo=0.0, hi=1.0, step=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("which,fn,alpha,grid", [
    ("f1", f1, 1.77, dict(lo=1e-4, hi=2e-3, step=1e-4)),  # 20 points
    ("f2", f2, 1.71, {}),  # 100 points
    ("f3", f3, 1.667, dict(lo=0.95, hi=0.999, step=1e-3)),  # 50 points
], ids=["f1", "f2", "f3"])
def test_scan_points_equal_one_point_functionals(which, fn, alpha, grid):
    # The scan evaluates its grid in one batched quadrature call; every field
    # of every point must equal the one-point functional exactly.
    res = scan_negativity(which, alpha, **grid)
    assert len(res.points) % 8 != 0
    for pt in res.points:
        assert pt == fn(pt.abscissa, alpha)


@pytest.mark.parametrize("which,alpha,grid,digest", GOLDEN_SCAN_DIGESTS,
                         ids=[f"{w}-{a:g}" for w, a, _, _ in GOLDEN_SCAN_DIGESTS])
def test_scan_csv_golden_digest(tmp_path, capsys, which, alpha, grid, digest):
    flags = [x for k, v in grid.items() for x in (f"--{k}", repr(v))]
    main(["thresholds", "--which", which, "--alpha", repr(alpha), *flags,
          "--out-dir", str(tmp_path)])
    capsys.readouterr()
    (path,) = tmp_path.glob("scan_*.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_negativity_onset_frozen():
    onset = negativity_onset("f3", 1.5, 1.7)
    assert onset == pytest.approx(1.6672, abs=2e-3)
    # alpha below onset scans empty; above scans nonempty
    assert not scan_negativity("f3", onset - 0.01).has_negative
    assert scan_negativity("f3", onset + 0.01).has_negative


def test_negativity_onset_wide_bracket_takes_few_scans(monkeypatch):
    real, scans = thresholds.scan_negativity, []
    monkeypatch.setattr(thresholds, "scan_negativity", lambda *a: scans.append(a) or real(*a))
    onset = negativity_onset("f3", 1.5, 1.797e308)
    assert len(scans) <= 40
    assert abs(onset - negativity_onset("f3", 1.5, 1.7)) <= 1e-3


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
def test_scan_reusing_cached_box_probabilities_equals_a_cold_scan(which):
    # The kappa = 1 box probabilities do not depend on alpha and are cached per
    # grid: a scan at alpha2 after one at alpha1 reuses them and must equal,
    # field for field, the same scan with the cache cleared.
    thresholds._box_column.cache_clear()
    scan_negativity(which, 1.6)
    warm = scan_negativity(which, 1.7)
    assert thresholds._box_column.cache_info().hits == 1
    thresholds._box_column.cache_clear()
    cold = scan_negativity(which, 1.7)
    assert thresholds._box_column.cache_info().hits == 0
    assert warm == cold


def test_negativity_onset_integrates_its_grid_once(monkeypatch):
    # Ten scans of the default f3 grid, one quadrature of it: orders 101
    # and 202 over its 100 betas, and the 404 refinement over none of them.
    thresholds._box_column.cache_clear()
    real, calls = mvn._factor_integrals, []

    def spy(m, betas, kappa, order):
        calls.append((order, len(betas)))
        return real(m, betas, kappa, order)

    monkeypatch.setattr(mvn, "_factor_integrals", spy)
    negativity_onset("f3", 1.5, 1.7)
    assert calls == [(101, 100), (202, 100), (404, 0)]


def test_box_probability_cache_is_bounded():
    thresholds._box_column.cache_clear()
    bound = thresholds._BOX_CACHE_GRIDS
    for k in range(bound + 1):
        scan_negativity("f2", 1.7, lo=0.5, hi=0.5 + 0.01 * k, step=0.01)
    info = thresholds._box_column.cache_info()
    assert (info.misses, info.maxsize) == (bound + 1, bound)
    assert info.currsize <= bound


def test_cached_box_probabilities_are_read_only():
    values, errors = thresholds._box_column(2, np.array([0.5, 0.9]).tobytes())
    assert values.dtype == errors.dtype == np.float64
    assert not values.flags.writeable and not errors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0


def test_negativity_onset_requires_bracket():
    with pytest.raises(DomainError):
        negativity_onset("f3", 1.0, 1.1)


def test_upsilon_exact_reduction():
    # at beta = 1 - 2 C kappa^2 the expression collapses to
    # h(C kappa^2) - (alpha/2) log2(pi C)
    for c, kappa in [(2.0, 1e-3), (4.0, 0.01), (8.0, 0.02), (5.0, 1e-4)]:
        alpha = 10.0 * kappa * kappa * math.log2(1.0 / kappa)
        beta = 1.0 - 2.0 * c * kappa * kappa
        want = binary_entropy(c * kappa * kappa) - 0.5 * alpha * math.log2(math.pi * c)
        assert upsilon(beta, alpha, kappa) == pytest.approx(want, abs=1e-13)


def test_psi_gap_identity():
    # the closed-form upper bound exceeds the exact value by exactly
    # -(alpha/2) log2(1 - beta), independent of c and m
    for m in (2, 8, 64):
        for beta in (0.9, 0.99, 0.9996):
            kappa, alpha, c = 0.01, 0.001, 1e-4
            exact = psi_free_energy(c, beta, m, alpha, kappa).value
            bound = psi_upper_bound(c, beta, m, alpha, kappa)
            gap = -0.5 * alpha * math.log2(1.0 - beta)
            assert bound - exact == pytest.approx(gap, abs=1e-12)


def test_find_negative_psi_small_kappa():
    kappa = 0.02
    alpha = 10.0 * kappa * kappa * math.log2(1.0 / kappa)
    pt = find_negative_psi(kappa, alpha)
    assert pt is not None
    assert pt.value < 0.0
    assert pt.m >= 2 and (pt.m & (pt.m - 1)) == 0  # power of two
    assert pt.beta == pytest.approx(1.0 - 4.0 * kappa * kappa, abs=1e-15)
    assert psi_free_energy(pt.c, pt.beta, pt.m, alpha, kappa).value == \
        pytest.approx(pt.value, abs=1e-15)


def test_chaos_exponent_frozen():
    kappa = 0.05
    alpha = 10.0 * kappa * kappa * math.log2(1.0 / kappa)
    assert chaos_exponent(kappa, alpha, 10**6) == pytest.approx(
        -0.44742139618184334, abs=1e-12
    )
    with pytest.raises(DomainError):
        chaos_exponent(0.7, 0.1, 100)  # 5 kappa^2 / 2 leaves [0, 1]


def test_necessity_terms_decomposition():
    t = necessity_terms(0.01, 4.0)
    assert t.alpha_implied == pytest.approx(
        2.0 * binary_entropy(4.0 * 1e-4) / math.log2(4.0 * math.pi), abs=1e-14
    )
    assert t.floor3 == pytest.approx(3.0 * 1e-4 * math.log2(100.0), abs=1e-15)
    assert t.ratio_to_floor == pytest.approx(t.alpha_implied / t.floor3, abs=1e-12)
    assert t.asym_kappa_term == pytest.approx(2.0 * 4e-4 * math.log2(100.0), abs=1e-15)


def test_necessity_scan_beats_floor():
    for kappa in (0.02, 0.01):
        rows = necessity_scan(kappa)
        assert rows
        assert all(r.ratio_to_floor > 1.0 for r in rows)


def test_necessity_scan_rejects_large_c():
    # C kappa^2 must stay below 1 for the entropy term to make sense
    rows = necessity_scan(0.3)
    assert all(r.c * 0.09 < 1.0 for r in rows)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(min_value=0.9, max_value=0.999),
    alpha=st.floats(min_value=1.0, max_value=2.0),
)
def test_property_f3_parts_are_finite_and_consistent(beta, alpha):
    pt = f3(beta, alpha)
    assert math.isfinite(pt.value)
    assert pt.value == pytest.approx(pt.counting_part + pt.probability_part, abs=1e-12)
    assert pt.prob_error >= 0.0


@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(min_value=1.5, max_value=64.0),
    kappa=st.floats(min_value=1e-4, max_value=0.05),
)
def test_property_upsilon_reduction(c, kappa):
    alpha = 10.0 * kappa * kappa * math.log2(1.0 / kappa)
    beta = 1.0 - 2.0 * c * kappa * kappa
    want = binary_entropy(c * kappa * kappa) - 0.5 * alpha * math.log2(math.pi * c)
    assert upsilon(beta, alpha, kappa) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda k: alpha_c(k),
    lambda k: upsilon(0.5, 1.0, k),
    lambda k: psi_free_energy(1e-4, 0.5, 2, 1.0, k),
    lambda k: chaos_exponent(k, 1.0, 2),
    lambda k: necessity_terms(k, 2.0),
    lambda k: enumerate_forbidden_tuples(sample_disorder(10, 0.3), 2, 0.8, 0.1, k, (0.0,)),
], ids=["alpha_c", "upsilon", "psi_free_energy", "chaos_exponent", "necessity_terms",
        "enumerate_forbidden_tuples"])
def test_margin_entry_points_reject_nan_kappa(call):
    with pytest.raises(DomainError, match="kappa must be positive, got nan"):
        call(math.nan)
