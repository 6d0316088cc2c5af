import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.disorder import sample_ensemble, uniform_tau_grid
from marginlab.errors import CapExceededError, DomainError
from marginlab.landscape import (
    SignVector,
    TupleQuery,
    _half_tables,
    _scan_masks,
    count_overlap_tuples_bruteforce,
    count_overlap_tuples_exact,
    discrepancy,
    enumerate_forbidden_tuples,
    enumerate_solutions,
    hamming,
    is_solution,
    overlap,
    overlap_band,
)
from marginlab.disorder import sample_disorder
from marginlab.solvers import exhaustive_solve
from marginlab.thresholds import phi_count


def all_sign_vectors(n):
    for signs in itertools.product((1, -1), repeat=n):
        yield SignVector.from_signs(np.array(signs, dtype=np.int8))


def test_pack_unpack_roundtrip_various_sizes():
    rng = np.random.default_rng(0)
    for n in (1, 5, 8, 63, 64, 65, 200):
        signs = rng.choice([-1, 1], size=n).astype(np.int8)
        sv = SignVector.from_signs(signs)
        assert len(sv) == n
        assert np.array_equal(sv.signs(), signs)
        assert all(sv[j] == int(signs[j]) for j in range(n))


def test_flip_all_is_involution():
    sv = SignVector.from_signs(np.array([1, -1, -1, 1, 1], dtype=np.int8))
    assert np.array_equal(sv.flip_all().signs(), -sv.signs())
    assert sv.flip_all().flip_all() == sv


def test_lexicographic_order_puts_plus_first():
    # ascending mask order must equal lexicographic order on sign tuples
    # with +1 sorting before -1
    vecs = sorted(all_sign_vectors(4))
    keys = [tuple(0 if s > 0 else 1 for s in v.signs()) for v in vecs]
    assert keys == sorted(keys)
    assert np.array_equal(vecs[0].signs(), np.ones(4, dtype=np.int8))


def test_hamming_and_overlap():
    a = SignVector.from_signs(np.array([1, 1, 1, 1], dtype=np.int8))
    b = SignVector.from_signs(np.array([1, -1, 1, -1], dtype=np.int8))
    assert hamming(a, b) == 2
    assert overlap(a, b) == pytest.approx(0.0)
    assert overlap(a, a) == pytest.approx(1.0)
    assert overlap(a, a.flip_all()) == pytest.approx(-1.0)


def test_is_solution_matches_direct_margins():
    mat = sample_disorder(12, 0.5, seed=3)
    rng = np.random.default_rng(1)
    root_n = math.sqrt(12)
    for _ in range(20):
        signs = rng.choice([-1, 1], size=12).astype(np.int8)
        sv = SignVector.from_signs(signs)
        margins = mat.entries @ signs.astype(np.float64)
        assert is_solution(mat, sv, 1.0) == bool(np.max(np.abs(margins)) <= root_n)
        assert is_solution(mat, sv, 1.0, symmetric=False) == bool(
            np.min(margins) >= root_n
        )


def test_enumeration_matches_brute_force():
    for seed in (0, 1, 2):
        mat = sample_disorder(10, 0.3, seed=seed)
        got = enumerate_solutions(mat, 1.0)
        want = [sv for sv in all_sign_vectors(10) if is_solution(mat, sv, 1.0)]
        assert got == want  # same vectors, same lexicographic order


def test_enumeration_closed_under_negation():
    mat = sample_disorder(12, 0.4, seed=5)
    sols = set(enumerate_solutions(mat, 0.9))
    assert sols  # kappa = 0.9 leaves solutions at this size
    for sv in sols:
        assert sv.flip_all() in sols


def test_enumerated_vectors_are_ordinary_sign_vectors():
    # Enumeration builds its vectors without __init__; they must still be
    # the public, frozen type with the same fields, hash and order.
    sols = enumerate_solutions(sample_disorder(12, 0.4, seed=5), 0.9)
    for sv in sols:
        public = SignVector(sv.n, sv.bits)
        assert type(sv) is SignVector and vars(sv) == vars(public)
        assert hash(sv) == hash(public) and not sv < public
    with pytest.raises(dataclasses.FrozenInstanceError):
        sols[0].bits = 0
    with pytest.raises(DomainError, match="out of range"):
        SignVector(12, 1 << 12)  # the public constructor still checks


def test_enumeration_cap():
    mat = sample_disorder(30, 0.2, seed=0)
    with pytest.raises(CapExceededError):
        enumerate_solutions(mat, 1.0)


def test_discrepancy_matches_brute_force():
    mat = sample_disorder(11, 0.4, seed=7)
    best, arg = discrepancy(mat)
    vals = {
        sv: float(np.max(np.abs(mat.entries @ sv.signs().astype(np.float64))))
        for sv in all_sign_vectors(11)
    }
    want = min(vals.values())
    assert best == pytest.approx(want, abs=1e-12)
    assert vals[arg] == pytest.approx(want, abs=1e-12)
    assert arg[0] == 1  # canonical representative from the +1 half


@pytest.mark.parametrize("n", range(1, 15))
def test_cube_scan_matches_direct_product_sweep(n):
    # Every mask in ascending order, from one product per configuration; at these
    # sizes a scan block is larger than the whole scanned half.
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    for seed in (0, 1, 2):
        mat = sample_disorder(n, max(0.5, 1.0 / n), seed=seed)
        y = signs @ mat.entries.T
        root_n = math.sqrt(n)
        for symmetric, kappa in ((True, 1.0), (True, 0.5), (False, 0.0), (False, 0.3)):
            thr = kappa * root_n
            ok = np.all(np.abs(y) <= thr if symmetric else y >= thr, axis=1)
            want = np.flatnonzero(ok).tolist()
            assert _scan_masks(mat, kappa, symmetric, 25) == want
            assert _scan_masks(mat, kappa, symmetric, 25, first_only=True) == want[:1]
        best, arg = discrepancy(mat)
        worst = np.max(np.abs(y), axis=1)
        assert best == pytest.approx(worst.min(), abs=1e-12)
        assert worst[arg.bits] == pytest.approx(worst.min(), abs=1e-12)
        assert arg[0] == 1


def test_cap_is_checked_before_the_margin():
    mat = sample_disorder(10, 0.5, seed=0)
    with pytest.raises(CapExceededError):
        _scan_masks(mat, -1.0, True, 8)
    with pytest.raises(CapExceededError):
        enumerate_solutions(mat, -1.0, n_cap=8)
    with pytest.raises(DomainError):
        enumerate_solutions(mat, -1.0)



@pytest.mark.parametrize("symmetric,message", [
    (True, "two-sided margin needs kappa >= 0, got nan"),
    (False, "one-sided margin needs a number kappa, got nan"),
])
def test_nan_margin_rejected_in_both_windows(symmetric, message):
    # NaN fails every comparison, so an unchecked threshold accepts nothing.
    mat = sample_disorder(10, 0.5, seed=0)
    sv = SignVector(10, 0)
    with pytest.raises(DomainError, match=message):
        is_solution(mat, sv, math.nan, symmetric)
    with pytest.raises(DomainError, match=message):
        enumerate_solutions(mat, math.nan, symmetric)
    with pytest.raises(DomainError, match=message):
        exhaustive_solve(mat, math.nan, symmetric)

def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the space-joined masks of every solution at n = 20, 10 rows: the
# two-sided window at kappa = 1 and the one-sided window at kappa = 0.
ENUM_DIGESTS = [
    (0, True, 1.0, 18046, "3dd16cb33dd1bfdc4c88d2530ff2398191caa5166567a1d6fd983b8bc50d1c3e"),
    (0, False, 0.0, 418, "99f20059b738b935de811adb2b3c1b42bf532323659aca750719f043c538d939"),
    (1, True, 1.0, 24692, "6ec99533b2130e9a1cfc3d026c12c80556d5eb4f64e1c6db6d882ad7958a1198"),
    (1, False, 0.0, 545, "a19e26e45ccc7c452cc662104d331728fe411328675bc8de9750fbb20738c98a"),
    (2, True, 1.0, 28920, "662f788a0010679211c1c3fe65d796523fb1cf51a28550e6a1046e34952808e5"),
    (2, False, 0.0, 3479, "0ffc1552529a6e641af61ec7a4082ec0c87bb86db4ddd31d9405221b364049de"),
]


@pytest.mark.parametrize("seed,symmetric,kappa,count,digest", ENUM_DIGESTS)
def test_enumeration_golden_digest(seed, symmetric, kappa, count, digest):
    sols = enumerate_solutions(sample_disorder(20, 0.5, seed=seed), kappa, symmetric)
    assert len(sols) == count
    assert _sha256(" ".join(str(sv.bits) for sv in sols)) == digest


# SHA-256 of "repr(value) mask" of the discrepancy at n = 21, 10 rows.
DISCREPANCY_DIGESTS = [
    (0, "36ce31bd0f0a52210811232c98b74d3d56d20ebdc3428fc43636c3e6c1fbf989"),
    (1, "8a8b33c77b27dea532a83fed2962139464f8e6f69a06d6ec681b8f748486f3af"),
    (2, "fca54616a759c7bbfdc8c1ba73948dc8e90d87602effb9044078f49cdd56f0a0"),
]


@pytest.mark.parametrize("seed,digest", DISCREPANCY_DIGESTS)
def test_discrepancy_golden_digest(seed, digest):
    value, arg = discrepancy(sample_disorder(21, 0.5, seed=seed))
    assert _sha256(f"{value!r} {arg.bits}") == digest


# SHA-256 of the space-joined first-solution masks ("None" when infeasible)
# at n = 20 for two margins per window: one feasible, one not.
EXHAUSTIVE_DIGESTS = [
    (True, (1.0, 0.05), "7644cbb638d9d8533fae407557da732ea48a8dcc17f4335aacce45de3d33cec3"),
    (False, (0.0, 1.0), "544f097176357f858fe34ef24cf6c18727cf52800606680080a5b8f913e4e6e7"),
]


def test_exhaustive_solve_golden_digest():
    for symmetric, kappas, digest in EXHAUSTIVE_DIGESTS:
        found = [
            exhaustive_solve(sample_disorder(20, 0.5, seed=seed), kappa, symmetric)
            for seed in (0, 1, 2) for kappa in kappas
        ]
        assert _sha256(" ".join(str(sv and sv.bits) for sv in found)) == digest


@pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
def test_half_tables_are_exactly_antisymmetric(dist):
    # Row 2^h - 1 - a of a half table is the complement of row a; two-sided
    # scans visit only half the cube and rely on its margins being exact negations.
    for n in range(1, 23):
        w_hi, w_lo, _, _ = _half_tables(sample_disorder(n, 1.0, dist, seed=n).entries)
        assert np.array_equal(w_hi[::-1], -w_hi)
        assert np.array_equal(w_lo[::-1], -w_lo)


def test_overlap_band_integer_arithmetic():
    # band [beta - eta, beta] on overlaps maps to an integer window on
    # Hamming distances; verify against a direct scan
    for n, beta, eta in [(10, 0.6, 0.2), (12, 0.5, 1.0 / 6.0), (14, 6.0 / 7.0, 2.0 / 7.0)]:
        d_lo, d_hi = overlap_band(n, beta, eta)
        want = [d for d in range(n + 1)
                if beta - eta - 1e-12 <= 1.0 - 2.0 * d / n <= beta + 1e-12]
        assert list(range(d_lo, d_hi + 1)) == want


def test_overlap_band_rejects_non_integral():
    with pytest.raises(DomainError):
        overlap_band(10, 0.615, 0.2)


def test_exact_counts_match_brute_force_spot():
    for n, m, beta, eta in [
        (6, 2, 2.0 / 3.0, 1.0 / 3.0),
        (8, 2, 0.5, 0.25),
        (8, 3, 0.5, 0.25),
        (10, 3, 0.6, 0.2),
    ]:
        exact = count_overlap_tuples_exact(n, m, beta, eta)
        brute = count_overlap_tuples_bruteforce(n, m, beta, eta)
        assert exact == brute


def test_exact_count_two_is_closed_form():
    # ordered pairs: 2^n * sum of C(n, d) over the distance window
    n, beta, eta = 12, 0.5, 1.0 / 3.0
    d_lo, d_hi = overlap_band(n, beta, eta)
    want = (2 ** n) * sum(math.comb(n, d) for d in range(d_lo, d_hi + 1))
    assert count_overlap_tuples_exact(n, 2, beta, eta) == want


def _count_tuples_loop(n, m, beta, eta):
    # Reference for the recurrence kernel: a full prefix sum over C(rest, s)
    # and one math.comb call per binomial.
    d_lo, d_hi = overlap_band(n, beta, eta)
    if d_lo > d_hi:
        return 0
    if m == 2:
        return (1 << n) * sum(math.comb(n, d) for d in range(d_lo, d_hi + 1))
    total = 0
    for d12 in range(d_lo, d_hi + 1):
        rest = n - d12
        prefix = [0] * (rest + 2)
        for s in range(rest + 1):
            prefix[s + 1] = prefix[s] + math.comb(rest, s)
        third = 0
        for t1 in range(d12 + 1):
            t2_lo = max(0, d_lo - t1, d_lo - d12 + t1)
            t2_hi = min(rest, d_hi - t1, d_hi - d12 + t1)
            if t2_lo > t2_hi:
                continue
            third += math.comb(d12, t1) * (prefix[t2_hi + 1] - prefix[t2_lo])
        total += math.comb(n, d12) * third
    return (1 << n) * total


def test_exact_counts_equal_prefix_sum_loop():
    # Every integral band up to n = 30: the prefix is cut short of rest
    # whenever d_hi < n - d12, and narrow bands leave the t2 window empty at
    # both ends of the t1 range.
    for n in range(1, 31):
        for bn in range(2, n + 1):
            for en in range(1, bn):
                for m in (2, 3):
                    want = _count_tuples_loop(n, m, bn / n, en / n)
                    assert count_overlap_tuples_exact(n, m, bn / n, en / n) == want
    # Bands of the size perfbench's analytic workload counts (eta = 16/n).
    for n, bn in [(788, 384), (800, 400), (801, 401), (812, 416)]:
        for m in (2, 3):
            want = _count_tuples_loop(n, m, bn / n, 16 / n)
            assert count_overlap_tuples_exact(n, m, bn / n, 16 / n) == want


# SHA-256 of the decimal m = 3 count for (n, beta*n, eta*n): the perfbench
# band and two larger ones, where the reference loop would take seconds.
THREE_WAY_COUNT_DIGESTS = [
    (800, 400, 16, "481a29c0a1df94ab48143bc61826109b4cfb709f089cf7fb98c286d11e5009df"),
    (1201, 600, 25, "c4b4a9730f7e708023e1c53b02b5f930c2114c35265ae71b40f103b1a1a901e4"),
    (2000, 1000, 40, "1ee5768543d77fc5a718bc0fd26f2eca588e5c61fd058d138d69ed282ff24691"),
]


@pytest.mark.parametrize("n,bn,en,digest", THREE_WAY_COUNT_DIGESTS)
def test_three_way_count_golden_digest(n, bn, en, digest):
    assert _sha256(str(count_overlap_tuples_exact(n, 3, bn / n, en / n))) == digest


def test_count_growth_rate_tracks_entropy_functional():
    # log2 of the exact pair count per coordinate approaches the counting
    # part 1 + h((1 - beta + eta)/2) of the first-moment functional
    n, beta, eta = 2000, 0.6, 0.05
    count = count_overlap_tuples_exact(n, 2, beta, eta)
    rate = math.log2(count) / n
    target = phi_count(beta, eta, 2)
    assert rate == pytest.approx(target, abs=math.log2(n) / n + 1e-3)


def test_count_growth_rate_three_way():
    n, beta, eta = 600, 0.6, 0.1
    count = count_overlap_tuples_exact(n, 3, beta, eta)
    rate = math.log2(count) / n
    target = phi_count(beta, eta, 3)
    assert rate == pytest.approx(target, abs=4.0 * math.log2(n) / n)


def test_tuple_query_validation():
    with pytest.raises(DomainError):
        TupleQuery(m=1, beta=0.5, eta=0.1, kappa=1.0, tau_set=(0.0,))
    with pytest.raises(DomainError):
        TupleQuery(m=2, beta=0.5, eta=0.1, kappa=0.0, tau_set=(0.0,))
    with pytest.raises(DomainError):
        TupleQuery(m=2, beta=0.5, eta=0.1, kappa=1.0, tau_set=(0.5, 0.5))


def naive_forbidden_tuples(query, ensemble):
    n = ensemble.base.cols
    grid = list(ensemble.tau_grid)
    ids = [grid.index(t) for t in query.tau_set]
    pools = []
    for i in range(query.m):
        pool = set()
        for k in ids:
            pool.update(enumerate_solutions(ensemble.instance(i, k), query.kappa))
        pools.append(sorted(pool))
    lo = query.beta - query.eta - 1e-12
    hi = query.beta + 1e-12
    out = []
    for combo in itertools.product(*pools):
        ok = all(
            lo <= overlap(combo[i], combo[j]) <= hi
            for i in range(query.m) for j in range(i + 1, query.m)
        )
        if ok:
            out.append(combo)
    return out


def test_forbidden_tuples_match_naive_oracle():
    n = 8
    ens = sample_ensemble(n, 0.25, n_replicas=3, tau_grid=uniform_tau_grid(2), seed=13)
    for m, kappa in [(2, 0.7), (3, 0.9)]:
        query = TupleQuery(m=m, beta=0.5, eta=0.25, kappa=kappa,
                           tau_set=(0.0, math.pi / 4))
        got = enumerate_forbidden_tuples(query, ens)
        want = naive_forbidden_tuples(query, ens)
        assert got == want


def test_forbidden_tuples_cap():
    ens = sample_ensemble(20, 0.1, n_replicas=2, tau_grid=uniform_tau_grid(1), seed=0)
    query = TupleQuery(m=2, beta=0.5, eta=0.2, kappa=1.0, tau_set=(0.0,))
    with pytest.raises(CapExceededError):
        enumerate_forbidden_tuples(query, ens)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    b=st.data(),
)
def test_property_overlap_band_window(n, b):
    bn = b.draw(st.integers(min_value=2, max_value=n))
    en = b.draw(st.integers(min_value=1, max_value=bn - 1))
    beta = bn / n
    eta = en / n
    d_lo, d_hi = overlap_band(n, beta, eta)
    want = [d for d in range(n + 1)
            if beta - eta - 1e-12 <= 1.0 - 2.0 * d / n <= beta + 1e-12]
    if want:
        assert (d_lo, d_hi) == (want[0], want[-1])
    else:
        assert d_lo > d_hi


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    seeddata=st.data(),
)
def test_property_exact_equals_brute(n, seeddata):
    bn = seeddata.draw(st.integers(min_value=2, max_value=n))
    en = seeddata.draw(st.integers(min_value=1, max_value=bn - 1))
    m = seeddata.draw(st.sampled_from([2, 3]))
    beta, eta = bn / n, en / n
    assert (
        count_overlap_tuples_exact(n, m, beta, eta)
        == count_overlap_tuples_bruteforce(n, m, beta, eta)
    )
