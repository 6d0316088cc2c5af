import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import disorder, landscape
from marginlab.errors import CapExceededError, DomainError
from marginlab.landscape import (
    SignVector,
    _half_tables,
    _scan_masks,
    _worst_margins,
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
from marginlab.disorder import interpolate, sample_disorder
from marginlab.solvers import exhaustive_solve
from marginlab.thresholds import phi_count
from test_disorder import BAD_ENTRIES, KERNEL_SPLITS, assert_entry_refused, count_pools


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
    # the public, frozen, slotted type with the same fields, hash and order.
    sols = enumerate_solutions(sample_disorder(12, 0.4, seed=5), 0.9)
    for sv in sols:
        public = SignVector(sv.n, sv.bits)
        assert type(sv) is SignVector and (sv.n, sv.bits) == (public.n, public.bits)
        assert type(sv.n) is int and type(sv.bits) is int  # not np.uint64
        assert hash(sv) == hash(public) and not sv < public
        assert not hasattr(sv, "__dict__")
    assert pickle.loads(pickle.dumps(sols)) == sols
    assert copy.deepcopy(sols) == sols
    with pytest.raises(TypeError):
        vars(sols[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        sols[0].bits = 0
    with pytest.raises(DomainError, match="out of range"):
        SignVector(12, 1 << 12)  # the public constructor still checks


#: CPython 3.11's collection thresholds (gen 0 allocations, gen 1 and gen 2 passes).
DEFAULT_GC_THRESHOLDS = (700, 10, 10)


def _restore_collector(was_enabled, thresholds=None):
    if thresholds is not None:
        gc.set_threshold(*thresholds)
    (gc.enable if was_enabled else gc.disable)()


def test_enumeration_wraps_its_solutions_with_the_collector_paused():
    # Each SignVector is tracked by the cyclic collector; wrapping 18,046 of
    # them with it running sets off 23 gen-0 and 2 gen-1 passes.
    mat = sample_disorder(20, 0.5, seed=0)
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    was_enabled, thresholds = gc.isenabled(), gc.get_threshold()
    try:
        gc.enable()
        gc.set_threshold(*DEFAULT_GC_THRESHOLDS)
        gc.collect()  # start from an empty generation 0
        gc.callbacks.append(count)
        try:
            sols = enumerate_solutions(mat, 1.0)
        finally:
            gc.callbacks.remove(count)
        assert len(sols) > gc.get_threshold()[0]
    finally:
        _restore_collector(was_enabled, thresholds)
    assert passes[1:] == [0, 0] and passes[0] <= 1, passes


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    try:
        _restore_collector(enabled)
        enumerate_solutions(sample_disorder(12, 0.4, seed=5), 0.9)
        assert gc.isenabled() is enabled
    finally:
        _restore_collector(was_enabled)


def test_concurrent_enumerations_leave_the_collector_on():
    # More threads than cores, switching every microsecond: a pause that read
    # the collector as off while another thread held it paused would never
    # turn it back on.  The race can strike only between the pause's few
    # bytecodes, so many small enumerations reach it far more often than a
    # few large ones, whose scans leave the GIL for long stretches.
    mat = sample_disorder(6, 0.5, seed=3)
    serial = enumerate_solutions(mat, 1.0)
    results, interval = [], sys.getswitchinterval()

    def work():
        for _ in range(1000):
            results.append(enumerate_solutions(mat, 1.0))

    threads = [threading.Thread(target=work) for _ in range(4)]
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        enabled_after = gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        _restore_collector(was_enabled)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4000 and all(r == serial for r in results)
    assert enabled_after


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
    # sizes a scan block is larger than the whole scanned half.  Sign matrices
    # have integer margins, so the discrepancy optimum is often tied and the
    # scan must return the smallest optimal mask.
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    for dist, seed in itertools.product(("gaussian", "rademacher"), (0, 1, 2)):
        mat = sample_disorder(n, max(0.5, 1.0 / n), dist, seed=seed)
        y = signs @ mat.entries.T
        root_n = math.sqrt(n)
        for symmetric, kappa in ((True, 1.0), (True, 0.5), (False, 0.0), (False, 0.3)):
            thr = kappa * root_n
            ok = np.all(np.abs(y) <= thr if symmetric else y >= thr, axis=1)
            want = np.flatnonzero(ok).tolist()
            got = _scan_masks(mat, kappa, symmetric)
            assert got.dtype == np.uint64 and np.all(got[1:] > got[:-1])
            assert got.tolist() == want
            first = _scan_masks(mat, kappa, symmetric, first_only=True)
            assert first.dtype == np.uint64 and first.tolist() == want[:1]
            found = exhaustive_solve(mat, kappa, symmetric)
            assert (found and found.bits) == (want[0] if want else None)
        best, arg = discrepancy(mat)
        worst = np.max(np.abs(y), axis=1)
        assert best == pytest.approx(worst.min(), abs=1e-12)
        assert arg.bits == int(np.argmin(worst))


@pytest.fixture(params=KERNEL_SPLITS, ids=lambda split: "cores%d-band%d" % split)
def scan_split(request, monkeypatch):
    # The sampler's thread splits, with scan blocks as small as a band so
    # that every size above a few coordinates scans several blocks, and a
    # thread switch every microsecond.
    cores, band = request.param
    monkeypatch.setattr(disorder, "_CORES", cores)
    monkeypatch.setattr(disorder, "_BAND", band)
    monkeypatch.setattr(landscape, "_SCAN_BLOCK", band)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", range(1, 15))
def test_cube_scan_sweep_under_every_thread_split(scan_split, n):
    test_cube_scan_matches_direct_product_sweep(n)


def direct_margins(mat):
    # Every configuration's margins, ascending mask order, from the direct
    # product sweep.  The scan's float64 margin is the high-half plus the
    # low-half sum, equal to it up to rounding; that sum is returned.
    n = mat.cols
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    direct = signs @ mat.entries.T
    w_hi, w_lo, _, lo = _half_tables(mat.entries)
    masks = np.arange(1 << n)
    summed = w_hi[masks >> lo] + w_lo[masks & ((1 << lo) - 1)]
    assert np.allclose(summed, direct, rtol=0.0, atol=1e-12)
    return summed


def test_margins_on_the_threshold_are_decided_exactly():
    # Sign matrices at n = 16 have even integer margins and kappa*sqrt(16) is
    # 2 or 4, so the worst margin of hundreds of configurations lies exactly
    # on the threshold.
    for seed in (0, 1):
        mat = sample_disorder(16, 0.25, "rademacher", seed=seed)
        y = direct_margins(mat)
        assert np.array_equal(y, np.rint(y))
        for kappa, symmetric in itertools.product((0.5, 1.0), (True, False)):
            thr = 4.0 * kappa
            worst = np.max(np.abs(y), axis=1) if symmetric else np.min(y, axis=1)
            assert np.count_nonzero(worst == thr) > 100
            want = np.flatnonzero(worst <= thr if symmetric else worst >= thr).tolist()
            assert _scan_masks(mat, kappa, symmetric).tolist() == want
            assert _scan_masks(mat, kappa, symmetric, first_only=True).tolist() == want[:1]
        worst = np.max(np.abs(y), axis=1)
        best, arg = discrepancy(mat)
        assert (best, arg.bits) == (worst.min(), int(np.argmin(worst)))


def test_a_threshold_on_a_margin_and_one_ulp_either_side(monkeypatch):
    # The threshold is set to some configuration's worst margin and moved one
    # float64 ulp down and up: one ulp down drops that configuration two-
    # sided, one ulp up drops it one-sided, and every mask matches the sweep.
    monkeypatch.setattr(landscape, "_threshold", lambda mat, kappa, symmetric: kappa)
    for n in (12, 13, 14):
        mat = sample_disorder(n, 0.5, seed=n)
        y = direct_margins(mat)
        for symmetric in (True, False):
            worst = np.max(np.abs(y), axis=1) if symmetric else np.min(y, axis=1)
            order = np.argsort(worst, kind="stable")
            for rank in (0, len(order) // 4, len(order) // 2, 3 * len(order) // 4):
                at = worst[order[rank]]
                for thr in (np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)):
                    ok = worst <= thr if symmetric else worst >= thr
                    want = np.flatnonzero(ok).tolist()
                    assert _scan_masks(mat, float(thr), symmetric).tolist() == want
                    first = _scan_masks(mat, float(thr), symmetric, first_only=True)
                    assert first.tolist() == want[:1]
        worst = np.max(np.abs(y), axis=1)
        best, arg = discrepancy(mat)
        assert (best, arg.bits) == (worst.min(), int(np.argmin(worst)))


def test_scans_are_exact_under_power_of_two_scaling():
    # Entries and kappa scaled by 2^-500 or 2^500 scale every margin exactly,
    # so the masks stay and the discrepancy scales.  A threshold past the
    # float32 range, or past the float64 range once scaled, accepts every
    # mask or none, with no overflow warning.
    for dist, n in (("gaussian", 13), ("rademacher", 12)):
        mat = sample_disorder(n, 0.5, dist, seed=n)
        y = direct_margins(mat)
        cases = ((True, 1.0), (False, 0.2), (False, -0.3))
        masks = []
        for symmetric, kappa in cases:
            ok = np.all(np.abs(y) <= kappa * math.sqrt(n) if symmetric
                        else y >= kappa * math.sqrt(n), axis=1)
            masks.append(_scan_masks(mat, kappa, symmetric).tolist())
            assert masks[-1] == np.flatnonzero(ok).tolist()
        best, arg = discrepancy(mat)
        every = list(range(1 << n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-500, 0, 500):
                scaled = dataclasses.replace(mat, entries=mat.entries * 2.0**k)
                for (symmetric, kappa), want in zip(cases, masks):
                    assert _scan_masks(scaled, kappa * 2.0**k, symmetric).tolist() == want
                assert discrepancy(scaled) == (best * 2.0**k, arg)
                far = 2.0**1000 if k < 0 else 1e40 * 2.0**k
                assert _scan_masks(scaled, far, True).tolist() == every
                assert _scan_masks(scaled, -far, False).tolist() == every
                assert _scan_masks(scaled, far, False).tolist() == []


def test_margins_on_the_threshold_under_every_thread_split(scan_split):
    test_margins_on_the_threshold_are_decided_exactly()


def test_a_threshold_on_a_margin_under_every_thread_split(scan_split, monkeypatch):
    test_a_threshold_on_a_margin_and_one_ulp_either_side(monkeypatch)


def test_power_of_two_scaling_under_every_thread_split(scan_split):
    test_scans_are_exact_under_power_of_two_scaling()


def _threaded_scans(monkeypatch, cores):
    # One high half per block at n = 14, and every scan of it above one band.
    monkeypatch.setattr(disorder, "_CORES", cores)
    monkeypatch.setattr(disorder, "_BAND", 1 << 10)
    monkeypatch.setattr(landscape, "_SCAN_BLOCK", 1 << 10)
    return count_pools(monkeypatch)


def test_threaded_scans_leave_no_thread_running(monkeypatch):
    built = _threaded_scans(monkeypatch, 4)
    mat = sample_disorder(14, 0.5, seed=2)
    before = threading.active_count()
    discrepancy(mat)
    enumerate_solutions(mat, 1.0)
    assert exhaustive_solve(mat, 0.05) is None  # infeasible, so every block is scanned
    assert built == [3, 3, 3]
    assert threading.active_count() == before


def test_error_in_a_scan_helper_propagates(monkeypatch):
    # The calling thread scans block 0 alone, then holds its next block until
    # a helper has failed, so the error can only come from the helper.
    _threaded_scans(monkeypatch, 2)
    caller, helper_failed = threading.get_ident(), threading.Event()

    def consume(base, worst, exact):
        if threading.get_ident() != caller:
            helper_failed.set()
            raise RuntimeError("consumer failed in a helper")
        if base:
            helper_failed.wait(timeout=30)
        return []

    run, _ = _worst_margins(sample_disorder(14, 0.5, seed=2), True)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="consumer failed in a helper"):
        run(consume)
    assert helper_failed.is_set()
    assert threading.active_count() == before


def test_a_tie_with_a_best_from_a_later_block_is_kept(monkeypatch):
    # The calling thread takes block 1 and holds it until the helper has
    # scanned every later block, so block 1 is bounded by their best.  Sign
    # matrices often tie that best in block 1 with a head max equal to it: a
    # strict bound would drop the smaller mask there.
    _threaded_scans(monkeypatch, 2)
    caller, real_parallel = threading.get_ident(), disorder._parallel
    holding, helper_done, caller_blocks = threading.Event(), threading.Event(), []

    def parallel(work, jobs, size):
        def ordered():
            if threading.get_ident() != caller:
                assert holding.wait(timeout=30)
                work()
                helper_done.set()
            else:
                work()
        real_parallel(ordered, jobs, size)

    class HoldBlockOne:  # numpy, but the caller's block 1 waits for the helper
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x, **kwargs):
            if threading.get_ident() == caller and x.ndim == 3:
                caller_blocks.append(x.shape)
                if len(caller_blocks) == 2:
                    holding.set()
                    assert helper_done.wait(timeout=30)
            return np.abs(x, **kwargs)

    monkeypatch.setattr(disorder, "_parallel", parallel)
    monkeypatch.setattr(landscape, "np", HoldBlockOne())
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=14)))
    for seed in range(40):
        mat = sample_disorder(14, 0.5, "rademacher", seed=seed)
        for event in (holding, helper_done):
            event.clear()
        caller_blocks.clear()
        best, arg = discrepancy(mat)
        worst = np.max(np.abs(signs @ mat.entries.T), axis=1)
        assert (best, arg.bits) == (worst.min(), int(np.argmin(worst)))
        assert len(caller_blocks) == 2 and helper_done.is_set()


@pytest.mark.parametrize("cores", [1, 2, 7])
def test_first_only_takes_each_block_up_to_the_first_hit_then_stops(monkeypatch, cores):
    # Every block up to the first hit is taken once.  Other threads may run
    # past the hit until the hit is recorded; with one thread none does.
    _threaded_scans(monkeypatch, cores)
    taken, hit = [], 20 << 7  # block 20 of 64, one high half each

    def consume(base, worst, exact):  # a hit is any result that is not None
        taken.append(base)
        return base if base >= hit else None

    run, _ = _worst_margins(sample_disorder(14, 0.5, seed=2), True)
    blocks = run(consume, first_only=True)
    assert blocks[:20] == [None] * 20 and blocks[20] == hit
    assert set(range(0, hit + 1, 1 << 7)) <= set(taken)
    assert len(taken) == len(set(taken))
    if cores == 1:
        assert max(taken) == hit


def test_scans_up_to_fourteen_coordinates_build_no_pool(monkeypatch):
    monkeypatch.setattr(disorder, "_CORES", 2)
    built = count_pools(monkeypatch)
    for n in range(1, 15):
        mat = sample_disorder(n, 1.0, seed=n)
        discrepancy(mat)
        enumerate_solutions(mat, 1.0)
        enumerate_solutions(mat, 0.0, symmetric=False)
    assert built == []
    discrepancy(sample_disorder(21, 0.5, seed=0))
    assert built == [1]


@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_scans_refuse_a_non_finite_entry(bad, tmp_path):
    # NaN fails every comparison, so a scan would find no solution and a
    # discrepancy of inf; inf makes NaN margins from inf - inf, and +-1e308
    # overflows a margin.  No matrix holds such an entry, so no scan sees one.
    assert_entry_refused(sample_disorder(12, 0.5, seed=0), (2, 5), bad, tmp_path / "m.bin")


def test_cap_is_checked_before_the_margin():
    mat = sample_disorder(26, 0.5, seed=0)
    with pytest.raises(CapExceededError):
        _scan_masks(mat, -1.0, True)
    with pytest.raises(CapExceededError):
        enumerate_solutions(mat, -1.0)
    with pytest.raises(DomainError):
        enumerate_solutions(sample_disorder(10, 0.5, seed=0), -1.0)



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


def test_tuple_query_validation(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a replica was drawn before the query was checked")

    monkeypatch.setattr(landscape, "sample_rotation", no_draw)
    base = sample_disorder(8, 0.25, seed=13)
    with pytest.raises(DomainError, match="tuples need m >= 2, got 1"):
        enumerate_forbidden_tuples(base, 1, 0.5, 0.1, 1.0, (0.0,))
    with pytest.raises(DomainError, match="kappa must be positive, got 0.0"):
        enumerate_forbidden_tuples(base, 2, 0.5, 0.1, 0.0, (0.0,))
    with pytest.raises(DomainError, match="tau_set must increase strictly"):
        enumerate_forbidden_tuples(base, 2, 0.5, 0.1, 1.0, (0.5, 0.5))
    with pytest.raises(DomainError, match="need 0 < eta < beta <= 1"):
        enumerate_forbidden_tuples(base, 2, 0.5, 0.5, 1.0, (0.0,))


def naive_forbidden_tuples(base, m, beta, eta, kappa, tau_set):
    n = base.cols
    pools = []
    for i in range(m):
        replica = sample_disorder(n, base.alpha, "gaussian", base.seed, stream=1 + i)
        pool = set()
        for tau in tau_set:
            pool.update(enumerate_solutions(interpolate(base, replica, tau), kappa))
        pools.append(sorted(pool))
    lo = beta - eta - 1e-12
    hi = beta + 1e-12
    out = []
    for combo in itertools.product(*pools):
        ok = all(
            lo <= overlap(combo[i], combo[j]) <= hi
            for i in range(m) for j in range(i + 1, m)
        )
        if ok:
            out.append(combo)
    return out


# SHA-256 of the JSON list of each tuple's component masks, for n = 8,
# alpha 0.25, seed 13, tau_set (0, pi/4), beta 0.5 and eta 0.25.
FORBIDDEN_TUPLE_DIGESTS = {
    (2, 0.7): (4096, "cc9c9bf768e94b5c7ff30b5e9f29845e96a6fbf681770b24e718f4113c2eda9f"),
    (3, 0.9): (136816, "5ceee60a590c75b66fb97f6468c2a5962a100ae60e7be269372e3d7833f37141"),
}


def test_forbidden_tuples_match_naive_oracle():
    base = sample_disorder(8, 0.25, seed=13)
    for (m, kappa), (count, digest) in FORBIDDEN_TUPLE_DIGESTS.items():
        args = (base, m, 0.5, 0.25, kappa, (0.0, math.pi / 4))
        got = enumerate_forbidden_tuples(*args)
        assert got.dtype == np.uint64 and got.shape == (count, m)
        assert _sha256(json.dumps(got.tolist())) == digest
        assert got.tolist() == [[sv.bits for sv in t] for t in naive_forbidden_tuples(*args)]


def test_forbidden_tuple_join_in_one_row_chunks(monkeypatch):
    base = sample_disorder(8, 0.25, seed=13)
    args = (base, 3, 0.5, 0.25, 0.9, (0.0, math.pi / 4))
    want = enumerate_forbidden_tuples(*args)
    # below one row's (1, i, |pool|) XOR at levels 1 and 2, whose pools exceed 7 masks
    monkeypatch.setattr(landscape, "_SCAN_BYTES", 8 * 7)
    got = enumerate_forbidden_tuples(*args)
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_forbidden_tuples_empty_result_keeps_its_shape():
    # kappa 0.1: replicas 0 and 1 pool two solutions each with no pair in
    # band, and replica 2 has no solution at either angle
    base = sample_disorder(8, 0.25, seed=13)
    taus = (0.0, math.pi / 4)
    pools = [np.unique(np.concatenate([
        _scan_masks(disorder.sample_rotation(base, tau, base.seed, 1 + i), 0.1, True)
        for tau in taus])) for i in range(3)]
    assert [p.size for p in pools] == [2, 2, 0]
    for m in (2, 3):
        got = enumerate_forbidden_tuples(base, m, 0.5, 0.25, 0.1, taus)
        assert got.dtype == np.uint64 and got.shape == (0, m)


def test_forbidden_tuples_cap():
    base = sample_disorder(20, 0.1, seed=0)
    with pytest.raises(CapExceededError):
        enumerate_forbidden_tuples(base, 2, 0.5, 0.2, 1.0, (0.0,))


def test_forbidden_tuples_refuse_a_base_off_stream_0():
    # replica 1 lives on stream 2, so this base would be rotated toward itself
    base = sample_disorder(8, 0.25, seed=13, stream=2)
    with pytest.raises(DomainError, match="stream 0"):
        enumerate_forbidden_tuples(base, 3, 0.5, 0.25, 0.9, (0.0, math.pi / 4))


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
