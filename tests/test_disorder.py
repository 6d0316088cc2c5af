import dataclasses
import hashlib
import math
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from marginlab import disorder
from marginlab.disorder import (
    RESAMPLE_STREAM,
    DisorderMatrix,
    dump_matrix,
    interpolate,
    load_matrix,
    resample_columns,
    sample_disorder,
    sample_rotation,
    uniform_tau_grid,
)
from marginlab.errors import DomainError, SizingError


def test_row_count_is_floor_of_alpha_n():
    mat = sample_disorder(100, 0.25)
    assert mat.shape == (25, 100)
    mat = sample_disorder(1000, 0.0101)
    assert mat.shape == (10, 1000)


def test_zero_rows_rejected():
    with pytest.raises(SizingError):
        sample_disorder(100, 0.001)


@pytest.mark.parametrize("n,alpha,error,message", [
    (0, 0.5, SizingError, "floor(alpha*n) = 0, no rows to sample"),
    (-4, 0.5, SizingError, "floor(alpha*n) = -2, no rows to sample"),
    (-1, 1e-300, SizingError, "floor(alpha*n) = 0, no rows to sample"),
    (-(10**300), 1e300, DomainError, "1e+300 * n exceeds the float range"),
    (-(10**400), 0.5, DomainError, "n exceeds the float range"),
], ids=["zero", "negative", "product-rounds-to-zero", "product-overflows", "n-overflows"])
def test_nonpositive_n_rejected_by_the_row_count(n, alpha, error, message):
    with pytest.raises(error) as caught:
        sample_disorder(n, alpha)
    assert str(caught.value) == message


def test_oversized_matrix_rejected_before_allocation():
    # 4e18 entries; numpy would refuse the shape with a plain ValueError
    with pytest.raises(SizingError, match="exceeds the limit"):
        sample_disorder(40, 1e17)


def test_deterministic_given_seed():
    a = sample_disorder(50, 0.2, seed=7)
    b = sample_disorder(50, 0.2, seed=7)
    assert np.array_equal(a.entries, b.entries)
    c = sample_disorder(50, 0.2, seed=8)
    assert not np.array_equal(a.entries, c.entries)


def test_entry_purity_across_shapes():
    # Entry (r, c) depends only on (seed, stream, r, c), so a wider matrix
    # must reproduce the narrower one as its leading columns.
    small = sample_disorder(40, 0.5, seed=3)
    wide = sample_disorder(80, 0.25, seed=3)
    assert np.array_equal(wide.entries[:20, :40], small.entries[:20, :])


def _sha256(mat):
    return hashlib.sha256(np.ascontiguousarray(mat.entries, dtype="<f8").tobytes()).hexdigest()


# SHA-256 of the little-endian entries of a sample and of its copy with
# floor(n/4) columns redrawn from stream 2^64 - 1 - stream, at the ends of the
# seed and stream ranges.  Any change to the key, counter or transform moves them.
SAMPLE_DIGESTS = [
    (0, 0, 100, 0.5, "gaussian",
     "e5203e8e62a0642ec5012cf8de37a781a8b501bb2370141420344332d011a36b",
     "10c37182991789fb8d3b9142c2eaaeb58cfca9612ae6c1a7e73c97ace201c74a"),
    (-3, 5, 64, 0.25, "rademacher",
     "3df7a83bf5de3eca969208766674ded00e39241de5eb455f7588a6d12ab00675",
     "5237ca427df58fba8d1080942215b341682e9de798a817abba0298dc51081923"),
    ((1 << 63) - 1, (1 << 64) - 1, 33, 0.3, "gaussian",
     "f806cffb188062beb957dd120afed9b2b357e4f778cdbee1fda7235e1d37ece2",
     "369921785645b5568b0a9b51c6534604a4a4447e5db234b242d686c601ca28c9"),
    (-(1 << 63), RESAMPLE_STREAM, 40, 0.5, "rademacher",
     "5cc1c0d724caa570d7303c1105b0e56be76b5ca6e985f36a9649d099086f7ef7",
     "c5ace57d6d39c98468f7aba6b1fc91ae9141fd089ebd323b4326bd59c42aef5b"),
]


@pytest.mark.parametrize("seed,stream,n,alpha,dist,sample_sha,resample_sha", SAMPLE_DIGESTS)
def test_sample_and_resample_golden_digest(seed, stream, n, alpha, dist, sample_sha,
                                           resample_sha):
    mat = sample_disorder(n, alpha, dist, seed, stream)
    resampled = resample_columns(mat, 0.25, seed, stream=(1 << 64) - 1 - stream)
    assert (_sha256(mat), _sha256(resampled)) == (sample_sha, resample_sha)


# SHA-256 of samples at shapes the digests above miss: many rows per sampler
# chunk, several chunks per sample, rows wider than a chunk.
WIDE_SAMPLE_DIGESTS = [
    (11, 7, 1000, 0.25, "gaussian",
     "33b28dd0920baa463fb53609f20589b8aec631b34c78411f97f07ef302c4dad0"),
    (-5, RESAMPLE_STREAM + 3, 10_000, 0.01, "gaussian",
     "73e8148c0791a4bf39eda45f92431383e48441c40488d8b4ca44da33ea781cfd"),
    (2, 9, 70_001, 3 / 70_001 + 1e-12, "rademacher",
     "1b57c09fc3f25aff2bff251fbb2754837d0ce88d25483bd138b6b2853d11a471"),
]


@pytest.mark.parametrize("seed,stream,n,alpha,dist,sha", WIDE_SAMPLE_DIGESTS)
def test_wide_sample_golden_digest(seed, stream, n, alpha, dist, sha):
    assert _sha256(sample_disorder(n, alpha, dist, seed, stream)) == sha


# SHA-256 of a 30 x 100 sample with its last 15, 14 or 13 columns redrawn, so
# the fresh window starts at c0 = 85, 86, 87: lanes 1, 2, 3 of a Philox block.
WINDOW_DIGESTS = [
    ("gaussian", 0.15, "3c4dd1140b85c53fe594aa687994711569e7f4508af0bbe9d5ad0b3c89ee57e2"),
    ("gaussian", 0.14, "34fa9e37ae1695771de6f5cfb861385d49ce4a2a8212ca454aa49949782ef33e"),
    ("gaussian", 0.13, "eeb5166a1d83a8e51f929e2b5500633b05c7407e1f4630acd40b1e54a247a773"),
    ("rademacher", 0.15, "2f60b49c15fd4668391ec9c6791abe8fadbcf4152e6e32cfcc4414b24f17cdbb"),
    ("rademacher", 0.14, "9f363572152e94cb4af808bb7a5e948d44cd2883d44a4cf7c2d9a940a4a56b89"),
    ("rademacher", 0.13, "04b0006be33d51c9874e703b1178e6615eda4cdab14d41ebaecb785b87298bcf"),
]


@pytest.mark.parametrize("dist,delta,sha", WINDOW_DIGESTS)
def test_unaligned_resample_window_golden_digest(dist, delta, sha):
    base = sample_disorder(100, 0.3, dist, 4, 1)
    assert _sha256(resample_columns(base, delta, 4, stream=6)) == sha


# SHA-256 of a 1000 x 4001 sample with its last 800 columns redrawn: the window
# starts at c0 = 3201 (lane 1) and holds enough entries to be transformed on
# several threads.
THREADED_WINDOW_DIGESTS = [
    ("gaussian", "24dd66197c930ab989e92360bb42c8e2a04a65cb6bc27bd6afab6eff88613373"),
    ("rademacher", "d49e1bf4d2f024fc21594c01b612f3702b317132dc8346d8a4f6e6c59d197b08"),
]


@pytest.mark.parametrize("dist,sha", THREADED_WINDOW_DIGESTS)
def test_threaded_resample_window_golden_digest(dist, sha):
    base = sample_disorder(4001, 0.25, dist, 4, 1)
    assert _sha256(resample_columns(base, 0.2, 4, stream=6)) == sha


# (cores, entries per thread): today's single thread, and thread counts and
# bands small enough that every digest above is split across threads.
KERNEL_SPLITS = [(1, 1 << 18), (2, 1 << 10), (3, 1 << 8), (7, 64)]


@pytest.fixture(params=KERNEL_SPLITS, ids=lambda split: "cores%d-band%d" % split)
def kernel_split(request, monkeypatch):
    cores, band = request.param
    monkeypatch.setattr(disorder, "_CORES", cores)
    monkeypatch.setattr(disorder, "_BAND", band)
    return request.param


@pytest.mark.parametrize("seed,stream,n,alpha,dist,sample_sha,resample_sha", SAMPLE_DIGESTS)
def test_sample_digests_under_every_thread_split(kernel_split, seed, stream, n, alpha, dist,
                                                 sample_sha, resample_sha):
    test_sample_and_resample_golden_digest(seed, stream, n, alpha, dist, sample_sha,
                                           resample_sha)


@pytest.mark.parametrize("seed,stream,n,alpha,dist,sha", WIDE_SAMPLE_DIGESTS)
def test_wide_digests_under_every_thread_split(kernel_split, seed, stream, n, alpha, dist,
                                               sha):
    test_wide_sample_golden_digest(seed, stream, n, alpha, dist, sha)


@pytest.mark.parametrize("dist,delta,sha", WINDOW_DIGESTS)
def test_window_digests_under_every_thread_split(kernel_split, dist, delta, sha):
    test_unaligned_resample_window_golden_digest(dist, delta, sha)


@pytest.mark.parametrize("dist,sha", THREADED_WINDOW_DIGESTS)
def test_threaded_window_digests_under_every_thread_split(kernel_split, dist, sha):
    test_threaded_resample_window_golden_digest(dist, sha)


def test_chunks_are_each_transformed_once_under_frequent_switches(monkeypatch):
    # Seven threads on a shared chunk iterator, switching every microsecond:
    # a chunk skipped keeps the entries it held before and moves the digest.
    # A chunk taken twice redraws the same bits, which no digest can see;
    # test_each_chunk_is_drawn_exactly_once counts the takes instead.
    monkeypatch.setattr(disorder, "_CORES", 7)
    monkeypatch.setattr(disorder, "_BAND", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for dist, sha in THREADED_WINDOW_DIGESTS:
            test_threaded_resample_window_golden_digest(dist, sha)
    finally:
        sys.setswitchinterval(interval)


def count_pools(monkeypatch) -> list[int]:
    """Patch ``disorder``'s thread pool to record the helper count of each pool built."""
    built, real = [], disorder.ThreadPoolExecutor

    class Pool(real):
        def __init__(self, max_workers, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(disorder, "ThreadPoolExecutor", Pool)
    return built


def test_a_one_chunk_draw_builds_no_pool(monkeypatch):
    # One row of 2^19 entries is one chunk: a second thread would find no
    # chunk to take.  Two such rows are two chunks and get one helper.
    monkeypatch.setattr(disorder, "_CORES", 2)
    built, n = count_pools(monkeypatch), 1 << 19
    one = sample_disorder(n, 1.0 / n, "gaussian", 5, 9)
    assert one.rows == 1 and built == []
    assert np.array_equal(one.entries, _oracle_entries(5, 9, 1, 0, n, "gaussian"))
    two = sample_disorder(n, 2.0 / n, "gaussian", 5, 9)
    assert two.rows == 2 and built == [1]
    assert np.array_equal(two.entries[:1], one.entries)


def test_threaded_sample_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(disorder, "_CORES", 4)
    monkeypatch.setattr(disorder, "_BAND", 1 << 10)
    before = threading.active_count()
    resample_columns(sample_disorder(4001, 0.25, "gaussian", 4, 1), 0.2, 4, stream=6)
    assert threading.active_count() == before


def test_error_in_a_helper_thread_propagates(monkeypatch):
    # The calling thread transforms normally but holds its first chunk until
    # a helper has failed, so the error can only come from the helper.
    caller, helper_failed = threading.get_ident(), threading.Event()
    real_ndtri = disorder.ndtri

    def ndtri(*args, **kwargs):
        if threading.get_ident() == caller:
            helper_failed.wait(timeout=30)
            return real_ndtri(*args, **kwargs)
        helper_failed.set()
        raise FloatingPointError("ndtri failed in a helper")

    monkeypatch.setattr(disorder, "_CORES", 2)
    monkeypatch.setattr(disorder, "_BAND", 1 << 10)
    monkeypatch.setattr(disorder, "ndtri", ndtri)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="ndtri failed in a helper"):
        sample_disorder(1000, 0.25, "gaussian", 4, 1)
    assert helper_failed.is_set()
    assert threading.active_count() == before


def test_each_chunk_is_drawn_exactly_once(monkeypatch):
    # Each row is drawn after one reset of its thread's generator to the
    # row's counter (c0 // 4, 0, r, 0); a chunk taken twice resets its rows twice.
    reset, real_philox = [], disorder.Philox

    class Philox(real_philox):
        @property
        def state(self):
            return real_philox.state.__get__(self)

        @state.setter
        def state(self, value):
            reset.append(int(value["state"]["counter"][2]))
            real_philox.state.__set__(self, value)

    monkeypatch.setattr(disorder, "_CORES", 7)
    monkeypatch.setattr(disorder, "_BAND", 64)
    monkeypatch.setattr(disorder, "Philox", Philox)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        base = sample_disorder(4001, 0.25, "gaussian", 4, 1)
        assert sorted(reset) == list(range(1000))
        reset.clear()
        resample_columns(base, 0.2, 4, stream=6)
        assert sorted(reset) == list(range(1000))
    finally:
        sys.setswitchinterval(interval)


def test_draw_error_in_a_helper_thread_propagates(monkeypatch):
    # As above, with the draw rather than the transform failing in the helper.
    caller, helper_failed = threading.get_ident(), threading.Event()
    real_generator = disorder.Generator

    class Generator:
        def __init__(self, bg):
            self._gen = real_generator(bg)

        def random(self, out):
            if threading.get_ident() == caller:
                helper_failed.wait(timeout=30)
                return self._gen.random(out=out)
            helper_failed.set()
            raise RuntimeError("draw failed in a helper")

    monkeypatch.setattr(disorder, "_CORES", 2)
    monkeypatch.setattr(disorder, "_BAND", 1 << 10)
    monkeypatch.setattr(disorder, "Generator", Generator)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed in a helper"):
        sample_disorder(1000, 0.25, "gaussian", 4, 1)
    assert helper_failed.is_set()
    assert threading.active_count() == before


def _oracle_entries(seed, stream, rows, c0, c1, dist):
    """Entries (r, c) for c in [c0, c1) straight from Philox's raw words, row by row."""
    out = np.empty((rows, c1 - c0))
    for r in range(rows):
        key = np.array([seed % (1 << 64), stream], dtype=np.uint64)  # a list casts via int64
        bg = Philox(key=key, counter=[c0 // 4, 0, r, 0])
        words = bg.random_raw(c0 % 4 + c1 - c0)[c0 % 4:]
        if dist == "gaussian":
            out[r] = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
        else:
            out[r] = np.where(words >> np.uint64(63), -1.0, 1.0)
    return out


@pytest.mark.parametrize("cores,band", KERNEL_SPLITS[1:])
@pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
def test_entries_match_the_raw_word_oracle(monkeypatch, cores, band, dist):
    # 500 x 1000, then windows of 200, 199, 198 and 197 columns: c0 % 4 = 0, 1, 2, 3.
    monkeypatch.setattr(disorder, "_CORES", cores)
    monkeypatch.setattr(disorder, "_BAND", band)
    base = sample_disorder(1000, 0.5, dist, -3, 5)
    assert np.array_equal(base.entries, _oracle_entries(-3, 5, 500, 0, 1000, dist))
    for width in (200, 199, 198, 197):
        fresh = resample_columns(base, (width + 0.5) / 1000, 7, stream=(1 << 64) - 1)
        assert np.array_equal(fresh.entries[:, :1000 - width], base.entries[:, :1000 - width])
        oracle = _oracle_entries(7, (1 << 64) - 1, 500, 1000 - width, 1000, dist)
        assert np.array_equal(fresh.entries[:, 1000 - width:], oracle)


def test_transform_maps_the_extreme_words_to_finite_exact_values():
    # k = 0 and k = 2^53 - 1 are the words (k + 1/2) * 2^-53 = 2^-54 and
    # 1 - 2^-54; the second rounds to 1.0, where ndtri is +inf.
    out = np.array([0.0, (2**53 - 1) * 2.0**-53])
    disorder._transform(out, "gaussian")
    assert np.isfinite(out).all()
    assert out[0] == ndtri(2.0**-54) < 0.0
    assert out[1] == -out[0]


@pytest.mark.parametrize("seed,stream", [
    (1 << 63, 0), ((1 << 64) - 3, 0), (-(1 << 63) - 1, 0), (0, -1), (0, 1 << 64),
])
def test_seed_and_stream_outside_the_key_range_rejected(seed, stream):
    # Masking to 64 bits would make seed -3 and 2^64 - 3 (or stream -1 and
    # 2^64 - 1) sample the same matrix under different provenance.
    message = f"seed={seed}, stream={stream}"
    with pytest.raises(DomainError, match=message):
        sample_disorder(20, 0.5, seed=seed, stream=stream)
    with pytest.raises(DomainError, match=message):
        resample_columns(sample_disorder(20, 0.5), 0.25, seed, stream=stream)
    odd = DisorderMatrix(entries=np.zeros((10, 20)), dist="gaussian",
                         seed=seed, alpha=0.5, stream=stream)
    with pytest.raises(DomainError, match=message):
        dump_matrix(odd, "unused.bin")


def test_rademacher_values_and_balance():
    mat = sample_disorder(2000, 0.05, dist="rademacher", seed=1)
    assert set(np.unique(mat.entries)) == {-1.0, 1.0}
    assert abs(float(mat.entries.mean())) < 0.02


def test_gaussian_moments():
    mat = sample_disorder(10000, 0.05, seed=2)
    x = mat.entries.ravel()
    assert abs(float(x.mean())) < 3.0 / math.sqrt(x.size)
    assert abs(float(x.var()) - 1.0) < 5.0 / math.sqrt(x.size)
    assert np.all(np.isfinite(x))


def test_interpolation_endpoints_and_variance():
    base = sample_disorder(500, 0.1, seed=4, stream=0)
    rep = sample_disorder(500, 0.1, seed=4, stream=1)
    assert np.array_equal(interpolate(base, rep, 0.0).entries, base.entries)
    assert np.allclose(interpolate(base, rep, math.pi / 2).entries, rep.entries)
    mid = interpolate(base, rep, math.pi / 4)
    v = float(mid.entries.var())
    assert abs(v - 1.0) < 0.02
    # correlation with the base equals cos(tau)
    c = float(np.corrcoef(mid.entries.ravel(), base.entries.ravel())[0, 1])
    assert abs(c - math.cos(math.pi / 4)) < 0.01


@pytest.mark.parametrize("tau", [0.0, 0.1, math.pi / 2])
@pytest.mark.parametrize("n,alpha", [
    (10_000, 0.01),  # 100 rows, 3 per chunk: the last chunk holds one row
    (1000, 0.25),  # 250 rows, 32 per chunk: the last chunk holds 26
    (70_001, 3 / 70_001 + 1e-12),  # each row wider than a chunk
])
def test_interpolation_is_bit_identical_to_the_whole_matrix_formula(n, alpha, tau):
    base = sample_disorder(n, alpha, seed=6, stream=0)
    rep = sample_disorder(n, alpha, seed=6, stream=1)
    expected = math.cos(tau) * base.entries + math.sin(tau) * rep.entries
    assert interpolate(base, rep, tau).entries.tobytes() == expected.tobytes()


def test_interpolation_rejects_rademacher():
    base = sample_disorder(50, 0.2, dist="rademacher", seed=4)
    rep = sample_disorder(50, 0.2, dist="rademacher", seed=4, stream=1)
    with pytest.raises(DomainError):
        interpolate(base, rep, 0.3)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("tau", [0.0, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("n,alpha", [
    (1000, 0.001),  # one row
    (1000, 0.25),  # 250 rows, 32 per chunk: the last chunk holds 26
    (70_001, 3 / 70_001 + 1e-12),  # each row wider than a chunk
])
def test_fused_rotation_is_bit_identical_to_interpolate(monkeypatch, cores, tau, n, alpha):
    monkeypatch.setattr(disorder, "_CORES", cores)
    monkeypatch.setattr(disorder, "_BAND", 1 << 10)  # every shape here splits across threads
    base = sample_disorder(n, alpha, seed=6, stream=4)
    replica = sample_disorder(n, alpha, "gaussian", 6, 5)
    built = count_pools(monkeypatch)
    rotated = sample_rotation(base, tau, 6, 5)
    assert rotated.entries.tobytes() == interpolate(base, replica, tau).entries.tobytes()
    assert (rotated.seed, rotated.stream, rotated.alpha) == (base.seed, base.stream, base.alpha)
    assert not rotated.entries.flags.writeable
    assert bool(built) == (cores == 2 and base.rows > 1)


@pytest.mark.parametrize("tau", [-1e-300, math.pi / 2 + 1e-15, math.nan, math.inf])
def test_fused_rotation_rejects_an_angle_outside_the_quarter_turn(tau):
    base = sample_disorder(50, 0.2, seed=4)
    with pytest.raises(DomainError, match="tau must lie in"):
        sample_rotation(base, tau, 4, 1)
    with pytest.raises(DomainError, match="tau must lie in"):
        interpolate(base, sample_disorder(50, 0.2, seed=4, stream=1), tau)


def test_fused_rotation_rejects_rademacher():
    base = sample_disorder(50, 0.2, dist="rademacher", seed=4)
    with pytest.raises(DomainError, match="only variance-preserving for gaussian"):
        sample_rotation(base, 0.3, 4, 1)


def test_resample_keeps_prefix_and_refreshes_suffix():
    mat = sample_disorder(200, 0.1, seed=5)
    out = resample_columns(mat, 0.25, seed=5)
    b = 50
    assert np.array_equal(out.entries[:, :-b], mat.entries[:, :-b])
    assert not np.array_equal(out.entries[:, -b:], mat.entries[:, -b:])
    # the refreshed block comes from the dedicated resample stream
    fresh = sample_disorder(200, 0.1, seed=5, stream=RESAMPLE_STREAM)
    assert np.array_equal(out.entries[:, -b:], fresh.entries[:, -b:])
    again = resample_columns(mat, 0.25, seed=5)
    assert np.array_equal(out.entries, again.entries)


def test_correlated_pair_statistics():
    a = sample_disorder(20000, 0.01, seed=6)
    b = sample_rotation(a, math.acos(0.6), 6, 1)
    c = float(np.corrcoef(a.entries.ravel(), b.entries.ravel())[0, 1])
    assert abs(c - 0.6) < 0.01


def test_uniform_tau_grid():
    grid = uniform_tau_grid(4)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi / 2)
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0])


def test_dump_load_roundtrip(tmp_path):
    for dist in ("gaussian", "rademacher"):
        mat = sample_disorder(37, 0.3, dist=dist, seed=11)
        path = tmp_path / f"m_{dist}.bin"
        dump_matrix(mat, path)
        back = load_matrix(path)
        assert back.dist == dist
        assert back.seed == mat.seed
        assert np.array_equal(back.entries, mat.entries)
    # provenance that rows / cols, an unsigned seed or a missing stream lose
    for n, alpha, seed, stream in [(1000, 0.0025, 0, 0), (50, 0.3, 7, 5),
                                   (50, 0.3, -3, 0), (40, 0.5, -(1 << 63), RESAMPLE_STREAM)]:
        mat = sample_disorder(n, alpha, seed=seed, stream=stream)
        path = tmp_path / "p.bin"
        dump_matrix(mat, path)
        back = load_matrix(path)
        assert (back.alpha, back.stream, back.seed) == (alpha, stream, seed)
        assert np.array_equal(back.entries, mat.entries)


def test_dump_rejects_unrepresentable_provenance(tmp_path):
    with pytest.raises(DomainError, match=f"seed={1 << 63},"):
        dump_matrix(sample_disorder(20, 0.5, seed=1 << 63), tmp_path / "s.bin")
    with pytest.raises(DomainError, match="stream=-1"):
        dump_matrix(sample_disorder(20, 0.5, stream=-1), tmp_path / "t.bin")
    assert not (tmp_path / "s.bin").exists() and not (tmp_path / "t.bin").exists()


def test_load_reads_version_one_files(tmp_path):
    # PDM1: magic, rows, cols, distribution tag, seed mod 2^64, then entries
    mat = sample_disorder(50, 0.3, seed=-3, stream=5)
    path = tmp_path / "v1.bin"
    header = struct.pack("<4sQQQQ", b"PDM1", mat.rows, mat.cols, 0, mat.seed % (1 << 64))
    path.write_bytes(header + mat.entries.astype("<f8").tobytes())
    back = load_matrix(path)
    assert (back.alpha, back.stream, back.seed) == (15 / 50, 0, -3)
    assert np.array_equal(back.entries, mat.entries)
    dump_matrix(back, tmp_path / "v2.bin")
    again = load_matrix(tmp_path / "v2.bin")
    assert (again.alpha, again.stream, again.seed) == (15 / 50, 0, -3)
    assert np.array_equal(again.entries, mat.entries)
    path.write_bytes(b"PDM9" + header[4:])
    with pytest.raises(DomainError, match="bad magic"):
        load_matrix(path)


#: NaN, both infinities, finite entries whose sums overflow, and the float past 2^512.
BAD_ENTRIES = [math.nan, math.inf, -math.inf, 1e308, -1e308,
               float(np.nextafter(2.0**512, math.inf))]


def assert_entry_refused(mat, where, bad, path):
    """``replace``, the constructor and ``load_matrix`` refuse ``bad`` at ``where``."""
    entries = mat.entries.copy()
    entries[where] = bad
    refused = pytest.raises(DomainError, match=r"finite and at most 2\^512 in magnitude")
    with refused:
        dataclasses.replace(mat, entries=entries)
    with refused:
        DisorderMatrix(entries, mat.dist, mat.seed, mat.alpha, mat.stream)
    dump_matrix(mat, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-entries.nbytes] + entries.astype("<f8").tobytes())
    with refused:
        load_matrix(path)


def test_entries_up_to_the_bound_are_accepted():
    mat = sample_disorder(12, 0.5, seed=0)
    for edge in (2.0**512, -2.0**512):
        entries = mat.entries.copy()
        entries[2, 5] = edge
        assert dataclasses.replace(mat, entries=entries).entries[2, 5] == edge


#: Entries refused whatever their values: int64 sums wrap, float32 sums overflow
#: below the entry bound, an array that is not 2-D has no matrix shape, and
#: np.matrix keeps column sums 2-D, so a majority vote is no sign vector.
BAD_ARRAYS = {
    "int64": np.full((3, 10), 2**62, dtype=np.int64),
    "float32": np.full((3, 10), 3e38, dtype=np.float32),
    "bool": np.ones((3, 10), dtype=bool),
    "1-D": np.zeros(30),
    "3-D": np.zeros((3, 10, 1)),
    "matrix": np.zeros((3, 10)).view(np.matrix),
}


@pytest.mark.parametrize("kind", BAD_ARRAYS)
def test_entries_other_than_a_2d_float64_array_are_refused(kind):
    mat = sample_disorder(10, 0.3, seed=0)
    refused = pytest.raises(DomainError, match="entries must be a 2-D float64 array")
    with refused:
        DisorderMatrix(BAD_ARRAYS[kind], "gaussian", 0, 0.3)
    with refused:
        dataclasses.replace(mat, entries=BAD_ARRAYS[kind])


def test_shape_is_read_from_the_entries():
    assert [f.name for f in dataclasses.fields(DisorderMatrix)] == [
        "entries", "dist", "seed", "alpha", "stream"]
    mat = sample_disorder(10, 0.3, seed=0)
    wide = dataclasses.replace(mat, entries=np.zeros((6, 20)))
    assert (wide.rows, wide.cols, wide.shape) == (6, 20, (6, 20))
    with pytest.raises(SizingError, match="inconsistent with floor"):
        dataclasses.replace(mat, entries=np.zeros((4, 20)))


def test_loaded_entries_are_a_read_only_view_of_the_file(tmp_path):
    mat = sample_disorder(1000, 0.5, seed=3)
    path = tmp_path / "m.bin"
    dump_matrix(mat, path)
    tracemalloc.start()
    try:
        back = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.entries, mat.entries)
    assert peak <= 1.25 * mat.entries.nbytes  # the file's bytes, never a second copy
    with pytest.raises(ValueError):
        back.entries.setflags(write=True)


def test_dump_writes_the_entries_without_a_copy(tmp_path):
    mat = sample_disorder(1000, 0.5, seed=3)
    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        dump_matrix(mat, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * mat.entries.nbytes  # the array's own buffer is written
    assert np.array_equal(load_matrix(path).entries, mat.entries)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_load_rejects_non_finite_alpha(tmp_path, alpha):
    # A PDM2 header can carry any float64 alpha; the sampler never writes one.
    mat = sample_disorder(20, 0.5, seed=1)
    path = tmp_path / "m.bin"
    header = struct.pack("<4sQQQqQd", b"PDM2", mat.rows, mat.cols, 0, 1, 0, alpha)
    path.write_bytes(header + mat.entries.astype("<f8").tobytes())
    with pytest.raises(DomainError, match="alpha must be finite"):
        load_matrix(path)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stream=st.integers(min_value=0, max_value=2**20),
)
def test_property_determinism_and_finiteness(n, seed, stream):
    a = sample_disorder(n, 2.0 / n, seed=seed, stream=stream)
    b = sample_disorder(n, 2.0 / n, seed=seed, stream=stream)
    assert np.array_equal(a.entries, b.entries)
    assert np.all(np.isfinite(a.entries))
    assert np.all(np.abs(a.entries) < 10.0)


@settings(max_examples=20, deadline=None)
@given(
    delta=st.floats(min_value=0.02, max_value=0.49),
    n=st.integers(min_value=50, max_value=400),
)
def test_property_resample_block_size(delta, n):
    mat = sample_disorder(n, 4.0 / n, seed=1)
    out = resample_columns(mat, delta, seed=1)
    b = int(math.floor(delta * n + 1e-9))
    keep = n - b
    assert np.array_equal(out.entries[:, :keep], mat.entries[:, :keep])


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        sample_disorder(20, alpha)
