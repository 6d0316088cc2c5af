import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.disorder import (
    RESAMPLE_STREAM,
    correlated_pair,
    dump_matrix,
    interpolate,
    load_matrix,
    resample_columns,
    sample_disorder,
    sample_ensemble,
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


def test_interpolation_rejects_rademacher():
    base = sample_disorder(50, 0.2, dist="rademacher", seed=4)
    rep = sample_disorder(50, 0.2, dist="rademacher", seed=4, stream=1)
    with pytest.raises(DomainError):
        interpolate(base, rep, 0.3)


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
    a, b = correlated_pair(20000, 0.01, rho=0.6, seed=6)
    c = float(np.corrcoef(a.entries.ravel(), b.entries.ravel())[0, 1])
    assert abs(c - 0.6) < 0.01


def test_uniform_tau_grid():
    grid = uniform_tau_grid(4)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi / 2)
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0])


def test_ensemble_instances_interpolate_base():
    ens = sample_ensemble(300, 0.1, n_replicas=2, tau_grid=uniform_tau_grid(3), seed=9)
    assert ens.n_replicas == 2
    inst0 = ens.instance(0, 0)
    assert np.array_equal(inst0.entries, ens.base.entries)
    inst_end = ens.instance(1, 3)
    assert np.allclose(inst_end.entries, ens.replicas[1].entries)


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
    assert (back.alpha, back.stream, back.seed) == (15 / 50, 0, (1 << 64) - 3)
    assert np.array_equal(back.entries, mat.entries)
    path.write_bytes(b"PDM9" + header[4:])
    with pytest.raises(DomainError, match="bad magic"):
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
