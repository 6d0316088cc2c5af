"""Counter-based sampling of random constraint matrices.

A disorder instance is an M x n matrix with i.i.d. entries, M = floor(alpha*n),
either standard gaussian or uniform sign ("rademacher") entries, drawn from
the counter-based generator Philox:

    key           (seed mod 2^64, stream),  seed in [-2^63, 2^63), stream in [0, 2^64)
    entry (r, c)  output c % 4 of Philox set to counter (c // 4, 0, r, 0)

numpy increments the counter before each block, so the block holding entry
(r, c) encrypts (c // 4 + 1, 0, r, 0); each sampling thread owns one
generator and resets its state to that counter before each row.
Entry (r, c) is thus pure in (seed, stream, r, c): matrices of different
shapes agree on their common entries, and a column window draws only its
own blocks.  That purity makes coupled resampling and replica constructions
reproducible without state.

    stream 0              plain samples (``sample_disorder``, ``marginlab solve``)
    2t, 2t + 1            base and replica of experiment trial t (``sample_ensemble``)
    RESAMPLE_STREAM + t   fresh columns of trial t (RESAMPLE_STREAM = 2^62)
    base_stream + 1 + i   replica i of ``sample_ensemble``
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DomainError, SizingError, check_float_range, check_matrix_size

__all__ = [
    "DisorderMatrix",
    "InterpolatedEnsemble",
    "RESAMPLE_STREAM",
    "dump_matrix",
    "interpolate",
    "load_matrix",
    "resample_columns",
    "sample_disorder",
    "sample_ensemble",
    "uniform_tau_grid",
]

_DISTS = ("gaussian", "rademacher")
_MASK64 = (1 << 64) - 1
_DRAW_BLOCK = 1 << 15  # entries of one sampler or interpolation chunk (256 KiB)
_BAND = 1 << 18  # entries per sampling thread; below 2 * _BAND, one thread
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Stream reserved for fresh columns drawn by :func:`resample_columns`.
RESAMPLE_STREAM = 1 << 62

#: Matrix file headers by magic, seed signed; PDM1 (read only) has no stream or alpha.
_MAGIC = b"PDM2"
_HEADERS = {b"PDM1": struct.Struct("<4sQQQq"), _MAGIC: struct.Struct("<4sQQQqQd")}


def _floor_count(x: float, n: int) -> int:
    # floor(x*n) with a one-ulp guard so decimal inputs like 0.3 round the
    # intended way instead of tripping on binary representation slop.
    check_float_range("n", n)
    product = x * n
    if not abs(product) < math.inf:
        raise DomainError(f"{x} * n exceeds the float range")
    return int(math.floor(product + 1e-9))


def _resampled_columns(delta: float, n: int) -> int:
    """floor(delta*n), the columns ``resample_columns`` redraws, for delta in (0, 1/2)."""
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return _floor_count(delta, n)


@dataclass(frozen=True)
class DisorderMatrix:
    """An M x n constraint matrix together with its sampling provenance.

    ``rows == floor(alpha * cols)`` is enforced for the alpha recorded at
    construction.  ``entries`` is read-only; derived matrices (interpolation,
    resampling) are new objects.
    """

    rows: int
    cols: int
    entries: np.ndarray = field(repr=False)
    dist: str
    seed: int
    alpha: float
    stream: int = 0

    def __post_init__(self) -> None:
        if self.dist not in _DISTS:
            raise DomainError(f"unknown distribution {self.dist!r}")
        if self.rows < 1 or self.cols < 1:
            raise SizingError(f"degenerate shape {self.rows}x{self.cols}")
        if self.entries.shape != (self.rows, self.cols):
            raise SizingError(
                f"entries shape {self.entries.shape} does not match "
                f"{self.rows}x{self.cols}"
            )
        if self.rows != _floor_count(self.alpha, self.cols):
            raise SizingError(
                f"rows={self.rows} inconsistent with floor(alpha*cols)="
                f"{_floor_count(self.alpha, self.cols)}"
            )
        self.entries.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key (seed mod 2^64, stream) for seed in [-2^63, 2^63), stream in [0, 2^64).

    Other values raise: masking them would let seed -3 and 2^64 - 3 draw the
    same entries, and a ``PDM2`` header could not record them.
    """
    if not (-(1 << 63) <= seed < 1 << 63 and 0 <= stream <= _MASK64):
        raise DomainError("seed must lie in [-2^63, 2^63) and stream in [0, 2^64), "
                          f"got seed={seed}, stream={stream}")
    return np.array([seed & _MASK64, stream], dtype=np.uint64)


def _transform(out: np.ndarray, dist: str) -> None:
    """Map uniforms k * 2^-53 (k the top 53 bits of a Philox word) in ``out`` to entries."""
    if dist == "gaussian":
        # (k + 1/2) * 2^-53 lies in the open interval, away from both ndtri poles.
        ndtri(np.add(out, 2.0**-54, out=out), out=out)
    else:
        out[:] = np.where(out < 0.5, 1.0, -1.0)  # the sign of the word's top bit


def _rows(key: np.ndarray, out: np.ndarray, c0: int, dist: str) -> None:
    """Fill ``out`` with rows [0, len(out)), columns from c0 on; no block left of c0 is drawn.

    Each thread owns one generator and, before each row r, resets its state
    to a fresh one at counter (c0 // 4, 0, r, 0).  A chunk of rows is
    transformed while it is still in cache.  ``random`` draws with the GIL
    released, so on two or more cores a draw of at least 2 * _BAND entries
    runs on up to one thread per core; the bits do not depend on the thread
    count.
    """
    (rows, width), skip = out.shape, c0 % 4
    step = max(1, _DRAW_BLOCK // width)
    threads = min(_CORES, out.size // _BAND)
    # Shared: each thread takes the next undone chunk.  next() on a range
    # iterator is one C call under the GIL, so no chunk is taken twice.
    chunks = iter(range(0, rows, step))

    def work() -> None:
        bg = Philox(key=key, counter=[c0 // 4, 0, 0, 0])
        gen, fresh = Generator(bg), bg.state  # fresh: an empty buffer (buffer_pos 4)
        counter = fresh["state"]["counter"]
        for r0 in chunks:
            block = out[r0:r0 + step]
            for r, row in enumerate(block, r0):
                counter[2] = r
                bg.state = fresh
                if skip:
                    bg.random_raw(skip, output=False)
                gen.random(out=row)
            _transform(block, dist)

    if threads < 2:
        work()
        return
    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(work) for _ in range(threads - 1)]
        work()
    for helper in helpers:
        helper.result()


def sample_disorder(
    n: int,
    alpha: float,
    dist: str = "gaussian",
    seed: int = 0,
    stream: int = 0,
) -> DisorderMatrix:
    """Sample an M x n disorder matrix with M = floor(alpha*n).

    Entry (r, c) depends only on (seed, stream, r, c), never on the matrix
    shape, so enlarging n or alpha extends a sample instead of reshuffling it.
    """
    if n < 1:
        raise SizingError(f"need at least one column, got n={n}")
    if dist not in _DISTS:
        raise DomainError(f"unknown distribution {dist!r}")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    m = _floor_count(alpha, n)
    if m < 1:
        raise SizingError(f"floor(alpha*n) = {m}, no rows to sample")
    check_matrix_size(m, n)
    entries = np.empty((m, n), dtype=np.float64)
    _rows(philox_key(seed, stream), entries, 0, dist)
    return DisorderMatrix(
        rows=m, cols=n, entries=entries, dist=dist, seed=seed,
        alpha=alpha, stream=stream,
    )


def interpolate(base: DisorderMatrix, replica: DisorderMatrix, tau: float) -> DisorderMatrix:
    """Rotate ``base`` toward an independent ``replica`` by angle ``tau``.

    Returns the matrix cos(tau)*base + sin(tau)*replica.  For independent
    gaussian inputs each entry stays exactly standard gaussian and the
    correlation with the base entry is cos(tau).  Sign matrices are rejected:
    a convex combination of signs is not a sign, so the ensemble would leave
    the rademacher family (couple sign disorder by resampling instead).
    """
    if base.dist != "gaussian" or replica.dist != "gaussian":
        raise DomainError("interpolation is only variance-preserving for gaussian disorder")
    if base.shape != replica.shape:
        raise SizingError(f"shape mismatch {base.shape} vs {replica.shape}")
    if not (0.0 <= tau <= math.pi / 2.0):
        raise DomainError(f"tau must lie in [0, pi/2], got {tau}")
    # Chunk by chunk: the same two roundings per entry, no matrix-sized temporary.
    entries, sin_tau = np.multiply(base.entries, math.cos(tau)), math.sin(tau)
    step = max(1, _DRAW_BLOCK // base.cols)
    for r0 in range(0, base.rows, step):
        entries[r0:r0 + step] += sin_tau * replica.entries[r0:r0 + step]
    return DisorderMatrix(
        rows=base.rows, cols=base.cols, entries=entries, dist="gaussian",
        seed=base.seed, alpha=base.alpha, stream=base.stream,
    )


def resample_columns(
    mat: DisorderMatrix,
    delta: float,
    seed: int,
    stream: int = RESAMPLE_STREAM,
) -> DisorderMatrix:
    """Redraw the last floor(delta*n) columns, keeping the prefix bit-identical.

    The fresh block is sampled from (seed, stream) with the same per-row
    counters as an ordinary sample, so fresh entry (r, c) is pure in
    (seed, stream, r, c) and independent of the original matrix.
    """
    b = _resampled_columns(delta, mat.cols)
    if b < 1:
        raise SizingError(f"floor(delta*n) = {b}, nothing to resample")
    entries = mat.entries.copy()
    _rows(philox_key(seed, stream), entries[:, mat.cols - b:], mat.cols - b, mat.dist)
    return DisorderMatrix(
        rows=mat.rows, cols=mat.cols, entries=entries, dist=mat.dist,
        seed=mat.seed, alpha=mat.alpha, stream=mat.stream,
    )


def _check_angles(name: str, taus: tuple[float, ...]) -> None:
    """Reject an empty ``taus``, an angle outside [0, pi/2] or a step that does not increase."""
    if not taus:
        raise DomainError(f"{name} must be nonempty")
    for tau in taus:
        if not 0.0 <= tau <= math.pi / 2.0:
            raise DomainError(f"tau must lie in [0, pi/2], got {tau}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise DomainError(f"{name} must increase strictly, got {taus}")


def uniform_tau_grid(q: int) -> tuple[float, ...]:
    """Angles k*pi/(2q) for k = 0..q."""
    if q < 1:
        raise DomainError(f"need at least one step, got q={q}")
    return tuple(k * math.pi / (2.0 * q) for k in range(q + 1))


@dataclass(frozen=True)
class InterpolatedEnsemble:
    """A base matrix, independent replicas, and a shared angle grid.

    ``instance(i, k)`` is the base rotated toward replica ``i`` by the k-th
    grid angle; at angle 0 every instance coincides with the base.
    """

    base: DisorderMatrix
    replicas: tuple[DisorderMatrix, ...]
    tau_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        for rep in self.replicas:
            if rep.shape != self.base.shape:
                raise SizingError("replica shape differs from base")
            if rep.dist != self.base.dist:
                raise DomainError("replica distribution differs from base")
        _check_angles("angle grid", self.tau_grid)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def instance(self, i: int, k: int) -> DisorderMatrix:
        return interpolate(self.base, self.replicas[i], self.tau_grid[k])


def sample_ensemble(
    n: int,
    alpha: float,
    n_replicas: int,
    tau_grid: tuple[float, ...],
    seed: int,
    base_stream: int = 0,
) -> InterpolatedEnsemble:
    """Sample a base (stream ``base_stream``) and replicas (following streams)."""
    if n_replicas < 1:
        raise SizingError(f"need at least one replica, got {n_replicas}")
    base = sample_disorder(n, alpha, "gaussian", seed, stream=base_stream)
    replicas = tuple(
        sample_disorder(n, alpha, "gaussian", seed, stream=base_stream + 1 + i)
        for i in range(n_replicas)
    )
    return InterpolatedEnsemble(base=base, replicas=replicas, tau_grid=tuple(tau_grid))


def dump_matrix(mat: DisorderMatrix, path: str) -> None:
    """Write a matrix to ``path`` in a fixed little-endian binary layout.

    Header: magic ``PDM2``, then rows, cols, distribution tag (0 gaussian,
    1 rademacher) and stream as unsigned 64-bit, the seed as signed 64-bit
    and alpha as float64; then the entries row-major as little-endian float64.
    """
    philox_key(mat.seed, mat.stream)  # PDM2 holds exactly the keys the sampler accepts
    tag = _DISTS.index(mat.dist)
    header = _HEADERS[_MAGIC].pack(_MAGIC, mat.rows, mat.cols, tag, mat.seed, mat.stream, mat.alpha)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(mat.entries, dtype="<f8").tobytes())


def load_matrix(path: str) -> DisorderMatrix:
    """Read a matrix file; ``PDM1`` files load with stream 0 and alpha rows/cols."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _HEADERS.get(blob[:4])
    if header is None:
        raise DomainError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < header.size:
        raise DomainError(f"{path}: truncated header")
    _, rows, cols, tag, seed, *rest = header.unpack_from(blob)
    stream, alpha = rest if rest else (0, rows / cols)
    if not math.isfinite(alpha):
        raise DomainError(f"{path}: alpha must be finite, got {alpha}")
    if tag >= len(_DISTS):
        raise DomainError(f"{path}: unknown distribution tag {tag}")
    expected = header.size + 8 * rows * cols
    if len(blob) != expected:
        raise DomainError(f"{path}: expected {expected} bytes, found {len(blob)}")
    entries = np.frombuffer(blob, dtype="<f8", offset=header.size).astype(
        np.float64
    ).reshape(rows, cols)
    return DisorderMatrix(
        rows=rows, cols=cols, entries=entries, dist=_DISTS[tag],
        seed=seed, alpha=alpha, stream=stream,
    )
