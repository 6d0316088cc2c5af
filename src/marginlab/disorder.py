"""Counter-based sampling of random constraint matrices.

A disorder instance is an M x n matrix with i.i.d. entries, M = floor(alpha*n),
either standard gaussian or uniform sign ("rademacher") entries, drawn from
the counter-based generator Philox:

    key           (seed mod 2^64, stream),  seed in [-2^63, 2^63), stream in [0, 2^64)
    entry (r, c)  output c % 4 of Philox set to counter (c // 4, 0, r, 0)

numpy increments the counter before each block, so the block holding entry
(r, c) encrypts (c // 4 + 1, 0, r, 0); each sampling thread owns one
generator and resets its state to that counter before each run of a row
that it draws.
Entry (r, c) is thus pure in (seed, stream, r, c): matrices of different
shapes agree on their common entries, and a column window draws only its
own blocks.  That purity makes coupled resampling and replica constructions
reproducible without state.

One row-chunk engine, ``_rows``, draws every entry.  It hands each chunk,
drawn and transformed on one thread, to a consumer while the chunk is in
cache: the sampler keeps the rows, ``sample_rotation`` rotates the base
toward them in place, and ``experiments.universality_gap`` reduces them to
counts.  A chunk is a pure function of (key, counter), so no consumer's
result depends on the thread count.

    stream 0              plain samples (``sample_disorder``, ``marginlab solve``)
                          and the base of ``experiments.overlap_trajectory`` and
                          ``landscape.enumerate_forbidden_tuples``
    1 + i                 replica i of those two
    2t, 2t + 1            base and replica of coupled experiment trial t
                          (``experiments._coupled_solutions``)
    n                     universality at size n; trial t is row 0, columns [t*n, (t+1)*n)
    RESAMPLE_STREAM + t   fresh columns of trial t (RESAMPLE_STREAM = 2^62)
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DomainError, SizingError, check_float_range, check_matrix_size

__all__ = [
    "DisorderMatrix",
    "RESAMPLE_STREAM",
    "dump_matrix",
    "interpolate",
    "load_matrix",
    "resample_columns",
    "sample_disorder",
    "sample_rotation",
    "uniform_tau_grid",
]

_DISTS = ("gaussian", "rademacher")
_MASK64 = (1 << 64) - 1
_DRAW_BLOCK = 1 << 15  # entries of one sampler, rotation or solver staging chunk (256 KiB)
_BAND = 1 << 18  # entries per sampling or scan thread; below 2 * _BAND, one thread
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_MAX_ENTRY = 2.0**512  # largest |entry|; see DisorderMatrix

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

    ``entries`` is a 2-D float64 array (integer sums wrap, and narrower floats
    overflow below the entry bound) and the one record of the shape: ``rows``,
    ``cols`` and ``shape`` are read from it.  ``rows == floor(alpha * cols)``
    is enforced for the alpha recorded at construction.  Every entry lies in
    [-2^512, 2^512]; NaN and both infinities are refused.  With at most 2^27
    entries (the ``errors`` size limit on sampled matrices), any sum of
    entries, or of their products with signs, cos tau or sin tau, stays below
    2^540 (the float limit 2^1024 would take 2^511 entries), so no consumer's
    margin, vote or scan table overflows and none checks its sums.
    ``entries`` is read-only; derived matrices (interpolation, resampling) are
    new objects built through the same check.  Loaded entries view the file's
    bytes and cannot be made writable; a caller who sets ``writeable`` back to
    True on sampled or derived entries can still write a NaN no check sees.
    """

    entries: np.ndarray = field(repr=False)
    dist: str
    seed: int
    alpha: float
    stream: int = 0

    def __post_init__(self) -> None:
        if self.dist not in _DISTS:
            raise DomainError(f"unknown distribution {self.dist!r}")
        if not (type(self.entries) is np.ndarray and self.entries.dtype == np.float64
                and self.entries.ndim == 2):
            raise DomainError(f"entries must be a 2-D float64 array, got {np.ndim(self.entries)}-D "
                              f"{np.asarray(self.entries).dtype} {type(self.entries).__name__}")
        if self.rows < 1 or self.cols < 1:
            raise SizingError(f"degenerate shape {self.rows}x{self.cols}")
        if self.rows != _floor_count(self.alpha, self.cols):
            raise SizingError(
                f"rows={self.rows} inconsistent with floor(alpha*cols)="
                f"{_floor_count(self.alpha, self.cols)}"
            )
        # NaN fails both comparisons; neither reduction builds a temporary
        if not (self.entries.max() <= _MAX_ENTRY and self.entries.min() >= -_MAX_ENTRY):
            raise DomainError("entries must be finite and at most 2^512 in magnitude")
        self.entries.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


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
        # (k + 1/2) * 2^-53 > 0, but k = 2^53 - 1 rounds to 1.0: clamp its +inf to -ndtri(2^-54).
        ndtri(np.add(out, 2.0**-54, out=out), out=out)
        np.minimum(out, -ndtri(2.0**-54), out=out)
    else:
        out[:] = np.where(out < 0.5, 1.0, -1.0)  # the sign of the word's top bit


def _rows(key: np.ndarray, shape: tuple[int, int], c0: int, dist: str,
          consume: Callable[[int, np.ndarray], None] | None = None,
          out: np.ndarray | None = None) -> None:
    """Draw an M x w block chunk by chunk and hand each chunk to ``consume(r0, block)``.

    With ``out``, row r is row r of the stream from column c0 on, drawn into
    ``out[r]``; no block left of c0 is drawn.  Without it, row r is columns
    [c0 + r*w, c0 + (r+1)*w) of row 0, and each thread draws into a chunk
    buffer of its own.  A chunk is step rows of at most _DRAW_BLOCK entries
    (one row if a row is longer), transformed and consumed while it is still
    in cache.

    Each thread owns one generator and resets it to a fresh state at
    counter (c // 4, 0, r, 0) before each run of words that starts at
    column c of row r: each row with ``out``, each chunk without.
    ``random`` draws with the GIL released, so on two or more cores a draw
    of at least 2 * _BAND entries runs on up to one thread per core and per
    chunk; every chunk, and so each consumer's result, does not depend on
    the thread count.
    """
    rows, width = shape
    step = max(1, _DRAW_BLOCK // width)
    chunks = iter(range(0, rows, step))

    def work() -> None:
        bg = Philox(key=key)
        gen, fresh = Generator(bg), bg.state  # fresh: an empty buffer (buffer_pos 4)
        counter = fresh["state"]["counter"]
        buf = np.empty((min(step, rows), width)) if out is None else None
        for r0 in chunks:
            block = buf[:rows - r0] if out is None else out[r0:r0 + step]
            runs = ([(0, c0 + r0 * width, block.reshape(-1))] if out is None
                    else [(r, c0, row) for r, row in enumerate(block, r0)])
            for r, c, run in runs:
                counter[0], counter[2] = c // 4, r
                bg.state = fresh
                if c % 4:
                    bg.random_raw(c % 4, output=False)
                gen.random(out=run)
            _transform(block, dist)
            if consume is not None:
                consume(r0, block)

    _parallel(work, -(-rows // step), rows * width)


def _parallel(work: Callable[[], None], jobs: int, size: int) -> None:
    """Run ``work`` on the calling thread and on min(_CORES, jobs, size // _BAND) - 1 helpers.

    ``work`` takes its jobs from an iterator shared by all the threads:
    next() on a range iterator is one C call under the GIL, so no job is
    taken twice.  Below two threads no pool is built.  Helpers are joined
    before return, and the first helper error is re-raised.
    """
    threads = min(_CORES, jobs, size // _BAND)
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
    if dist not in _DISTS:
        raise DomainError(f"unknown distribution {dist!r}")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    m = _floor_count(alpha, n)
    if m < 1:
        raise SizingError(f"floor(alpha*n) = {m}, no rows to sample")
    check_matrix_size(m, n)
    entries = np.empty((m, n), dtype=np.float64)
    _rows(philox_key(seed, stream), entries.shape, 0, dist, out=entries)
    return DisorderMatrix(entries=entries, dist=dist, seed=seed, alpha=alpha, stream=stream)


def _check_rotation(tau: float, *mats: DisorderMatrix) -> None:
    if any(mat.dist != "gaussian" for mat in mats):
        raise DomainError("interpolation is only variance-preserving for gaussian disorder")
    _check_angles("tau", (tau,))


def _rotate(out: np.ndarray, base: np.ndarray, replica: np.ndarray, tau: float) -> None:
    """out <- cos(tau)*base + sin(tau)*replica for one chunk; ``replica`` may be ``out``.

    The two products and their sum are each rounded once, as in the whole
    matrix formula (addition commutes), and the only temporary is one chunk.
    """
    np.multiply(replica, math.sin(tau), out=out)
    out += math.cos(tau) * base


def interpolate(base: DisorderMatrix, replica: DisorderMatrix, tau: float) -> DisorderMatrix:
    """Rotate ``base`` toward an independent ``replica`` by angle ``tau``.

    Returns the matrix cos(tau)*base + sin(tau)*replica.  For independent
    gaussian inputs each entry stays exactly standard gaussian and the
    correlation with the base entry is cos(tau).  Sign matrices are rejected:
    a convex combination of signs is not a sign, so the ensemble would leave
    the rademacher family (couple sign disorder by resampling instead).
    """
    _check_rotation(tau, base, replica)
    if base.shape != replica.shape:
        raise SizingError(f"shape mismatch {base.shape} vs {replica.shape}")
    entries, step = np.empty(base.shape), max(1, _DRAW_BLOCK // base.cols)
    for r0 in range(0, base.rows, step):
        rows = slice(r0, r0 + step)
        _rotate(entries[rows], base.entries[rows], replica.entries[rows], tau)
    return replace(base, entries=entries)


def sample_rotation(base: DisorderMatrix, tau: float, seed: int, stream: int) -> DisorderMatrix:
    """Rotate ``base`` by ``tau`` toward a replica drawn from (seed, stream), never stored.

    The result is ``interpolate(base, replica, tau)`` bit for bit, for the
    replica ``sample_disorder`` draws from (seed, stream) at the base's size.
    Each chunk of the replica is drawn straight into the rotated matrix and
    rotated there on its sampling thread.
    """
    _check_rotation(tau, base)

    def rotate(r0: int, block: np.ndarray) -> None:
        _rotate(block, base.entries[r0:r0 + len(block)], block, tau)

    entries = np.empty(base.shape)
    _rows(philox_key(seed, stream), base.shape, 0, "gaussian", rotate, out=entries)
    return replace(base, entries=entries)


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
    window = entries[:, mat.cols - b:]
    _rows(philox_key(seed, stream), window.shape, mat.cols - b, mat.dist, out=window)
    return replace(mat, entries=entries)


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
        fh.write(np.ascontiguousarray(mat.entries, dtype="<f8"))  # its buffer, no bytes copy


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
        np.float64, copy=False).reshape(rows, cols)
    return DisorderMatrix(entries=entries, dist=_DISTS[tag], seed=seed, alpha=alpha, stream=stream)
