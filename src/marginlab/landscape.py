"""Exhaustive operations on the sign-vector solution landscape.

A configuration is a vector in {-1, +1}^n, packed into a Python integer so
that coordinate 0 occupies the most significant of n bits and a set bit means
-1.  With that convention the ascending integer order of masks is the
lexicographic order of configurations with +1 sorted before -1, and global
negation is a single XOR.

Solutions are configurations whose constraint margins stay inside the margin
window: two-sided (all |row . sigma| <= kappa*sqrt(n)) or one-sided
(all row . sigma >= kappa*sqrt(n)).  Enumeration is exhaustive and meet-in-
the-middle: margins are precomputed for each half of the coordinates, and
each Python step sums a block of high halves against the whole low table,
stored row-major (rows x low halves), then reduces over the rows.  That pass
runs in float32 on both half tables scaled by one power of two; every mask
and value a scan reports is decided in float64, by the same half-table sums
as a float64 pass.  Two-sided scans visit half the cube, since negating a
configuration negates its margins.  A scan returns its masks as one ascending
uint64 array; ``enumerate_solutions`` wraps them in ``SignVector``s, which
are slotted (no ``__dict__``).  Every entry is finite and bounded from the
matrix's construction on (``DisorderMatrix``), so no half-table sum
overflows.  After the first block, blocks go to up to one thread per core
(numpy releases the GIL in its loops) and their results combine in block
order, so no output depends on the thread count.  ``discrepancy`` bounds a
block by its max over a few rows against the best value so far, keeps ties
with it, and takes the exact max of the rest.

Overlap structure is handled in exact integer arithmetic throughout: the
overlap of two configurations is (n - 2*d)/n with d their Hamming distance,
so band membership tests never touch floating point.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import disorder
from .disorder import DisorderMatrix, _check_angles, sample_rotation
from .errors import CapExceededError, DomainError, SizingError, check_float_range

__all__ = [
    "SignVector",
    "TupleQuery",
    "count_overlap_tuples_bruteforce",
    "count_overlap_tuples_exact",
    "discrepancy",
    "enumerate_forbidden_tuples",
    "enumerate_solutions",
    "hamming",
    "is_solution",
    "overlap",
    "overlap_band",
]

DEFAULT_ENUM_CAP = 25
_SCAN_BYTES = 1 << 19  # bytes of one cube-scan or census temporary (512 KiB)
_SCAN_BLOCK = _SCAN_BYTES // 4  # float32 elements of one cube-scan block
_SLACK = np.float64(2.0**-22)  # bound on |float32 block value - scaled float64 margin|
_HEAD_ROWS = 3  # rows of the first, bounding stage of a discrepancy block


@dataclass(frozen=True, order=True, slots=True)
class SignVector:
    """A point of {-1, +1}^n packed into an integer mask.

    Bit (n-1-j) of ``bits`` holds coordinate j; a set bit encodes -1.  Masks
    compare in lexicographic configuration order (+1 before -1).  The class
    is slotted: an instance has no ``__dict__``, so ``vars()`` fails on it.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"need at least one coordinate, got n={self.n}")
        if not (0 <= self.bits < (1 << self.n)):
            raise DomainError(f"mask {self.bits} out of range for n={self.n}")

    @classmethod
    def from_signs(cls, signs) -> "SignVector":
        arr = np.asarray(signs)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("signs must be a nonempty 1-d sequence")
        if not np.all(np.abs(arr) == 1):
            raise DomainError("signs must be +1 or -1")
        n = int(arr.size)
        pad = (-n) % 8
        flags = np.concatenate(
            [np.zeros(pad, dtype=np.uint8), (arr < 0).astype(np.uint8)]
        )
        bits = int.from_bytes(np.packbits(flags).tobytes(), "big")
        return cls(n=n, bits=bits)

    def signs(self) -> np.ndarray:
        """Coordinates as an int8 array of +-1."""
        nbytes = (self.n + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "big"), dtype=np.uint8)
        flags = np.unpackbits(raw)[8 * nbytes - self.n:]
        return (1 - 2 * flags.astype(np.int8)).astype(np.int8)

    def flip_all(self) -> "SignVector":
        return SignVector(self.n, self.bits ^ ((1 << self.n) - 1))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not (0 <= j < self.n):
            raise IndexError(j)
        return -1 if (self.bits >> (self.n - 1 - j)) & 1 else 1


def _trusted_sign_vectors(n: int, masks: np.ndarray) -> list[SignVector]:
    """``[SignVector(n, int(m)) for m in masks]`` without the range checks.

    For masks a cube scan produced, which lie in [0, 2^n) by construction.
    The slots are filled through their descriptors in C-level ``map`` loops,
    which skips the frozen dataclass's __init__ and __post_init__.
    """
    out = list(map(object.__new__, repeat(SignVector, len(masks))))
    deque(map(SignVector.n.__set__, out, repeat(n)), 0)
    deque(map(SignVector.bits.__set__, out, masks.tolist()), 0)
    return out


def hamming(a: SignVector, b: SignVector) -> int:
    """Number of coordinates where the two configurations differ (exact)."""
    if a.n != b.n:
        raise SizingError(f"dimension mismatch {a.n} vs {b.n}")
    return (a.bits ^ b.bits).bit_count()


def overlap(a: SignVector, b: SignVector) -> float:
    """Normalized inner product <a, b>/n = 1 - 2*d_H/n."""
    return 1.0 - 2.0 * hamming(a, b) / a.n


def _masks_to_signs(masks: np.ndarray, n: int) -> np.ndarray:
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    bits = (masks[:, None].astype(np.uint64) >> shifts[None, :]) & np.uint64(1)
    return 1.0 - 2.0 * bits.astype(np.float64)


def _threshold(mat: DisorderMatrix, kappa: float, symmetric: bool) -> float:
    # kappa*sqrt(n); every comparison with NaN fails, so NaN would accept nothing
    if symmetric and not 0.0 <= kappa < math.inf:
        raise DomainError(f"two-sided margin needs kappa >= 0, got {kappa}")
    if math.isnan(kappa):
        raise DomainError(f"one-sided margin needs a number kappa, got {kappa}")
    return kappa * math.sqrt(mat.cols)


def is_solution(
    mat: DisorderMatrix, sigma: SignVector, kappa: float, symmetric: bool = True
) -> bool:
    """Whether sigma satisfies every margin constraint of ``mat``.

    Two-sided: all |row . sigma| <= kappa*sqrt(n).  One-sided: all
    row . sigma >= kappa*sqrt(n), which is the relaxed window used by
    sequential solvers (kappa = 0 asks every margin to be nonnegative).
    The margins are the BLAS product ``entries @ signs``, which rounds
    differently from the cube scans' ``w_hi[a] + w_lo[b]``: when
    kappa*sqrt(n) lies within rounding of sigma's worst margin, the answer
    may differ from whether ``enumerate_solutions`` lists sigma.
    """
    if sigma.n != mat.cols:
        raise SizingError(f"sign vector has {sigma.n} coordinates, matrix {mat.cols}")
    thr = _threshold(mat, kappa, symmetric)
    y = mat.entries @ sigma.signs().astype(np.float64)
    if symmetric:
        return bool(np.max(np.abs(y)) <= thr)
    return bool(np.min(y) >= thr)


def _half_tables(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    # Meet in the middle: precompute margins contributed by the leading
    # (high bits) and trailing (low bits) coordinates for all half-masks.
    n = entries.shape[1]
    lo = n // 2
    hi = n - lo
    hi_masks = np.arange(1 << hi, dtype=np.uint64)
    lo_masks = np.arange(1 << lo, dtype=np.uint64)
    w_hi = _masks_to_signs(hi_masks, hi) @ entries[:, :hi].T
    w_lo = _masks_to_signs(lo_masks, lo) @ entries[:, hi:].T
    return w_hi, w_lo, hi, lo


def _worst_margins(mat: DisorderMatrix, symmetric: bool):
    """Return ``(run, shift)``: ``run`` scans the cube block by block; checks on the call.

    The cap n <= DEFAULT_ENUM_CAP is checked here; ``DisorderMatrix`` bounds
    the entries, so every margin is finite.  The scanned high halves are cut
    into blocks.  Two-sided scans stop before coordinate 0 = -1, since
    half-table row 2^h - 1 - a is -row a and would repeat a complement.

    ``run(consume, head=None, first_only=False)`` returns
    ``consume(base, worst, exact)`` of every block, in block order.  ``worst``
    is max |.| two-sided, min one-sided, over the first ``head`` rows (all
    when None): a (block, 2^lo) float32 array, flat index mask - base, of
    margins times 2^-shift.  A block is one high half, or as many as keep
    its (block, head, 2^lo) temporary within _SCAN_BLOCK elements.
    ``exact(idx)`` is the worst over all rows at flat indices ``idx``, in
    float64 and unscaled: the same sums w_hi + w_lo as a float64 pass.

    The power of two 2^-shift puts every half-table entry below 1 in
    magnitude, so its float32 copy is within 2^-25 of it and a float32 sum of
    two is within 2^-24 of the float32 terms' sum; the float64 sum is within
    2^-52 of the exact one.  A block value is thus within 2^-25 + 2^-25 +
    2^-24 + 2^-52 < _SLACK of the scaled float64 worst, and a consumer calls
    ``exact`` only for values within _SLACK of a bound (compared as float64).
    Block 0 is scanned over all rows on the calling thread; the rest go to
    up to ``disorder._CORES`` threads, so no result depends on the thread
    count.  With ``first_only`` no block past the lowest one whose result is
    not None is taken, and blocks not taken give None.
    """
    if mat.cols > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"exhaustive scan over 2^{mat.cols} configurations exceeds "
                               f"the cap n <= {DEFAULT_ENUM_CAP}")
    w_hi, w_lo, hi, lo = _half_tables(mat.entries)
    w_hi = w_hi[: 1 << (hi - 1 if symmetric else hi)]
    shift = math.frexp(max(np.abs(w_hi).max(), np.abs(w_lo).max()))[1]
    hi32 = np.ldexp(w_hi, -shift).astype(np.float32)
    lo32 = np.ascontiguousarray(np.ldexp(w_lo.T, -shift), np.float32)  # rows x low halves

    def run(consume, head: int | None = None, first_only: bool = False) -> list:
        rows = mat.rows
        head = min(head or rows, rows)
        step = max(1, _SCAN_BLOCK // (len(w_lo) * head))
        starts = range(0, len(w_hi), step)
        out: list = [None] * len(starts)
        last, lock = [len(starts) - 1], threading.Lock()  # first_only lowers the last block

        def scan(k: int, r: int) -> None:
            a0 = starts[k]
            block = hi32[a0:a0 + step, :r, None] + lo32[:r]
            worst = np.abs(block, out=block).max(axis=1) if symmetric else block.min(axis=1)

            def exact(idx: np.ndarray) -> np.ndarray:
                w = w_hi[a0 + (idx >> lo)] + w_lo[idx & ((1 << lo) - 1)]
                return np.abs(w, out=w).max(axis=1) if symmetric else w.min(axis=1)

            out[k] = consume(a0 << lo, worst, exact)
            if first_only and out[k] is not None:
                with lock:
                    last[0] = min(last[0], k)

        scan(0, rows)
        blocks = iter(range(1, len(starts)))

        def work() -> None:
            for k in blocks:
                if k > last[0]:
                    return
                scan(k, head)

        disorder._parallel(work, last[0], len(w_hi) * w_lo.size)
        return out

    return run, shift


def _scan_masks(
    mat: DisorderMatrix, kappa: float, symmetric: bool, first_only: bool = False
) -> np.ndarray:
    """Satisfying masks as one ascending uint64 array (only the first with ``first_only``)."""
    run, shift = _worst_margins(mat, symmetric)
    thr = _threshold(mat, kappa, symmetric)
    with np.errstate(over="ignore"):  # a threshold past the float64 range accepts all or none
        cut = np.ldexp(thr, -shift)

    def inside(worst: np.ndarray, bound) -> np.ndarray:
        return worst <= bound if symmetric else worst >= bound

    sure, near = (cut - _SLACK, cut + _SLACK) if symmetric else (cut + _SLACK, cut - _SLACK)

    def hits(base: int, worst: np.ndarray, exact) -> np.ndarray | None:
        # a block value more than _SLACK from the scaled threshold decides its
        # mask; the masks within _SLACK of it are decided by their exact worst
        idx = np.flatnonzero(inside(worst, near))
        keep = inside(worst.ravel()[idx], sure)
        if not keep.all():
            band = ~keep
            keep[band] = inside(exact(idx[band]), thr)
            idx = idx[keep]
        return idx.astype(np.uint64) + np.uint64(base) if idx.size else None

    blocks = [found for found in run(hits, first_only=first_only) if found is not None]
    if first_only:
        return blocks[0][:1] if blocks else np.empty(0, np.uint64)
    found = np.concatenate([np.empty(0, np.uint64), *blocks])
    if symmetric:
        # complements of the coordinate-0 = +1 half, in ascending order
        found = np.concatenate([found, np.uint64((1 << mat.cols) - 1) ^ found[::-1]])
    return found


def enumerate_solutions(
    mat: DisorderMatrix,
    kappa: float,
    symmetric: bool = True,
) -> list[SignVector]:
    """All satisfying configurations in lexicographic order (+1 before -1).

    Exhaustive meet-in-the-middle scan; refuses n > DEFAULT_ENUM_CAP.  For
    the two-sided window the result is closed under global negation, so it
    has even size whenever it is nonempty and no margin lands exactly on the
    boundary.  Each margin is the float64 half-table sum ``w_hi[a] + w_lo[b]``,
    not ``is_solution``'s BLAS product, so a configuration whose worst margin
    lies within rounding of kappa*sqrt(n) may be listed where ``is_solution``
    refuses it, or the reverse.
    """
    return _trusted_sign_vectors(mat.cols, _scan_masks(mat, kappa, symmetric))


def discrepancy(mat: DisorderMatrix) -> tuple[float, SignVector]:
    """Exhaustive minimax margin min over sigma of max_i |row_i . sigma|.

    Refuses n > DEFAULT_ENUM_CAP.  The value is finite, since the matrix's
    entries are bounded (``DisorderMatrix``).  Scans only
    configurations with coordinate 0 equal to +1: negating sigma leaves the
    objective unchanged, so half the cube suffices.  Returns the optimum value
    and the smallest mask that attains it (its coordinate 0 is +1).

    Block 0 is scanned in full and seeds the best value so far; the other
    blocks run on up to one thread per core in two stages.  The first takes
    max |.| over _HEAD_ROWS rows and keeps the masks where it is within
    _SLACK of the scaled best or below; only those get their exact max over
    all rows.  A dropped mask's full max is at least its head max, which
    exceeds a value some mask attains, so it cannot be the optimum.  In block
    0 the least scanned value plus _SLACK also bounds the optimum.  The best
    may come from a later block on another thread, so a tie with it is kept.
    Block minima combine by strict < in block order.
    """
    run, shift = _worst_margins(mat, True)
    best, lock = [math.inf], threading.Lock()  # the least block minimum so far, from any thread

    def block_min(base: int, worst: np.ndarray, exact) -> tuple[float, int]:
        bound = np.ldexp(best[0], -shift)
        if not base:  # block 0, whose worst is over every row
            bound = min(bound, worst.min() + _SLACK)
        idx = np.flatnonzero(worst <= bound + _SLACK)
        if not idx.size:
            return math.inf, 0
        vals = exact(idx)
        j = int(np.argmin(vals))
        value = float(vals[j])
        with lock:
            best[0] = min(best[0], value)
        return value, base + int(idx[j])

    value, mask = math.inf, 0
    for v, m in run(block_min, head=_HEAD_ROWS):
        if v < value:
            value, mask = v, m
    return value, SignVector(mat.cols, mask)


def overlap_band(n: int, beta: float, eta: float) -> tuple[int, int]:
    """Hamming-distance window [d_lo, d_hi] equivalent to overlaps in [beta-eta, beta].

    Requires beta*n and eta*n to be integers (to within 1e-9 absolute), so the
    band test is exact in integer arithmetic: overlap (n-2d)/n lies in
    [beta-eta, beta] iff d lies in the returned window.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    check_float_range("n", n)
    if not (0.0 < eta < beta <= 1.0):
        raise DomainError(f"need 0 < eta < beta <= 1, got beta={beta}, eta={eta}")
    bn = beta * n
    en = eta * n
    if abs(bn - round(bn)) > 1e-9 or abs(en - round(en)) > 1e-9:
        raise DomainError(
            f"beta*n={bn} and eta*n={en} must be integers for exact band counting"
        )
    bn_i = round(bn)
    en_i = round(en)
    # n - 2d in [bn_i - en_i, bn_i]  <=>  d in [(n-bn_i)/2, (n-bn_i+en_i)/2]
    d_lo = (n - bn_i + 1) // 2
    d_hi = (n - bn_i + en_i) // 2
    return d_lo, d_hi


@dataclass(frozen=True)
class TupleQuery:
    """Parameters of a forbidden-structure search.

    Looks for m-tuples of configurations, drawn from feasible sets of
    correlated instances, whose pairwise overlaps all lie in [beta-eta, beta].
    ``tau_set`` lists the interpolation angles whose solution sets are pooled
    into each feasible set.
    """

    m: int
    beta: float
    eta: float
    kappa: float
    tau_set: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"tuples need m >= 2, got {self.m}")
        if not (0.0 < self.eta < self.beta <= 1.0):
            raise DomainError(
                f"need 0 < eta < beta <= 1, got beta={self.beta}, eta={self.eta}"
            )
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        _check_angles("tau_set", self.tau_set)


def enumerate_forbidden_tuples(
    query: TupleQuery, base: DisorderMatrix
) -> list[tuple[SignVector, ...]]:
    """All ordered m-tuples with every pairwise overlap inside the band.

    ``base`` is the stream-0 matrix.  Component i of a tuple ranges over the
    pooled solution set of ``base`` rotated, at each angle in ``tau_set``,
    toward replica i, drawn from (base.seed, 1 + i).  Band membership is
    tested in exact integer arithmetic on Hamming distances.  Tuples are
    emitted in lexicographic order of their packed component masks.  Refuses
    a base off stream 0, whose replica would be the base itself for some i,
    and n > 14 (n > 12 for m > 3).
    """
    if base.stream != 0:
        raise DomainError(f"the base must be drawn on stream 0, got stream {base.stream}")
    n = base.cols
    cap = 14 if query.m <= 3 else 12
    if n > cap:
        raise CapExceededError(f"tuple enumeration needs n <= {cap}, got n={n}")
    d_lo, d_hi = overlap_band(n, query.beta, query.eta)
    pools = [np.unique(np.concatenate([
        _scan_masks(sample_rotation(base, tau, base.seed, 1 + i), query.kappa, True)
        for tau in query.tau_set])) for i in range(query.m)]

    out: list[tuple[SignVector, ...]] = []
    prefix: list[int] = []

    def extend(level: int) -> None:
        if level == query.m:
            out.append(tuple(SignVector(n, int(b)) for b in prefix))
            return
        cand = pools[level]
        for b in prefix:
            d = np.bitwise_count(cand ^ np.uint64(b))
            cand = cand[(d >= d_lo) & (d <= d_hi)]
        for b in cand:
            prefix.append(int(b))
            extend(level + 1)
            prefix.pop()

    extend(0)
    return out


def count_overlap_tuples_exact(n: int, m: int, beta: float, eta: float) -> int:
    """Exact number of ordered m-tuples of cube points with all overlaps in band.

    Closed-form binomial counting, exact in integer arithmetic.  For m = 2 the
    first point is free and the second sits at one of the allowed distances:

        2^n * sum_d C(n, d).

    For m = 3 the third point is split over the d12 flipped and n - d12
    agreeing coordinates of the first two (t1 and t2 of them flipped), with
    both induced distances t1 + t2 and d12 - t1 + t2 constrained to the band.
    C(d12, t1) and the prefix sums of C(n - d12, t2), stopped at t2 = d_hi, step
    by C(r, s + 1) = C(r, s) * (r - s) / (s + 1) in exact integer division, so
    the cost is O(band width * n) big-integer steps, not 2^n.
    """
    if m not in (2, 3):
        raise DomainError(f"exact counting supports m in {{2, 3}}, got {m}")
    d_lo, d_hi = overlap_band(n, beta, eta)
    if m == 2:
        pairs = sum(math.comb(n, d) for d in range(d_lo, d_hi + 1))
        return (1 << n) * pairs
    total = 0
    for d12 in range(d_lo, d_hi + 1):
        rest = n - d12
        # prefix[t] = sum_{s < t} C(rest, s), so window sums are two lookups
        prefix, c = [0], 1
        for s in range(min(rest, d_hi) + 1):
            prefix.append(prefix[-1] + c)
            c = c * (rest - s) // (s + 1)
        third, c = 0, 1  # c = C(d12, t1)
        for t1 in range(d12 + 1):
            t2_lo = max(0, d_lo - t1, d_lo - d12 + t1)
            t2_hi = min(rest, d_hi - t1, d_hi - d12 + t1)
            if t2_lo <= t2_hi:
                third += c * (prefix[t2_hi + 1] - prefix[t2_lo])
            c = c * (d12 - t1) // (t1 + 1)
        total += math.comb(n, d12) * third
    return (1 << n) * total


def count_overlap_tuples_bruteforce(n: int, m: int, beta: float, eta: float) -> int:
    """Exhaustive tuple count over the full cube, for validating the exact count.

    Enumerates all 2^n points, builds the complete pairwise in-band relation,
    and counts ordered tuples directly (no binomial identities, no use of the
    negation symmetry), so it shares no machinery with
    :func:`count_overlap_tuples_exact`.  Practical up to n = 12.
    """
    if m not in (2, 3):
        raise DomainError(f"brute force supports m in {{2, 3}}, got {m}")
    if n > 12:
        raise CapExceededError(f"brute force is capped at n <= 12, got n={n}")
    d_lo, d_hi = overlap_band(n, beta, eta)
    size = 1 << n
    masks = np.arange(size, dtype=np.uint64)
    total = 0
    if m == 2:
        for i in range(size):
            d = np.bitwise_count(masks ^ masks[i])
            total += int(np.count_nonzero((d >= d_lo) & (d <= d_hi)))
        return total
    # Pack each point's in-band row as a bitset, then ordered triples are
    # popcounts of row intersections over in-band pairs.
    words = (size + 63) // 64
    rows = np.zeros((size, words), dtype=np.uint64)
    band_lists: list[np.ndarray] = []
    word_idx = masks >> np.uint64(6)
    bit_idx = masks & np.uint64(63)
    for i in range(size):
        d = np.bitwise_count(masks ^ masks[i])
        sel = (d >= d_lo) & (d <= d_hi)
        band_lists.append(np.nonzero(sel)[0])
        np.bitwise_or.at(rows[i], word_idx[sel], np.uint64(1) << bit_idx[sel])
    for i in range(size):
        js = band_lists[i]
        if js.size:
            inter = rows[js] & rows[i]
            total += int(np.bitwise_count(inter).sum())
    return total

