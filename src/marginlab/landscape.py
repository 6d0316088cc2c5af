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
stored row-major (rows x low halves), then reduces over the rows.  Two-sided
scans visit half the cube, since negating a configuration negates its margins.

Overlap structure is handled in exact integer arithmetic throughout: the
overlap of two configurations is (n - 2*d)/n with d their Hamming distance,
so band membership tests never touch floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderMatrix, InterpolatedEnsemble, _check_angles
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
_SCAN_BLOCK = 1 << 16  # float64 elements of one cube-scan temporary (512 KiB)


@dataclass(frozen=True, order=True)
class SignVector:
    """A point of {-1, +1}^n packed into an integer mask.

    Bit (n-1-j) of ``bits`` holds coordinate j; a set bit encodes -1.  Masks
    compare in lexicographic configuration order (+1 before -1).
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


def _trusted_sign_vectors(n: int, masks: list[int]) -> list[SignVector]:
    """``[SignVector(n, m) for m in masks]`` without the range checks.

    For masks a cube scan produced, which lie in [0, 2^n) by construction;
    the frozen dataclass's __init__ and __post_init__ take about a third of
    an n = 20 enumeration.
    """
    new, put, out = object.__new__, object.__setattr__, []
    for m in masks:
        sv = new(SignVector)
        put(sv, "n", n)
        put(sv, "bits", m)
        out.append(sv)
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


def _worst_margins(mat: DisorderMatrix, symmetric: bool, n_cap: int):
    """Iterate (base mask, worst margins) over blocks of the scanned high halves.

    Worst is max |.| two-sided, min one-sided: a (block, 2^lo) array, flat index
    mask - base, of at most _SCAN_BLOCK elements or one high half.  The cap is
    checked on the call.  Two-sided blocks stop before coordinate 0 = -1, since
    half-table row 2^h - 1 - a is -row a and would repeat a complement.
    """
    if mat.cols > n_cap:
        raise CapExceededError(
            f"exhaustive scan over 2^{mat.cols} configurations exceeds the cap n <= {n_cap}"
        )
    w_hi, w_lo, hi, lo = _half_tables(mat.entries)
    w_hi = w_hi[: 1 << (hi - 1 if symmetric else hi)]
    w_lo_t = w_lo.T.copy()
    step = max(1, _SCAN_BLOCK // w_lo.size)

    def worst(a0: int) -> np.ndarray:
        block = w_hi[a0:a0 + step, :, None] + w_lo_t
        return np.abs(block, out=block).max(axis=1) if symmetric else block.min(axis=1)

    return ((a0 << lo, worst(a0)) for a0 in range(0, len(w_hi), step))


def _scan_masks(
    mat: DisorderMatrix, kappa: float, symmetric: bool, n_cap: int, first_only: bool = False
) -> list[int]:
    scan = _worst_margins(mat, symmetric, n_cap)
    thr = _threshold(mat, kappa, symmetric)
    found: list[int] = []
    for base, worst in scan:
        idx = np.flatnonzero(worst <= thr if symmetric else worst >= thr)
        if idx.size:
            if first_only:
                return [base + int(idx[0])]
            found.extend((base + idx).tolist())
    if symmetric:
        # complements of the coordinate-0 = +1 half, in ascending order
        full = (1 << mat.cols) - 1
        found += [full ^ m for m in reversed(found)]
    return found


def enumerate_solutions(
    mat: DisorderMatrix,
    kappa: float,
    symmetric: bool = True,
    n_cap: int = DEFAULT_ENUM_CAP,
) -> list[SignVector]:
    """All satisfying configurations in lexicographic order (+1 before -1).

    Exhaustive meet-in-the-middle scan; refuses n > n_cap.  For the two-sided
    window the result is closed under global negation, so it has even size
    whenever it is nonempty and no margin lands exactly on the boundary.
    """
    return _trusted_sign_vectors(mat.cols, _scan_masks(mat, kappa, symmetric, n_cap))


def discrepancy(mat: DisorderMatrix) -> tuple[float, SignVector]:
    """Exhaustive minimax margin min over sigma of max_i |row_i . sigma|.

    Refuses n > DEFAULT_ENUM_CAP.  Scans only configurations with coordinate
    0 equal to +1: negating sigma leaves the objective unchanged, so half the
    cube suffices.  Returns the optimum value and one optimizer (its
    coordinate 0 is +1).
    """
    best, best_mask = math.inf, 0
    for base, worst in _worst_margins(mat, True, DEFAULT_ENUM_CAP):
        b = int(np.argmin(worst))
        if worst.flat[b] < best:
            best = float(worst.flat[b])
            best_mask = base + b
    return best, SignVector(mat.cols, best_mask)


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


def _grid_index(ensemble: InterpolatedEnsemble, tau: float) -> int:
    for k, t in enumerate(ensemble.tau_grid):
        if abs(t - tau) <= 1e-12:
            return k
    raise DomainError(f"angle {tau} is not on the ensemble grid")


def enumerate_forbidden_tuples(
    query: TupleQuery, ensemble: InterpolatedEnsemble
) -> list[tuple[SignVector, ...]]:
    """All ordered m-tuples with every pairwise overlap inside the band.

    Component i of a tuple ranges over the pooled solution set of the
    instances interpolated toward replica i at the angles in ``tau_set``.
    Band membership is tested in exact integer arithmetic on Hamming
    distances.  Tuples are emitted in lexicographic order of their packed
    component masks.  Refuses n > 14 (n > 12 for m > 3).
    """
    n = ensemble.base.cols
    cap = 14 if query.m <= 3 else 12
    if n > cap:
        raise CapExceededError(f"tuple enumeration needs n <= {cap}, got n={n}")
    if ensemble.n_replicas < query.m:
        raise SizingError(
            f"need {query.m} replicas for {query.m}-tuples, ensemble has {ensemble.n_replicas}"
        )
    d_lo, d_hi = overlap_band(n, query.beta, query.eta)
    grid_ids = [_grid_index(ensemble, tau) for tau in query.tau_set]
    pools: list[np.ndarray] = []
    for i in range(query.m):
        masks: set[int] = set()
        for k in grid_ids:
            masks.update(
                _scan_masks(ensemble.instance(i, k), query.kappa, True, cap)
            )
        pools.append(np.array(sorted(masks), dtype=np.uint64))

    out: list[tuple[SignVector, ...]] = []
    prefix: list[int] = []

    def extend(level: int) -> None:
        if level == query.m:
            out.append(tuple(SignVector(n, int(b)) for b in prefix))
            return
        cand = pools[level]
        for b in prefix:
            if cand.size == 0:
                break
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

