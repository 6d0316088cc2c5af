"""Solvers that build sign vectors for margin-constrained instances.

Two families live here.  The multi-stage majority solver assigns coordinates
in blocks: a large round-0 block votes with every constraint row, then each
later round votes only with the rows whose running margins are smallest, so
the most endangered constraints steer the remaining coordinates.  Block sizes
follow a geometric schedule of fractions f_0 = 1, f_1 = 1/200,
f_j = 10^(-2^j), and both block and vote sizes are derived with exact
rational arithmetic so the blocks always partition the n coordinates.

The online family commits to one coordinate per column, seeing only the
columns consumed so far; the two built-in step rules either minimize the
worst running margin or a smooth exponential proxy for it.  Columns are
staged a block at a time as contiguous rows of one reused buffer (with their
sinh table for the proxy), and each step writes into reused buffers, so no
matrix-sized temporary is built.
Exhaustive search over the cube backs everything up at small n.

Solvers return only what they decide with; trace numbers that follow from
the matrix and the answer (``running_max_abs_margin``) are recomputed by
whoever reports them.  ``DisorderMatrix`` bounds every entry when it is
built, so no margin, vote or running sum here overflows or is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .disorder import _DRAW_BLOCK, DisorderMatrix
from .errors import DomainError, SizingError, check_float_range
from .landscape import SignVector, _scan_masks

__all__ = [
    "KimRocheSchedule",
    "RoundRecord",
    "exhaustive_solve",
    "kim_roche_schedule",
    "kim_roche_solve",
    "majority_solve",
    "online_solve",
    "running_max_abs_margin",
]

ONLINE_STRATEGIES = ("greedy_minimax", "exp_potential")


@dataclass(frozen=True)
class KimRocheSchedule:
    """Block and vote sizes for the multi-stage majority solver.

    ``f`` holds the block fractions for rounds 0..rounds, ``n_blocks`` the
    integer block sizes (they sum to exactly n), and ``k`` the vote sizes for
    rounds 1..rounds (round 0 votes with every row).  All vote sizes are odd
    so majorities never tie on sign disorder.
    """

    n: int
    rounds: int
    f: tuple[float, ...]
    k: tuple[int, ...]
    n_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SizingError(f"need n >= 1, got {self.n}")
        if self.rounds < 0:
            raise SizingError(f"negative round count {self.rounds}")
        if len(self.f) != self.rounds + 1 or len(self.n_blocks) != self.rounds + 1:
            raise SizingError("f and n_blocks must cover rounds 0..rounds")
        if len(self.k) != self.rounds:
            raise SizingError("k must cover rounds 1..rounds")
        if self.f[0] != 1.0:
            raise DomainError(f"round-0 fraction must be 1, got {self.f[0]}")
        if sum(self.n_blocks) != self.n:
            raise SizingError(
                f"blocks sum to {sum(self.n_blocks)}, expected n={self.n}"
            )
        if any(b < 1 for b in self.n_blocks):
            raise SizingError(f"empty block in {self.n_blocks}")
        if any(kj < 1 or kj % 2 == 0 for kj in self.k):
            raise DomainError(f"vote sizes must be odd and positive, got {self.k}")


def _block_fraction(j: int) -> Fraction:
    if j == 0:
        return Fraction(1)
    if j == 1:
        return Fraction(1, 200)
    return Fraction(1, 10 ** (2**j))


def kim_roche_schedule(
    n: int,
    c_rounds: float = 4.0,
    divisors: tuple[float, float] = (1000.0, 3.0),
) -> KimRocheSchedule:
    """Build the block/vote schedule for an n-coordinate instance.

    The round count targets ceil(c_rounds * log10(log10 n)) and is then
    truncated at the first round whose block would be empty.  ``divisors``
    is (d1, p): round 1 votes with 2*floor(n/(2*d1)) + 1 rows and round
    s >= 2 with 2*floor(n*f_s^p / 2) + 1.  The default d1 = 1000 keeps the
    round-1 vote meaningfully smaller than the row count at desk scales
    (n up to about 1e5, where the default c_rounds gives 2 to 4 rounds
    before truncation); at astronomical n the analysis behind the schedule
    takes d1 much larger.

    Block sizes are floors of exact rational cumulative sums, so they always
    partition n.
    """
    if n < 2:
        raise SizingError(f"schedule needs n >= 2, got n={n}")
    check_float_range("n", n)
    d1, power = divisors
    if not (0.0 < d1 < math.inf and 0.0 < power < math.inf):
        raise DomainError(f"divisors must be positive, got {divisors}")
    if not 0.0 <= c_rounds < math.inf:
        raise DomainError(f"c_rounds must be nonnegative, got {c_rounds}")
    loglog = math.log10(math.log10(n)) if n > 10 else 0.0
    # Rounds past the first j with n * f_j <= 1/2 are always truncated below:
    # the last round r keeps a slot, so block r - 1 needs n * f_(r-1) > 1/2.
    cap = 1
    while n * _block_fraction(cap) > Fraction(1, 2):
        cap += 1
    target = math.ceil(c_rounds * loglog) if c_rounds * loglog < cap else cap
    fracs = [_block_fraction(j) for j in range(target + 1)]

    # Drop trailing rounds until every block is nonempty.  Cutting just the
    # tail (rather than everything past the first empty block) matters: a
    # tiny trailing fraction can steal an earlier block's floor slot, and
    # removing the tail restores it.
    while True:
        total = sum(fracs)
        cums = []
        acc = Fraction(0)
        for fr in fracs:
            acc += fr
            cums.append((n * acc) // total)  # exact rational floor
        blocks = [int(cums[0])] + [int(b - a) for a, b in zip(cums, cums[1:])]
        if all(b >= 1 for b in blocks):  # always so for one fraction: its block is n >= 2
            break
        fracs = fracs[:-1]

    rounds = len(fracs) - 1
    k: list[int] = []
    for j in range(1, rounds + 1):
        if j == 1:
            half = n / (2.0 * d1)
            if not half < math.inf:
                raise DomainError(f"n / (2 * d1) exceeds the float range at d1={d1}")
            kj = 2 * math.floor(half) + 1
        elif power * 2**j > math.log10(n) + 1:
            kj = 1  # n * f_j^p < 1/10, so the power need not be built
        elif float(power).is_integer():
            x = Fraction(n) * _block_fraction(j) ** int(power)
            kj = 2 * int(x // 2) + 1
        else:
            kj = 2 * math.floor(n * float(_block_fraction(j)) ** power / 2.0) + 1
        k.append(kj)
    return KimRocheSchedule(
        n=n,
        rounds=rounds,
        f=tuple(float(fr) for fr in fracs),
        k=tuple(k),
        n_blocks=tuple(blocks),
    )


@dataclass(frozen=True)
class RoundRecord:
    """One block round: the coordinates it assigned and the rows that voted.

    ``selected_rows`` is None for round 0 (every row votes).  The damage
    after a round, the rows whose margin over the first
    ``block_start + block_size`` coordinates is negative, follows from the
    matrix and the returned signs, so it is not stored.
    """

    round_index: int
    block_start: int
    block_size: int
    k_used: int
    selected_rows: tuple[int, ...] | None


def majority_solve(mat: DisorderMatrix) -> SignVector:
    """One-shot majority: each coordinate is the sign of its column sum.

    Zero column sums resolve to +1 (they occur with positive probability
    only for sign disorder with an even row count).
    """
    votes = mat.entries.sum(axis=0)
    signs = np.where(votes >= 0.0, 1, -1).astype(np.int8)
    return SignVector.from_signs(signs)


def kim_roche_solve(
    mat: DisorderMatrix,
    schedule: KimRocheSchedule | None = None,
) -> tuple[SignVector, list[RoundRecord]]:
    """Run the multi-stage majority solver; return the signs and one record per round.

    Round 0 assigns the first block by full-row majority.  Round j >= 1
    computes every row's margin over the assigned prefix, selects the
    schedule's k_j rows with the smallest margins (ties broken by row index,
    stably), and assigns the next block by majority over just those rows.
    Vote sizes are clipped to the row count when the schedule asks for more
    rows than the instance has.
    """
    sched = schedule if schedule is not None else kim_roche_schedule(mat.cols)
    if sched.n != mat.cols:
        raise SizingError(f"schedule is for n={sched.n}, matrix has n={mat.cols}")
    entries = mat.entries
    m_rows = mat.rows
    sigma = np.zeros(mat.cols, dtype=np.float64)
    rounds: list[RoundRecord] = []
    start = 0
    for j, block in enumerate(sched.n_blocks):
        stop = start + block
        if j == 0:
            votes = entries[:, start:stop].sum(axis=0)
            selected: np.ndarray | None = None
            k_used = m_rows
        else:
            k_used = min(sched.k[j - 1], m_rows)
            selected = np.argsort(margins, kind="stable")[:k_used]
            votes = entries[selected, start:stop].sum(axis=0)
        sigma[start:stop] = np.where(votes >= 0.0, 1.0, -1.0)
        if j < sched.rounds:
            margins = entries[:, :stop] @ sigma[:stop]  # the next round's ranking
        rounds.append(RoundRecord(
            round_index=j,
            block_start=start,
            block_size=block,
            k_used=k_used,
            selected_rows=None if selected is None else tuple(int(r) for r in selected),
        ))
        start = stop
    return SignVector.from_signs(sigma.astype(np.int8)), rounds


def _exp_potential_fallback(lam: float, run: np.ndarray, col: np.ndarray) -> int:
    """0 if Phi(+1) <= Phi(-1), else 1, for a step whose sinh correlation overflowed.

    log Phi(s) is the log-sum-exp over rows of log cosh(lam * x) for
    x = run + s*col, with log cosh y = |y| + log1p(e^(-2|y|)) - log 2.  Both
    sides are shifted by lam * peak, the largest |x| of either sign, so no
    term overflows, and the shifted sums are compared without the monotone
    log.  As lam grows this becomes the greedy minimax rule.
    """
    x = np.abs([run + col, run - col])
    peak = x.max()
    # lam * (x - peak) may round to -inf and e^(-large) may underflow: both mean 0
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(lam * (x - peak)) * (1.0 + np.exp(-2.0 * lam * x))
    phi = terms.sum(axis=1)
    return 0 if phi[0] <= phi[1] else 1


def online_solve(
    mat: DisorderMatrix,
    kappa: float,
    strategy: str = "greedy_minimax",
) -> tuple[SignVector, bool]:
    """Assign coordinates one column at a time, never looking ahead.

    ``greedy_minimax`` picks the sign minimizing the worst running margin.
    ``exp_potential`` minimizes sum cosh(lambda * margin) with
    lambda = kappa / (2 sqrt(n)), a smooth stand-in for the same objective
    whose step rule reduces to the sign of a sinh correlation.  Ties resolve
    to +1.  Returns the configuration and whether it satisfies the two-sided
    window at margin kappa; ``running_max_abs_margin`` recomputes the worst
    running margin of every step from them.
    """
    if strategy not in ONLINE_STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}, expected one of {ONLINE_STRATEGIES}")
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    n, rows = mat.cols, mat.rows
    lam = kappa / (2.0 * math.sqrt(n))
    width = max(1, _DRAW_BLOCK // rows)  # columns staged per block
    block = np.empty((width, rows), dtype=np.float64)
    run = np.zeros(rows, dtype=np.float64)
    if strategy == "greedy_minimax":
        # run + col, run - col into alternating buffers: run is a view of the
        # other one, so it is never copied
        cands = np.empty((2, 2, rows), dtype=np.float64)
        mag, cost = np.empty((2, rows), dtype=np.float64), np.empty(2, dtype=np.float64)
    else:
        sinh_block, lrun = np.empty_like(block), np.empty(rows, dtype=np.float64)
    signs = np.empty(n, dtype=np.int8)
    # sinh overflows to inf once lam * margin passes ~710, and the correlation
    # may then be inf or NaN; such a step goes to _exp_potential_fallback.
    # At tiny lam the sinh products underflow to 0, their intended value.
    quiet = "ignore" if strategy == "exp_potential" else None
    with np.errstate(over=quiet, invalid=quiet, under=quiet):
        for t0 in range(0, n, width):
            w = min(width, n - t0)
            np.copyto(block[:w], mat.entries[:, t0:t0 + w].T)
            if strategy == "exp_potential":
                np.sinh(np.multiply(lam, block[:w], out=sinh_block[:w]), out=sinh_block[:w])
            for t, col in enumerate(block[:w], t0):
                if strategy == "greedy_minimax":
                    cand = cands[t % 2]
                    np.add(run, col, out=cand[0])
                    np.subtract(run, col, out=cand[1])
                    np.maximum.reduce(np.abs(cand, out=mag), axis=1, out=cost)
                    plus, minus = cost.tolist()
                    k = 0 if plus <= minus else 1
                    run = cand[k]
                else:
                    # Phi(+1) - Phi(-1) = 2 sum sinh(lam*run) sinh(lam*col)
                    np.sinh(np.multiply(lam, run, out=lrun), out=lrun)
                    dot = float(np.dot(lrun, sinh_block[t - t0]))
                    if math.isfinite(dot):
                        k = 0 if dot <= 0.0 else 1
                    else:
                        k = _exp_potential_fallback(lam, run, col)
                    (np.subtract if k else np.add)(run, col, out=run)
                signs[t] = 1 - 2 * k
    feasible = bool(np.max(np.abs(run)) <= kappa * math.sqrt(n))
    return SignVector.from_signs(signs), feasible


def running_max_abs_margin(mat: DisorderMatrix, sigma: SignVector) -> np.ndarray:
    """max_i |sum_{s <= t} A_is sigma_s| for every t, as an array of n floats.

    Each row's running margins are a cumulative sum in column order, the
    order in which ``online_solve`` builds them, so for its answer the values
    are the worst margins it saw after each step, bit for bit.  Rows go in
    chunks of at most _DRAW_BLOCK entries (one row if a row is longer).
    """
    if sigma.n != mat.cols:
        raise SizingError(f"sign vector has {sigma.n} coordinates, matrix {mat.cols}")
    signs = sigma.signs().astype(np.float64)
    height = max(1, _DRAW_BLOCK // mat.cols)
    worst = np.zeros(mat.cols, dtype=np.float64)
    for r0 in range(0, mat.rows, height):
        run = mat.entries[r0:r0 + height] * signs
        np.cumsum(run, axis=1, out=run)
        np.maximum(worst, np.abs(run, out=run).max(axis=0), out=worst)
    return worst


def exhaustive_solve(
    mat: DisorderMatrix,
    kappa: float,
    symmetric: bool = True,
) -> SignVector | None:
    """First satisfying configuration in lexicographic order, or None.

    Shares the meet-in-the-middle scan with the landscape enumerator but
    stops at the first hit; refuses n > DEFAULT_ENUM_CAP.
    """
    masks = _scan_masks(mat, kappa, symmetric, first_only=True)
    return SignVector(mat.cols, int(masks[0])) if masks.size else None
