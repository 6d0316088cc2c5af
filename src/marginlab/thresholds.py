"""Free-energy threshold functionals for margin-constrained sign vectors.

Each functional is an exponential growth rate (base-2, per coordinate) of an
expected count of configurations, or of tuples of configurations, satisfying
two-sided margin constraints at margin kappa = 1 unless stated otherwise.
They split into a counting part (entropy of the configurations being counted)
and a probability part (log-probability that correlated gaussian margins all
land in the window).  A functional dipping below zero certifies that the
corresponding structures vanish at that constraint density alpha, which is
what the scan helpers look for.

Probability parts are evaluated through the box-probability machinery and the
quadrature error is propagated into the reported value, so negativity is only
ever asserted with the error bar included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from scipy.special import erf, ndtri

from .errors import DomainError
from .mvn import _log_det_equicorrelated, box_probabilities_equicorrelated

__all__ = [
    "FreeEnergyPoint",
    "NecessityRow",
    "PsiPoint",
    "ScanResult",
    "alpha_c",
    "alpha_ogp",
    "binary_entropy",
    "chaos_exponent",
    "critical_kappa",
    "f1",
    "f2",
    "f3",
    "find_negative_psi",
    "necessity_scan",
    "necessity_terms",
    "negativity_onset",
    "phi_count",
    "psi_free_energy",
    "psi_upper_bound",
    "scan_negativity",
    "upsilon",
]

_LN2 = math.log(2.0)
_LOG2_2PI = math.log2(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


def binary_entropy(p: float) -> float:
    """h(p) = -p*log2(p) - (1-p)*log2(1-p), with h(0) = h(1) = 0."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _finite(name: str, x: float) -> float:
    # NaN fails the comparison, so it is rejected together with +-inf
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _margin_prob(kappa: float) -> float:
    return float(erf(kappa / _SQRT2))


def alpha_c(kappa: float) -> float:
    """First-moment constraint density -1/log2 P(|Z| <= kappa).

    At this density the expected number of two-sided solutions is 2^{o(n)}:
    each of the floor(alpha*n) constraints is satisfied with probability
    P(|Z| <= kappa), so the expected count is 2^{n (1 + alpha log2 P)}.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    p = _margin_prob(kappa)
    if p >= 1.0:
        raise DomainError(
            f"kappa={kappa} makes the margin probability round to 1; "
            "the density diverges"
        )
    return -1.0 / math.log2(p)


def alpha_ogp(kappa: float) -> float:
    """Structure-onset density -1/ln P(|Z| <= kappa), in natural log.

    This is the form the constant is usually displayed in; it is
    :func:`alpha_c` (bits per coordinate) divided by ln 2.
    """
    return alpha_c(kappa) / _LN2


def critical_kappa() -> float:
    """The margin where alpha_c equals 1: P(|Z| <= kappa) = 1/2."""
    return float(ndtri(0.75))


@dataclass(frozen=True)
class FreeEnergyPoint:
    """One evaluation of a threshold functional.

    ``value = counting_part + probability_part``; ``prob_error`` bounds the
    absolute error of the probability part (quadrature error propagated
    through the logarithm and scaled by alpha).
    """

    abscissa: float
    alpha: float
    value: float
    counting_part: float
    probability_part: float
    prob_error: float


def _f1_parts(delta: float) -> tuple[float, float]:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return 1.0 - delta, 1.0 + binary_entropy(delta)


def _tuple_rate(m: int, beta: float) -> float:
    """log2 per coordinate of the ordered m-tuples, m in {2, 3}, at pairwise overlap beta."""
    delta = (1.0 - beta) / 2.0
    if m == 2:
        return 1.0 + binary_entropy(delta)
    return (
        1.0 + delta + binary_entropy(delta)
        + (1.0 + beta) / 2.0 * binary_entropy((1.0 - beta) / (2.0 * (1.0 + beta)))
    )


def _overlap_parts(m: int, beta: float) -> tuple[float, float]:
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    return beta, _tuple_rate(m, beta)


#: Functional name -> (box dimension m, abscissa -> (box beta, counting part)).
_FUNCTIONALS = {"f1": (2, _f1_parts), "f2": (2, partial(_overlap_parts, 2)),
                "f3": (3, partial(_overlap_parts, 3))}


def _evaluate(which: str, xs, alpha: float) -> list[FreeEnergyPoint]:
    # One batched box-probability call for all abscissas; the quadrature error
    # is propagated through the logarithm and scaled by alpha.  The kappa = 1
    # box holds at least erf(1/sqrt(2))^m (Sidak), so the logarithm is finite.
    m, parts = _FUNCTIONALS[which]
    split = [parts(x) for x in xs]
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    _finite("alpha", alpha)
    probs = box_probabilities_equicorrelated(m, [beta for beta, _ in split], 1.0)
    points = []
    for x, (_, counting), res in zip(xs, split, probs):
        prob = alpha * math.log2(res.value)
        err = abs(alpha) * res.abs_error_estimate / (res.value * _LN2)
        value = _finite("value", counting + prob)
        points.append(FreeEnergyPoint(x, alpha, value, counting, prob, err))
    return points


def f1(delta: float, alpha: float) -> FreeEnergyPoint:
    """Pair rate for solutions of two nearly identical instances.

    Counts pairs (sigma, sigma') at Hamming distance delta*n, each solving
    one of two gaussian instances with entrywise correlation 1 - delta, at
    margin 1.  Counting part 1 + h(delta); probability part
    alpha * log2 P(|Z1| <= 1, |Z2| <= 1) at correlation 1 - delta.
    """
    return _evaluate("f1", [delta], alpha)[0]


def f2(beta: float, alpha: float) -> FreeEnergyPoint:
    """Pair rate for one instance: two solutions at overlap beta.

    Counting part 1 + h((1-beta)/2); probability part uses the bivariate box
    probability at correlation beta.
    """
    return _evaluate("f2", [beta], alpha)[0]


def f3(beta: float, alpha: float) -> FreeEnergyPoint:
    """Triple rate: three solutions of one instance, pairwise overlap beta.

    The third configuration splits its disagreements across the d12 flipped
    and n - d12 agreeing coordinates of the first two, which gives the extra
    entropy terms; the probability part is the trivariate box probability at
    equicorrelation beta.
    """
    return _evaluate("f3", [beta], alpha)[0]


#: Most abscissas one scan evaluates; a finer grid is rejected before it is built.
_MAX_GRID_POINTS = 10**6

_DEFAULT_GRIDS = {
    "f1": (1e-5, 0.1, 1e-4),
    "f2": (0.9, 0.999, 1e-3),
    "f3": (0.9, 0.999, 1e-3),
}


@dataclass(frozen=True)
class ScanResult:
    """A grid scan of one functional at fixed alpha.

    ``negative_interval`` brackets the abscissas whose values are certified
    negative (value plus propagated error still below zero); it is None when
    no point is certified negative.
    """

    which: str
    alpha: float
    points: tuple[FreeEnergyPoint, ...]
    argmin_abscissa: float
    min_value: float
    negative_interval: tuple[float, float] | None
    n_negative: int

    @property
    def has_negative(self) -> bool:
        return self.n_negative > 0


def scan_negativity(
    which: str,
    alpha: float,
    lo: float | None = None,
    hi: float | None = None,
    step: float | None = None,
) -> ScanResult:
    """Evaluate a functional on a grid and locate its certified-negative set.

    Grid defaults: f1 over delta in [1e-5, 0.1] step 1e-4, f2 and f3 over
    beta in [0.9, 0.999] step 1e-3; a grid of more than 10**6 points is
    rejected before it is built.  A point counts as negative only when
    value + prob_error < 0.  All grid points share one batched quadrature
    call; each point equals the one-point functional at its abscissa.
    """
    if which not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {which!r}, expected one of {sorted(_FUNCTIONALS)}")
    g_lo, g_hi, g_step = _DEFAULT_GRIDS[which]
    lo = g_lo if lo is None else lo
    hi = g_hi if hi is None else hi
    step = g_step if step is None else step
    if not (step > 0.0 and lo <= hi and math.isfinite((hi - lo) / step)):
        raise DomainError(f"bad grid: lo={lo}, hi={hi}, step={step}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > _MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the limit of {_MAX_GRID_POINTS}")
    grid = [lo + i * step for i in range(count)]
    points = tuple(_evaluate(which, grid, alpha))
    best = min(points, key=lambda p: p.value)
    negatives = [p for p in points if p.value + p.prob_error < 0.0]
    interval = (
        (negatives[0].abscissa, negatives[-1].abscissa) if negatives else None
    )
    return ScanResult(
        which=which,
        alpha=alpha,
        points=points,
        argmin_abscissa=best.abscissa,
        min_value=best.value,
        negative_interval=interval,
        n_negative=len(negatives),
    )


def negativity_onset(which: str, alpha_lo: float, alpha_hi: float) -> float:
    """Bisect for the smallest alpha whose scan has a certified-negative point.

    Each scan uses the default grid of :func:`scan_negativity`; bisection
    stops once the bracket is at most 1e-3 wide and returns its upper end.
    While alpha_hi exceeds twice max(alpha_lo, 1) the bracket is split at its
    geometric midpoint, so a bracket up to the largest float takes tens of
    scans, not about 1,000.  Requires the bracket to straddle the onset: no
    negative point at ``alpha_lo``, at least one at ``alpha_hi``.
    """
    if not scan_negativity(which, alpha_hi).has_negative:
        raise DomainError(f"no negative point at alpha_hi={alpha_hi}; bracket too low")
    if scan_negativity(which, alpha_lo).has_negative:
        raise DomainError(f"negative point already at alpha_lo={alpha_lo}; bracket too high")
    lo, hi = alpha_lo, alpha_hi
    while hi - lo > 1e-3:
        floor = max(lo, 1.0)
        # sqrt(floor) * sqrt(hi) lies strictly inside (floor, hi) and cannot overflow
        mid = math.sqrt(floor) * math.sqrt(hi) if hi > 2.0 * floor else 0.5 * (lo + hi)
        if scan_negativity(which, mid).has_negative:
            hi = mid
        else:
            lo = mid
    return hi


def phi_count(beta: float, eta: float, m: int) -> float:
    """Base-2 exponent per coordinate of the number of in-band m-tuples.

    Counts ordered m-tuples of cube points with pairwise overlaps in
    [beta - eta, beta]; the maximizing distance profile sits at the wide edge
    of the band, overlap beta - eta, with the third point's disagreements
    split evenly.  It is the counting part of f2/f3 at overlap beta - eta and
    matches the exact counts up to O(log n / n).
    """
    if m not in (2, 3):
        raise DomainError(f"phi_count supports m in {{2, 3}}, got {m}")
    if not (0.0 <= eta < beta <= 1.0):
        raise DomainError(f"need 0 <= eta < beta <= 1, got beta={beta}, eta={eta}")
    return _tuple_rate(m, beta - eta)


def upsilon(beta: float, alpha: float, kappa: float) -> float:
    """Single-overlap rate in the tiny-margin regime.

    Upsilon = h((1-beta)/2) - (alpha/2) log2(2 pi) + alpha log2(2 kappa)
    - (alpha/2) log2(1-beta).  At beta = 1 - 4 kappa^2 the last two terms
    cancel and what is left is h(2 kappa^2) minus the alpha-driven pull.
    """
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    _finite("alpha", alpha)
    return _finite("upsilon", (
        binary_entropy((1.0 - beta) / 2.0)
        - 0.5 * alpha * _LOG2_2PI
        + alpha * math.log2(2.0 * kappa)
        - 0.5 * alpha * math.log2(1.0 - beta)
    ))


@dataclass(frozen=True)
class PsiPoint:
    """Value and decomposition of the replicated free energy."""

    c: float
    beta: float
    m: int
    alpha: float
    kappa: float
    value: float
    counting_part: float
    probability_part: float


def _check_psi(c: float, beta: float, m: int, alpha: float, kappa: float) -> None:
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    _finite("c", c)
    _finite("alpha", alpha)


def psi_free_energy(c: float, beta: float, m: int, alpha: float, kappa: float) -> PsiPoint:
    """Rate of the expected number of m-tuples clustered at overlap beta.

    Counting part 1 + c*m + m*h((1-beta)/2): a center plus m nearby
    configurations, each with 2^{cn} slack.  Probability part uses the exact
    equicorrelated determinant, eigenvalues 1-beta+beta*m (once) and 1-beta
    (m-1 times), with each margin window approximated by its peak density
    times 2*kappa:

        -(alpha m / 2) log2(2 pi) + alpha m log2(2 kappa)
        - (alpha/2) [log2(1-beta+beta*m) + (m-1) log2(1-beta)].
    """
    _check_psi(c, beta, m, alpha, kappa)
    counting = 1.0 + c * m + m * binary_entropy((1.0 - beta) / 2.0)
    prob = (
        -0.5 * alpha * m * _LOG2_2PI
        + alpha * m * math.log2(2.0 * kappa)
        - 0.5 * alpha * (_log_det_equicorrelated(m, beta) / _LN2)
    )
    return PsiPoint(c, beta, m, alpha, kappa, _finite("value", counting + prob), counting, prob)


def psi_upper_bound(c: float, beta: float, m: int, alpha: float, kappa: float) -> float:
    """Bound obtained by replacing each (1-beta) factor with its Upsilon form.

    Equals 1 - (alpha/2) log2(1-beta+beta*m) + m*(c + Upsilon(beta, alpha,
    kappa)); exceeds the exact rate by exactly -(alpha/2) log2(1-beta) >= 0.
    """
    _check_psi(c, beta, m, alpha, kappa)
    return _finite("bound", (
        1.0
        - 0.5 * alpha * math.log2(1.0 - beta + beta * m)
        + m * (c + upsilon(beta, alpha, kappa))
    ))


def find_negative_psi(kappa: float, alpha: float) -> PsiPoint | None:
    """Search replica counts m = 2^k for a negative replicated rate.

    Evaluates at beta = 1 - 4*kappa^2, the overlap where the margin window
    and correlation gap match scales, with slack c = 1e-4.  Returns the first
    negative point, or None if no power of two up to 2^40 works.
    """
    beta = 1.0 - 4.0 * kappa * kappa
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"derived beta={beta} outside [0, 1)")
    for k in range(41):
        point = psi_free_energy(1e-4, beta, 1 << k, alpha, kappa)
        if point.value < 0.0:
            return point
    return None


def chaos_exponent(kappa: float, alpha: float, m: int) -> float:
    """Rate certifying overlap chaos between weakly coupled instances.

    1/m + h(5 kappa^2 / 2) + alpha log2(2 kappa / sqrt(2 pi)); negative
    values rule out pairs of solutions of slightly decorrelated instances
    that stay at high overlap.  Requires 5 kappa^2 / 2 < 1.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    x = 2.5 * kappa * kappa
    if x >= 1.0:
        raise DomainError(f"5 kappa^2 / 2 = {x} must be below 1")
    _finite("alpha", alpha)
    return _finite("exponent", 1.0 / m + binary_entropy(x)
                   + alpha * math.log2(2.0 * kappa / math.sqrt(2.0 * math.pi)))


@dataclass(frozen=True)
class NecessityRow:
    """Densities forced by negativity of Upsilon at overlap 1 - 2*C*kappa^2.

    At beta = 1 - 2*delta with delta = C*kappa^2, Upsilon reduces exactly to
    h(C kappa^2) - (alpha/2) log2(pi C), so Upsilon < 0 pins
    alpha > 2 h(C kappa^2) / log2(pi C).  The asymptotic split of the
    entropy gives the kappa^2 log2(1/kappa) leading term.
    """

    c: float
    delta: float
    entropy_term: float
    log_factor: float
    alpha_implied: float
    asym_kappa_term: float
    asym_c_term: float
    floor3: float
    ratio_to_floor: float


def necessity_terms(kappa: float, c: float) -> NecessityRow:
    """Exact implied density for one value of the overlap-scale constant C."""
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if c < 1.0:
        raise DomainError(f"C must be at least 1, got {c}")
    delta = c * kappa * kappa
    if delta >= 1.0:
        raise DomainError(f"C*kappa^2 = {delta} must be below 1")
    entropy = binary_entropy(delta)
    log_factor = 0.5 * math.log2(math.pi * c)
    alpha_implied = entropy / log_factor
    floor3 = 3.0 * kappa * kappa * math.log2(1.0 / kappa)
    if not floor3 > 0.0:  # kappa^2 underflowed to 0
        raise DomainError(f"kappa={kappa} underflows the floor 3 kappa^2 log2(1/kappa)")
    return NecessityRow(
        c=c,
        delta=delta,
        entropy_term=entropy,
        log_factor=log_factor,
        alpha_implied=alpha_implied,
        asym_kappa_term=2.0 * delta * math.log2(1.0 / kappa),
        asym_c_term=delta * math.log2(1.0 / c),
        floor3=floor3,
        ratio_to_floor=alpha_implied / floor3,
    )


def necessity_scan(kappa: float) -> list[NecessityRow]:
    """Implied-density table over the overlap-scale constants C.

    The grid is the powers of two from 2 to 1024, filtered to C*kappa^2 < 1.
    """
    c_grid = [float(1 << k) for k in range(1, 11) if (1 << k) * kappa * kappa < 1.0]
    if not c_grid:
        raise DomainError(f"no admissible C for kappa={kappa}")
    return [necessity_terms(kappa, c) for c in c_grid]

