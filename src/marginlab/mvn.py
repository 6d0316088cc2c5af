"""Multivariate gaussian box and orthant probabilities.

The quantities here are probabilities that a centered gaussian vector with an
equicorrelated covariance lands in the symmetric box [-kappa, kappa]^m.  For
exchangeable covariance (1-beta)*I + beta*J the box probability collapses to a
one-dimensional integral over the shared factor:

    P = integral phi(w) * [Phi((kappa - sqrt(beta) w)/sqrt(1-beta))
                           - Phi((-kappa - sqrt(beta) w)/sqrt(1-beta))]^m dw

which is even in w: Gauss-Legendre quadrature of orders 101 and 202 (404 where
they disagree by more than 1e-8) over at most three closed-form panels of
[0, 8] evaluates it, with the same bits for a beta grid as for one beta at a
time.  Its error bar adds three terms: the gap between the two orders, the
discarded tails (below 1.3e-15) and a roundoff floor 50*eps*value, as in
QUADPACK.  The box probabilities come with that estimate of their absolute
error and the method that produced them; the closed forms and the
density-times-volume upper bound are plain floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, erfc

from .errors import DomainError, check_float_range

__all__ = [
    "ProbResult",
    "box_probabilities_equicorrelated",
    "box_probability_equicorrelated",
    "box_probability_upper_bound",
    "conditional_mean",
    "quadrant_probability",
    "std_normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

Method = Literal["analytic", "factor_quadrature"]


@dataclass(frozen=True)
class ProbResult:
    """A probability plus its absolute error estimate and provenance."""

    value: float
    abs_error_estimate: float
    method: Method


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Accurate to better than 1e-12 in absolute terms over the whole real line,
    including the far tails where naive 0.5*(1 + erf) loses all precision;
    x = -inf and inf give the limits 0 and 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise DomainError("the normal CDF is undefined at NaN")
    out = 0.5 * erfc(-x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def quadrant_probability(rho: float) -> float:
    """P(Z1 >= 0, Z2 >= 0) for standard gaussians with correlation rho.

    Closed form 1/4 + arcsin(rho)/(2*pi).
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def conditional_mean(rho: float) -> float:
    """E[Z2 | Z1 >= 0] for standard gaussians with correlation rho.

    Closed form rho*sqrt(2/pi): project Z2 on Z1 and use the half-normal mean.
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    return rho * math.sqrt(2.0 / math.pi)


_gl_rule = functools.cache(leggauss)


#: Betas per quadrature block: temporaries of at most 8 x 1010 nodes (order 404).
_FACTOR_BLOCK = 8


def _factor_integrals(m: int, betas: np.ndarray, kappa: float, order: int) -> np.ndarray:
    # Half-line rule for the even integrand.  The erf layers at +-t0, t0 =
    # kappa/sqrt(beta), width d = 10 sqrt(1-beta)/sqrt(beta), cut [0, 8] at
    # c1 = |t0 - d| and c2 = t0 + d, clipped to 8.  Nodes are c1*x, x >= 0, on
    # [-c1, c1] (leggauss is exactly symmetric) and mid + half*x on [c1, c2] and
    # [c2, 8], weights doubled but an odd order's x = 0.  An outer panel empty
    # for a whole block is skipped; one empty for some betas adds exactly 0.
    # From kappa = 64 on, every g is exactly 1 and c1 = c2 = 8, so the clamp
    # changes no bit and keeps kappa / s and the erf arguments from overflowing.
    kappa = min(kappa, 64.0)
    out = np.empty(len(betas))
    for start in range(0, len(betas), _FACTOR_BLOCK):
        block = betas[start:start + _FACTOR_BLOCK, None]
        s = np.sqrt(block)
        t0, d = kappa / s, 10.0 * np.sqrt(1.0 - block) / s
        c1, c2 = np.minimum(np.abs(t0 - d), 8.0), np.minimum(t0 + d, 8.0)
        x, wx = _gl_rule(order)
        xc = x[order // 2:]
        w, wt = [c1 * xc], [c1 * (np.where(xc > 0.0, 2.0, 1.0) * wx[order // 2:])]
        for lo, hi in ((c1, c2), (c2, 8.0)):
            if (hi > lo).any():
                w.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
                wt.append((hi - lo) * wx)
        w, wt = np.concatenate(w, axis=1), np.concatenate(wt, axis=1)
        sw, sd = s * w, np.sqrt(2.0 * (1.0 - block))
        g = 0.5 * (erf((kappa - sw) / sd) - erf((-kappa - sw) / sd))
        # numpy's g**3 calls pow; g**2 is already g*g.
        f = wt * (_INV_SQRT_2PI * np.exp(-0.5 * w * w)) * (g * g * g if m == 3 else g**m)
        k = len(xc)
        out[start:start + len(block)] = (f[:, :k].sum(axis=1) + f[:, k:k + order].sum(axis=1)
                                         + f[:, k + order:].sum(axis=1))
    return out


def _quadrature_error(reference: np.ndarray, value: np.ndarray) -> np.ndarray:
    # Order gap, discarded tails and the summation roundoff 50*eps*sum|w_i f_i|
    # (QUADPACK's floor); every term is nonnegative, so that sum is the value.
    return np.abs(value - reference) + 1.3e-15 + 50.0 * np.finfo(np.float64).eps * value


def _check_kappa(kappa: float) -> None:
    if not kappa >= 0.0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    if kappa == math.inf:
        raise DomainError("kappa must be finite, got inf")


def box_probabilities_equicorrelated(m: int, betas: list[float], kappa: float) -> list[ProbResult]:
    """P(|Z_i| <= kappa for i <= m) under (1-beta)*I + beta*J, for each beta.

    Independent cases (m = 1 or beta = 0) are closed-form products of
    erf(kappa/sqrt(2)); otherwise the one-factor reduction is integrated by
    Gauss-Legendre quadrature of order 202, per beta.  The error estimate is
    |order 202 - order 101| + 1.3e-15 for the discarded tails + 50*eps*value
    for roundoff; a beta whose estimate exceeds 1e-8 is refined to order 404,
    measured against order 202.  beta >= 1 is rejected: the one-factor
    reduction needs 1 - beta > 0.
    """
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    check_float_range("m", m)
    for beta in betas:
        if beta >= 1.0:
            raise DomainError(f"beta={beta} >= 1: covariance is singular or invalid and the "
                              "one-factor reduction breaks down")
        if not beta >= 0.0:
            raise DomainError(f"beta must be nonnegative, got {beta}")
    _check_kappa(kappa)
    if kappa == 0.0:
        return [ProbResult(0.0, 0.0, "analytic")] * len(betas)
    out = [ProbResult(float(erf(kappa / _SQRT2)) ** m, 1e-14 * m, "analytic")] * len(betas)
    todo = [i for i, beta in enumerate(betas) if m > 1 and beta != 0.0]
    quad = np.array([betas[i] for i in todo], dtype=np.float64)
    coarse = _factor_integrals(m, quad, kappa, 101)
    fine = _factor_integrals(m, quad, kappa, 202)
    err = _quadrature_error(coarse, fine)
    redo = np.flatnonzero(err > 1e-8)
    finer = _factor_integrals(m, quad[redo], kappa, 404)
    err[redo] = _quadrature_error(fine[redo], finer)
    fine[redo] = finer
    for i, value, e in zip(todo, fine.tolist(), err.tolist()):
        out[i] = ProbResult(value, e, "factor_quadrature")
    return out


def box_probability_equicorrelated(m: int, beta: float, kappa: float) -> ProbResult:
    """The one-beta case of :func:`box_probabilities_equicorrelated`."""
    return box_probabilities_equicorrelated(m, [beta], kappa)[0]


def _log_det_equicorrelated(m: int, beta: float) -> float:
    # log det((1-beta)*I + beta*J) from its eigenvalues 1 + (m-1)*beta and 1 - beta (m-1 times).
    return (m - 1) * math.log1p(-beta) + math.log1p((m - 1) * beta)


def box_probability_upper_bound(m: int, beta: float, kappa: float) -> float:
    """Density-times-volume bound (2*pi)^(-m/2) * det(Sigma)^(-1/2) * (2*kappa)^m.

    The gaussian density under Sigma = (1-beta)*I + beta*J peaks at the
    origin, so the box probability is at most the peak density times the box
    volume; exact at kappa -> 0.  No matrix is built: from the eigenvalues,
    log det(Sigma) = (m-1) log1p(-beta) + log1p((m-1)*beta).  A bound above
    the float range is refused; one below it is 0.0.
    """
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    check_float_range("m", m)
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    _check_kappa(kappa)
    if kappa == 0.0:
        return 0.0
    log_bound = (-0.5 * m * math.log(2.0 * math.pi) - 0.5 * _log_det_equicorrelated(m, beta)
                 + m * math.log(2.0 * kappa))
    if not log_bound <= _LOG_FLOAT_MAX:
        raise DomainError(f"the bound overflows at kappa={kappa}")
    return math.exp(log_bound)
