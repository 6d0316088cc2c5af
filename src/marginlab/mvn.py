"""Multivariate gaussian box and orthant probabilities.

The quantities here are probabilities that a centered gaussian vector with an
equicorrelated (or nearly equicorrelated) covariance lands in the symmetric box
[-kappa, kappa]^m.  For exchangeable covariance (1-beta)*I + beta*J the box
probability collapses to a one-dimensional integral over the shared factor:

    P = integral phi(w) * [Phi((kappa - sqrt(beta) w)/sqrt(1-beta))
                           - Phi((-kappa - sqrt(beta) w)/sqrt(1-beta))]^m dw

which is even in w: Gauss-Legendre quadrature of orders 101 and 202 (404 where
they disagree by more than 1e-8) over at most three closed-form panels of
[0, 8] evaluates it, with the same bits for a beta grid as for one beta at a
time.  Its error bar adds three terms: the gap between the two orders, the
discarded tails (below 1.3e-15) and a roundoff floor 50*eps*value, as in
QUADPACK.  General small covariances go
through tensor-product quadrature of the density, larger ones through Monte Carlo.
Every routine reports the value together with an estimate of its absolute
error and the method that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, erfc

from .errors import DomainError, NotPositiveDefiniteError, check_float_range

__all__ = [
    "CovarianceSpec",
    "ProbResult",
    "box_probabilities_equicorrelated",
    "box_probability_equicorrelated",
    "box_probability_general",
    "box_probability_upper_bound",
    "conditional_mean",
    "quadrant_probability",
    "std_normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

Method = Literal["analytic", "factor_quadrature", "tensor_quadrature", "monte_carlo"]


@dataclass(frozen=True)
class ProbResult:
    """A probability plus its absolute error estimate and provenance."""

    value: float
    abs_error_estimate: float
    method: Method


@dataclass(frozen=True)
class CovarianceSpec:
    """Equicorrelated covariance (1-beta)*I + beta*J with an optional dent.

    ``perturbation`` is a symmetric matrix with zero diagonal and entries in
    [-eta_bound, 0], added to the off-diagonal block.  It models pairwise
    correlations that each sit up to eta below the common level beta.
    """

    dim: int
    beta: float
    perturbation: np.ndarray | None = None
    eta_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dim must be at least 1, got {self.dim}")
        check_float_range("dim", self.dim)
        if not (0.0 <= self.beta < 1.0):
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 <= self.eta_bound < math.inf:
            raise DomainError(f"eta_bound must be nonnegative and finite, got {self.eta_bound}")
        if self.perturbation is not None:
            e = np.asarray(self.perturbation, dtype=np.float64)
            if e.shape != (self.dim, self.dim):
                raise DomainError(f"perturbation shape {e.shape} != ({self.dim}, {self.dim})")
            if not np.allclose(e, e.T, atol=0.0):
                raise DomainError("perturbation must be symmetric")
            if np.any(np.diag(e) != 0.0):
                raise DomainError("perturbation must have zero diagonal")
            if np.any(e > 0.0) or np.any(e < -self.eta_bound):
                raise DomainError("perturbation entries must lie in [-eta_bound, 0]")

    def sigma(self) -> np.ndarray:
        s = np.full((self.dim, self.dim), self.beta, dtype=np.float64)
        np.fill_diagonal(s, 1.0)
        if self.perturbation is not None:
            s = s + np.asarray(self.perturbation, dtype=np.float64)
        return s

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.sigma())
        except np.linalg.LinAlgError:
            return False
        return True


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


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def _gl_nodes(order: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_rule(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


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


def _as_sigma(cov) -> np.ndarray:
    if isinstance(cov, CovarianceSpec):
        return cov.sigma()
    s = np.asarray(cov, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"covariance must be square, got shape {s.shape}")
    if not np.allclose(s, s.T, atol=1e-12):
        raise DomainError("covariance must be symmetric")
    return s


def _linalg_or_raise(op, sigma: np.ndarray) -> np.ndarray:
    # inv also catches a singular matrix whose rounded Cholesky factor came out positive
    try:
        return op(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance is not positive definite; for an equicorrelated matrix "
            "with pairwise dents this needs eta < (1 - beta)/m"
        ) from None


def _tensor_integral(sigma_inv: np.ndarray, log_norm: float, kappa: float, order: int) -> float:
    m = sigma_inv.shape[0]
    x, wt = _gl_nodes(order, -kappa, kappa)
    if m == 1:
        q = sigma_inv[0, 0] * x * x
        return float(np.sum(wt * np.exp(log_norm - 0.5 * q)))
    if m == 2:
        q = (
            sigma_inv[0, 0] * x[:, None] ** 2
            + sigma_inv[1, 1] * x[None, :] ** 2
            + 2.0 * sigma_inv[0, 1] * x[:, None] * x[None, :]
        )
        return float(wt @ np.exp(log_norm - 0.5 * q) @ wt)
    q = (
        sigma_inv[0, 0] * x[:, None, None] ** 2
        + sigma_inv[1, 1] * x[None, :, None] ** 2
        + sigma_inv[2, 2] * x[None, None, :] ** 2
        + 2.0 * sigma_inv[0, 1] * x[:, None, None] * x[None, :, None]
        + 2.0 * sigma_inv[0, 2] * x[:, None, None] * x[None, None, :]
        + 2.0 * sigma_inv[1, 2] * x[None, :, None] * x[None, None, :]
    )
    vals = np.exp(log_norm - 0.5 * q)
    return float(np.einsum("i,j,k,ijk->", wt, wt, wt, vals))


def box_probability_general(cov, kappa: float, budget: int | None = None) -> ProbResult:
    """P(|Z_i| <= kappa for all i) for a general positive definite covariance.

    Dimensions up to 3 use tensor-product Gauss-Legendre quadrature of the
    density with grid-refinement error control; higher dimensions fall back to
    Monte Carlo (deterministic internal stream) with a 3-sigma error bar.
    ``budget`` is the Monte Carlo sample count (default 200000).
    """
    sigma = _as_sigma(cov)
    _check_kappa(kappa)
    m = sigma.shape[0]
    if kappa == 0.0:
        return ProbResult(0.0, 0.0, "analytic")
    chol = _linalg_or_raise(np.linalg.cholesky, sigma)
    if m <= 3:
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        log_norm = -0.5 * (m * math.log(2.0 * math.pi) + logdet)
        sigma_inv = _linalg_or_raise(np.linalg.inv, sigma)
        coarse = _tensor_integral(sigma_inv, log_norm, kappa, 40)
        fine = _tensor_integral(sigma_inv, log_norm, kappa, 80)
        err = abs(fine - coarse) + 1e-15
        if err > 1e-8:
            finer = _tensor_integral(sigma_inv, log_norm, kappa, 160)
            err = abs(finer - fine) + 1e-15
            fine = finer
        if not math.isfinite(fine + err):
            raise DomainError(f"the tensor quadrature is not finite at kappa={kappa}")
        return ProbResult(fine, err, "tensor_quadrature")
    n_samples = 200_000 if budget is None else int(budget)
    if n_samples < 100:
        raise DomainError(f"Monte Carlo budget too small: {n_samples}")
    rng = np.random.Generator(np.random.Philox(key=np.array([0x0B5E55ED, 0xB0], dtype=np.uint64)))
    hits = 0
    remaining = n_samples
    while remaining > 0:
        chunk = min(remaining, 65_536)
        g = rng.standard_normal((chunk, m))
        z = g @ chol.T
        hits += int(np.count_nonzero(np.all(np.abs(z) <= kappa, axis=1)))
        remaining -= chunk
    p = hits / n_samples
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
    return ProbResult(p, 3.0 * se, "monte_carlo")


def box_probability_upper_bound(cov, kappa: float) -> float:
    """Density-times-volume bound (2*pi)^(-m/2) * det(Sigma)^(-1/2) * (2*kappa)^m.

    The gaussian density is maximized at the origin, so the box probability is
    at most the peak density times the box volume.  Exact at kappa -> 0.
    """
    sigma = _as_sigma(cov)
    _check_kappa(kappa)
    chol = _linalg_or_raise(np.linalg.cholesky, sigma)
    m = sigma.shape[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_bound = (
        -0.5 * m * math.log(2.0 * math.pi)
        - 0.5 * logdet
        + m * math.log(2.0 * kappa)
        if kappa > 0.0
        else -math.inf
    )
    if not log_bound <= _LOG_FLOAT_MAX:
        raise DomainError(f"the bound overflows at kappa={kappa}")
    return math.exp(log_bound)
