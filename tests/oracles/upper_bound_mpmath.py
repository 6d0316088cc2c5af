"""50-digit references for the density-times-volume box bound.

Run directly to regenerate FROZEN_UPPER_BOUND_MPMATH in test_mvn.py (a few
seconds):

    python tests/oracles/upper_bound_mpmath.py

Under the equicorrelated covariance Sigma = (1-beta)*I + beta*J of dimension
m, the box probability P(|Z_i| <= kappa) is at most the peak density times
the box volume, whose logarithm is

    log bound = -(m/2) log(2 pi) - (1/2) log det(Sigma) + m log(2 kappa).

The log-determinant is summed from the eigenvalues 1 + (m-1)*beta (once)
and 1 - beta (m-1 times) at 50 significant digits from the exact double
beta.  For m <= 16 it is also taken with mp.det of the explicit matrix, and
the two must agree to 40 digits, so the eigenvalue identity itself is
checked.  Only mpmath and the standard library are used.
"""

import mpmath as mp

mp.mp.dps = 50

MS = (1, 2, 3, 8, 100, 10_000)
BETAS = (0.0, 0.1, 0.5, 0.9, 0.999, 0.999999, 1.0 - 2.0**-53)
KAPPAS = (0.01, 0.2, 1.0)


def log_det(m: int, beta: float) -> mp.mpf:
    # mpf(float) is the exact binary value the package receives.
    b = mp.mpf(beta)
    value = (m - 1) * mp.log(1 - b) + mp.log(1 + (m - 1) * b)
    if m <= 16:
        sigma = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                sigma[i, j] = 1 if i == j else b
        direct = mp.log(mp.det(sigma))
        if abs(direct - value) > mp.mpf("1e-40") * max(1, abs(value)):
            raise RuntimeError(f"det and eigenvalues disagree at m={m} beta={beta}")
    return value


def log_bound(m: int, beta: float, kappa: float) -> mp.mpf:
    k = mp.mpf(kappa)
    return -m * mp.log(2 * mp.pi) / 2 - log_det(m, beta) / 2 + m * mp.log(2 * k)


if __name__ == "__main__":
    print("FROZEN_UPPER_BOUND_MPMATH = {")
    for m in MS:
        for beta in BETAS:
            for kappa in KAPPAS:
                pair = float(log_det(m, beta)), float(log_bound(m, beta, kappa))
                print(f"    ({m}, {beta!r}, {kappa!r}): {pair!r},")
    print("}")
