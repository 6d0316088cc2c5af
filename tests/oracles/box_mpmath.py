"""30-digit references for the equicorrelated box probability.

Run directly to regenerate FROZEN_BOX_MPMATH in test_mvn.py (about 40 s):

    python tests/oracles/box_mpmath.py

The box probability under (1-beta)*I + beta*J reduces to one integral over
the shared factor w,

    P = integral phi(w) * [Phi((kappa - sqrt(beta) w)/sqrt(1-beta))
                           - Phi((-kappa - sqrt(beta) w)/sqrt(1-beta))]^m dw,

which is even in w.  mpmath's tanh-sinh rule integrates 2 * int_0^inf at 30
significant digits, with breakpoints at the erf layers +-kappa/sqrt(beta) and
at multiples of their width, so no panel straddles a steep edge.  Only
mpmath and the standard library are used: the package's Gauss-Legendre
quadrature, numpy and scipy play no part, so the references can expose both
the truncation and the roundoff error of that quadrature.
"""

import mpmath as mp

mp.mp.dps = 30

MS = (2, 3, 5, 10)
KAPPAS = (0.05, 0.5, 1.0, 2.0)
BETAS = (1e-4, 0.1, 0.5, 0.9, 0.978, 0.999, 0.999999)


def box_probability(m: int, beta: float, kappa: float) -> mp.mpf:
    # mpf(float) is the exact binary value the package receives; near beta = 1
    # the decimal 0.999999 instead of its double would move P by about 1e-14.
    b, k = mp.mpf(beta), mp.mpf(kappa)
    s, sd = mp.sqrt(b), mp.sqrt(2 * (1 - b))

    def integrand(w):
        band = (mp.erf((k - s * w) / sd) - mp.erf((-k - s * w) / sd)) / 2
        return mp.npdf(w) * band**m

    t0, width = k / s, mp.sqrt(1 - b) / s
    layer = {t0 + j * width for j in range(-12, 13)}
    cuts = sorted({mp.mpf(0)} | {c for c in layer if 0 < c < 40}
                  | {mp.mpf(c) for c in (1, 2, 4, 8, 16)})
    value, err = mp.quad(integrand, cuts + [mp.inf], error=True, maxdegree=10)
    if err > mp.mpf("1e-25"):
        raise RuntimeError(f"mpmath error estimate {err} at m={m} beta={beta} kappa={kappa}")
    return 2 * value


if __name__ == "__main__":
    print("FROZEN_BOX_MPMATH = {")
    for m in MS:
        for kappa in KAPPAS:
            for beta in BETAS:
                value = float(box_probability(m, beta, kappa))
                print(f"    ({m}, {beta!r}, {kappa!r}): {value!r},")
    print("}")
