"""50-digit exp-potential comparisons along a given online path.

The exp-potential rule commits coordinate t to the sign s minimizing

    Phi(s) = sum_i cosh(lam * (run_i + s * a_it)),   lam = kappa / (2 sqrt(n)),

where run_i = sum_{u<t} sigma_u a_iu is the margin of row i over the
columns already committed.  Given the matrix and a sign sequence sigma
(the package's own output), this script rebuilds every run exactly and
evaluates Phi(+1) and Phi(-1) at 50 significant digits, far past the
float range where the package's sinh correlation overflows.  Only mpmath
and the standard library are used.

Run it with the instance and the package's signs as JSON on stdin to
regenerate FROZEN_EXP_POTENTIAL in test_solvers.py (about 10 s):

    PYTHONPATH=src python - <<'EOF' | python tests/oracles/exp_potential_mpmath.py
    import json
    from marginlab.disorder import sample_disorder
    from marginlab.solvers import online_solve
    mat = sample_disorder(200, 0.5, seed=0)
    signs = online_solve(mat, 1e3, "exp_potential")[0].signs().tolist()
    print(json.dumps({"kappa": 1e3, "entries": mat.entries.tolist(), "signs": signs}))
    EOF

JSON carries each float as its shortest round-trip repr, so the entries
arrive bit-exact.
"""

import json
import sys

import mpmath as mp

mp.mp.dps = 50


def relative_gaps(entries: list[list[float]], kappa: float, signs: list[int]) -> list[mp.mpf]:
    """(Phi(+1) - Phi(-1)) / max(Phi(+1), Phi(-1)) at each step of the path ``signs``.

    A negative gap prefers +1, a positive one -1.  Every run is an exact sum
    of floats (at 50 digits no rounding occurs for these sizes).
    """
    n = len(signs)
    lam = mp.mpf(kappa) / (2 * mp.sqrt(n))
    run = [mp.mpf(0)] * len(entries)
    gaps = []
    for t, sign in enumerate(signs):
        col = [mp.mpf(row[t]) for row in entries]
        plus = mp.fsum(mp.cosh(lam * (r + c)) for r, c in zip(run, col))
        minus = mp.fsum(mp.cosh(lam * (r - c)) for r, c in zip(run, col))
        gaps.append((plus - minus) / max(plus, minus))
        run = [r + sign * c for r, c in zip(run, col)]
    return gaps


if __name__ == "__main__":
    case = json.load(sys.stdin)
    gaps = relative_gaps(case["entries"], case["kappa"], case["signs"])
    print("FROZEN_EXP_POTENTIAL = (")
    replay = "".join("+" if s > 0 else "-" for s in case["signs"])
    for i in range(0, len(replay), 50):
        print(f'    "{replay[i:i + 50]}"')
    print("    ,")
    print("    (")
    for i in range(0, len(gaps), 8):
        print("        " + " ".join(f"{float(g):.3e}," for g in gaps[i:i + 8]))
    print("    ),")
    print(")")
