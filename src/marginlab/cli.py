"""Command-line interface.

Subcommands mirror the library layers: ``thresholds`` scans a free-energy
functional, ``mvn`` evaluates gaussian box/orthant quantities, ``solve`` runs
one solver on one sampled instance, ``experiment NAME`` drives the randomized
studies, and ``count-tuples`` tabulates overlap-band tuple counts.

Exit codes are part of the contract:

    0   success
    2   clean negative result (a scan found no certified-negative point)
    64  usage error (bad flags or arguments)
    65  domain error (parameters outside the mathematically valid range)
    66  enumeration cap exceeded

Every subcommand runner returns ``(files, text, exit_code)``.  ``files`` maps
each file name to a JSON payload (``dict``), a CSV as ``(header, rows)`` or a
``DisorderMatrix`` for ``matrix.bin``; ``text`` is what goes to stdout.
``main`` is the only writer: for a subcommand with ``--out-dir`` it adds
``config.json`` (the parsed flags and resolved ``out_dir``) and writes every
file, then prints ``text``.  A float flag that reaches ``config.json`` must be
finite, so no output file holds NaN or Infinity.  Each ``EXPERIMENTS`` entry
names a runner and the flags it reads; any other flag is a usage error, and
every experiment runs with no flags at all.
Output is deterministic: the same command writes byte-identical files, except
for the wall-clock seconds column of the tuple-count table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .disorder import DisorderMatrix, dump_matrix, sample_disorder
from .errors import CapExceededError, DomainError, UsageError
from .landscape import (
    count_overlap_tuples_bruteforce,
    count_overlap_tuples_exact,
    overlap_band,
)
from .mvn import (
    box_probability_equicorrelated,
    box_probability_upper_bound,
    conditional_mean,
    quadrant_probability,
    std_normal_cdf,
)
from .solvers import (
    ONLINE_STRATEGIES,
    exhaustive_solve,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
    running_max_abs_margin,
)
from .experiments import (
    TRAJECTORY_SOLVERS,
    kim_roche_stability_trial,
    majority_stability_trial,
    online_failure_census,
    online_two_stage_trial,
    overlap_trajectory,
    stable_replica_parameters,
    universality_gap,
)
from .thresholds import scan_negativity

EXIT_OK = 0
EXIT_NEGATIVE_RESULT = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_CAP = 66


class _Parser(argparse.ArgumentParser):
    # Route argparse failures through the package error hierarchy so main()
    # can map them to exit code 64 instead of argparse's hardwired 2 (which
    # would collide with the negative-result code).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _write(path: str, content) -> None:
    if isinstance(content, DisorderMatrix):
        dump_matrix(content, path)
    elif isinstance(content, dict):
        text = json.dumps(content, indent=2, sort_keys=True, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        header, rows = content
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:g}"


def _fields(obj, names: str) -> dict:
    return {k: getattr(obj, k) for k in names.split()}


def cmd_thresholds(args: argparse.Namespace) -> tuple[dict, str, int]:
    result = scan_negativity(args.which, args.alpha, lo=args.lo, hi=args.hi, step=args.step)
    stem = f"scan_{result.which}_alpha{_fmt(result.alpha)}"
    header = ["abscissa", "value", "counting_part", "probability_part", "prob_error"]
    summary = _fields(result, "which alpha argmin_abscissa min_value has_negative n_negative "
                              "negative_interval")
    files = {
        stem + ".csv": (header, [[repr(getattr(p, k)) for k in header] for p in result.points]),
        stem + "_summary.json": summary | {"n_points": len(result.points)},
    }
    text = (f"{result.which} alpha={_fmt(result.alpha)}: argmin={result.argmin_abscissa:.6g} "
            f"min={result.min_value:.6g} negative_points={result.n_negative}\n")
    if not result.has_negative:
        return files, text + "no certified-negative point on the grid", EXIT_NEGATIVE_RESULT
    lo, hi = result.negative_interval
    return files, text + f"negative interval: [{lo:.6g}, {hi:.6g}]", EXIT_OK


def cmd_mvn(args: argparse.Namespace) -> tuple[dict, str, int]:
    if args.quadrant is not None:
        text = repr(quadrant_probability(args.quadrant))
    elif args.conditional_mean is not None:
        text = repr(conditional_mean(args.conditional_mean))
    elif args.cdf is not None:
        text = repr(std_normal_cdf(args.cdf))
    elif args.upper_bound:
        text = repr(box_probability_upper_bound(args.m, args.beta, args.kappa))
    elif args.box:
        res = box_probability_equicorrelated(args.m, args.beta, args.kappa)
        text = f"{res.value!r} (abs error <= {res.abs_error_estimate:.3g}, {res.method})"
    else:
        raise UsageError("choose one of --quadrant, --conditional-mean, --cdf, --box, "
                         "--upper-bound")
    return {}, text, EXIT_OK


def _signs_string(sv) -> str:
    return "".join("+" if s > 0 else "-" for s in sv.signs())


def cmd_solve(args: argparse.Namespace) -> tuple[dict, str, int]:
    mat = sample_disorder(args.n, args.alpha, args.dist, args.seed)
    files = {}
    if args.algo == "majority":
        sv = majority_solve(mat)
        feasible = None
    elif args.algo == "kim-roche":
        sv, rounds = kim_roche_solve(mat, args.c_rounds, (args.d1, args.power))
        sched = kim_roche_schedule(args.n, args.c_rounds, (args.d1, args.power))
        feasible = None
        sigma = sv.signs().astype(np.float64)
        stops = [r.block_start + r.block_size for r in rounds]
        files["trace.json"] = {
            "schedule": {
                "rounds": sched.rounds,
                "f": list(sched.f),
                "k": list(sched.k),
                "n_blocks": list(sched.n_blocks),
            },
            "rounds": [
                {
                    "round": r.round_index,
                    "block_start": r.block_start,
                    "block_size": r.block_size,
                    "k_used": r.k_used,
                    # rows whose margin over the assigned prefix is negative
                    "violated_rows_after": int(np.count_nonzero(
                        mat.entries[:, :stop] @ sigma[:stop] < 0.0)),
                }
                for r, stop in zip(rounds, stops)
            ],
        }
    elif args.algo in ("online-greedy", "online-exp"):
        strategy = "greedy_minimax" if args.algo == "online-greedy" else "exp_potential"
        sv, feasible = online_solve(mat, args.kappa, strategy)
        files["trace.json"] = {
            "per_step_max_abs_margin": running_max_abs_margin(mat, sv).tolist(),
        }
    else:  # exhaustive, the last of the parser's choices
        sv = exhaustive_solve(mat, args.kappa, symmetric=not args.asymmetric)
        if sv is None:
            return files, "no satisfying configuration", EXIT_NEGATIVE_RESULT
        feasible = True

    margins = mat.entries @ sv.signs().astype(np.float64)
    payload = {
        "algo": args.algo,
        "n": args.n,
        "alpha": args.alpha,
        "seed": args.seed,
        "kappa": args.kappa,
        "dist": args.dist,
        "signs": _signs_string(sv),
        "max_abs_margin_over_sqrt_n": float(np.max(np.abs(margins))) / math.sqrt(args.n),
        "min_margin_over_sqrt_n": float(np.min(margins)) / math.sqrt(args.n),
        "feasible_two_sided": bool(np.max(np.abs(margins)) <= args.kappa * math.sqrt(args.n)),
    }
    if feasible is not None:
        payload["reported_feasible"] = feasible
    files["solution.json"] = payload
    if args.dump_matrix:
        files["matrix.bin"] = mat
    text = (f"{args.algo} n={args.n} alpha={_fmt(args.alpha)}: "
            f"max|margin|/sqrt(n)={payload['max_abs_margin_over_sqrt_n']:.4f}")
    return files, text, EXIT_OK


def _stem(name: str, n: int, alpha: float, kappa: float, seed: int) -> str:
    return f"{name}_n{n}_alpha{_fmt(alpha)}_kappa{_fmt(kappa)}_seed{seed}"


# Each experiment runner reads only the flags its EXPERIMENTS entry lists.


def _majority_stability(a: argparse.Namespace) -> tuple[dict, str, int]:
    """majority-vote Hamming distance under ensemble rotation"""
    s = majority_stability_trial(a.n, a.k_rows, a.tau, a.trials, a.seed)
    stem = _stem("majority_stability", a.n, s.alpha, 0, a.seed)
    expected = s.n * a.tau / math.pi
    return {
        stem + ".csv": (["trial", "hamming_distance"],
                        [[i, int(d)] for i, d in enumerate(s.per_trial)]),
        stem + "_summary.json": _fields(s, "experiment n alpha trials seed mean std_error")
        | {"tau": a.tau, "expected_mean": expected},
    }, f"majority stability: mean d_H = {s.mean:.2f} (expected {expected:.2f})", EXIT_OK


def _kim_roche_stability(a: argparse.Namespace) -> tuple[dict, str, int]:
    """coupled Kim-Roche runs under ensemble rotation"""
    res = kim_roche_stability_trial(a.n, a.alpha, a.tau, a.trials, a.seed, threshold=a.threshold)
    # The experiment has no margin; a literal kappa1 keeps its file names unchanged.
    stem = _stem("kim_roche_stability", a.n, a.alpha, 1, a.seed)
    rows = [
        [i, res.final_distances[i],
         ";".join(str(x) for x in res.round_disagreements[i]),
         ";".join(repr(x) for x in res.vote_set_agreements[i])]
        for i in range(res.trials)
    ]
    summary = _fields(res, "n alpha tau trials seed median_final_ratio threshold")
    return {
        stem + ".csv": (["trial", "final_hamming", "round_disagreements",
                         "vote_set_agreements"], rows),
        stem + "_summary.json": summary | {"fraction_below_threshold": res.fraction_below},
    }, f"kim-roche stability: median d_H/n = {res.median_final_ratio:.4f}", EXIT_OK


def _trajectory(a: argparse.Namespace) -> tuple[dict, str, int]:
    """replica overlaps along an interpolation path"""
    traj = overlap_trajectory(a.n, a.alpha, a.kappa, a.solver, a.replicas, a.q_steps, a.seed)
    stem = _stem(f"trajectory_{a.solver}", a.n, a.alpha, a.kappa, a.seed)
    r = traj.n_replicas
    rows = [
        [i, j, k, repr(traj.tau_grid[k]), repr(float(traj.values[i, j, k]))]
        for i in range(r) for j in range(r) for k in range(traj.values.shape[2])
    ]
    final = float(np.mean(traj.values[:, :, -1][~np.eye(r, dtype=bool)]))
    return {
        stem + ".csv": (["i", "j", "k", "tau", "overlap"], rows),
        stem + "_summary.json": _fields(traj, "solver n alpha kappa seed tau_grid")
        | {"feasible": traj.feasible.tolist(), "mean_offdiagonal_final": final},
    }, f"trajectory ({a.solver}): wrote {stem}.csv", EXIT_OK


def _census(a: argparse.Namespace) -> tuple[dict, str, int]:
    """close solution pairs under column resampling"""
    res = online_failure_census(a.n, a.alpha, a.delta, a.trials, a.seed, a.kappa)
    stem = _stem("census", a.n, a.alpha, a.kappa, a.seed)
    return {
        stem + ".csv": (["trial", "close_pair_exists"],
                        [[i, int(hit)] for i, hit in enumerate(res.per_trial)]),
        stem + "_summary.json": _fields(res, "n alpha delta kappa trials seed successes fraction")
        | {"wilson95": [res.wilson_lo, res.wilson_hi]},
    }, (f"census: close-pair fraction {res.fraction:.3f} "
        f"[{res.wilson_lo:.3f}, {res.wilson_hi:.3f}]"), EXIT_OK


def _two_stage(a: argparse.Namespace) -> tuple[dict, str, int]:
    """online solver run twice across a column resample"""
    res = online_two_stage_trial(a.n, a.alpha, a.delta, a.trials, a.seed,
                                 strategy=a.strategy, kappa=a.kappa)
    stem = _stem(f"two_stage_{a.strategy}", a.n, a.alpha, a.kappa, a.seed)
    summary = _fields(res, "n alpha delta kappa strategy trials seed successes fraction")
    return {
        stem + "_summary.json": summary | {"wilson95": [res.wilson_lo, res.wilson_hi]},
    }, f"two-stage ({res.strategy}): success fraction {res.fraction:.3f}", EXIT_OK


def _universality(a: argparse.Namespace) -> tuple[dict, str, int]:
    """gaussian-vs-rademacher box probability gaps"""
    try:
        sizes = tuple(int(x) for x in a.sizes.split(","))
    except ValueError:
        raise UsageError(f"--sizes takes comma-separated integers, got {a.sizes!r}") from None
    res = universality_gap(sizes, a.kappa, m=a.m, beta=a.beta, trials=a.trials, seed=a.seed)
    stem = f"universality_n{'-'.join(str(s) for s in sizes)}_kappa{_fmt(a.kappa)}_seed{a.seed}"
    rows = [[r.n, repr(r.p_gaussian), repr(r.p_rademacher), repr(r.gap),
             repr(r.gap_std_error), r.trials] for r in res.rows]
    slope = "n/a" if res.slope is None else f"{res.slope:.3f}"
    return {
        stem + ".csv": (["n", "p_gaussian", "p_rademacher", "gap", "gap_std_error",
                         "trials"], rows),
        stem + "_summary.json": _fields(res, "kappa m beta trials seed slope slope_std_error")
        | {"gaps": [r.gap for r in res.rows]},
    }, f"universality: gaps {[f'{r.gap:.5f}' for r in res.rows]} slope {slope}", EXIT_OK


def _stable_params(a: argparse.Namespace) -> tuple[dict, str, int]:
    """stable-replica hardness parameters"""
    p = stable_replica_parameters(a.kappa, a.alpha, a.m, a.eta, a.sensitivity)
    text = (f"stability rate {p.stability_rate:.3e}, angle steps {p.q_steps:.3e}, "
            f"log2 log2 T = {p.log2_log2_t:.3e}")
    return {"stable_params.json": asdict(p)}, text, EXIT_OK


#: Every experiment flag with its argparse settings; ``k_rows`` is ``--k-rows``.
_EXPERIMENT_FLAGS = {
    "n": {"type": int, "default": 1000},
    "alpha": {"type": float, "default": 0.01},
    "kappa": {"type": float, "default": 1.0},
    "tau": {"type": float, "default": 0.1},
    "delta": {"type": float, "default": 0.1},
    "k_rows": {"type": int, "default": 100},
    "trials": {"type": int, "default": 50},
    "seed": {"type": int, "default": 0},
    "threshold": {"type": float, "default": 0.05},
    "solver": {"choices": TRAJECTORY_SOLVERS, "default": "majority"},
    "strategy": {"choices": ONLINE_STRATEGIES, "default": "greedy_minimax"},
    "replicas": {"type": int, "default": 3},
    "q_steps": {"type": int, "default": 4},
    "sizes": {"default": "100,400,1600"},
    "m": {"type": int, "default": 1},
    "beta": {"type": float, "default": None},
    "eta": {"type": float, "default": 1e-4},
    "sensitivity": {"type": float, "default": 1.0},
}

#: Experiment name -> (runner, the flags it reads).  ``flag=value`` gives the
#: experiment its own default where the shared one is outside its domain.
EXPERIMENTS = {
    "majority-stability": (_majority_stability, "n k_rows tau trials seed"),
    "kim-roche-stability": (_kim_roche_stability, "n alpha tau trials seed threshold"),
    "trajectory": (_trajectory, "n alpha kappa solver replicas q_steps seed"),
    "census": (_census, "n=12 alpha=0.25 delta trials seed kappa"),
    "two-stage": (_two_stage, "n alpha delta trials seed strategy kappa"),
    "universality": (_universality, "sizes kappa m beta trials=1000 seed"),
    "stable-params": (_stable_params, "kappa alpha m=2 eta sensitivity"),
}


def _unprintable_count() -> DomainError:
    return DomainError(
        f"the count has more than the {sys.get_int_max_str_digits()} decimal digits "
        "Python prints; raise PYTHONINTMAXSTRDIGITS to print it")


def _exact_count_unprintable(n: int, m: int, beta: float, eta: float) -> bool:
    # True only when the exact count is nonzero and 2^n, which divides it, has
    # more decimal digits than str() prints (a limit of 0 prints any).  2^n has
    # more than L digits iff 2^n >= 10^L iff n >= (10^L).bit_length(); 3.32 <
    # log2(10) < 3.33 settles every n outside [3.32 L, 3.33 L), and inside it
    # 10^L has about as many bits as the 2^n the counter would build.  n above
    # sys.maxsize is left to the counter, which refuses it at once.  Nonzero:
    # a nonempty band holds a pair; every in-band d is at most n/2, so 3d <= 2n,
    # and an even d gives the triple d12 = d13 = d23 = d through t1 = t2 = d/2.
    limit = sys.get_int_max_str_digits()
    if limit == 0 or n > sys.maxsize or 100 * n < 332 * limit:
        return False
    if 100 * n < 333 * limit and n < (10 ** limit).bit_length():
        return False
    d_lo, d_hi = overlap_band(n, beta, eta)
    if m == 3:
        d_lo += d_lo % 2
    return d_lo <= d_hi


def cmd_count_tuples(args: argparse.Namespace) -> tuple[dict, str, int]:
    if args.method == "exact" and _exact_count_unprintable(args.n, args.m, args.beta, args.eta):
        raise _unprintable_count()
    t0 = time.monotonic()
    if args.method == "exact":
        count = count_overlap_tuples_exact(args.n, args.m, args.beta, args.eta)
    else:
        count = count_overlap_tuples_bruteforce(args.n, args.m, args.beta, args.eta)
    seconds = time.monotonic() - t0
    try:
        count = str(count)  # the one decimal conversion, for the table and the text
    except ValueError:
        raise _unprintable_count() from None
    return {f"tuple_counts_n{args.n}_m{args.m}.csv": (
        ["n", "m", "beta", "eta", "kappa", "tau_set_id", "count", "seconds"],
        [[args.n, args.m, repr(args.beta), repr(args.eta), repr(0.0), "none", count,
          repr(seconds)]],
    )}, f"{count} tuples ({args.method}, {seconds:.3f}s)", EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    # Built once per process, so no default may read the environment or the clock.
    parser = _Parser(prog="marginlab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"marginlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="scan a free-energy functional for negativity")
    p.add_argument("--which", required=True, choices=["f1", "f2", "f3"])
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("mvn", help="gaussian box and orthant quantities")
    p.add_argument("--quadrant", type=float, default=None, metavar="RHO")
    p.add_argument("--conditional-mean", type=float, default=None, metavar="RHO")
    p.add_argument("--cdf", type=float, default=None, metavar="X")
    p.add_argument("--box", action="store_true")
    p.add_argument("--upper-bound", action="store_true")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(func=cmd_mvn)

    p = sub.add_parser("solve", help="run one solver on one sampled instance")
    p.add_argument("--algo", required=True,
                   choices=["majority", "kim-roche", "online-greedy", "online-exp", "exhaustive"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--dist", choices=["gaussian", "rademacher"], default="gaussian")
    p.add_argument("--d1", type=float, default=1000.0)
    p.add_argument("--power", type=float, default=3.0)
    p.add_argument("--c-rounds", type=float, default=4.0)
    p.add_argument("--asymmetric", action="store_true")
    p.add_argument("--dump-matrix", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="randomized stability and universality studies")
    names = p.add_subparsers(dest="experiment", required=True, metavar="NAME")
    for name, (run, flags) in EXPERIMENTS.items():
        q = names.add_parser(name, help=run.__doc__)
        for item in flags.split():
            flag, _, default = item.partition("=")
            settings = _EXPERIMENT_FLAGS[flag]
            if default:
                settings = settings | {"default": settings["type"](default)}
            q.add_argument("--" + flag.replace("_", "-"), **settings)
        q.add_argument("--out-dir", default=None)
        q.set_defaults(func=run)

    p = sub.add_parser("count-tuples", help="overlap-band tuple counts")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int, choices=[2, 3])
    p.add_argument("--beta", required=True, type=float)
    p.add_argument("--eta", required=True, type=float)
    p.add_argument("--method", choices=["exact", "brute"], default="exact")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_count_tuples)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        files, text, code = args.func(args)
        if "out_dir" in args:
            args.out_dir = args.out_dir or os.environ.get("MARGINLAB_OUT_DIR") or "."
            params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
            for k, v in params.items():
                if isinstance(v, float) and not math.isfinite(v):
                    raise DomainError(f"{k} must be finite, got {v}")
            files["config.json"] = {"command": args.command, "version": __version__,
                                    "parameters": params}
            os.makedirs(args.out_dir, exist_ok=True)
            for name, content in files.items():
                _write(os.path.join(args.out_dir, name), content)
        print(text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
