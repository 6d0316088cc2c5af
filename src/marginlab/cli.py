"""Command-line interface.

Subcommands mirror the library layers: ``thresholds`` scans a free-energy
functional, ``mvn`` evaluates gaussian box/orthant quantities, ``solve`` runs
one solver on one sampled instance, ``experiment`` drives the randomized
studies, and ``count-tuples`` tabulates overlap-band tuple counts.

Exit codes are part of the contract:

    0   success
    2   clean negative result (a scan found no certified-negative point)
    64  usage error (bad flags or arguments)
    65  domain error (parameters outside the mathematically valid range)
    66  enumeration cap exceeded

Every run writes ``config.json`` with the resolved parameters next to its
outputs, and all CSV output is deterministic: running the same command with
the same seed twice produces byte-identical files (the tuple-count table is
the one exception; its schema includes wall-clock seconds).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .disorder import dump_matrix, sample_disorder
from .errors import (
    CapExceededError,
    DomainError,
    MarginlabError,
    UsageError,
)
from .landscape import (
    TupleCountRecord,
    count_overlap_tuples_bruteforce,
    count_overlap_tuples_exact,
    write_tuple_counts_csv,
)
from .mvn import (
    box_probability_equicorrelated,
    box_probability_general,
    box_probability_upper_bound,
    conditional_mean,
    quadrant_probability,
    std_normal_cdf,
)
from .solvers import (
    exhaustive_solve,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
)
from .experiments import (
    kim_roche_stability_trial,
    majority_stability_trial,
    online_failure_census,
    online_two_stage_trial,
    overlap_trajectory,
    stable_replica_parameters,
    universality_gap,
)
from .thresholds import (
    scan_negativity,
    write_scan_csv,
    write_scan_summary_json,
)

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


def _out_dir(args: argparse.Namespace) -> str:
    d = args.out_dir or os.environ.get("MARGINLAB_OUT_DIR") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write_config(out_dir: str, command: str, params: dict) -> None:
    payload = {"command": command, "version": __version__, "parameters": params}
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:g}"


def cmd_thresholds(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    result = scan_negativity(args.which, args.alpha, lo=args.lo, hi=args.hi, step=args.step)
    stem = f"scan_{result.which}_alpha{_fmt(result.alpha)}"
    write_scan_csv(os.path.join(out, stem + ".csv"), result)
    write_scan_summary_json(os.path.join(out, stem + "_summary.json"), result)
    _write_config(out, "thresholds", {
        "which": args.which, "alpha": args.alpha, "lo": args.lo, "hi": args.hi,
        "step": args.step, "out_dir": out,
    })
    print(
        f"{result.which} alpha={_fmt(result.alpha)}: argmin={result.argmin_abscissa:.6g} "
        f"min={result.min_value:.6g} negative_points={result.n_negative}"
    )
    if not result.has_negative:
        print("no certified-negative point on the grid")
        return EXIT_NEGATIVE_RESULT
    lo, hi = result.negative_interval
    print(f"negative interval: [{lo:.6g}, {hi:.6g}]")
    return EXIT_OK


def cmd_mvn(args: argparse.Namespace) -> int:
    if args.quadrant is not None:
        print(repr(quadrant_probability(args.quadrant)))
        return EXIT_OK
    if args.conditional_mean is not None:
        print(repr(conditional_mean(args.conditional_mean)))
        return EXIT_OK
    if args.cdf is not None:
        print(repr(std_normal_cdf(args.cdf)))
        return EXIT_OK
    if args.upper_bound:
        from .mvn import CovarianceSpec

        spec = CovarianceSpec(dim=args.m, beta=args.beta)
        print(repr(box_probability_upper_bound(spec, args.kappa)))
        return EXIT_OK
    if args.box:
        if args.general:
            from .mvn import CovarianceSpec

            spec = CovarianceSpec(dim=args.m, beta=args.beta)
            res = box_probability_general(spec, args.kappa, budget=args.budget)
        else:
            res = box_probability_equicorrelated(args.m, args.beta, args.kappa)
        print(f"{res.value!r} (abs error <= {res.abs_error_estimate:.3g}, {res.method})")
        return EXIT_OK
    raise UsageError("choose one of --quadrant, --conditional-mean, --cdf, --box, --upper-bound")


def _signs_string(sv) -> str:
    return "".join("+" if s > 0 else "-" for s in sv.signs())


def cmd_solve(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    mat = sample_disorder(args.n, args.alpha, args.dist, args.seed)
    trace_payload = None
    if args.algo == "majority":
        sv = majority_solve(mat)
        feasible = None
    elif args.algo == "kim-roche":
        sched = kim_roche_schedule(args.n, args.c_rounds, (args.d1, args.power))
        sv, trace = kim_roche_solve(mat, sched, collect_trace=True)
        feasible = None
        trace_payload = {
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
                    "violated_rows_after": r.violated_after,
                }
                for r in trace
            ],
        }
    elif args.algo in ("online-greedy", "online-exp"):
        strategy = "greedy_minimax" if args.algo == "online-greedy" else "exp_potential"
        sv, feasible, trace = online_solve(mat, args.kappa, strategy, collect_trace=True)
        trace_payload = {
            "per_step_max_abs_margin": [s.max_abs_margin for s in trace],
        }
    elif args.algo == "exhaustive":
        sv = exhaustive_solve(mat, args.kappa, symmetric=not args.asymmetric, n_cap=args.n_cap)
        if sv is None:
            print("no satisfying configuration")
            _write_config(out, "solve", vars(args) | {"out_dir": out})
            return EXIT_NEGATIVE_RESULT
        feasible = True
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown algorithm {args.algo}")

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
    _write_json(os.path.join(out, "solution.json"), payload)
    if trace_payload is not None:
        _write_json(os.path.join(out, "trace.json"), trace_payload)
    if args.dump_matrix:
        dump_matrix(mat, os.path.join(out, "matrix.bin"))
    _write_config(out, "solve", vars(args) | {"out_dir": out})
    print(
        f"{args.algo} n={args.n} alpha={_fmt(args.alpha)}: "
        f"max|margin|/sqrt(n)={payload['max_abs_margin_over_sqrt_n']:.4f}"
    )
    return EXIT_OK


def _experiment_stem(name: str, args: argparse.Namespace) -> str:
    kappa = getattr(args, "kappa", 0.0) or 0.0
    return (
        f"{name}_n{args.n}_alpha{_fmt(args.alpha)}_kappa{_fmt(kappa)}_seed{args.seed}"
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    name = args.experiment
    if name == "majority-stability":
        summary = majority_stability_trial(args.n, args.k_rows, args.tau, args.trials, args.seed)
        stem = f"majority_stability_n{args.n}_alpha{_fmt(summary.alpha)}_kappa0_seed{args.seed}"
        with open(os.path.join(out, stem + ".csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "hamming_distance"])
            for i, d in enumerate(summary.per_trial):
                w.writerow([i, int(d)])
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "experiment": summary.experiment,
            "n": summary.n, "alpha": summary.alpha, "tau": args.tau,
            "trials": summary.trials, "seed": summary.seed,
            "mean": summary.mean, "std_error": summary.std_error,
            "expected_mean": summary.n * args.tau / math.pi,
        })
        print(f"majority stability: mean d_H = {summary.mean:.2f} "
              f"(expected {summary.n * args.tau / math.pi:.2f})")
    elif name == "kim-roche-stability":
        res = kim_roche_stability_trial(
            args.n, args.alpha, args.tau, args.trials, args.seed,
            threshold=args.threshold,
        )
        stem = _experiment_stem("kim_roche_stability", args)
        with open(os.path.join(out, stem + ".csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "final_hamming", "round_disagreements", "vote_set_agreements"])
            for i in range(res.trials):
                w.writerow([
                    i, res.final_distances[i],
                    ";".join(str(x) for x in res.round_disagreements[i]),
                    ";".join(repr(x) for x in res.vote_set_agreements[i]),
                ])
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "n": res.n, "alpha": res.alpha, "tau": res.tau, "trials": res.trials,
            "seed": res.seed, "median_final_ratio": res.median_final_ratio,
            "fraction_below_threshold": res.fraction_below, "threshold": res.threshold,
        })
        print(f"kim-roche stability: median d_H/n = {res.median_final_ratio:.4f}")
    elif name == "trajectory":
        traj = overlap_trajectory(
            args.n, args.alpha, args.kappa, args.solver, args.replicas,
            args.q_steps, args.seed,
        )
        stem = _experiment_stem(f"trajectory_{args.solver}", args)
        with open(os.path.join(out, stem + ".csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "k", "tau", "overlap"])
            t_count = traj.values.shape[2]
            for i in range(traj.n_replicas):
                for j in range(traj.n_replicas):
                    for k in range(t_count):
                        w.writerow([i, j, k, repr(traj.tau_grid[k]),
                                    repr(float(traj.values[i, j, k]))])
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "solver": traj.solver, "n": traj.n, "alpha": traj.alpha,
            "kappa": traj.kappa, "seed": traj.seed,
            "tau_grid": list(traj.tau_grid),
            "feasible": traj.feasible.tolist(),
            "mean_offdiagonal_final": float(
                np.mean(traj.values[:, :, -1][~np.eye(traj.n_replicas, dtype=bool)])
            ),
        })
        print(f"trajectory ({args.solver}): wrote {stem}.csv")
    elif name == "census":
        res = online_failure_census(
            args.n, args.alpha, args.delta, args.trials, args.seed, args.kappa
        )
        stem = _experiment_stem("census", args)
        with open(os.path.join(out, stem + ".csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "close_pair_exists"])
            for i, hit in enumerate(res.per_trial):
                w.writerow([i, int(hit)])
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "n": res.n, "alpha": res.alpha, "delta": res.delta, "kappa": res.kappa,
            "trials": res.trials, "seed": res.seed, "successes": res.successes,
            "fraction": res.fraction,
            "wilson95": [res.wilson_lo, res.wilson_hi],
        })
        print(f"census: close-pair fraction {res.fraction:.3f} "
              f"[{res.wilson_lo:.3f}, {res.wilson_hi:.3f}]")
    elif name == "two-stage":
        res = online_two_stage_trial(
            args.n, args.alpha, args.delta, args.trials, args.seed,
            strategy=args.strategy, kappa=args.kappa,
        )
        stem = _experiment_stem(f"two_stage_{args.strategy}", args)
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "n": res.n, "alpha": res.alpha, "delta": res.delta, "kappa": res.kappa,
            "strategy": res.strategy, "trials": res.trials, "seed": res.seed,
            "successes": res.successes, "fraction": res.fraction,
            "wilson95": [res.wilson_lo, res.wilson_hi],
        })
        print(f"two-stage ({res.strategy}): success fraction {res.fraction:.3f}")
    elif name == "universality":
        sizes = tuple(int(x) for x in args.sizes.split(","))
        res = universality_gap(
            sizes, args.kappa, m=args.m, beta=args.beta, trials=args.trials,
            seed=args.seed,
        )
        stem = (f"universality_n{'-'.join(str(s) for s in sizes)}"
                f"_kappa{_fmt(args.kappa)}_seed{args.seed}")
        with open(os.path.join(out, stem + ".csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "p_gaussian", "p_rademacher", "gap", "gap_std_error", "trials"])
            for r in res.rows:
                w.writerow([r.n, repr(r.p_gaussian), repr(r.p_rademacher),
                            repr(r.gap), repr(r.gap_std_error), r.trials])
        _write_json(os.path.join(out, stem + "_summary.json"), {
            "kappa": res.kappa, "m": res.m, "beta": res.beta, "trials": res.trials,
            "seed": res.seed, "slope": res.slope, "slope_std_error": res.slope_std_error,
            "gaps": [r.gap for r in res.rows],
        })
        slope = "n/a" if res.slope is None else f"{res.slope:.3f}"
        print(f"universality: gaps {[f'{r.gap:.5f}' for r in res.rows]} slope {slope}")
    elif name == "stable-params":
        p = stable_replica_parameters(args.kappa, args.alpha, args.m, args.eta, args.sensitivity)
        _write_json(os.path.join(out, "stable_params.json"), asdict(p))
        print(f"stability rate {p.stability_rate:.3e}, angle steps {p.q_steps:.3e}, "
              f"log2 log2 T = {p.log2_log2_t:.3e}")
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown experiment {name}")
    _write_config(out, f"experiment {name}", vars(args) | {"out_dir": out})
    return EXIT_OK


def cmd_count_tuples(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    t0 = time.monotonic()
    if args.method == "exact":
        count = count_overlap_tuples_exact(args.n, args.m, args.beta, args.eta)
    else:
        count = count_overlap_tuples_bruteforce(args.n, args.m, args.beta, args.eta)
    seconds = time.monotonic() - t0
    record = TupleCountRecord(
        n=args.n, m=args.m, beta=args.beta, eta=args.eta, kappa=0.0,
        tau_set_id="none", count=count, seconds=seconds,
    )
    path = os.path.join(out, f"tuple_counts_n{args.n}_m{args.m}.csv")
    write_tuple_counts_csv(path, [record])
    _write_config(out, "count-tuples", vars(args) | {"out_dir": out})
    print(f"{count} tuples ({args.method}, {seconds:.3f}s)")
    return EXIT_OK


def build_parser() -> _Parser:
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
    p.add_argument("--general", action="store_true",
                   help="use the general-covariance integrator instead of the one-factor form")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=None)
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
    p.add_argument("--n-cap", type=int, default=25)
    p.add_argument("--dump-matrix", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="randomized stability and universality studies")
    p.add_argument("experiment", choices=[
        "majority-stability", "kim-roche-stability", "trajectory", "census",
        "two-stage", "universality", "stable-params",
    ])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--k-rows", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--solver", choices=["majority", "kim_roche", "online_greedy", "online_exp"],
                   default="majority")
    p.add_argument("--strategy", choices=["greedy_minimax", "exp_potential"],
                   default="greedy_minimax")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--q-steps", type=int, default=4)
    p.add_argument("--sizes", default="100,400,1600")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--eta", type=float, default=1e-4)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_experiment)

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MarginlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
