"""Command-line surface.

Subcommands: solve (SDPA sparse input), maxcut (edge-list input),
gen-graph, bench-table1, bench-directions, bench-banded.  Exit codes:
0 success, 1 input/feasibility error, 2 non-convergence (an iteration
limit, a stall or a Newton breakdown).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import bench
from .errors import (InfeasibleStart, IterationLimit, NotPositiveDefinite,
                     SdpaParseError, TooManyEdges)
from .maxcut import (initial_point, random_graph, read_graph, solve_maxcut,
                     write_graph)
from .problem import SdpProblem
from .sdpa import read_sdpa
from .solver import FEAS_TOL, SolverConfig, solve
from .sparsemat import SparseSymMatrix, cholesky_factorize


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, low in (("trials", 1), ("reps", 0), ("bandwidth", 0), ("diff", 0)):
            if getattr(args, flag, low) < low:
                raise ValueError(f"--{flag} must be at least {low}, got {getattr(args, flag)}")
        return args.func(args)
    except (SdpaParseError, TooManyEdges, InfeasibleStart, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationLimit as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None and getattr(args, "out_csv", None):
            exc.report.write_csv(args.out_csv)
        return 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparse-sdp",
        description="Sparse SDP solver with a MAX-CUT front end and benchmarks",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("solve", help="solve an SDPA sparse (.dat-s) instance")
    p.add_argument("path")
    _solver_flags(p)
    p.add_argument("--out-csv", default=None, help="iteration trace CSV path")
    p.add_argument("--out-json", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("maxcut", help="solve MAX-CUT for an edge-list graph file")
    p.add_argument("path")
    _solver_flags(p)
    p.add_argument("--trials", type=int, default=100, help="rounding trials")
    p.add_argument("--seed", type=int, default=0, help="rounding seed")
    p.add_argument("--out-csv", default=None, help="iteration trace CSV path")
    p.set_defaults(func=cmd_maxcut)

    p = sub.add_parser("gen-graph", help="write a random simple graph")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("bench-table1", help="mean solver statistics per size")
    p.add_argument("--sizes", default="5:7,10:16,20:40",
                   help="comma list of n:m pairs")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=1e-3)
    p.add_argument("-o", "--output", default=None, help="CSV output path")
    p.set_defaults(func=cmd_bench_table1)

    p = sub.add_parser("bench-directions", help="four- vs two-direction comparison")
    p.add_argument("--sizes", default="10:16")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=1e-3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench_directions)

    p = sub.add_parser("bench-banded", help="time the banded completion log-det")
    p.add_argument("--mode", choices=("fix-bandwidth", "fix-diff"),
                   default="fix-bandwidth")
    p.add_argument("--range", dest="sweep", default=None,
                   help="lo:hi[:step] sweep of n (fix-bandwidth) or p (fix-diff)")
    p.add_argument("--bandwidth", type=int, default=3,
                   help="fixed bandwidth (fix-bandwidth mode)")
    p.add_argument("--diff", type=int, default=10,
                   help="fixed n - p (fix-diff mode)")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench_banded)
    return parser


def _solver_flags(p):
    p.add_argument("--gamma", type=float, default=None,
                   help="potential weight, defaults to sqrt(n)")
    p.add_argument("--gap-tol", type=float, default=1e-3)
    p.add_argument("--directions", type=int, choices=(2, 4), default=4)
    p.add_argument("--max-iters", type=int, default=200)


def _config(args):
    return SolverConfig(
        gamma=args.gamma,
        gap_tol=args.gap_tol,
        direction_mode="two" if args.directions == 2 else "four",
        max_main_iters=args.max_iters,
    )


def cmd_solve(args):
    c, constraints, b = read_sdpa(args.path)
    problem = SdpProblem(c, constraints, b)
    x0, y0 = _generic_initial_point(problem)
    report = solve(problem, x0, y0, _config(args))
    path = Path(args.path)
    csv_path = args.out_csv or path.with_name(f"{path.stem}_iterations.csv")
    json_path = args.out_json or path.with_name(f"{path.stem}_summary.json")
    report.write_csv(csv_path)
    report.write_summary(json_path)
    print(f"status: {report.status}")
    print(f"iterations: {report.iterations}")
    print(f"objective primal (C.X): {report.objective_primal!r}")
    print(f"objective dual (b.y): {report.objective_dual!r}")
    print(f"gap: {report.gap!r}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _generic_initial_point(problem):
    """Identity-based start; falls back to the diagonal-constraint shift."""
    try:
        return initial_point(problem)
    except ValueError:
        pass
    x0 = SparseSymMatrix.identity(problem.fill)
    resid = problem.apply_map(x0) - problem.b
    if np.abs(resid).max(initial=0.0) > FEAS_TOL:
        raise InfeasibleStart(
            "no built-in initial point: identity is not primal feasible")
    y0 = np.zeros(problem.m)
    try:
        cholesky_factorize(problem.dual_slack(y0))
    except NotPositiveDefinite:
        raise InfeasibleStart(
            "no built-in initial point: C is not positive definite and the "
            "constraints are not unit-diagonal") from None
    return x0, y0


def cmd_maxcut(args):
    graph = read_graph(args.path)
    cfg = _config(args)
    report, result = solve_maxcut(graph, cfg, trials=args.trials, seed=args.seed)
    if args.out_csv:
        report.write_csv(args.out_csv)
    print(f"status: {report.status}")
    print(f"iterations: {report.iterations}")
    print(f"sdp bound (max form): {result.sdp_bound!r}")
    # + 0.0 turns the -0.0 of an edgeless graph's zero objective into 0.0
    print(f"sdp primal value (max form): {-report.objective_primal + 0.0!r}")
    print(f"best cut: {result.cut_value!r} over {result.trials} trials")
    print("sides: " + "".join("+" if s > 0 else "-" for s in result.sides))
    return 0


def cmd_gen_graph(args):
    graph = random_graph(args.n, args.m, args.seed)
    write_graph(graph, args.output)
    print(f"wrote {args.output} ({graph.n} vertices, {graph.m} edges)")
    return 0


def _write_rows(path, fieldnames, rows):
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                             for k, v in row.items()})
    if path:
        with open(path, "w", newline="") as fh:
            emit(fh)
        print(f"wrote {path}")
    else:
        emit(sys.stdout)


def cmd_bench_table1(args):
    sizes = bench.parse_sizes(args.sizes)
    rows = bench.run_table_of_iterations(sizes, args.trials, args.seed,
                                         gamma=args.gamma, gap_tol=args.gap_tol)
    _write_rows(args.output,
                ["n", "m", "trials", "mean_time", "median_time",
                 "mean_main_iters", "max_newton_res", "mean_pot_min"],
                rows)
    return 0


def cmd_bench_directions(args):
    sizes = bench.parse_sizes(args.sizes)
    rows = bench.run_direction_comparison(sizes, args.trials, args.seed,
                                          gamma=args.gamma, gap_tol=args.gap_tol)
    _write_rows(args.output,
                ["mode", "n", "m", "trials", "mean_time", "median_time",
                 "mean_iters"],
                rows)
    return 0


def _parse_sweep(text, default):
    if not text:
        return default
    parts = [int(v) for v in text.split(":")]
    if len(parts) == 2:
        lo, hi, step = parts[0], parts[1], 1
    elif len(parts) == 3:
        lo, hi, step = parts
    else:
        raise ValueError(f"bad sweep {text!r}, expected lo:hi[:step]")
    if step < 1:
        raise ValueError(f"bad sweep {text!r}, step must be at least 1")
    return list(range(lo, hi + 1, step))


def cmd_bench_banded(args):
    if args.mode == "fix-bandwidth":
        values = _parse_sweep(args.sweep, list(range(6, 41)))
        rows = bench.run_banded_fixed_bandwidth(args.bandwidth, values,
                                                args.reps, args.seed)
        fields = ["n", "bandwidth", "reps", "mean_time", "median_time", "min_time"]
    else:
        values = _parse_sweep(args.sweep, list(range(1, 41)))
        rows = bench.run_banded_fixed_diff(args.diff, values, args.reps,
                                           args.seed)
        fields = ["bandwidth", "bandwidth_sq", "n", "reps", "mean_time",
                  "median_time", "min_time"]
    _write_rows(args.output, fields, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
