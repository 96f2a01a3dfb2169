"""MAX-CUT benchmark for sparse_sdp: end-to-end solve metrics and a traced
per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload maxcut-random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each instance goes through the public user pipeline: build (or read) the
MAX-CUT relaxation, find the initial point, ``solver.solve`` with the
default ``SolverConfig``, then Gram vectors and hyperplane rounding.
Instances come from ``--seed`` and the instance index; instances run one
after another in this one process until ``--seconds`` have passed (at
least MIN_INSTANCES of them).

``--trace 0`` reports the end-to-end metrics; their times are scaled to
a reference host speed measured alongside each solve (see run_instance).
``--trace 1`` runs each instance untraced and then again with every
public library function wrapped (see layers.py), checks that tracing left
each iteration CSV byte-identical, times the sparse kernels against dense
numpy on each instance's starting slack, and reports the per-layer
metrics in unscaled seconds.  Spans are written to perfbench/out/ as
gzipped CSV.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  An instance fails when it raises a library error, does not
converge, ends above the gap tolerance, has a residual above 1e-8 on any
iterate, or rounds to a cut above its bound.  ``correct`` turns false
only for a wrong answer reported as success (a converged solve failing a
check, a cut that does not recount, or tracing changing a result).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one process, one thread: steadier timings

import graphs  # noqa: E402  (imports numpy, after the thread settings above)
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_INSTANCES = 3
# Seconds the calibration loop takes on an uncontended core of the 2-vCPU
# x86-64 VM (Python 3.11) the benchmark was written on; see run_instance().
CAL_REF_S = 3e-4
SETUP_REPEATS = 3         # set-ups timed per instance in the untraced pass
ROUNDING_TRIALS = 100
RESIDUAL_TOL = 1e-8
MODULES = ("bench", "completion", "errors", "logdet", "maxcut", "problem",
           "sdpa", "solver", "sparsemat", "chordal")

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("iterations", "count"),
    ("cut_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Library:
    """The sparse_sdp modules, imported from this checkout's src/."""

    def __init__(self):
        package = SRC / "sparse_sdp" / "__init__.py"
        if not package.is_file():
            raise ImportError(f"{package} not found: run from a full checkout")
        sys.path.insert(0, str(SRC))
        for name in MODULES:
            module = importlib.import_module(f"sparse_sdp.{name}")
            if Path(module.__file__).resolve().parent != package.parent.resolve():
                raise ImportError(f"sparse_sdp.{name} resolved outside {SRC}")
            setattr(self, name, module)


@dataclass(frozen=True)
class Workload:
    name: str
    graph: object         # (lib, seed, index) -> Graph
    via_sdpa: bool        # write .dat-s untimed, then read it in set-up


# Sizes keep one solve near a second, so a 30 s run medians over 15-30
# instances.  BENCHMARK.json records why each family was chosen.

def _random(lib, seed, index):
    # heavy fill (cliques up to ~14): hess_vec takes the largest solve share
    return lib.maxcut.random_graph(35, 105, lib.bench.trial_seed(seed, index))


def _banded(lib, seed, index):
    # cliques of at most 4 vertices, but CG runs ~0.7 m iterations per solve
    return lib.maxcut.Graph(*graphs.banded_graph(60, 3, lib.bench.trial_seed(seed, index)))


def _torus(lib, seed, index):
    # shortest CG; step-search trials and completions take the largest share.
    # Weights 1-2 keep iteration counts alike across instances.
    return lib.maxcut.Graph(*graphs.odd_torus_graph(
        5, 7, lib.bench.trial_seed(seed, index), max_weight=2))


WORKLOADS = {wl.name: wl for wl in (
    Workload("maxcut-random", _random, via_sdpa=False),
    Workload("maxcut-banded", _banded, via_sdpa=False),
    Workload("maxcut-torus", _torus, via_sdpa=True),
)}


@dataclass
class Outcome:
    index: int
    setup_s: list
    solve_s: float
    wall_s: float
    scale: float = 1.0             # host speed factor, see run_instance
    csv: str | None = None
    iterations: int | None = None
    rel_gap: float | None = None
    cut_ratio: float | None = None
    failure: str | None = None     # why the instance counts as failed
    wrong: str | None = None       # why a reported success is wrong


def write_maxcut_sdpa(lib, graph, path):
    """Write the graph's MAX-CUT relaxation as an SDPA sparse file."""
    problem = lib.maxcut.maxcut_sdp(graph)
    back = lib.sparsemat.EliminationOrdering(problem.ordering.inverse)  # original labels
    lib.sdpa.write_sdpa(path, problem.c.permuted(back),   # zero fill entries are skipped
                        [a.permuted(back) for a in problem.constraints], problem.b)


def set_up(lib, wl, graph, path):
    """Build (or read) the problem and its initial point: the timed set-up."""
    if wl.via_sdpa:
        c, constraints, b = lib.sdpa.read_sdpa(path)
        problem = lib.problem.SdpProblem(c, constraints, b)
    else:
        problem = lib.maxcut.maxcut_sdp(graph)
    x0, y0 = lib.maxcut.initial_point(problem)
    return problem, x0, y0


_CAL_INDEX = {(i, j): 50 * i + j for i in range(50) for j in range(50)}
_CAL_VALUES = [0.5 * (k % 13) for k in range(2500)]


def _calibration_loop():
    """Fixed scalar work shaped like the sparse kernels' inner loops:
    tuple-keyed dict lookups, list indexing and float arithmetic."""
    s = 0.0
    for i in range(50):
        for j in range(i):
            s -= _CAL_VALUES[_CAL_INDEX[(i, j)]] * _CAL_VALUES[_CAL_INDEX[(j, i)]] + 0.5
    return s


def _calibrate(samples, bursts):
    """Append ``bursts`` calibration-loop times; return the seconds spent."""
    t_start = time.perf_counter()
    for _ in range(bursts):
        t0 = time.perf_counter()
        _calibration_loop()
        samples.append(time.perf_counter() - t0)
    return time.perf_counter() - t_start


def run_instance(lib, wl, seed, index, workdir, setups=1, calibrate=False,
                 on_setup=None, label=""):
    """One instance through the user pipeline, with its correctness checks.

    With ``calibrate``, the solve's observer (called once per iteration)
    times two bursts of a fixed calibration loop.  On a shared host the
    same solve takes up to 1.5x longer while neighbours are busy, and the
    loop slows with it, so ``scale`` = CAL_REF_S / (median loop time)
    turns this instance's seconds into seconds at the reference host
    speed.  The calibration time is taken out of the solve time, and the
    program cannot change the loop.
    """
    graph = wl.graph(lib, seed, index)
    path = os.path.join(workdir, f"instance{index}.dat-s")
    if wl.via_sdpa and not os.path.exists(path):   # a traced rerun reuses the file
        write_maxcut_sdpa(lib, graph, path)
    samples = []
    calibration_s = 0.0
    if calibrate:
        _calibrate(samples, 5)
    setup_times = []
    try:
        for _ in range(setups):
            t0 = time.perf_counter()
            problem, x0, y0 = set_up(lib, wl, graph, path)
            setup_times.append(time.perf_counter() - t0)
    except lib.errors.SparseSdpError as exc:
        return Outcome(index, setup_times, 0.0, sum(setup_times),
                       failure=f"set-up raised {type(exc).__name__}")
    if on_setup is not None:
        on_setup(problem)

    def observer(record):
        nonlocal calibration_s
        calibration_s += _calibrate(samples, 2)

    cfg = lib.solver.SolverConfig()
    t0 = time.perf_counter()
    try:
        report = lib.solver.solve(problem, x0, y0, cfg,
                                  observer=observer if calibrate else None)
        error = None
    except lib.errors.SparseSdpError as exc:
        report = getattr(exc, "report", None)
        error = type(exc).__name__
    solve_s = time.perf_counter() - t0 - calibration_s
    out = Outcome(index, setup_times, solve_s, setup_times[-1] + solve_s)
    if report is not None:
        out.csv = report.csv_text()
        out.iterations = report.iterations
        out.rel_gap = report.gap / (1.0 + abs(report.objective_primal)
                                    + abs(report.objective_dual))
    if error is not None:
        out.failure = f"solve raised {error}"
    else:
        _round_and_check(lib, graph, problem, report, cfg, out)
    if calibrate:
        _calibrate(samples, 5)
        out.scale = CAL_REF_S / statistics.median(samples)
    print(f"{label}instance {index}: solve {out.solve_s:.3f} s"
          + (f" (host scale {out.scale:.3f})" if calibrate else "")
          + f", {out.iterations} iterations, cut/bound {out.cut_ratio}"
          + (f", FAILED: {out.failure}" if out.failure else ""), file=sys.stderr)
    return out


def _round_and_check(lib, graph, problem, report, cfg, out):
    problems = []
    if report.status != "converged":
        problems.append(f"status {report.status}")
    if not report.gap <= cfg.gap_tol:
        problems.append(f"gap {report.gap:.3e} above {cfg.gap_tol}")
    worst = max((max(r.primal_residual, r.dual_residual) for r in report.records),
                default=0.0)
    if not worst <= RESIDUAL_TOL:
        problems.append(f"residual {worst:.3e} above {RESIDUAL_TOL}")

    t0 = time.perf_counter()
    bound = -report.objective_dual
    vectors = lib.maxcut.gram_vectors(problem, report.state)
    cut = lib.maxcut.hyperplane_rounding(vectors, graph, trials=ROUNDING_TRIALS,
                                         seed=out.index, sdp_bound=bound)
    out.wall_s += time.perf_counter() - t0
    recount = sum(w for i, j, w in graph.edges if cut.sides[i] != cut.sides[j])
    if cut.cut_value > bound + 1e-9 * (1.0 + abs(bound)):
        problems.append(f"cut {cut.cut_value!r} above bound {bound!r}")
    if abs(recount - cut.cut_value) > 1e-9 * (1.0 + abs(recount)):
        problems.append(f"cut {cut.cut_value!r} recounts to {recount!r}")
    out.cut_ratio = cut.cut_value / bound
    if problems:
        out.failure = "; ".join(problems)
        if report.status == "converged":
            out.wrong = out.failure


def run_until(deadline, run_one):
    """run_one(0), run_one(1), ... until the deadline (at least MIN_INSTANCES)."""
    results = []
    while len(results) < MIN_INSTANCES or time.perf_counter() < deadline:
        results.append(run_one(len(results)))
    return results


def end_to_end_metrics(outcomes):
    """Times are host-scaled seconds (see run_instance)."""
    setups = [t * o.scale for o in outcomes for t in o.setup_s]
    finished = [o for o in outcomes if o.iterations is not None]
    rounded = [o.cut_ratio for o in outcomes if o.cut_ratio is not None]
    return {
        "setup_s": statistics.median(setups) if setups else None,
        "solve_s": statistics.median(o.solve_s * o.scale for o in outcomes),
        "wall_s": statistics.median(o.wall_s * o.scale for o in outcomes),
        # median: a few instances take 1.5-3x the usual iteration count
        "iterations": (statistics.median(o.iterations for o in finished)
                       if finished else None),
        "cut_ratio": min(rounded) if rounded else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(lib, wl, seed, seconds, workdir):
    """Each instance untraced, then at once traced; then dense references.

    Running the pair back to back keeps host-speed drift out of
    ``trace_overhead``.
    """
    tracer = Tracer(layers.PACKAGE)

    def pair(index):
        plain = run_instance(lib, wl, seed, index, workdir, label="untraced ")
        tracer.instance = index
        with tracer:
            layers.install(tracer, lib)
            traced = run_instance(lib, wl, seed, index, workdir, label="traced ",
                                  on_setup=lambda p: layers.record_structure(tracer, p))
        return plain, traced

    pairs = run_until(time.perf_counter() + seconds, pair)
    plain = [p for p, _ in pairs]
    wrong = [f"instance {p.index}: tracing changed the iteration CSV"
             for p, t in pairs if p.csv != t.csv]
    metrics, attribution_ok = layers.layer_metrics(tracer, len(pairs))
    if not attribution_ok:
        wrong.append("self times do not sum to the traced solve time")
    metrics["trace_overhead"] = (sum(t.wall_s for _, t in pairs)
                                 / sum(p.wall_s for p in plain) - 1.0)
    gaps = [o.rel_gap for o in plain if o.rel_gap is not None]
    if gaps:
        metrics["solver.rel_gap_max"] = max(gaps)

    refs = {}
    for o in plain:
        graph = wl.graph(lib, seed, o.index)
        path = os.path.join(workdir, f"instance{o.index}.dat-s")
        problem, _, y0 = set_up(lib, wl, graph, path)
        timings, ok = layers.dense_reference(lib, problem, y0)
        if not ok:
            wrong.append(f"instance {o.index}: sparse kernel disagrees with dense numpy")
        for kernel, timing in timings.items():
            refs.setdefault(kernel, []).append(timing)
    for kernel, timings in refs.items():
        sparse_s = statistics.fmean(t[0] for t in timings)
        dense_s = statistics.fmean(t[1] for t in timings)
        metrics[f"{kernel}.dense_ref_s"] = dense_s
        metrics[f"{kernel}.sparse_dense_ratio"] = sparse_s / dense_s
    missing = layers.complete(metrics, tracer.absent)

    tracer.write_csv(OUT_DIR / f"spans-{wl.name}-seed{seed}.csv.gz")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return plain, metrics, units, wrong, missing


def run_workload(lib, name, seed, seconds, trace):
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if trace:
            outcomes, metrics, units, wrong, missing = traced_metrics(
                lib, wl, seed, seconds, workdir)
        else:
            outcomes = run_until(time.perf_counter() + seconds, lambda index: run_instance(
                lib, wl, seed, index, workdir, setups=SETUP_REPEATS, calibrate=True))
            metrics = end_to_end_metrics(outcomes)
            units = dict(END_TO_END)
            wrong, missing = [], []
    wrong += [f"instance {o.index}: {o.wrong}" for o in outcomes if o.wrong]
    failed = sum(1 for o in outcomes if o.failure)
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}: "
          f"{len(outcomes)} instances, {failed} failed "
          f"(fail_frac {failed / len(outcomes):.3f}); unscaled median solve "
          f"{statistics.median(o.solve_s for o in outcomes):.4f} s, median host scale "
          f"{statistics.median(o.scale for o in outcomes):.4f}")
    for key, value in metrics.items():
        print(f"   {key:52s} {value!r:>24} {units[key]}")
    for key in missing:
        print(f"   {key:52s} {'absent':>24}")
    for line in wrong:
        print(f"   WRONG: {line}")
    return metrics, units, len(outcomes), failed, not wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = Library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, units, attempted, failed, correct = run_workload(
            lib, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        for key, value in metrics.items():
            if value is not None and math.isfinite(value):
                result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
