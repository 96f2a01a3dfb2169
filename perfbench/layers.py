"""Per-module layer metrics: what the traced run wraps and what it reports.

Layers are named after the library's modules.  Every metric is reported
per instance (a mean over the traced instances) unless it is a ratio,
which is pooled over all of them: numerator sum / denominator sum.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PACKAGE = "sparse_sdp"
SOLVE = "solver.solve"
STEP_SEARCH = "solver.potential_minimize"

# Each metric: (name, unit, better).  BENCHMARK.json lists the same names.
PER_LAYER = [
    ("sparsemat.cholesky_factorize.calls", "count", "lower"),
    ("sparsemat.cholesky_factorize.self_s", "s", "lower"),
    ("sparsemat.cholesky_factorize.not_pd", "count", "lower"),
    ("sparsemat.cholesky_factorize.flops_computed", "flop", "lower"),
    ("sparsemat.cholesky_factorize.dense_ref_s", "s", "lower"),
    ("sparsemat.cholesky_factorize.sparse_dense_ratio", "ratio", "lower"),
    ("sparsemat.min_degree_ordering.self_s", "s", "lower"),
    ("sparsemat.symbolic_factorize.self_s", "s", "lower"),
    ("sparsemat.fill_nnz", "count", "lower"),
    ("chordal.maximal_cliques.self_s", "s", "lower"),
    ("chordal.rip_order.self_s", "s", "lower"),
    ("chordal.cliques", "count", "lower"),
    ("chordal.max_clique", "count", "lower"),
    ("completion.logdet_completion.calls", "count", "lower"),
    ("completion.logdet_completion.self_s", "s", "lower"),
    ("completion.logdet_completion.not_completable", "count", "lower"),
    ("completion.completion_inverse.calls", "count", "lower"),
    ("completion.completion_inverse.self_s", "s", "lower"),
    ("completion.completion_factors.self_s", "s", "lower"),
    ("logdet.hess_vec.calls", "count", "lower"),
    ("logdet.hess_vec.self_s", "s", "lower"),
    ("logdet.hess_vec.flops_computed", "flop", "lower"),
    ("logdet.hess_vec.solve_share", "ratio", "lower"),
    ("logdet.hess_vec.dense_ref_s", "s", "lower"),
    ("logdet.hess_vec.sparse_dense_ratio", "ratio", "lower"),
    ("logdet.sparse_inverse.calls", "count", "lower"),
    ("logdet.sparse_inverse.self_s", "s", "lower"),
    ("logdet.sparse_inverse.dense_ref_s", "s", "lower"),
    ("logdet.sparse_inverse.sparse_dense_ratio", "ratio", "lower"),
    ("problem.apply_map.calls", "count", "lower"),
    ("problem.apply_map.self_s", "s", "lower"),
    ("problem.adjoint_map.calls", "count", "lower"),
    ("problem.adjoint_map.self_s", "s", "lower"),
    ("problem.project_out_constraints.calls", "count", "lower"),
    ("problem.project_out_constraints.self_s", "s", "lower"),
    ("problem.dual_slack.calls", "count", "lower"),
    ("problem.dual_slack.self_s", "s", "lower"),
    ("solver.primal_direction.self_s", "s", "lower"),
    ("solver.dual_direction.self_s", "s", "lower"),
    ("solver.potential_minimize.self_s", "s", "lower"),
    ("solver.iteration_s", "s", "lower"),
    ("solver.conjugate_gradient.calls", "count", "lower"),
    ("solver.conjugate_gradient.self_s", "s", "lower"),
    ("solver.conjugate_gradient.iters", "count", "lower"),
    ("solver.conjugate_gradient.iters_per_m", "ratio", "lower"),
    ("solver.conjugate_gradient.cap_hits", "count", "lower"),
    ("solver.cg_converged_ratio", "ratio", "higher"),
    ("solver.step_search.trials", "count", "lower"),
    ("solver.step_search.feasible_ratio", "ratio", "higher"),
    ("solver.step_completion_share", "ratio", "lower"),
    ("solver.factorizations_per_iter", "count", "lower"),
    ("solver.rel_gap_max", "ratio", "lower"),
    ("solver.solve.traced_s", "s", "lower"),
    ("solver.solve.unattributed_s", "s", "lower"),
    ("sparsemat.in_solve_self_s", "s", "lower"),
    ("completion.in_solve_self_s", "s", "lower"),
    ("logdet.in_solve_self_s", "s", "lower"),
    ("problem.in_solve_self_s", "s", "lower"),
    ("solver.in_solve_self_s", "s", "lower"),
    ("maxcut.maxcut_sdp.self_s", "s", "lower"),
    ("maxcut.initial_point.self_s", "s", "lower"),
    ("sdpa.read_sdpa.self_s", "s", "lower"),
    ("maxcut.gram_vectors.self_s", "s", "lower"),
    ("maxcut.hyperplane_rounding.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

# Functions the traced run wraps, as (span name, defining module, attribute).
FUNCTIONS = [
    ("sparsemat.cholesky_factorize", "sparsemat", "cholesky_factorize"),
    ("sparsemat.min_degree_ordering", "sparsemat", "min_degree_ordering"),
    ("sparsemat.symbolic_factorize", "sparsemat", "symbolic_factorize"),
    ("chordal.maximal_cliques", "chordal", "maximal_cliques"),
    ("chordal.rip_order", "chordal", "rip_order"),
    ("completion.logdet_completion", "completion", "logdet_completion"),
    ("completion.completion_inverse", "completion", "completion_inverse"),
    ("completion.completion_factors", "completion", "completion_factors"),
    ("logdet.hess_vec", "logdet", "hess_vec"),
    ("logdet.sparse_inverse", "logdet", "sparse_inverse"),
    ("solver.solve", "solver", "solve"),
    ("solver.primal_direction", "solver", "primal_direction"),
    ("solver.dual_direction", "solver", "dual_direction"),
    ("solver.potential_minimize", "solver", "potential_minimize"),
    ("solver.conjugate_gradient", "solver", "conjugate_gradient"),
    ("maxcut.maxcut_sdp", "maxcut", "maxcut_sdp"),
    ("maxcut.initial_point", "maxcut", "initial_point"),
    ("maxcut.gram_vectors", "maxcut", "gram_vectors"),
    ("maxcut.hyperplane_rounding", "maxcut", "hyperplane_rounding"),
    ("sdpa.read_sdpa", "sdpa", "read_sdpa"),
]

# Methods of SdpProblem the traced run wraps, as (span name, attribute).
PROBLEM_METHODS = [
    ("problem.apply_map", "apply_map"),
    ("problem.adjoint_map", "adjoint_map"),
    ("problem.project_out_constraints", "project_out_constraints"),
    ("problem.dual_slack", "dual_slack"),
]


def column_counts(pattern):
    return np.diff(np.asarray(pattern.col_ptr, dtype=np.int64))


def cholesky_flops(pattern):
    """Multiply/add/divide/sqrt count of scalar left-looking Cholesky."""
    c = column_counts(pattern)
    return float(np.sum((c + 1) ** 2))


def hess_vec_flops(pattern):
    """Operation count of the scalar tangent factorization plus the base
    and tangent selected-inverse sweeps of ``hess_vec``."""
    c = column_counts(pattern)
    return float(np.sum(8 * c * c + 15 * c + 8))


def _cholesky_hook(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.count("sparsemat.cholesky_factorize.flops_computed",
                     cholesky_flops(result.pattern))
    elif type(exc).__name__ == "NotPositiveDefinite":
        tracer.count("sparsemat.cholesky_factorize.not_pd")
    if parent == STEP_SEARCH:
        tracer.count("solver.step_search.trials")


def _logdet_completion_hook(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        if parent == STEP_SEARCH:
            tracer.count("solver.step_search.feasible")
    elif type(exc).__name__ == "NotCompletable":
        tracer.count("completion.logdet_completion.not_completable")


def _hess_vec_hook(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.count("logdet.hess_vec.flops_computed", hess_vec_flops(args[0].pattern))


def _cg_hook(tracer, parent, args, kwargs, result, exc):
    if exc is not None:
        return
    max_iter = kwargs.get("max_iter") or len(args[1])
    tracer.count("solver.conjugate_gradient.iters", result.iterations)
    tracer.count("solver.cg_converged", float(bool(result.converged)))
    if not result.converged and result.iterations >= max_iter:
        tracer.count("solver.conjugate_gradient.cap_hits")
    tracer.count("solver.cg_capacity", float(len(args[1])))


def _solve_hook(tracer, parent, args, kwargs, result, exc):
    report = result if exc is None else getattr(exc, "report", None)
    if report is not None:
        tracer.count("solver.iterations", report.iterations)


HOOKS = {
    "sparsemat.cholesky_factorize": _cholesky_hook,
    "completion.logdet_completion": _logdet_completion_hook,
    "logdet.hess_vec": _hess_vec_hook,
    "solver.conjugate_gradient": _cg_hook,
    "solver.solve": _solve_hook,
}


def install(tracer, lib):
    """Wrap every traced function and method; missing ones become absent."""
    for name, module, attr in FUNCTIONS:
        tracer.wrap_function(name, f"{PACKAGE}.{module}", attr, HOOKS.get(name))
    cls = getattr(lib.problem, "SdpProblem", None)
    for name, attr in PROBLEM_METHODS:
        tracer.wrap_method(name, cls, attr, HOOKS.get(name))


def record_structure(tracer, problem):
    """Counts of the problem's chordal structure (absent if renamed)."""
    fill = getattr(problem, "fill", None)
    if fill is None:
        tracer.absent.add("sparsemat.fill_nnz")
    else:
        tracer.count("sparsemat.fill_nnz", fill.nnz)
    cliques = getattr(getattr(problem, "cliques", None), "cliques", None)
    if cliques is None:
        tracer.absent.update(("chordal.cliques", "chordal.max_clique"))
    else:
        tracer.count("chordal.cliques", len(cliques))
        tracer.count("chordal.max_clique", max(len(c) for c in cliques))


def layer_metrics(tracer, instance_count):
    """Per-layer metric values from a finished traced run.

    Returns (metrics, attribution_ok): ``attribution_ok`` says that for
    every instance the self times of all spans inside ``solve`` (its own
    self time being the unattributed remainder) sum to the traced solve
    time.  ``<module>.in_solve_self_s`` splits that sum by layer.
    """
    selfs = tracer.self_times()
    spans = tracer.spans
    in_solve = [False] * len(spans)
    in_step = [False] * len(spans)
    totals = {}            # metric name -> sum over instances
    solve_time = {}        # instance -> traced solve duration
    attributed = {}        # instance -> sum of self times inside solve
    hess_in_solve = 0.0
    chol_in_solve = 0.0
    step_completion = 0.0

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for idx, (name, start, end, parent, inst) in enumerate(spans):
        in_solve[idx] = name == SOLVE or (parent >= 0 and in_solve[parent])
        in_step[idx] = name == STEP_SEARCH or (parent >= 0 and in_step[parent])
        add(f"{name}.calls", 1.0)
        add(f"{name}.self_s", selfs[idx])
        if name == SOLVE:
            solve_time[inst] = solve_time.get(inst, 0.0) + (end - start)
        if not in_solve[idx]:
            continue
        attributed[inst] = attributed.get(inst, 0.0) + selfs[idx]
        if name != SOLVE:
            add(name.split(".")[0] + ".in_solve_self_s", selfs[idx])
        if name == "logdet.hess_vec":
            hess_in_solve += selfs[idx]
        elif name == "sparsemat.cholesky_factorize":
            chol_in_solve += 1.0
        elif name == STEP_SEARCH:
            step_completion += end - start
        elif name.startswith("completion.") and not in_step[idx]:
            step_completion += selfs[idx]
    attribution_ok = all(abs(attributed.get(i, 0.0) - t) <= 1e-9 * max(1.0, t)
                         for i, t in solve_time.items())
    for key, value in tracer.counts.items():
        add(key, value)

    solve_total = sum(solve_time.values())
    iterations = totals.get("solver.iterations", 0.0)
    cg_calls = totals.get("solver.conjugate_gradient.calls", 0.0)
    trials = totals.get("solver.step_search.trials", 0.0)
    out = {name: totals[name] / instance_count
           for name, _, _ in PER_LAYER if name in totals}
    out["solver.solve.traced_s"] = solve_total / instance_count
    out["solver.solve.unattributed_s"] = totals.get(f"{SOLVE}.self_s", 0.0) / instance_count
    if solve_total > 0:
        out["logdet.hess_vec.solve_share"] = hess_in_solve / solve_total
        out["solver.step_completion_share"] = step_completion / solve_total
    if iterations:
        out["solver.iteration_s"] = solve_total / iterations
        out["solver.factorizations_per_iter"] = chol_in_solve / iterations
    capacity = totals.get("solver.cg_capacity", 0.0)     # sum of m over CG calls
    if cg_calls:
        out["solver.cg_converged_ratio"] = totals.get("solver.cg_converged", 0.0) / cg_calls
    if capacity:
        out["solver.conjugate_gradient.iters_per_m"] = (
            totals.get("solver.conjugate_gradient.iters", 0.0) / capacity)
    if trials:
        out["solver.step_search.feasible_ratio"] = (
            totals.get("solver.step_search.feasible", 0.0) / trials)
    return out, attribution_ok


# Metrics derived from another wrapped function than their name says.
_SOURCES = {
    "solver.step_search": STEP_SEARCH,
    "solver.step_completion_share": STEP_SEARCH,
    "solver.cg_converged_ratio": "solver.conjugate_gradient",
    "solver.iteration_s": SOLVE,
    "solver.factorizations_per_iter": SOLVE,
}


def complete(metrics, absent):
    """Fill zero for metrics whose source exists but never fired (e.g. no
    failed factorization); return the names left absent because the
    function or attribute they measure is gone."""
    missing = []
    for name, _, _ in PER_LAYER:
        if name in metrics:
            continue
        head = ".".join(name.split(".")[:2])
        source = _SOURCES.get(head, head)
        if source in absent or name in absent:
            missing.append(name)
        else:
            metrics[name] = 0.0
    return missing


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def dense_reference(lib, problem, y0, reps=7):
    """Sparse kernels against dense numpy on one instance's starting slack.

    Returns ({kernel: (sparse_s, dense_s)}, ok) where ``ok`` says the
    sparse selected inverse and Hessian product match the dense results
    on the fill pattern.  Kernels the library no longer has are skipped.
    """
    chol = getattr(lib.sparsemat, "cholesky_factorize", None)
    sinv_fn = getattr(lib.logdet, "sparse_inverse", None)
    hess_fn = getattr(lib.logdet, "hess_vec", None)
    s = problem.dual_slack(y0)
    z = problem.c                      # a fixed direction on the fill pattern
    s_dense = s.to_dense()
    z_dense = z.to_dense()
    s_inv = np.linalg.inv(s_dense)
    out = {}
    ok = True
    if chol is None:
        return out, ok
    factor = chol(s)
    out["sparsemat.cholesky_factorize"] = (
        _median_time(lambda: chol(s), reps),
        _median_time(lambda: np.linalg.cholesky(s_dense), reps))
    pat = s.pattern
    rows = np.asarray(pat.rows)
    cols = np.repeat(np.arange(pat.n), column_counts(pat))

    def close(sparse, dense):
        scale = max(1.0, float(np.max(np.abs(dense))))
        return (np.allclose(sparse.diag, np.diagonal(dense), rtol=0, atol=1e-8 * scale)
                and np.allclose(sparse.offdiag, dense[rows, cols], rtol=0, atol=1e-8 * scale))

    if sinv_fn is not None:
        w = sinv_fn(factor)
        ok = ok and close(w, s_inv)
        out["logdet.sparse_inverse"] = (
            _median_time(lambda: sinv_fn(factor), reps),
            _median_time(lambda: np.linalg.inv(s_dense), reps))
        if hess_fn is not None:
            ok = ok and close(hess_fn(factor, z, sinv=w), s_inv @ z_dense @ s_inv)
            out["logdet.hess_vec"] = (
                _median_time(lambda: hess_fn(factor, z, sinv=w), reps),
                _median_time(lambda: s_inv @ z_dense @ s_inv, reps))
    return out, ok
