"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every solver run performed here is recorded so the final criterion can
check the feasibility invariants across all of them.
"""

import math
import time

import numpy as np

from sparse_sdp import (Graph, SolverConfig, SparseSymMatrix,
                        cholesky_factorize, completion_factors, hess_vec,
                        inner_product, logdet_completion, maximal_cliques,
                        random_graph, reconstruct_dense, rip_order, solve,
                        solve_maxcut, sparse_inverse)
from sparse_sdp.bench import (run_banded_fixed_bandwidth, run_banded_fixed_diff,
                              time_banded_sweep, trial_seed)
from sparse_sdp.maxcut import initial_point, maxcut_sdp
from sparse_sdp.solver import IterateState, dual_direction, primal_direction

from conftest import (dense_reference_directions, problem_dense_data,
                      random_completable_partial, random_filled_pattern,
                      random_pd_on_pattern, restrict_abs_error)

ACCEPTANCE_REPORTS = []


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail}; {elapsed:.1f}s of "
          f"{budget:.0f}s budget)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def _solve_random_maxcut(n, m, seed, direction_mode="four"):
    graph = random_graph(n, m, seed)
    problem = maxcut_sdp(graph)
    x0, y0 = initial_point(problem)
    report = solve(problem, x0, y0, SolverConfig(direction_mode=direction_mode))
    ACCEPTANCE_REPORTS.append(report)
    return report


def test_criterion_1_sparse_inverse_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 26))
        fill = random_filled_pattern(n, rng.random() * 0.6, rng)
        mat, dense = random_pd_on_pattern(fill, rng)
        w = sparse_inverse(cholesky_factorize(mat))
        dinv = np.linalg.inv(dense)
        rel = restrict_abs_error(dinv, w) / max(np.abs(dinv).max(), 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-10,
            f"200 instances, worst relative error {worst:.2e} <= 1e-10",
            elapsed, 10.0)


def test_criterion_2_derivative_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, 5))
        agg = random_filled_pattern(n, 0.35, rng)
        base, _ = random_pd_on_pattern(agg, rng, shift=1.0)
        a_list = []
        for _ in range(m):
            diag = np.where(rng.random(n) < 0.4, rng.standard_normal(n), 0.0)
            off = np.where(rng.random(agg.nnz) < 0.4,
                           rng.standard_normal(agg.nnz), 0.0)
            a_list.append(SparseSymMatrix(agg, diag, off))
        mt = SparseSymMatrix(agg, rng.standard_normal(n) * 0.3,
                             rng.standard_normal(agg.nnz) * 0.3)
        u0 = rng.standard_normal(m) * 0.05

        def slack(u):
            diag = base.diag - sum(ui * a.diag for ui, a in zip(u, a_list))
            off = base.offdiag - sum(ui * a.offdiag for ui, a in zip(u, a_list))
            return SparseSymMatrix(agg, diag, off)

        def h(u):
            s = slack(u)
            lin = inner_product(mt, s) - inner_product(mt, slack(u0))
            return cholesky_factorize(s).logdet + lin

        def a_dot(mat_a, w):
            return float(np.sum(mat_a.diag * w.diag)) \
                + 2.0 * float(np.sum(mat_a.offdiag * w.offdiag))

        fac = cholesky_factorize(slack(u0))
        w = sparse_inverse(fac)
        grad = np.array([-a_dot(a, w) - a_dot(a, mt) for a in a_list])
        step = 1e-5
        for p in range(m):
            up, um = u0.copy(), u0.copy()
            up[p] += step
            um[p] -= step
            fd = (h(up) - h(um)) / (2 * step)
            worst_grad = max(worst_grad,
                             abs(fd - grad[p]) / max(abs(fd), 1e-6))

        def grad_at(u):
            wv = sparse_inverse(cholesky_factorize(slack(u)))
            return np.array([-a_dot(a, wv) - a_dot(a, mt) for a in a_list])

        z = rng.standard_normal(m)
        zmat = SparseSymMatrix(agg,
                               sum(zp * a.diag for zp, a in zip(z, a_list)),
                               sum(zp * a.offdiag for zp, a in zip(z, a_list)))
        hz = np.array([-a_dot(a, hess_vec(fac, zmat)) for a in a_list])
        fd = (grad_at(u0 + step * z) - grad_at(u0 - step * z)) / (2 * step)
        worst_hess = max(worst_hess,
                         np.abs(fd - hz).max() / max(np.abs(fd).max(), 1e-6))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-4 and worst_hess <= 1e-3
    _report(2, ok,
            f"gradient rel {worst_grad:.2e} <= 1e-4, "
            f"Hessian-product rel {worst_hess:.2e} <= 1e-3",
            elapsed, 30.0)


def test_criterion_3_completion_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_off = 0.0
    worst_logdet = 0.0
    beaten = True
    for _ in range(100):
        n = int(rng.integers(3, 16))
        xbar, cs, _ = random_completable_partial(n, 0.3, rng)
        xhat = reconstruct_dense(completion_factors(xbar, cs))
        inv = np.linalg.inv(xhat)
        mask = xbar.pattern.to_dense_mask()
        if (~mask).any():
            worst_off = max(worst_off, float(np.abs(inv[~mask]).max()))
        sign, dense_logdet = np.linalg.slogdet(xhat)
        assert sign > 0
        worst_logdet = max(worst_logdet,
                           abs(logdet_completion(xbar, cs) - dense_logdet))
        holes = [(i, j) for i, j in np.argwhere(~mask) if i < j]
        if holes:
            scale = 0.1
            accepted = 0
            attempts = 0
            while accepted < 1000 and attempts < 20000:
                attempts += 1
                cand = xhat.copy()
                for i, j in holes:
                    d = rng.standard_normal() * scale
                    cand[i, j] += d
                    cand[j, i] += d
                try:
                    np.linalg.cholesky(cand)
                except np.linalg.LinAlgError:
                    scale *= 0.97
                    continue
                accepted += 1
                if np.linalg.slogdet(cand)[1] > dense_logdet + 1e-12:
                    beaten = False
            assert accepted == 1000, "could not draw 1000 PD completions"
    # the worked tridiagonal value, exactly
    from sparse_sdp import SparseSymPattern
    pat = SparseSymPattern(3, [(0, 1), (1, 2)])
    tri = SparseSymMatrix(pat, [2.0, 2.0, 2.0], [1.0, 1.0])
    tri_cs = rip_order(maximal_cliques(pat))
    tri_err = abs(logdet_completion(tri, tri_cs)
                  - (2.0 * math.log(3.0) - math.log(2.0)))
    elapsed = time.perf_counter() - t0
    ok = (worst_off <= 1e-10 and worst_logdet <= 1e-9 and beaten
          and tri_err <= 1e-12)
    _report(3, ok,
            f"off-pattern inverse {worst_off:.2e} <= 1e-10, log-det error "
            f"{worst_logdet:.2e} <= 1e-9, determinant maximal over 1000 "
            f"completions x 100 instances, tridiagonal value error "
            f"{tri_err:.1e} <= 1e-12",
            elapsed, 60.0)


def test_criterion_4_dense_oracle_directions():
    t0 = time.perf_counter()
    worst = 0.0
    for graph in (Graph(2, [(0, 1, 1.0)]), random_graph(5, 7, seed=104)):
        problem = maxcut_sdp(graph)
        x0, y0 = initial_point(problem)
        rho = problem.n + math.sqrt(problem.n) * math.sqrt(problem.n)
        state = IterateState.create(problem, x0, y0, rho, validate=True)
        cfg = SolverConfig(cg_rel_tol=1e-12, cg_max_iter=50 * problem.m)
        prim = primal_direction(state, cfg)
        dual = dual_direction(state, cfg)
        c_dense, a_dense, b = problem_dense_data(problem)
        ref = dense_reference_directions(c_dense, a_dense, b,
                                         np.eye(problem.n),
                                         state.s.to_dense(), rho)

        def rel(dense, mat):
            scale = max(np.abs(dense).max(), 1e-12)
            return restrict_abs_error(dense, mat) / scale

        worst = max(worst,
                    rel(ref["dx1"], prim.dx),
                    rel(ref["dx2"], dual.dx),
                    rel(ref["ds1"], prim.ds),
                    rel(ref["ds2"], dual.ds),
                    abs(prim.lam - ref["lam"]) / max(ref["lam"], 1e-9),
                    abs(dual.lam - ref["lam_tilde"])
                    / max(ref["lam_tilde"], 1e-9))
    elapsed = time.perf_counter() - t0
    _report(4, worst <= 1e-6,
            f"all four directions within {worst:.2e} <= 1e-6 of the dense "
            f"reference on single-edge and 5-vertex instances",
            elapsed, 10.0)


def test_criterion_5_solver_convergence_bands():
    t0 = time.perf_counter()
    trials = 20
    targets = {5: (7, 13.8), 10: (16, 15.8), 20: (40, 17.9)}
    details = []
    ok = True
    for n, (m, target) in targets.items():
        iters = []
        potmin = []
        for t in range(trials):
            report = _solve_random_maxcut(n, m, trial_seed(105, 1000 * n + t))
            assert report.status == "converged"
            assert min(r.gap for r in report.records) <= 1e-3
            phis = [report.initial_phi] + [r.phi for r in report.records]
            assert all(b < a for a, b in zip(phis, phis[1:])), \
                "potential failed to decrease strictly"
            iters.append(report.iterations)
            potmin.append(report.summary()["mean_descent_steps"])
        mean_iters = float(np.mean(iters))
        mean_potmin = float(np.mean(potmin))
        in_band = 0.5 * target <= mean_iters <= 2.0 * target
        ok = ok and in_band and mean_potmin <= 10.0
        details.append(f"n={n}: {mean_iters:.1f} iters (band "
                       f"[{0.5 * target:.1f}, {2 * target:.1f}]), "
                       f"{mean_potmin:.2f} descent steps")
    elapsed = time.perf_counter() - t0
    _report(5, ok, "; ".join(details), elapsed, 300.0)


def test_criterion_6_four_vs_two_directions():
    t0 = time.perf_counter()
    seeds = [trial_seed(106, t) for t in range(20)]
    iters = {"four": [], "two": []}
    for mode in ("four", "two"):
        for s in seeds:
            report = _solve_random_maxcut(10, 16, s, direction_mode=mode)
            assert report.status == "converged"
            iters[mode].append(report.iterations)
    mean_four = float(np.mean(iters["four"]))
    mean_two = float(np.mean(iters["two"]))
    elapsed = time.perf_counter() - t0
    _report(6, mean_four <= mean_two,
            f"mean iterations four={mean_four:.2f} <= two={mean_two:.2f} "
            f"over {len(seeds)} paired seeds",
            elapsed, 180.0)


def test_criterion_7_banded_logdet_scaling():
    t0 = time.perf_counter()
    rows = run_banded_fixed_bandwidth(3, list(range(6, 41)), reps=20, seed=107)
    ns = np.array([r["n"] for r in rows])
    tn = np.array([r["min_time"] for r in rows])
    corr_n = float(np.corrcoef(ns, tn)[0, 1])
    rows = run_banded_fixed_diff(10, list(range(1, 41)), reps=20, seed=107)
    p2 = np.array([r["bandwidth_sq"] for r in rows])
    tp = np.array([r["min_time"] for r in rows])
    corr_p2 = float(np.corrcoef(p2, tp)[0, 1])
    samples = time_banded_sweep([(2000, p, 107 + p) for p in (8, 16, 32)],
                                reps=10, blocks=5)
    mins = [min(s) for s in samples]
    ratio_a = mins[1] / mins[0]
    ratio_b = mins[2] / mins[1]
    elapsed = time.perf_counter() - t0
    ok = (corr_n >= 0.95 and corr_p2 >= 0.95
          and 2.5 <= ratio_a <= 6.0 and 2.5 <= ratio_b <= 6.0)
    _report(7, ok,
            f"corr(time, n)={corr_n:.3f} >= 0.95, corr(time, p^2)="
            f"{corr_p2:.3f} >= 0.95, doubling ratios {ratio_a:.2f} and "
            f"{ratio_b:.2f} in [2.5, 6]",
            elapsed, 120.0)


def test_criterion_8_maxcut_end_to_end():
    t0 = time.perf_counter()
    report, result = solve_maxcut(Graph(2, [(0, 1, 1.0)]), trials=100, seed=108)
    ACCEPTANCE_REPORTS.append(report)
    single_ok = (abs(-report.objective_primal - 1.0) <= 1e-3
                 and result.cut_value == 1.0
                 and result.cut_value <= result.sdp_bound + 1e-6)
    triangle = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    report_t, result_t = solve_maxcut(triangle, trials=1000, seed=109)
    ACCEPTANCE_REPORTS.append(report_t)
    triangle_ok = (abs(-report_t.objective_primal - 2.25) <= 1e-2
                   and result_t.cut_value == 2.0
                   and result_t.cut_value <= result_t.sdp_bound + 1e-6)
    bounds_ok = True
    for seed in range(5):
        g = random_graph(8, 13, trial_seed(108, seed))
        rep, res = solve_maxcut(g, trials=100, seed=seed)
        ACCEPTANCE_REPORTS.append(rep)
        bounds_ok = bounds_ok and res.cut_value <= res.sdp_bound + 1e-6
    elapsed = time.perf_counter() - t0
    ok = single_ok and triangle_ok and bounds_ok
    _report(8, ok,
            f"single edge value {-report.objective_primal:.5f} cut "
            f"{result.cut_value}, triangle value "
            f"{-report_t.objective_primal:.4f} best cut {result_t.cut_value}, "
            f"bound >= cut on all instances",
            elapsed, 60.0)


def test_criterion_9_feasibility_invariants():
    t0 = time.perf_counter()
    assert ACCEPTANCE_REPORTS, "earlier criteria must have recorded runs"
    worst_pres = 0.0
    worst_dres = 0.0
    min_gap = float("inf")
    records = 0
    for report in ACCEPTANCE_REPORTS:
        for rec in report.records:
            records += 1
            worst_pres = max(worst_pres, rec.primal_residual)
            worst_dres = max(worst_dres, rec.dual_residual)
            min_gap = min(min_gap, rec.gap)
    elapsed = time.perf_counter() - t0
    ok = worst_pres <= 1e-7 and worst_dres <= 1e-7 and min_gap > 0.0
    _report(9, ok,
            f"{records} iterates across {len(ACCEPTANCE_REPORTS)} solves: "
            f"primal residual {worst_pres:.1e} <= 1e-7, dual residual "
            f"{worst_dres:.1e} <= 1e-7, smallest gap {min_gap:.2e} > 0",
            elapsed, 60.0)
