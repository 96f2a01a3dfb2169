import math

import numpy as np
import pytest

from sparse_sdp import (CgResult, Direction, InfeasibleStart, IterateState,
                        IterationLimit, SolverConfig, SparseSymMatrix,
                        SparseSymPattern, conjugate_gradient, dual_direction,
                        inner_product, potential_minimize, primal_direction,
                        solve)
from sparse_sdp.maxcut import Graph, initial_point, maxcut_sdp, random_graph
from sparse_sdp.solver import EXTRA_ITERS

from conftest import dense_reference_directions, problem_dense_data


def make_state(problem, gamma=None):
    x0, y0 = initial_point(problem)
    gamma = math.sqrt(problem.n) if gamma is None else gamma
    rho = problem.n + gamma * math.sqrt(problem.n)
    return IterateState.create(problem, x0, y0, rho, validate=True)


def build_directions(state, cfg):
    return primal_direction(state, cfg), dual_direction(state, cfg)


class TestProblemInvariants:
    def test_pattern_chain_and_peo(self):
        from sparse_sdp import verify_peo
        problem = maxcut_sdp(random_graph(9, 14, seed=39))
        assert problem.aggregate.is_subset_of(problem.fill)
        assert verify_peo(problem.fill)
        for a in problem.constraints:
            assert a.pattern.is_subset_of(problem.fill)
        assert sum(len(s) for s in problem.cliques.residuals) == problem.n


class TestApplyMap:
    def test_zero_matrix(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=0))
        w = SparseSymMatrix.zeros(problem.fill)
        assert np.allclose(problem.apply_map(w), 0.0)

    def test_identity_on_unit_diagonal_constraints(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=0))
        w = SparseSymMatrix.identity(problem.fill)
        assert np.allclose(problem.apply_map(w), 1.0)

    def test_random_problem_against_dense(self):
        rng = np.random.default_rng(40)
        problem = maxcut_sdp(random_graph(6, 9, seed=3))
        c_dense, a_dense, _ = problem_dense_data(problem)
        w = SparseSymMatrix(problem.fill, rng.standard_normal(problem.n),
                            rng.standard_normal(problem.fill.nnz))
        wd = w.to_dense()
        expected = [float(np.sum(a * wd)) for a in a_dense]
        assert np.allclose(problem.apply_map(w), expected, atol=1e-12)

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(41)
        problem = maxcut_sdp(random_graph(7, 10, seed=5))
        z = rng.standard_normal(problem.m)
        w = SparseSymMatrix(problem.fill, rng.standard_normal(problem.n),
                            rng.standard_normal(problem.fill.nnz))
        lhs = float(z @ problem.apply_map(w))
        rhs = inner_product(problem.adjoint_map(z), w)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPotential:
    def test_identity_pair(self):
        # X = S = I at n = 4, gamma = 1: rho = 6, gap = 4, log-dets vanish
        problem = maxcut_sdp(Graph(4, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        rho = 4 + 1.0 * 2.0
        state = IterateState.create(problem, x0, -np.ones(4), rho)
        assert np.allclose(state.s.diag, 1.0)
        assert state.phi == pytest.approx(6.0 * math.log(4.0), abs=1e-12)

    def test_single_vertex(self):
        problem = maxcut_sdp(Graph(1, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, np.array([-1.0]), rho=2.0)
        assert state.phi == pytest.approx(0.0, abs=1e-12)

    def test_tridiagonal_worked_value(self):
        # X tridiagonal (diag 2, offdiag 1) against S = I at gamma = 1:
        # gap = trace = 6 and the completion log-det is 2 ln 3 - ln 2
        from sparse_sdp import EliminationOrdering, SdpProblem
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        c = SparseSymMatrix(pat, np.zeros(3), np.zeros(2))
        constraints = []
        for p in range(3):
            d = np.zeros(3)
            d[p] = 1.0
            constraints.append(SparseSymMatrix(SparseSymPattern(3), d, np.zeros(0)))
        problem = SdpProblem(c, constraints, np.ones(3),
                             ordering=EliminationOrdering.identity(3))
        xbar = SparseSymMatrix(problem.fill, [2.0, 2.0, 2.0], [1.0, 1.0])
        state = IterateState.create(problem, xbar, -np.ones(3),
                                    rho=3.0 + math.sqrt(3.0))
        expected = (3 + math.sqrt(3)) * math.log(6.0) \
            - (2 * math.log(3.0) - math.log(2.0))
        assert state.phi == pytest.approx(expected, abs=1e-12)


class TestConjugateGradient:
    def test_identity_one_iteration(self):
        rhs = np.array([1.0, -2.0, 3.0])
        res = conjugate_gradient(lambda v: v, rhs)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, rhs)

    def test_diagonal_system(self):
        d = np.array([1.0, 2.0, 4.0])
        res = conjugate_gradient(lambda v: d * v, d.copy())
        assert res.converged
        assert np.allclose(res.x, 1.0, atol=1e-8)

    def test_random_spd_against_direct_solve(self):
        rng = np.random.default_rng(42)
        g = rng.standard_normal((10, 10))
        h = g @ g.T + 10 * np.eye(10)
        rhs = rng.standard_normal(10)
        res = conjugate_gradient(lambda v: h @ v, rhs, rel_tol=1e-10, max_iter=50)
        assert res.converged
        assert np.abs(res.x - np.linalg.solve(h, rhs)).max() < 1e-6

    def test_zero_rhs(self):
        res = conjugate_gradient(lambda v: v, np.zeros(4))
        assert res.converged and res.iterations == 0

    def test_stall_flag(self):
        rng = np.random.default_rng(43)
        g = rng.standard_normal((12, 12))
        h = g @ g.T + 1e-6 * np.eye(12)
        rhs = rng.standard_normal(12)
        res = conjugate_gradient(lambda v: h @ v, rhs, rel_tol=1e-14, max_iter=2)
        assert not res.converged


class TestDirectionsAgainstDenseReference:
    @pytest.mark.parametrize("graph", [
        Graph(2, [(0, 1, 1.0)]),
        random_graph(5, 7, seed=9),
        random_graph(6, 9, seed=10),
    ])
    def test_first_iterate_equivalence(self, graph):
        problem = maxcut_sdp(graph)
        state = make_state(problem)
        cfg = SolverConfig(cg_rel_tol=1e-12, cg_max_iter=40 * problem.m)
        prim, dual = build_directions(state, cfg)

        c_dense, a_dense, b = problem_dense_data(problem)
        # first iterate: the completion of the identity partial is exact
        xhat = np.eye(problem.n)
        s_dense = state.s.to_dense()
        ref = dense_reference_directions(c_dense, a_dense, b, xhat, s_dense,
                                         state.rho)

        def rel(dense, sparse_mat):
            scale = max(np.abs(dense).max(), 1e-12)
            err = np.abs(np.diagonal(dense) - sparse_mat.diag).max()
            for i, j, k in sparse_mat.pattern.edges():
                err = max(err, abs(dense[i, j] - sparse_mat.offdiag[k]))
            return err / scale

        assert rel(ref["dx1"], prim.dx) < 1e-6
        assert rel(ref["dx2"], dual.dx) < 1e-6
        assert rel(ref["ds1"], prim.ds) < 1e-6
        assert rel(ref["ds2"], dual.ds) < 1e-6
        assert prim.lam == pytest.approx(ref["lam"], rel=1e-6)
        assert dual.lam == pytest.approx(ref["lam_tilde"], rel=1e-8)
        assert np.allclose(prim.cg.x, ref["lambda_mult"], rtol=1e-6)
        assert np.allclose(dual.cg.x, ref["z"], rtol=1e-6, atol=1e-9)

    def test_second_iterate_equivalence(self):
        # after one step the completion is no longer the identity; feed the
        # dense reference the reconstructed completion and compare again
        from sparse_sdp import completion_factors, reconstruct_dense
        problem = maxcut_sdp(random_graph(6, 8, seed=11))
        cfg = SolverConfig(cg_rel_tol=1e-12, cg_max_iter=40 * problem.m)
        x0, y0 = initial_point(problem)
        rho = problem.n + math.sqrt(problem.n) * math.sqrt(problem.n)
        state = IterateState.create(problem, x0, y0, rho, validate=True)
        choice = potential_minimize(state, *build_directions(state, cfg))
        state2 = choice.trial
        prim2, dual2 = build_directions(state2, cfg)

        xhat = reconstruct_dense(completion_factors(state2.xbar, problem.cliques))
        c_dense, a_dense, b = problem_dense_data(problem)
        ref = dense_reference_directions(c_dense, a_dense, b, xhat,
                                         state2.s.to_dense(), rho)
        scale = max(np.abs(ref["dx1"]).max(), 1.0)
        err = np.abs(np.diagonal(ref["dx1"]) - prim2.dx.diag).max()
        for i, j, k in problem.fill.edges():
            err = max(err, abs(ref["dx1"][i, j] - prim2.dx.offdiag[k]))
        assert err / scale < 1e-6
        assert prim2.lam == pytest.approx(ref["lam"], rel=1e-6)
        assert dual2.lam == pytest.approx(ref["lam_tilde"], rel=1e-6)

    def test_equivalence_along_a_whole_run(self):
        # follow three accepted steps of a random instance; at every state
        # the sparse directions must match the dense reference
        from sparse_sdp import completion_factors, reconstruct_dense
        problem = maxcut_sdp(random_graph(5, 7, seed=25))
        cfg = SolverConfig(cg_rel_tol=1e-12, cg_max_iter=40 * problem.m)
        x0, y0 = initial_point(problem)
        rho = 2.0 * problem.n
        state = IterateState.create(problem, x0, y0, rho, validate=True)
        c_dense, a_dense, b = problem_dense_data(problem)
        for _ in range(3):
            prim, dual = build_directions(state, cfg)
            xhat = reconstruct_dense(completion_factors(state.xbar,
                                                        problem.cliques))
            ref = dense_reference_directions(c_dense, a_dense, b, xhat,
                                             state.s.to_dense(), rho)
            for dense, mat in ((ref["dx1"], prim.dx),
                               (ref["dx2"], dual.dx),
                               (ref["ds1"], prim.ds),
                               (ref["ds2"], dual.ds)):
                scale = max(np.abs(dense).max(), 1e-12)
                err = np.abs(np.diagonal(dense) - mat.diag).max()
                for i, j, k in problem.fill.edges():
                    err = max(err, abs(dense[i, j] - mat.offdiag[k]))
                assert err / scale < 1e-6
            choice = potential_minimize(state, prim, dual)
            assert choice.trial is not None
            state = choice.trial

    def test_direction_subspace_invariants(self):
        problem = maxcut_sdp(random_graph(8, 14, seed=12))
        state = make_state(problem)
        prim, dual = build_directions(state, SolverConfig())
        assert np.abs(problem.apply_map(prim.dx)).max() < 1e-7
        assert np.abs(problem.apply_map(dual.dx)).max() < 1e-7
        # dS1 and dS2 are adjoint images by construction; check dS1 matches
        # its defining formula mu * (Xinv - G) - S via the multiplier form
        mu = state.gap / state.rho
        recon = problem.adjoint_map(-mu * prim.cg.x)
        assert np.abs(recon.diag - prim.ds.diag).max() < 1e-12
        assert np.abs(recon.offdiag - prim.ds.offdiag).max() < 1e-12
        assert prim.lam >= 0.0 and dual.lam >= 0.0

    def test_newton_step_vanishes_at_dual_center(self):
        # with X = I and S = I the dual gradient rho/gap*X - S^-1 vanishes
        # when rho/gap = 1, i.e. at the scaled analytic center
        problem = maxcut_sdp(Graph(3, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, -np.ones(3), rho=3.0)
        dual = dual_direction(state, SolverConfig())
        assert np.abs(dual.cg.x).max() < 1e-12
        assert np.abs(dual.ds.diag).max() < 1e-12

    def test_primal_newton_vanishes_at_center(self):
        problem = maxcut_sdp(Graph(3, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, -np.ones(3), rho=3.0)
        prim = primal_direction(state, SolverConfig())
        assert np.abs(prim.dx.diag).max() < 1e-10
        assert (np.abs(prim.dx.offdiag).max() if len(prim.dx.offdiag) else 0.0) < 1e-10


class TestPotentialMinimize:
    def test_zero_directions_return_zero_point(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=13))
        state = make_state(problem)
        zero = SparseSymMatrix.zeros(problem.fill)
        still = Direction(dx=zero, ds=zero, dy=np.zeros(problem.m), lam=0.0,
                          cg=CgResult(np.zeros(problem.m), 0, True, 0.0))
        choice = potential_minimize(state, still, still)
        assert np.allclose(choice.coeffs, 0.0)
        assert choice.phi == pytest.approx(state.phi)

    def test_infeasible_start_is_damped(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=14))
        state = make_state(problem)
        # a dual step far past the cone boundary: 200 * dy1 forces damping
        prim, dual = build_directions(state, SolverConfig())
        big = Direction(dx=prim.dx, ds=prim.ds.scaled(200.0),
                        dy=prim.dy * 200.0, lam=prim.lam, cg=prim.cg)
        choice = potential_minimize(state, big, dual)
        # the k1 start must have been halved into feasibility (0 < k1 < 1)
        # or rejected in favor of another start; either way phi decreases
        assert choice.phi < state.phi

    def test_chosen_point_beats_unit_starts(self):
        problem = maxcut_sdp(random_graph(7, 11, seed=15))
        state = make_state(problem)
        cfg = SolverConfig()
        prim, dual = build_directions(state, cfg)
        choice = potential_minimize(state, prim, dual)
        # evaluate phi at each raw unit start for comparison
        for start in range(4):
            q = np.zeros(4)
            q[start] = 1.0
            mats = [prim.dx, dual.dx]
            xdiag = state.xbar.diag + sum(q[t] * m.diag for t, m in enumerate(mats))
            xoff = state.xbar.offdiag + sum(q[t] * m.offdiag for t, m in enumerate(mats))
            y = state.y + q[2] * prim.dy + q[3] * dual.dy
            from sparse_sdp import cholesky_factorize, logdet_completion
            s = problem.dual_slack(y)
            try:
                fac = cholesky_factorize(s)
                xb = SparseSymMatrix(problem.fill, xdiag, xoff)
                ld = logdet_completion(xb, problem.cliques)
            except Exception:
                continue
            gap = inner_product(s, xb)
            if gap <= 0:
                continue
            phi_start = state.rho * math.log(gap) - ld - fac.logdet
            assert choice.phi <= phi_start + 1e-12

    def test_two_direction_mode_searches_h1_k1_only(self):
        problem = maxcut_sdp(random_graph(6, 9, seed=16))
        state = make_state(problem)
        cfg = SolverConfig(direction_mode="two")
        prim = primal_direction(state, cfg)
        choice = potential_minimize(state, prim, None)
        assert choice.coeffs[1] == 0.0 and choice.coeffs[3] == 0.0
        assert choice.phi < state.phi


class TestSolve:
    def test_single_edge_reaches_known_optimum(self, report_registry):
        problem = maxcut_sdp(Graph(2, [(0, 1, 1.0)]))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        report_registry.append(report)
        assert report.status == "converged"
        assert report.objective_primal == pytest.approx(-1.0, abs=1e-3)
        assert report.objective_dual == pytest.approx(-1.0, abs=1e-3)

    def test_triangle_reaches_known_optimum(self, report_registry):
        problem = maxcut_sdp(Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        report_registry.append(report)
        assert report.objective_primal == pytest.approx(-2.25, abs=1e-2)
        assert report.objective_dual == pytest.approx(-2.25, abs=1e-2)

    def test_potential_strictly_decreases(self, report_registry):
        problem = maxcut_sdp(random_graph(8, 13, seed=17))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        report_registry.append(report)
        phis = [report.initial_phi] + [r.phi for r in report.records]
        assert all(b < a for a, b in zip(phis, phis[1:]))

    def test_extra_iterations_after_convergence(self):
        problem = maxcut_sdp(random_graph(5, 7, seed=18))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        assert report.converged_iteration is not None
        assert report.iterations >= report.converged_iteration + 1
        assert report.iterations <= report.converged_iteration + EXTRA_ITERS

    def test_infeasible_start_rejected(self):
        problem = maxcut_sdp(random_graph(4, 4, seed=19))
        x0, _ = initial_point(problem)
        with pytest.raises(InfeasibleStart):
            solve(problem, x0, np.full(problem.m, 100.0), SolverConfig())

    def test_iteration_limit_raises_with_partial_report(self):
        problem = maxcut_sdp(random_graph(8, 13, seed=20))
        x0, y0 = initial_point(problem)
        with pytest.raises(IterationLimit) as info:
            solve(problem, x0, y0, SolverConfig(max_main_iters=2))
        assert info.value.report is not None
        assert info.value.report.iterations == 2
        assert info.value.report.status == "iteration_limit"

    def test_observer_sees_every_record(self):
        problem = maxcut_sdp(random_graph(5, 7, seed=21))
        x0, y0 = initial_point(problem)
        seen = []
        report = solve(problem, x0, y0, SolverConfig(), observer=seen.append)
        assert len(seen) == report.iterations

    def test_feasibility_residuals_stay_tiny(self, report_registry):
        problem = maxcut_sdp(random_graph(10, 16, seed=22))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        report_registry.append(report)
        assert max(r.primal_residual for r in report.records) <= 1e-7
        assert max(r.dual_residual for r in report.records) <= 1e-7
        assert all(r.gap > 0 for r in report.records)

    def test_csv_and_summary_roundtrip(self, tmp_path):
        problem = maxcut_sdp(random_graph(5, 7, seed=23))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        path = tmp_path / "trace.csv"
        report.write_csv(path)
        import csv as csvmod
        with open(path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == report.iterations
        for row, rec in zip(rows, report.records):
            assert int(row["iter"]) == rec.index
            assert float(row["gap"]) == rec.gap
            assert float(row["phi"]) == rec.phi
            assert int(row["cg_primal"]) == rec.cg_primal
            assert int(row["cg_dual"]) == rec.cg_dual
            assert float(row["descent_steps"]) == rec.descent_steps
        summary = report.summary()
        assert summary["direction_mode"] == "four"
        assert summary["iterations"] == report.iterations

    def test_two_direction_mode_converges(self, report_registry):
        problem = maxcut_sdp(random_graph(8, 13, seed=24))
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig(direction_mode="two"))
        report_registry.append(report)
        assert report.status == "converged"
        assert all(r.cg_dual == 0 for r in report.records)
