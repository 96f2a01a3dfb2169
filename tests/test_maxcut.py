import numpy as np
import pytest

from sparse_sdp import (Graph, SdpProblem, SolverConfig, SparseSymMatrix,
                        SparseSymPattern, TooManyEdges, cut_value,
                        hyperplane_rounding, initial_point, maxcut_sdp,
                        random_graph, read_graph, solve_maxcut, write_graph)
from sparse_sdp import maxcut
from sparse_sdp.maxcut import gram_vectors
from sparse_sdp.solver import IterateState, solve


class TestGraph:
    def test_rejects_loops_duplicates_bad_weights(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, -1.0)])

    def test_default_weight(self):
        g = Graph(3, [(0, 1)])
        assert g.edges == [(0, 1, 1.0)]

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_fewer_than_one_vertex(self, n):
        with pytest.raises(ValueError, match="need at least one vertex"):
            Graph(n, [])
        with pytest.raises(ValueError, match="need at least one vertex"):
            random_graph(n, 0, seed=1)


class TestRandomGraph:
    def test_complete_when_m_max(self):
        g = random_graph(5, 10, seed=1)
        assert g.m == 10
        assert {(i, j) for i, j, _ in g.edges} == \
            {(i, j) for i in range(5) for j in range(i + 1, 5)}

    def test_deterministic_per_seed(self):
        a = random_graph(9, 14, seed=77)
        b = random_graph(9, 14, seed=77)
        assert a.edges == b.edges
        c = random_graph(9, 14, seed=78)
        assert a.edges != c.edges

    def test_simple_with_exact_count(self):
        g = random_graph(5, 7, seed=3)
        assert g.m == 7
        assert len({(i, j) for i, j, _ in g.edges}) == 7
        assert all(i != j for i, j, _ in g.edges)

    def test_too_many_edges(self):
        with pytest.raises(TooManyEdges):
            random_graph(4, 7, seed=0)

    def test_negative_edge_count(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            random_graph(5, -1, seed=0)


class TestMaxcutSdp:
    def test_single_edge_objective_scale(self):
        problem = maxcut_sdp(Graph(2, [(0, 1, 1.0)]))
        # min-form optimum is -1 at X12 = -1; scan the feasible interval
        c = problem.c.to_dense()
        values = []
        for t in np.linspace(-1.0, 1.0, 201):
            x = np.array([[1.0, t], [t, 1.0]])
            values.append(float(np.sum(c * x)))
        assert min(values) == pytest.approx(-1.0, abs=1e-12)
        assert values[0] == pytest.approx(-1.0)  # attained at t = -1

    def test_empty_graph(self):
        problem = maxcut_sdp(Graph(3, []))
        assert problem.m == 3
        assert problem.c.to_dense() == pytest.approx(np.zeros((3, 3)))

    def test_aggregate_pattern_is_graph(self):
        # C's nonzero off-diagonal entries are the graph's edges, relabelled
        g = random_graph(7, 9, seed=5)
        problem = maxcut_sdp(g)
        perm = problem.ordering.perm
        edges = {(max(perm[i], perm[j]), min(perm[i], perm[j]))
                 for i, j, _ in g.edges}
        c = problem.c
        rows, cols = c.pattern.slot_ends
        nz = np.flatnonzero(c.offdiag) + c.n
        assert set(zip(rows[nz].tolist(), cols[nz].tolist())) == edges

    def test_triangle_against_reference_solver(self):
        cvxpy = pytest.importorskip("cvxpy")
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        from sparse_sdp import EliminationOrdering
        problem = maxcut_sdp(g)
        x = cvxpy.Variable((3, 3), symmetric=True)
        cons = [x >> 0] + [x[i, i] == 1 for i in range(3)]
        # compare in original labels
        c = problem.c.permuted(EliminationOrdering(problem.ordering.inverse))
        obj = cvxpy.Minimize(cvxpy.sum(cvxpy.multiply(c.to_dense(), x)))
        cvxpy.Problem(obj, cons).solve(solver="SCS")
        assert obj.value == pytest.approx(-2.25, abs=1e-4)


class TestInitialPoint:
    def test_single_edge_slack_is_pd_and_feasible(self):
        problem = maxcut_sdp(Graph(2, [(0, 1, 1.0)]))
        x0, y0 = initial_point(problem)
        state = IterateState.create(problem, x0, y0, rho=4.0)
        assert state.gap > 0

    def test_empty_graph_gives_identity_slack(self):
        problem = maxcut_sdp(Graph(4, []))
        x0, y0 = initial_point(problem)
        assert np.allclose(y0, -1.0)
        assert np.allclose(problem.dual_slack(y0).diag, 1.0)

    @pytest.mark.parametrize("case", ["off-diagonal entry", "two diagonal entries",
                                      "m != n"])
    def test_non_diagonal_constraints_rejected(self, case):
        n = 3
        c = SparseSymMatrix.identity(SparseSymPattern(n))
        constraints = []
        for p in range(n):
            d = np.zeros(n)
            d[p] = 1.0
            constraints.append(SparseSymMatrix(SparseSymPattern(n), d))
        if case == "off-diagonal entry":
            constraints[1] = SparseSymMatrix(SparseSymPattern(n, [(0, 2)]),
                                             [0.0, 1.0, 0.0, 0.5])
        elif case == "two diagonal entries":
            constraints[2] = SparseSymMatrix(SparseSymPattern(n), [0.0, 1.0, 1.0])
        else:
            constraints = constraints[:2]
        problem = SdpProblem(c, constraints, np.ones(len(constraints)))
        with pytest.raises(ValueError, match="unit.diagonal"):
            initial_point(problem)

    @staticmethod
    def _triangle(vertices, coefs):
        """C = -L/4 of a triangle, A_p = coefs[p] e_v e_v^T for v = vertices[p]."""
        c = SparseSymMatrix(SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)]),
                            [-0.5] * 3 + [0.25] * 3)
        constraints = []
        for v, a in zip(vertices, coefs):
            d = np.zeros(3)
            d[v] = a
            constraints.append(SparseSymMatrix(SparseSymPattern(3), d))
        return SdpProblem(c, constraints, np.array(coefs))

    @pytest.mark.parametrize("vertices, coefs", [
        ([0, 0, 1], [1.0, 1.0, 1.0]),       # vertex 2 uncovered
        ([0, 1, 2], [1.0, 1.0, -1.0]),      # nonpositive coefficient
        ([0, 0, 2], [1.0, 1.0, -1.0]),
    ], ids=["repeated vertex", "negative coefficient", "both"])
    def test_each_vertex_needs_one_positive_constraint(self, vertices, coefs):
        # each of these used to lower y0 forever without making S PD
        with pytest.raises(ValueError, match="coefficient <= 0 or shares its vertex"):
            initial_point(self._triangle(vertices, coefs))

    def test_start_is_primal_feasible(self):
        problem = self._triangle([2, 0, 1], [2.0, 0.5, 4.0])
        problem.b[:] = [1.0, 3.0, 2.0]
        x0, _ = initial_point(problem)
        assert np.array_equal(problem.apply_map(x0), problem.b)
        assert x0.diag[problem.ordering.perm] == pytest.approx([6.0, 0.5, 0.5])
        assert not x0.offdiag.any()

    def test_nonpositive_rhs_rejected(self):
        problem = self._triangle([0, 1, 2], [1.0, 1.0, 1.0])
        problem.b[2] = 0.0
        with pytest.raises(ValueError, match="b_p <= 0"):
            initial_point(problem)

    @pytest.mark.parametrize("coef, y", [(1.0, -2.0), (2.0, -1.0)])
    def test_shift_is_divided_by_the_coefficient(self, coef, y):
        # S = C - a y I starts with diagonal -0.5 - a and off-diagonal row
        # sums 0.5; lowering y by (|bound| + 1) / a lifts the diagonal to 1.5
        problem = self._triangle([0, 1, 2], [coef] * 3)
        _, y0 = initial_point(problem)
        assert y0 == pytest.approx([y] * 3)
        assert problem.dual_slack(y0).diag == pytest.approx([1.5] * 3)

    @staticmethod
    def _count_factorizations(monkeypatch):
        calls = []
        real = maxcut.cholesky_factorize
        monkeypatch.setattr(maxcut, "cholesky_factorize",
                            lambda s: calls.append(s) or real(s))
        return calls

    def test_maxcut_start_makes_no_factorization(self, monkeypatch):
        # S(1) has a negative diagonal and the shifted slack a Gershgorin
        # margin of at least 1, so the entries decide both
        calls = self._count_factorizations(monkeypatch)
        for seed in range(4):
            initial_point(maxcut_sdp(random_graph(30, 90, seed=seed)))
        initial_point(maxcut_sdp(Graph(4, [])))
        assert calls == []

    @pytest.mark.parametrize("diag, off, y", [(4.0, 1.5, 1.0), (2.0, 2.0, -3.0)],
                             ids=["definite", "indefinite"])
    def test_slack_is_factored_when_its_entries_do_not_decide(self, monkeypatch,
                                                              diag, off, y):
        # S(1) = C - I has a positive diagonal and a Gershgorin margin <= 0:
        # margin 0 and definite, or margin -3 and indefinite, which shifts
        # y by 4 to a margin of 1
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        c = SparseSymMatrix(pat, [diag] * 3 + [off] * 3)
        constraints = [SparseSymMatrix(SparseSymPattern(3), row) for row in np.eye(3)]
        calls = self._count_factorizations(monkeypatch)
        _, y0 = initial_point(SdpProblem(c, constraints, np.ones(3)))
        assert len(calls) == 1
        assert np.array_equal(y0, [y] * 3)

    def test_random_instance_invariants(self):
        problem = maxcut_sdp(random_graph(10, 16, seed=6))
        x0, y0 = initial_point(problem)
        state = IterateState.create(problem, x0, y0, rho=20.0)
        pres, dres = state.residuals()
        assert pres <= 1e-12 and dres <= 1e-12


class TestCutValue:
    def test_all_same_side(self):
        g = random_graph(6, 8, seed=7)
        assert cut_value(g, np.ones(6)) == 0.0

    def test_single_edge_split(self):
        assert cut_value(Graph(2, [(0, 1, 1.0)]), [1, -1]) == 1.0

    def test_k4_balanced_split(self):
        g = Graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        assert cut_value(g, [1, 1, -1, -1]) == 4.0


class TestHyperplaneRounding:
    def test_antipodal_vectors_always_split(self):
        g = Graph(2, [(0, 1, 1.0)])
        v = np.array([[1.0, -1.0], [0.0, 0.0]])
        result = hyperplane_rounding(v, g, trials=25, seed=5)
        assert result.cut_value == 1.0

    def test_empty_graph(self):
        g = Graph(3, [])
        result = hyperplane_rounding(np.eye(3), g, trials=10, seed=1)
        assert result.cut_value == 0.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            hyperplane_rounding(np.eye(3), Graph(3, [(0, 1, 1.0)]), trials=trials)

    def test_deterministic_per_seed(self):
        g = random_graph(8, 12, seed=8)
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]
        r1 = hyperplane_rounding(v, g, trials=40, seed=9)
        r2 = hyperplane_rounding(v, g, trials=40, seed=9)
        assert r1.cut_value == r2.cut_value
        assert np.array_equal(r1.sides, r2.sides)

    def test_triangle_at_optimum_reaches_two(self):
        # vectors at 120 degrees: any hyperplane separates exactly one pair
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        v = np.zeros((3, 3))
        for i, a in enumerate(angles):
            v[0, i] = np.cos(a)
            v[1, i] = np.sin(a)
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        result = hyperplane_rounding(v, g, trials=1000, seed=11)
        assert result.cut_value >= 2.0


class TestEndToEnd:
    def test_single_edge_pipeline(self, report_registry):
        report, result = solve_maxcut(Graph(2, [(0, 1, 1.0)]), trials=20, seed=1)
        report_registry.append(report)
        assert result.sdp_bound == pytest.approx(1.0, abs=2e-3)
        assert result.cut_value == 1.0
        assert result.cut_value <= result.sdp_bound + 1e-6

    def test_gram_vectors_reproduce_solution(self, report_registry):
        g = random_graph(7, 10, seed=12)
        problem = maxcut_sdp(g)
        x0, y0 = initial_point(problem)
        report = solve(problem, x0, y0, SolverConfig())
        report_registry.append(report)
        v = gram_vectors(problem, report.state)
        gram = v.T @ v
        # Gram must reproduce the solved entries on the original-label data
        perm = problem.ordering.perm
        for i, j, w in g.edges:
            k = problem.fill.slots(perm[i], perm[j])
            assert gram[i, j] == pytest.approx(report.state.xbar.values[k],
                                               abs=1e-9)
        assert np.diagonal(gram) == pytest.approx(np.ones(7), abs=1e-9)

    def test_bound_dominates_cut_on_random_instances(self, report_registry):
        for seed in (13, 14):
            g = random_graph(6, 9, seed=seed)
            report, result = solve_maxcut(g, trials=60, seed=seed)
            report_registry.append(report)
            assert result.cut_value <= result.sdp_bound + 1e-6

    def test_objective_against_reference_solver(self, report_registry):
        cvxpy = pytest.importorskip("cvxpy")
        for n, m, seed in [(5, 7, 15), (10, 16, 16)]:
            g = random_graph(n, m, seed=seed)
            report, _ = solve_maxcut(g, trials=10, seed=seed)
            report_registry.append(report)
            lap = np.zeros((n, n))
            for i, j, w in g.edges:
                lap[i, i] += w
                lap[j, j] += w
                lap[i, j] -= w
                lap[j, i] -= w
            x = cvxpy.Variable((n, n), symmetric=True)
            cons = [x >> 0] + [x[i, i] == 1 for i in range(n)]
            obj = cvxpy.Maximize(0.25 * cvxpy.sum(cvxpy.multiply(lap, x)))
            cvxpy.Problem(obj, cons).solve(solver="SCS")
            assert -report.objective_primal == pytest.approx(obj.value, abs=1e-2)


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        g = random_graph(7, 11, seed=17)
        path = tmp_path / "graph.txt"
        write_graph(g, path)
        back = read_graph(path)
        assert back.n == g.n and back.edges == g.edges

    def test_weighted_roundtrip(self, tmp_path):
        g = Graph(3, [(0, 1, 2.5), (1, 2, 0.75)])
        path = tmp_path / "weighted.txt"
        write_graph(g, path)
        assert read_graph(path).edges == g.edges

    def test_one_based_indices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n1 2\n")
        g = read_graph(path)
        assert g.edges == [(0, 1, 1.0)]

    def test_edgeless_graph_file_solves(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("3 0\n")
        g = read_graph(path)
        report, result = solve_maxcut(g, trials=5, seed=1)
        assert report.status == "converged"
        assert result.cut_value == 0.0

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 2\n")
        with pytest.raises(ValueError):
            read_graph(path)
