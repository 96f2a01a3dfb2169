import math

import numpy as np
import pytest

from sparse_sdp import chordal, logdet, solver
from sparse_sdp import (Direction, InfeasibleStart,
                        IterateState, IterationLimit, NoDecrease, SdpProblem,
                        SolverConfig, SparseSymMatrix, SparseSymPattern, completion_factors,
                        conjugate_gradient, dual_direction, hess_vec, inner_product,
                        inverse_columns, maximal_cliques, potential_minimize,
                        primal_direction, solve)
from sparse_sdp.cli import _generic_initial_point
from sparse_sdp.maxcut import Graph, initial_point, maxcut_sdp, random_graph
from sparse_sdp.solver import EXTRA_ITERS, STALL_DECREASE

from conftest import (dense_mask, dense_reference_directions, factor_entries,
                      problem_dense_data, random_generic_sdp, reconstruct_dense,
                      restrict_abs_error, sparse_from_dense)


def make_state(problem, gamma=None):
    x0, y0 = initial_point(problem)
    gamma = math.sqrt(problem.n) if gamma is None else gamma
    rho = problem.n + gamma * math.sqrt(problem.n)
    return IterateState.create(problem, x0, y0, rho)


def bare_state(problem, xbar, y, rho):
    """The state at (xbar, y) without ``create``'s feasibility checks."""
    return IterateState(problem, solver.DualHalf(problem, y),
                        solver.PrimalHalf(xbar), rho)


def build_directions(state):
    return primal_direction(state), dual_direction(state)


class TestProblemInvariants:
    def test_pattern_chain_and_peo(self):
        problem = maxcut_sdp(random_graph(9, 14, seed=39))
        c = problem.c
        # slots raises KeyError for an entry off the fill
        rows, cols = c.pattern.slot_ends
        nz = np.flatnonzero(c.values)
        problem.fill.slots(rows[nz], cols[nz])
        maximal_cliques(problem.fill)  # raises NotChordal unless a PEO
        for a in problem.constraints:
            problem.fill.slots(*a.pattern.slot_ends)
        assert sum(len(s) for s in problem.cliques.residuals) == problem.n

    def test_clique_plan_is_built_on_first_read(self):
        problem = maxcut_sdp(random_graph(9, 14, seed=39))
        x0, y0 = initial_point(problem)
        assert "clique_plan" not in vars(problem.fill)      # not built at set-up
        report = solve(problem, x0, y0, SolverConfig())
        plan = problem.fill.clique_plan
        assert report.state.primal.sweep.plan is plan
        assert completion_factors(x0).plan is plan

    def test_one_clique_sequence_per_fill(self, monkeypatch):
        calls = []
        original = chordal.rip_order
        monkeypatch.setattr(chordal, "rip_order",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        problem = maxcut_sdp(random_graph(9, 14, seed=39))
        assert problem.cliques is problem.fill.cliques
        assert "clique_tree" not in vars(problem.fill)      # not built at set-up
        tree = problem.fill.clique_tree
        assert sorted(np.concatenate([f.cols for f in tree.fronts]).tolist()) == \
            list(range(problem.n))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_rejected(self, bad):
        c, constraints, b = random_generic_sdp(6, 3, np.random.default_rng(8))
        b = np.array(b, dtype=float)
        b[1] = bad
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(c, constraints, b)

    def test_entry_table_matches_the_permuted_constraints(self):
        # the table comes from the caller's matrices through the ordering;
        # rebuilding it from the permuted copies must give the same
        # entries in the same order: by constraint, diagonal first, then
        # ascending by slot in [diag | offdiag], with the larger label
        # first in (r, s)
        state, _ = generic_problem(np.random.default_rng(7))
        problem = state.problem
        fill = problem.fill
        ent = []
        for p, a in enumerate(problem.constraints):
            ent += [(p, v, a.diag[v], 1.0, v, v) for v in np.flatnonzero(a.diag)]
            rows, cols = a.pattern.slot_ends
            ent += sorted((p, int(fill.slots(i, j)), a.values[k], 2.0, i, j)
                          for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))
                          if i != j and a.values[k] != 0.0)
        own, slot, val, times, r, s = map(np.array, zip(*ent))
        assert np.array_equal(problem._ent_own, own)
        assert np.array_equal(problem._ent_slot, slot)
        assert np.array_equal(problem._ent_val, val)
        assert np.array_equal(problem._ent_weight, times * val)
        assert np.array_equal(problem._ent_r, r)
        assert np.array_equal(problem._ent_s, s)
        # the diagonal and the off-diagonal class split the table, each in
        # its order, with one group per constraint that has entries there
        for (cr, cs, cw, start, owner), sub in zip((problem._diag, problem._off),
                                                   (r == s, r != s)):
            assert np.array_equal(cr, r[sub]) and np.array_equal(cs, s[sub])
            assert np.array_equal(cw, (times * val)[sub])
            assert np.array_equal(owner, np.unique(own[sub]))
            assert np.array_equal(owner, own[sub][start])
        assert problem._off.owner.size > 0


class TestApplyMap:
    def test_zero_matrix(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=0))
        w = SparseSymMatrix.zeros(problem.fill)
        assert np.allclose(problem.apply_map(w), 0.0)

    def test_identity_on_unit_diagonal_constraints(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=0))
        w = SparseSymMatrix.identity(problem.fill)
        assert np.allclose(problem.apply_map(w), 1.0)

    @pytest.mark.parametrize("which", ["maxcut", "mixed classes"])
    def test_random_problem_against_dense(self, which):
        rng = np.random.default_rng(40)
        problem = maxcut_sdp(random_graph(6, 9, seed=3)) if which == "maxcut" \
            else mixed_class_problem()
        c_dense, a_dense, _ = problem_dense_data(problem)
        w = SparseSymMatrix(problem.fill, rng.standard_normal(problem.n + problem.fill.nnz))
        wd = w.to_dense()
        expected = [float(np.sum(a * wd)) for a in a_dense]
        assert np.allclose(problem.apply_map(w), expected, atol=1e-12)

    @pytest.mark.parametrize("which", ["maxcut", "mixed classes"])
    def test_adjoint_consistency(self, which):
        rng = np.random.default_rng(41)
        problem = maxcut_sdp(random_graph(7, 10, seed=5)) if which == "maxcut" \
            else mixed_class_problem()
        z = rng.standard_normal(problem.m)
        w = SparseSymMatrix(problem.fill, rng.standard_normal(problem.n + problem.fill.nnz))
        lhs = float(z @ problem.apply_map(w))
        rhs = inner_product(problem.adjoint_map(z), w)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDualSlack:
    @staticmethod
    def check(problem, c, a_list, rng):
        # C - sum y_p A_p from the caller's unpermuted dense data, moved
        # to the elimination labels through the ordering
        y = rng.standard_normal(problem.m)
        dense = c - sum(yp * a for yp, a in zip(y, a_list))
        perm = problem.ordering.perm
        permuted = np.zeros_like(dense)
        permuted[np.ix_(perm, perm)] = dense
        assert not np.any(permuted[~dense_mask(problem.fill)])
        s = problem.dual_slack(y)
        assert restrict_abs_error(permuted, s) <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maxcut_against_the_graph(self, seed):
        graph = random_graph(12, 24, seed=seed)
        problem = maxcut_sdp(graph)
        assert not np.array_equal(problem.ordering.perm, np.arange(graph.n))
        c = np.zeros((graph.n, graph.n))
        for i, j, w in graph.edges:
            c[i, j] = c[j, i] = w / 4.0
            c[i, i] -= w / 4.0
            c[j, j] -= w / 4.0
        self.check(problem, c, [np.diag(e) for e in np.eye(graph.n)],
                   np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_against_the_callers_matrices(self, seed):
        rng = np.random.default_rng(seed)
        c, constraints, b = random_generic_sdp(12, 6, rng)
        problem = SdpProblem(c, constraints, b)
        assert not np.array_equal(problem.ordering.perm, np.arange(12))
        self.check(problem, c.to_dense(), [a.to_dense() for a in constraints], rng)


class TestPotential:
    def test_identity_pair(self):
        # X = S = I at n = 4, gamma = 1: rho = 6, gap = 4, log-dets vanish
        problem = maxcut_sdp(Graph(4, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        rho = 4 + 1.0 * 2.0
        state = IterateState.create(problem, x0, -np.ones(4), rho)
        assert np.allclose(state.dual.mat.diag, 1.0)
        assert state.phi == pytest.approx(6.0 * math.log(4.0), abs=1e-12)

    def test_single_vertex(self):
        problem = maxcut_sdp(Graph(1, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, np.array([-1.0]), rho=2.0)
        assert state.phi == pytest.approx(0.0, abs=1e-12)

    def test_tridiagonal_worked_value(self):
        # X tridiagonal (diag 2, offdiag 1) against S = I at gamma = 1:
        # gap = trace = 6 and the completion log-det is 2 ln 3 - ln 2
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        c = SparseSymMatrix.zeros(pat)
        constraints = []
        for p in range(3):
            d = np.zeros(3)
            d[p] = 1.0
            constraints.append(SparseSymMatrix(SparseSymPattern(3), d))
        problem = SdpProblem(c, constraints, np.ones(3))
        xbar = SparseSymMatrix(problem.fill, [2.0, 2.0, 2.0, 1.0, 1.0])
        # X is not primal feasible for b = 1, so build the state directly
        # rather than through the validating IterateState.create
        state = bare_state(problem, xbar, -np.ones(3), rho=3.0 + math.sqrt(3.0))
        expected = (3 + math.sqrt(3)) * math.log(6.0) \
            - (2 * math.log(3.0) - math.log(2.0))
        assert state.phi == pytest.approx(expected, abs=1e-12)


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["gamma", "gap_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, True, "1"])
    def test_gamma_and_tolerances_must_be_positive_and_finite(self, field, value):
        # gamma=nan ran all 200 iterations and gap_tol=nan stalled; True
        # was taken for 1.0, and "1" raised TypeError from math.isfinite
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("max_main_iters", [0, -1, 2.5, True])
    def test_max_main_iters_must_be_a_positive_int(self, max_main_iters):
        # 0 and -1 used to raise IterationLimit "after -1 iterations"
        with pytest.raises(ValueError, match="max_main_iters"):
            SolverConfig(max_main_iters=max_main_iters)

    @pytest.mark.parametrize("max_main_iters", [1, np.int64(7)])
    def test_max_main_iters_accepts_positive_ints(self, max_main_iters):
        assert SolverConfig(max_main_iters=max_main_iters).max_main_iters \
            == max_main_iters

    # conjugate_gradient's knobs were the SolverConfig fields cg_rel_tol
    # and cg_max_iter while the solve ran CG; it keeps their range checks
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, True, "1"])
    def test_cg_rel_tol_must_be_positive_and_finite(self, value):
        # rel_tol=nan ran silently to the iteration cap
        with pytest.raises(ValueError, match="finite"):
            conjugate_gradient(lambda v: v, np.ones(3), rel_tol=value)

    @pytest.mark.parametrize("cg_max_iter", [0, -1, 2.5, True])
    def test_cg_max_iter_must_be_a_positive_int(self, cg_max_iter):
        # 0 and -1 returned the zero vector flagged not converged
        with pytest.raises(ValueError, match="max_iter"):
            conjugate_gradient(lambda v: v, np.ones(3), max_iter=cg_max_iter)

    @pytest.mark.parametrize("cg_max_iter", [None, 1, np.int64(7)])
    def test_cg_max_iter_accepts_none_and_positive_ints(self, cg_max_iter):
        res = conjugate_gradient(lambda v: v, np.ones(3), max_iter=cg_max_iter)
        assert res.converged and res.iterations == 1


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


def hess_vec_columns(problem, factor, sinv):
    """The m columns A(hess_vec(factor, A*(e_q), sinv)) of the Newton
    operator that CG once applied matrix-free."""
    return np.array([
        problem.apply_map(hess_vec(factor, problem.adjoint_map(e), sinv=sinv))
        for e in np.eye(problem.m)]).T


def assembled(problem, factor):
    return problem.newton_matrix(inverse_columns(factor))


def mid_solve_state():
    """The iterate after four iterations on a 20-vertex MAX-CUT problem."""
    problem = maxcut_sdp(random_graph(20, 40, seed=3))
    x0, y0 = initial_point(problem)
    with pytest.raises(IterationLimit) as info:
        solve(problem, x0, y0, SolverConfig(max_main_iters=4))
    return info.value.report.state


def generic_mid_solve_state(n, m, seed, iters=4):
    """The iterate after ``iters`` iterations on ``random_generic_sdp(n,
    m)``, started from the CLI's generic initial point."""
    problem = SdpProblem(*random_generic_sdp(n, m, np.random.default_rng(seed)))
    x0, y0 = _generic_initial_point(problem)
    with pytest.raises(IterationLimit) as info:
        solve(problem, x0, y0, SolverConfig(max_main_iters=iters))
    return info.value.report.state


def generic_problem(rng):
    """12 x 12 problem whose constraints carry off-diagonal entries on
    random edges, with a state that is strictly inside both cones but
    neither feasible nor at X = I."""
    n = 12
    pat = SparseSymPattern(n, [(i, i - 1) for i in range(1, n)])
    c = SparseSymMatrix(pat, np.append(np.full(n, 6.0), np.full(n - 1, 0.5)))
    constraints = []
    off_entries = 0
    for p in range(7):
        edges = [tuple(rng.choice(n, 2, replace=False)) for _ in range(5)]
        apat = SparseSymPattern(n, edges)
        diag = np.zeros(n)
        diag[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        constraints.append(SparseSymMatrix(
            apat, np.append(diag, rng.standard_normal(apat.nnz))))
        off_entries += apat.nnz
    problem = SdpProblem(c, constraints, np.ones(7))
    xbar = SparseSymMatrix(problem.fill, np.append(
        1.0 + rng.random(n), 0.05 * rng.standard_normal(problem.fill.nnz)))
    state = bare_state(problem, xbar, 0.05 * rng.standard_normal(7), rho=20.0)
    return state, off_entries


def mixed_class_problem():
    """6 x 6 problem whose constraints mix the diagonal and off-diagonal
    entry classes: A_0 has two diagonal entries and an off-diagonal one,
    A_2 no diagonal entry, A_3 no off-diagonal one, and slots (2, 2) and
    (3, 1) each hold entries of two constraints, so G is not diagonal."""
    n = 6
    entries = [{(0, 0): 1.5, (2, 2): 0.7, (3, 1): 0.4},
               {(2, 2): 1.0, (4, 3): -0.3, (5, 2): 0.8},
               {(5, 0): 0.6, (1, 0): -0.2},
               {(4, 4): 1.2, (5, 5): 0.9},
               {(3, 1): 1.1}]
    constraints = []
    for ent in entries:
        dense = np.zeros((n, n))
        for (i, j), v in ent.items():
            dense[i, j] = dense[j, i] = v
        edges = [key for key in ent if key[0] != key[1]]
        constraints.append(sparse_from_dense(SparseSymPattern(n, edges), dense))
    c = SparseSymMatrix.identity(SparseSymPattern(n, [(i, i - 1) for i in range(1, n)]))
    return SdpProblem(c, constraints, np.array([a.diag.sum() for a in constraints]))


class TestHalfContract:
    """Both halves answer to ``mat``, ``logdet``, ``inv`` and ``factor``:
    S or X on F, ln det S or ln det X^, S^-1 on F or X^-1, and the factor
    of S or of X^-1, whose ``inverse_columns`` are W = S^-1 or W = X^."""

    @pytest.mark.parametrize("which", ["maxcut mid-solve", "generic"])
    def test_each_half_against_dense(self, which):
        state = mid_solve_state() if which == "maxcut mid-solve" else \
            generic_problem(np.random.default_rng(44))[0]
        fill = state.problem.fill
        s = state.dual.mat.to_dense()
        xhat = reconstruct_dense(state.primal.mat)
        assert np.abs(xhat[~dense_mask(fill)]).max() > 1e-3     # X^ is not X
        for half, full, w_want in ((state.dual, s, np.linalg.inv(s)),
                                   (state.primal, xhat, xhat)):
            assert half.mat.pattern is half.inv.pattern is half.factor.pattern is fill
            sign, logdet = np.linalg.slogdet(full)
            assert sign == 1.0
            assert half.logdet == pytest.approx(logdet, rel=1e-12, abs=1e-12)
            inv = np.linalg.inv(full)
            assert restrict_abs_error(inv, half.inv) <= 1e-11 * np.abs(inv).max()
            w = inverse_columns(half.factor)
            assert np.abs(w - w_want).max() <= 1e-11 * np.abs(w_want).max()


class TestNewtonMatrix:
    def check(self, state, rel=1e-12):
        problem = state.problem
        for factor, sinv in ((state.dual.factor, state.dual.inv),
                             (state.primal.factor, state.primal.mat)):
            want = hess_vec_columns(problem, factor, sinv)
            got = assembled(problem, factor)
            assert got.shape == (problem.m, problem.m)
            assert np.abs(got - want).max() <= rel * np.abs(want).max()

    def test_maxcut_iterate_mid_solve_both_sides(self):
        state = mid_solve_state()
        # away from X = I, where X^ A_p X^ would hide primal-side errors
        assert np.abs(state.primal.mat.offdiag).max() > 1e-2
        self.check(state)

    @pytest.mark.parametrize("which", ["mixed classes", "generic", "maxcut"])
    def test_against_the_dense_oracle(self, which):
        # M_pq = A_p . (W A_q W) for a W that is not any iterate's
        if which == "mixed classes":
            problem = mixed_class_problem()
            assert len(np.unique(problem._ent_slot)) < len(problem._ent_slot)
        elif which == "generic":
            problem = generic_problem(np.random.default_rng(44))[0].problem
        else:
            problem = maxcut_sdp(random_graph(9, 14, seed=4))
        n = problem.n
        g = np.random.default_rng(47).standard_normal((n, n))
        w = g @ g.T / n + np.eye(n)
        dense = [a.to_dense() for a in problem.constraints]
        want = np.array([[np.sum(ap * (w @ aq @ w)) for aq in dense] for ap in dense])
        got = problem.newton_matrix(w)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_maxcut_is_the_hadamard_square(self):
        # constraint p is e_v e_v^T for v = perm[p] in the elimination labels
        state = make_state(maxcut_sdp(random_graph(9, 14, seed=4)))
        problem = state.problem
        w = inverse_columns(state.dual.factor)
        v = problem.ordering.perm
        want = (w * w)[np.ix_(v, v)]
        assert np.abs(problem.newton_matrix(w) - want).max() \
            <= 1e-14 * np.abs(want).max()

    def test_generic_constraints_with_off_diagonal_entries(self):
        state, off_entries = generic_problem(np.random.default_rng(44))
        assert off_entries >= 29
        self.check(state)

    def test_no_constraints(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        c = SparseSymMatrix(pat, [2.0] * 4 + [0.5] * 2)
        problem = SdpProblem(c, [], np.zeros(0))
        state = bare_state(problem, SparseSymMatrix.identity(problem.fill),
                           np.zeros(0), rho=6.0)
        for half in (state.dual, state.primal):
            assert assembled(problem, half.factor).shape == (0, 0)
        w = inverse_columns(state.dual.factor)
        v, res, combo, image = solver._newton_system(problem, w, np.zeros(0),
                                                     "dual")
        assert v.shape == (0,) and res == 0.0
        assert not combo.values.any() and not image.values.any()

    def test_no_hessian_sweeps_in_the_directions(self, monkeypatch):
        # every product W Z W comes from W in full, on MAX-CUT and on a
        # generic problem with a vertex outside every constraint alike
        assert not hasattr(solver, "hess_vec")
        original = logdet.hess_vec
        calls = []
        monkeypatch.setattr(logdet, "hess_vec",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        build_directions(mid_solve_state())
        state = generic_mid_solve_state(12, 6, 0, iters=4)
        problem = state.problem
        assert len(np.union1d(problem._ent_r, problem._ent_s)) == 11
        build_directions(state)
        assert calls == []


class TestGenericSolvesCertified:
    """Full solves of random generic SDPs, whose constraints carry
    off-diagonal entries, certified apart from the solver: the dense
    completion X^ and S(y) are PSD, A(X^) = b, and C.X^ - b.y is the
    reported gap."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,m", [(12, 6), (20, 10), (30, 15)])
    def test_solve_is_certified(self, n, m, seed):
        problem = SdpProblem(*random_generic_sdp(n, m, np.random.default_rng(seed)))
        report = solve(problem, *_generic_initial_point(problem), SolverConfig())
        assert report.status == "converged"
        assert report.gap <= SolverConfig().gap_tol
        xhat = reconstruct_dense(report.state.primal.mat)
        y = report.state.dual.y
        c = problem.c.to_dense()
        a = [ap.to_dense() for ap in problem.constraints]
        s = c - sum(yp * ap for yp, ap in zip(y, a))
        for mat in (xhat, s):
            eig = np.linalg.eigvalsh(mat)
            assert eig[0] >= -1e-12 * eig[-1]
        assert np.abs([np.sum(ap * xhat) for ap in a] - problem.b).max() <= 1e-8
        gap = np.sum(c * xhat) - problem.b @ y
        assert gap == pytest.approx(report.gap, rel=1e-8, abs=1e-12)


class TestProjection:
    def test_generic_constraints_against_dense_least_squares(self):
        problems = [generic_problem(np.random.default_rng(44))[0].problem]
        problems += [SdpProblem(*random_generic_sdp(n, m, np.random.default_rng(seed)))
                     for n, m, seed in ((12, 6, 0), (9, 5, 5), (10, 8, 2))]
        rng = np.random.default_rng(45)
        for problem in problems:
            w = SparseSymMatrix(problem.fill,
                                rng.standard_normal(problem.n + problem.fill.nnz))
            pw = problem.project_out_constraints(w)
            assert np.abs(problem.apply_map(pw)).max() <= 1e-12
            ppw = problem.project_out_constraints(pw)
            assert np.abs(ppw.diag - pw.diag).max() <= 1e-12
            assert np.abs(ppw.offdiag - pw.offdiag).max() <= 1e-12
            # W - P(W) is the Frobenius least-squares fit of W in span{A_p}
            _, a_dense, _ = problem_dense_data(problem)
            basis = np.array([a.ravel() for a in a_dense]).T
            wd = w.to_dense().ravel()
            fit = basis @ np.linalg.lstsq(basis, wd, rcond=None)[0]
            removed = (w.to_dense() - pw.to_dense()).ravel()
            assert np.abs(removed - fit).max() <= 1e-12 * np.abs(wd).max()

    def test_gram_matrix_against_dense(self):
        # G_pq = A_p . A_q, from the dense constraints in the caller's labels
        for n, m, seed in ((12, 6, 0), (9, 5, 5), (10, 8, 2)):
            c, a_list, b = random_generic_sdp(n, m, np.random.default_rng(seed))
            problem = SdpProblem(c, a_list, b)
            dense = np.array([a.to_dense().ravel() for a in a_list])
            want = dense @ dense.T
            got = np.linalg.inv(problem._gram_inverse())
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # the general path, with slots shared in both entry classes
        problem = mixed_class_problem()
        dense = np.array([a.to_dense().ravel() for a in problem.constraints])
        want = dense @ dense.T
        got = np.linalg.inv(problem._gram_inverse())
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        problem = maxcut_sdp(random_graph(9, 14, seed=4))
        assert np.array_equal(problem._gram_inverse(), np.eye(problem.n))

    def test_disjoint_constraints_give_a_diagonal_gram_inverse(self, monkeypatch):
        # no slot holds entries of two constraints, so G is diagonal and is
        # read off the entry table without the Newton matrix at W = I
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        c = SparseSymMatrix.identity(pat)
        a_list = [SparseSymMatrix(SparseSymPattern(4, [(0, 1)]), [2.0, 0, 0, 0, 0.5]),
                  SparseSymMatrix(SparseSymPattern(4), [0, 3.0, 0, 0]),
                  SparseSymMatrix(SparseSymPattern(4, [(2, 3)]), [0, 0, 1.0, 0, 1.5]),
                  SparseSymMatrix(SparseSymPattern(4), [0, 0, 0, 0.5])]
        problem = SdpProblem(c, a_list, np.ones(4))
        monkeypatch.setattr(SdpProblem, "newton_matrix", None)
        dense = np.array([a.to_dense().ravel() for a in a_list])
        assert np.allclose(problem._gram_inverse(), np.linalg.inv(dense @ dense.T),
                           rtol=1e-15, atol=0.0)
        a_list[3] = SparseSymMatrix(SparseSymPattern(4), np.zeros(4))
        with pytest.raises(ValueError, match="linearly dependent"):
            SdpProblem(c, a_list, np.ones(4))._gram_inverse()

    def test_equal_constraints_are_linearly_dependent(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        c = SparseSymMatrix(pat, [2.0] * 3 + [0.5] * 2)
        a = SparseSymMatrix(SparseSymPattern(3, [(0, 1)]), [1.0, 0.0, 2.0, 0.5])
        problem = SdpProblem(c, [a, a], np.ones(2))
        with pytest.raises(ValueError, match="linearly dependent"):
            problem.project_out_constraints(SparseSymMatrix.identity(problem.fill))


class TestDirectionsAgainstDenseReference:
    @pytest.mark.parametrize("graph", [
        Graph(2, [(0, 1, 1.0)]),
        random_graph(5, 7, seed=9),
        random_graph(6, 9, seed=10),
    ])
    def test_first_iterate_equivalence(self, graph):
        problem = maxcut_sdp(graph)
        state = make_state(problem)
        prim, dual = build_directions(state)

        c_dense, a_dense, b = problem_dense_data(problem)
        # first iterate: the completion of the identity partial is exact
        xhat = np.eye(problem.n)
        s_dense = state.dual.mat.to_dense()
        ref = dense_reference_directions(c_dense, a_dense, b, xhat, s_dense,
                                         state.rho)

        def rel(dense, sparse_mat):
            scale = max(np.abs(dense).max(), 1e-12)
            rows, cols = sparse_mat.pattern.slot_ends
            return np.abs(dense[rows, cols] - sparse_mat.values).max() / scale

        assert rel(ref["dx1"], prim.dx) < 1e-6
        assert rel(ref["dx2"], dual.dx) < 1e-6
        assert rel(ref["ds1"], prim.ds) < 1e-6
        assert rel(ref["ds2"], dual.ds) < 1e-6
        assert prim.lam == pytest.approx(ref["lam"], rel=1e-6)
        assert dual.lam == pytest.approx(ref["lam_tilde"], rel=1e-8)
        assert np.allclose(prim.multipliers, ref["lambda_mult"], rtol=1e-6)
        assert np.allclose(dual.multipliers, ref["z"], rtol=1e-6, atol=1e-9)

    def test_second_iterate_equivalence(self):
        # after one step the completion is no longer the identity; feed the
        # dense reference the reconstructed completion and compare again
        problem = maxcut_sdp(random_graph(6, 8, seed=11))
        x0, y0 = initial_point(problem)
        rho = problem.n + math.sqrt(problem.n) * math.sqrt(problem.n)
        state = IterateState.create(problem, x0, y0, rho)
        choice = potential_minimize(state, *build_directions(state))
        state2 = choice.trial
        prim2, dual2 = build_directions(state2)

        xhat = reconstruct_dense(state2.primal.mat)
        c_dense, a_dense, b = problem_dense_data(problem)
        ref = dense_reference_directions(c_dense, a_dense, b, xhat,
                                         state2.dual.mat.to_dense(), rho)
        scale = max(np.abs(ref["dx1"]).max(), 1.0)
        rows, cols = problem.fill.slot_ends
        err = np.abs(ref["dx1"][rows, cols] - prim2.dx.values).max()
        assert err / scale < 1e-6
        assert prim2.lam == pytest.approx(ref["lam"], rel=1e-6)
        assert dual2.lam == pytest.approx(ref["lam_tilde"], rel=1e-6)

    def test_equivalence_along_a_whole_run(self):
        # follow three accepted steps of a random instance; at every state
        # the sparse directions must match the dense reference
        problem = maxcut_sdp(random_graph(5, 7, seed=25))
        x0, y0 = initial_point(problem)
        rho = 2.0 * problem.n
        state = IterateState.create(problem, x0, y0, rho)
        c_dense, a_dense, b = problem_dense_data(problem)
        for _ in range(3):
            prim, dual = build_directions(state)
            xhat = reconstruct_dense(state.primal.mat)
            ref = dense_reference_directions(c_dense, a_dense, b, xhat,
                                             state.dual.mat.to_dense(), rho)
            for dense, mat in ((ref["dx1"], prim.dx),
                               (ref["dx2"], dual.dx),
                               (ref["ds1"], prim.ds),
                               (ref["ds2"], dual.ds)):
                scale = max(np.abs(dense).max(), 1e-12)
                rows, cols = problem.fill.slot_ends
                err = np.abs(dense[rows, cols] - mat.values).max()
                assert err / scale < 1e-6
            choice = potential_minimize(state, prim, dual)
            assert choice.trial is not None
            state = choice.trial

    @pytest.mark.parametrize("n, m, seed, covered", [
        (12, 6, 0, 11),
        (9, 5, 5, 7),
        (10, 8, 2, 10),
    ])
    def test_generic_mid_solve_equivalence(self, n, m, seed, covered):
        # off-diagonal constraint entries, a Gram matrix that is not the
        # identity, X away from I and, with covered < n, vertices outside
        # the constraints
        state = generic_mid_solve_state(n, m, seed)
        problem = state.problem
        assert len(np.union1d(problem._ent_r, problem._ent_s)) == covered
        assert np.abs(state.primal.mat.offdiag).max() > 1e-2
        prim, dual = build_directions(state)
        ref = dense_reference_directions(*problem_dense_data(problem),
                                         reconstruct_dense(state.primal.mat),
                                         state.dual.mat.to_dense(), state.rho)
        for dense, mat in ((ref["dx1"], prim.dx), (ref["dx2"], dual.dx),
                           (ref["ds1"], prim.ds), (ref["ds2"], dual.ds)):
            scale = max(np.abs(dense).max(), 1e-12)
            assert restrict_abs_error(dense, mat) / scale < 1e-10
        assert prim.lam == pytest.approx(ref["lam"], rel=1e-10)
        assert dual.lam == pytest.approx(ref["lam_tilde"], rel=1e-10)

    def test_direction_subspace_invariants(self):
        problem = maxcut_sdp(random_graph(8, 14, seed=12))
        state = make_state(problem)
        prim, dual = build_directions(state)
        assert np.abs(problem.apply_map(prim.dx)).max() < 1e-7
        assert np.abs(problem.apply_map(dual.dx)).max() < 1e-7
        # dS1 and dS2 are adjoint images by construction; check dS1 matches
        # its defining formula mu * (Xinv - G) - S via the multiplier form
        mu = state.gap / state.rho
        recon = problem.adjoint_map(-mu * prim.multipliers)
        assert np.abs(recon.diag - prim.ds.diag).max() < 1e-12
        assert np.abs(recon.offdiag - prim.ds.offdiag).max() < 1e-12
        assert prim.lam >= 0.0 and dual.lam >= 0.0

    def test_newton_step_vanishes_at_dual_center(self):
        # with X = I and S = I the dual gradient rho/gap*X - S^-1 vanishes
        # when rho/gap = 1, i.e. at the scaled analytic center
        problem = maxcut_sdp(Graph(3, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, -np.ones(3), rho=3.0)
        dual = dual_direction(state)
        assert np.abs(dual.multipliers).max() < 1e-12
        assert np.abs(dual.ds.diag).max() < 1e-12

    def test_primal_newton_vanishes_at_center(self):
        problem = maxcut_sdp(Graph(3, []))
        x0 = SparseSymMatrix.identity(problem.fill)
        state = IterateState.create(problem, x0, -np.ones(3), rho=3.0)
        prim = primal_direction(state)
        assert np.abs(prim.dx.diag).max() < 1e-10
        assert (np.abs(prim.dx.offdiag).max() if len(prim.dx.offdiag) else 0.0) < 1e-10


class TestPotentialMinimize:
    def test_zero_directions_return_zero_point(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=13))
        state = make_state(problem)
        zero = SparseSymMatrix.zeros(problem.fill)
        still = Direction(dx=zero, ds=zero, dy=np.zeros(problem.m), lam=0.0,
                          multipliers=np.zeros(problem.m), newton_res=0.0)
        choice = potential_minimize(state, still, still)
        assert np.allclose(choice.coeffs, 0.0)
        assert choice.phi == pytest.approx(state.phi)

    def test_infeasible_start_is_damped(self):
        problem = maxcut_sdp(random_graph(5, 6, seed=14))
        state = make_state(problem)
        # a dual step far past the cone boundary: 200 * dy1 forces damping
        prim, dual = build_directions(state)
        big = Direction(dx=prim.dx, ds=prim.ds.scaled(200.0),
                        dy=prim.dy * 200.0, lam=prim.lam,
                        multipliers=prim.multipliers, newton_res=prim.newton_res)
        choice = potential_minimize(state, big, dual)
        # the k1 start must have been halved into feasibility (0 < k1 < 1)
        # or rejected in favor of another start; either way phi decreases
        assert choice.phi < state.phi

    def test_chosen_point_beats_unit_starts(self):
        problem = maxcut_sdp(random_graph(7, 11, seed=15))
        state = make_state(problem)
        prim, dual = build_directions(state)
        choice = potential_minimize(state, prim, dual)
        # evaluate phi at each raw unit start for comparison
        for start in range(4):
            q = np.zeros(4)
            q[start] = 1.0
            mats = [prim.dx, dual.dx]
            x = state.primal.mat.values + sum(q[t] * m.values for t, m in enumerate(mats))
            y = state.dual.y + q[2] * prim.dy + q[3] * dual.dy
            from sparse_sdp import cholesky_factorize, logdet_completion
            s = problem.dual_slack(y)
            try:
                fac = cholesky_factorize(s)
                xb = SparseSymMatrix(problem.fill, x)
                ld = logdet_completion(completion_factors(xb))
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
        prim = primal_direction(state)
        choice = potential_minimize(state, prim, None)
        assert choice.coeffs[1] == 0.0 and choice.coeffs[3] == 0.0
        assert choice.phi < state.phi

    def test_adopted_trial_brings_its_slack_inverse(self, monkeypatch):
        # the step search needs S^-1 at every trial it takes a gradient
        # at; the trial it returns keeps it, so the next dual direction
        # computes none
        problem = maxcut_sdp(random_graph(7, 11, seed=15))
        state = make_state(problem)
        choice = potential_minimize(state, *build_directions(state))
        assert choice.trial is not None
        calls = []
        original = solver.sparse_inverse
        monkeypatch.setattr(solver, "sparse_inverse",
                            lambda factor: calls.append(factor) or original(factor))
        dual_direction(choice.trial)
        assert calls == []


class TestTrialReuse:
    """A step-search trial builds only the halves its step moves."""

    COUNTED = ("cholesky_factorize", "completion_factors", "sparse_inverse",
               "completion_inverse")

    def search(self, monkeypatch, state, primal, dual):
        """Run one step search; return the (q, trial) of every trial it
        evaluates and, per counted kernel, the first argument of each call
        with whether the call returned."""
        calls = {name: [] for name in self.COUNTED}

        def counted(original, log):
            def call(*args):
                log.append([args[0], False])
                out = original(*args)
                log[-1][1] = True
                return out
            return call

        for name in self.COUNTED:
            monkeypatch.setattr(solver, name, counted(getattr(solver, name), calls[name]))
        trials = []
        original_trial = solver._trial
        monkeypatch.setattr(solver, "_trial", lambda st, dirs, q: trials.append(
            (q.copy(), original_trial(st, dirs, q))) or trials[-1][1])
        potential_minimize(state, primal, dual)
        monkeypatch.undo()
        return trials, calls

    @pytest.mark.parametrize("mode", ["four", "two"])
    def test_trials_share_the_halves_they_leave_unchanged(self, monkeypatch, mode):
        state = mid_solve_state()
        primal = primal_direction(state)
        dual = dual_direction(state) if mode == "four" else None
        # the iterate's inverses are known before the search, as in solve
        state.dual.inv, state.primal.inv
        trials, calls = self.search(monkeypatch, state, primal, dual)
        moves_y = [q[2] != 0.0 or q[3] != 0.0 for q, _ in trials]
        moves_x = [q[0] != 0.0 or q[1] != 0.0 for q, _ in trials]
        assert 0 < sum(moves_y) < len(trials) and 0 < sum(moves_x) < len(trials)
        # one factorization per trial that moves y, in trial order; a
        # trial whose S is not positive definite builds no primal half
        factored = iter(calls["cholesky_factorize"])
        dual_ok = [next(factored)[1] if new_y else True for new_y in moves_y]
        assert next(factored, None) is None
        assert len(calls["completion_factors"]) == sum(
            new_x and ok for new_x, ok in zip(moves_x, dual_ok))
        assert not all(dual_ok)
        for (_, trial), new_y, new_x in zip(trials, moves_y, moves_x):
            if trial is None:
                continue
            assert (trial.dual is state.dual) == (not new_y)
            assert (trial.dual.factor is state.dual.factor) == (not new_y)
            assert (trial.primal is state.primal) == (not new_x)
            assert (trial.primal.sweep is state.primal.sweep) == (not new_x)
        # gradients invert only halves the search built, each at most once
        for name, mine in (("sparse_inverse", state.dual.factor),
                           ("completion_inverse", state.primal.sweep)):
            ids = [id(arg) for arg, _ in calls[name]]
            assert id(mine) not in ids and len(set(ids)) == len(ids)

    def test_shared_primal_half_brings_its_completion_inverse_factor(
            self, monkeypatch):
        state = mid_solve_state()
        primal_direction(state)
        moved = IterateState(state.problem,
                             solver.DualHalf(state.problem, state.dual.y.copy()),
                             state.primal, state.rho)
        calls = []
        original = solver.cholesky_factorize
        monkeypatch.setattr(solver, "cholesky_factorize",
                            lambda a: calls.append(a) or original(a))
        primal_direction(moved)
        assert calls == []


class TestCompletionSweep:
    def test_each_clique_block_is_factored_once(self, monkeypatch):
        problem = maxcut_sdp(random_graph(20, 40, seed=3))
        x0, y0 = initial_point(problem)
        cs = problem.cliques
        assert sum(1 for u in cs.separators if len(u)) > 0
        calls, refactored = [], []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or real(a))
        monkeypatch.setattr(solver, "cholesky_factorize", lambda a: refactored.append(a))
        primal = solver.PrimalHalf(x0)
        assert primal.inv is not None and primal.factor is not None
        # one batched call per bucket, none for a separator, and the
        # factor of the completion inverse comes from the same sweep: each
        # k x k block is factored bordered, as [[R, I], [I, beta I]]
        buckets = problem.fill.clique_plan.buckets
        assert [shape[1:] for shape in calls] == \
            [(2 * gather.shape[1], 2 * gather.shape[2]) for gather, _ in buckets]
        assert sum(shape[0] for shape in calls) == len(cs)
        # every clique is exactly one block: its vertices are the block's
        # diagonal slots below n, the pads read the slot past the storage
        n = problem.fill.n
        blocks = [sorted(d[d < n].tolist()) for gather, _ in buckets
                  for d in np.diagonal(gather, axis1=1, axis2=2)]
        assert sorted(blocks) == sorted(c.tolist() for c in cs.cliques)
        assert refactored == []


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

    @staticmethod
    def no_step(kind):
        """``potential_minimize`` finding no step, in one of its three ways."""
        real = solver.potential_minimize

        def search(state, primal, dual):
            if kind == "no_decrease":
                raise NoDecrease("no start point")
            choice = real(state, primal, dual)
            if kind == "zero_point":
                choice.trial = None
            else:
                choice.phi = state.phi - 0.5 * STALL_DECREASE
            return choice
        return search

    @pytest.mark.parametrize("kind, message", [
        ("no_decrease", "no feasible potential-reducing step"),
        ("zero_point", "potential decrease below 1e-12 at gap "),
        ("small_decrease", "potential decrease below 1e-12 at gap "),
    ])
    def test_no_step_stalls_above_gap_tol(self, monkeypatch, kind, message):
        problem = maxcut_sdp(random_graph(5, 7, seed=24))
        x0, y0 = initial_point(problem)
        monkeypatch.setattr(solver, "potential_minimize", self.no_step(kind))
        with pytest.raises(IterationLimit, match=message) as info:
            solve(problem, x0, y0, SolverConfig())
        assert info.value.report.status == "stalled"
        assert info.value.report.iterations == 0

    @pytest.mark.parametrize("kind", ["no_decrease", "zero_point", "small_decrease"])
    def test_no_step_converges_below_gap_tol(self, monkeypatch, kind):
        problem = maxcut_sdp(random_graph(5, 7, seed=24))
        x0, y0 = initial_point(problem)
        monkeypatch.setattr(solver, "potential_minimize", self.no_step(kind))
        report = solve(problem, x0, y0, SolverConfig(gap_tol=1e6))
        assert (report.status, report.iterations) == ("converged", 0)

    def test_nan_potential_decrease_is_no_stall(self, monkeypatch):
        problem = maxcut_sdp(random_graph(5, 7, seed=24))
        x0, y0 = initial_point(problem)
        want = solve(problem, x0, y0, SolverConfig()).csv_text()
        real = solver.potential_minimize

        def nan_phi(*args):
            choice = real(*args)
            choice.phi = math.nan
            return choice
        monkeypatch.setattr(solver, "potential_minimize", nan_phi)
        assert solve(problem, x0, y0, SolverConfig()).csv_text() == want

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

    @pytest.mark.parametrize("where", ["diagonal", "offdiagonal"])
    def test_dual_residual_sees_a_corrupted_factor(self, where):
        problem = maxcut_sdp(random_graph(10, 16, seed=22))
        x0, y0 = initial_point(problem)
        state = IterateState.create(problem, x0, y0, rho=20.0)
        assert state.residuals()[1] <= 1e-12
        factor = state.dual.factor
        slot = 0 if where == "diagonal" else \
            problem.n + int(np.argmax(np.abs(factor_entries(factor)[problem.n:])))
        at = factor.pattern.clique_tree.scatter[slot]
        assert factor.blocks[at] != 0.0
        factor.blocks[at] *= 1.001
        assert state.residuals()[1] > 1e-8

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
            assert float(row["newton_res_primal"]) == rec.newton_res_primal
            assert float(row["newton_res_dual"]) == rec.newton_res_dual
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
        assert all(r.newton_res_dual == 0.0 for r in report.records)
