"""The block kernels on the merged clique tree against dense oracles.

``cholesky_factorize``, ``sparse_inverse``, ``inverse_columns`` and
``hess_vec`` run on the dense fronts of ``SparseSymPattern.clique_tree``.
Each check runs at merge thresholds t = 1 (no merging), an intermediate
t and t >= n (one front per connected component at fill floor 0), and
the tree and oracle checks also at fill floors from none to one that
blocks every merge, on fresh random chordal patterns, since a pattern
keeps the tree it built first.  ``TestMergeFloor`` checks that the
default floor leaves the near-dense benchmark trees as the size rule
builds them and stops the banded ones.

The factor and the completion sweep factor their blocks bordered by
identities, which gives each block's factor L and its inverse in one
Cholesky call; ``TestBorderedBlocks`` checks those inverses against
long-double ones and checks that the border never decides a failure.
``TestNoLuInverses`` checks that no kernel on the solve path falls back
to an LU inverse or solve.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sparse_sdp import (CholeskyFactor, Graph, NotCompletable, NotPositiveDefinite,
                        SolverConfig, SparseSymMatrix, SparseSymPattern,
                        cholesky_factorize, hess_vec, initial_point, inverse_columns,
                        maxcut_sdp, random_graph, solve, solver, sparse_inverse)
from sparse_sdp import chordal
from sparse_sdp.bench import trial_seed
from sparse_sdp.completion import completion_factors, completion_inverse_factor
from sparse_sdp.logdet import lower_inverse
from sparse_sdp.chordal import padded
from sparse_sdp.sparsemat import BORDER, PIVOT_RTOL, bordered

from conftest import (dense_mask, factor_entries, factor_to_dense, front_density, is_merged,
                      random_completable_partial, random_filled_pattern, random_pd_on_pattern,
                      reconstruct_dense, restrict_abs_error, sparse_from_dense)

_spec = importlib.util.spec_from_file_location(
    "perfbench_graphs", Path(__file__).resolve().parent.parent / "perfbench" / "graphs.py")
graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(graphs)

THRESHOLDS = [1, 6, 10_000]
# fill floors: the size rule alone, the default, one that splits about a
# third of the random trees at t >= n, and one that blocks every merge
FLOORS = [0.0, chordal.MERGE_FILL, 0.5, 2.0]


@pytest.fixture(params=THRESHOLDS, ids=lambda t: f"t{t}")
def merge_size(request, monkeypatch):
    monkeypatch.setattr(chordal, "MERGE_SIZE", request.param)
    return request.param


@pytest.fixture(params=FLOORS, ids=lambda f: f"f{f:g}")
def merge_fill(request, monkeypatch):
    monkeypatch.setattr(chordal, "MERGE_FILL", request.param)
    return request.param


def random_cases(seed, count=40, nmax=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, nmax))
        yield rng, random_filled_pattern(n, rng.random() * 0.5, rng)


class TestCliqueTree:
    def test_fronts_partition_the_columns_and_cover_every_slot(self, merge_size, merge_fill):
        for _, fill in random_cases(1):
            tree = fill.clique_tree
            cols = np.concatenate([f.cols for f in tree.fronts])
            assert sorted(cols.tolist()) == list(range(fill.n))
            pad = fill.n + fill.nnz
            on = tree.gather[tree.gather < pad]
            assert sorted(on.tolist()) == list(range(pad))
            assert np.array_equal(tree.gather[tree.scatter], np.arange(pad))
            for f in tree.fronts:
                verts = np.concatenate((f.cols, f.seps))
                assert np.all(np.diff(verts) > 0)
                if f.parent >= 0:
                    # uflat: U' x U' in the parent's C' x C' block, raveled
                    up = np.concatenate((tree.fronts[f.parent].cols, tree.fronts[f.parent].seps))
                    rows, cols = np.divmod(f.uflat.reshape(len(f.seps), -1), len(up))
                    assert np.array_equal(up[rows], np.repeat(f.seps[:, None], len(f.seps), 1))
                    assert np.array_equal(up[cols], np.repeat(f.seps[None, :], len(f.seps), 0))
                else:
                    assert len(f.seps) == 0

    def test_threshold_sets_the_front_count(self, merge_size, merge_fill):
        for _, fill in random_cases(2):
            cliques = chordal.maximal_cliques(fill)
            tree = fill.clique_tree
            roots = sum(f.parent < 0 for f in tree.fronts)
            if merge_size == 1 or merge_fill > 1:
                assert len(tree.fronts) == len(cliques)
            elif merge_size >= fill.n and merge_fill == 0:
                assert len(tree.fronts) == roots
            merged = [len(f.cols) + len(f.seps) for f in tree.fronts]
            assert all(k <= max(merge_size, max(map(len, cliques))) for k in merged)
            assert all(front_density(fill, f) >= merge_fill
                       for f in tree.fronts if is_merged(fill, f))

    def test_unclosed_pattern_rejected(self):
        with pytest.raises(ValueError, match="elimination-closed"):
            SparseSymPattern(3, [(0, 1), (0, 2)]).clique_tree


class TestAgainstDense:
    def test_factor_is_the_dense_factor_and_zero_off_the_pattern(self, merge_size, merge_fill):
        for rng, fill in random_cases(3):
            mat, dense = random_pd_on_pattern(fill, rng)
            factor = cholesky_factorize(mat)
            low = factor_to_dense(factor)
            ref = np.linalg.cholesky(dense)
            scale = max(np.abs(dense).max(), 1.0)
            assert np.abs(low @ low.T - dense).max() <= 1e-12 * scale
            assert np.abs(low - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)
            off = ~dense_mask(fill) & np.tri(fill.n, dtype=bool)
            assert np.abs(ref[off]).max(initial=0.0) <= 1e-12 * scale
            # the buffer holds exact zeros at the front positions off the
            # pattern, as the completion-inverse factor's zeroed buffer does
            assert np.all(factor.blocks[fill.clique_tree.gather == fill.n + fill.nnz] == 0.0)
            assert factor.logdet == pytest.approx(np.linalg.slogdet(dense)[1],
                                                  abs=1e-10 * max(fill.n, 1))

    def test_sparse_inverse_is_the_inverse_on_the_pattern(self, merge_size, merge_fill):
        for rng, fill in random_cases(4):
            mat, dense = random_pd_on_pattern(fill, rng)
            ref = np.linalg.inv(dense)
            w = sparse_inverse(cholesky_factorize(mat))
            assert restrict_abs_error(ref, w) <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_inverse_columns_on_the_dual_factor(self, merge_size, merge_fill):
        for rng, fill in random_cases(5):
            mat, dense = random_pd_on_pattern(fill, rng)
            ref = np.linalg.inv(dense)
            w = inverse_columns(cholesky_factorize(mat))
            assert np.abs(w - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_inverse_columns_on_the_completion_inverse_factor(self, merge_size, merge_fill):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            xbar, _ = random_completable_partial(n, rng.random() * 0.5, rng)
            factors = completion_factors(xbar)
            xhat = reconstruct_dense(xbar)
            w = inverse_columns(completion_inverse_factor(factors))
            assert np.abs(w - xhat).max() <= 1e-9 * max(np.abs(xhat).max(), 1.0)

    def test_hess_vec_on_the_dual_factor(self, merge_size, merge_fill):
        # W Z W on the pattern, W = S^-1, from the selected inverse
        for rng, fill in random_cases(8):
            mat, dense = random_pd_on_pattern(fill, rng)
            factor = cholesky_factorize(mat)
            z = SparseSymMatrix(fill, rng.standard_normal(fill.n + fill.nnz))
            w = np.linalg.inv(dense)
            want = w @ z.to_dense() @ w
            got = hess_vec(factor, z, sparse_inverse(factor))
            assert restrict_abs_error(want, got) <= 1e-10 * max(np.abs(want).max(), 1.0)

    def test_hess_vec_on_the_completion_inverse_factor(self, merge_size, merge_fill):
        # W Z W on the pattern, W = X^ the completion, from the partial X
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            xbar, _ = random_completable_partial(n, rng.random() * 0.5, rng)
            factors = completion_factors(xbar)
            xhat = reconstruct_dense(xbar)
            z = SparseSymMatrix(xbar.pattern, rng.standard_normal(len(xbar.values)))
            want = xhat @ z.to_dense() @ xhat
            got = hess_vec(completion_inverse_factor(factors), z, xbar)
            assert restrict_abs_error(want, got) <= 1e-9 * max(np.abs(want).max(), 1.0)

    def test_indefinite_matrix_raises_at_every_threshold(self, merge_size, merge_fill):
        fill = random_filled_pattern(12, 0.4, np.random.default_rng(7))
        mat = SparseSymMatrix.identity(fill)
        mat.diag[5] = -1.0
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_factorize(mat)
        assert info.value.pivot == 5


class TestFactorLayouts:
    def test_blocks_and_values_give_the_kernels_the_same_bits(self, merge_size, merge_fill):
        # the factor's buffer holds exact zeros off the pattern, so the
        # buffer gathered back from its slot-order values is the same
        for rng, fill in random_cases(14):
            mat, _ = random_pd_on_pattern(fill, rng)
            kept = cholesky_factorize(mat)
            values = np.append(factor_entries(kept), 0.0)
            rebuilt = CholeskyFactor(fill, values[fill.clique_tree.gather], kept.logdet,
                                     kept.front_inverses)
            assert rebuilt.blocks.tobytes() == kept.blocks.tobytes()
            z = SparseSymMatrix(fill, rng.standard_normal(fill.n + fill.nnz))
            outputs = []
            for factor in (kept, rebuilt):
                sinv = sparse_inverse(factor)
                outputs.append([sinv.values, lower_inverse(factor),
                                inverse_columns(factor), hess_vec(factor, z, sinv).values])
            for a, b in zip(*outputs):
                assert a.tobytes() == b.tobytes()


SCALES = [1e-8, 1.0, 1e8]


def long_double_lower_inverse(low):
    """The inverse of the lower triangular ``low``, by forward
    substitution in long double."""
    low = np.asarray(low, dtype=np.longdouble)
    inv = np.zeros_like(low)
    for i in range(len(low)):
        unit = np.zeros(len(low), dtype=np.longdouble)
        unit[i] = 1
        inv[i] = (unit - low[i, :i] @ inv[:i]) / low[i, i]
    return inv


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def graded_pd_on_pattern(fill, rng):
    """U diag(d) U^T for a unit lower U on the pattern, N(0, 1) below its
    diagonal, and LDL^T pivots d = 10^(-10 u), u uniform: every pivot
    passes the pivot test, while the front blocks reach condition
    numbers near 1e14."""
    n = fill.n
    rows, cols = fill.slot_ends
    low = np.eye(n)
    low[rows[n:], cols[n:]] = rng.standard_normal(fill.nnz)
    low *= 10.0 ** (-5 * rng.random(n))
    return low @ low.T


def unit_times_pivots(fill, rng, pivots):
    """U diag(pivots) U^T for a unit lower U on the pattern, 0.4 N(0, 1)
    below its diagonal."""
    n = fill.n
    rows, cols = fill.slot_ends
    unit = np.eye(n)
    unit[rows[n:], cols[n:]] = 0.4 * rng.standard_normal(fill.nnz)
    return unit @ np.diag(pivots) @ unit.T


def plain_cholesky_passes(dense, tol=PIVOT_RTOL):
    """Whether the plain Cholesky of ``dense`` exists and its pivots are
    above ``tol`` times its largest diagonal: the pivot test of every
    front of ``cholesky_factorize`` at the default tol."""
    try:
        low = np.linalg.cholesky(dense)
    except np.linalg.LinAlgError:
        return False
    return bool(np.diagonal(low).min() ** 2 > tol * dense.diagonal().max())


class TestBorderedBlocks:
    def test_front_inverses_are_the_factor_blocks_inverses(self, merge_size):
        rng = np.random.default_rng(10)
        worst, conds = 0.0, []
        for _ in range(30):
            fill = random_filled_pattern(int(rng.integers(2, 30)), rng.random() * 0.5, rng)
            dense = graded_pd_on_pattern(fill, rng)
            for scale in SCALES:
                factor = cholesky_factorize(sparse_from_dense(fill, scale * dense))
                low = factor_to_dense(factor)
                fronts = fill.clique_tree.fronts
                assert len(factor.front_inverses) == len(fronts)
                for front, inv in zip(fronts, factor.front_inverses):
                    block = low[np.ix_(front.cols, front.cols)]
                    worst = max(worst, relative_error(inv, long_double_lower_inverse(block)))
                    conds.append(np.linalg.cond(block) ** 2)
        assert worst <= 1e-12
        assert max(conds) > 1e13

    def test_inverse_rows_are_the_clique_factors_inverses(self):
        rng = np.random.default_rng(11)
        worst, conds = 0.0, []
        for _ in range(30):
            n = int(rng.integers(2, 30))
            fill = random_filled_pattern(n, rng.random() * 0.5, rng)
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            dense = basis @ np.diag(np.logspace(0, -14, n)) @ basis.T
            for scale in SCALES:
                xbar = sparse_from_dense(fill, scale * dense)
                factors = completion_factors(xbar)
                for rows, (gather, residual) in zip(factors.inverse_rows,
                                                    fill.clique_plan.buckets):
                    # the clique factors L_r: the leading blocks of the same call
                    k = residual.shape[1]
                    stack = np.tile(bordered(k), (len(gather), 1, 1))
                    stack[:, :k, :k] = padded(xbar.values)[gather]
                    chol = np.linalg.cholesky(stack)[:, :k, :k]
                    for low, t, mask in zip(chol, rows, residual):
                        want = np.where(mask[:, None], long_double_lower_inverse(low), 0.0)
                        worst = max(worst, relative_error(t, want))
                        conds.append(np.linalg.cond(low) ** 2)
        assert worst <= 1e-12
        assert max(conds) > 1e13

    @pytest.mark.parametrize("scale", SCALES)
    def test_factor_fails_exactly_where_the_plain_pivot_test_does(self, merge_size, scale):
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(2, 16))
            fill = random_filled_pattern(n, rng.random() * 0.6, rng)
            # one pivot just above or just below the test, or negative; a
            # pivot that small moves no diagonal, and so not the test
            pivots = 0.5 + 1.5 * rng.random(n)
            j = int(rng.integers(n))
            pivots[j] = 0.0
            tol = PIVOT_RTOL * unit_times_pivots(fill, np.random.default_rng(trial),
                                                 pivots).diagonal().max()
            pivots[j] = (2.0 * tol, 0.5 * tol, -1.0)[trial % 3]
            dense = unit_times_pivots(fill, np.random.default_rng(trial), pivots)
            passes = plain_cholesky_passes(dense)
            assert passes == (trial % 3 == 0)
            mat = sparse_from_dense(fill, scale * dense)
            if passes:
                assert len(cholesky_factorize(mat).front_inverses) == len(fill.clique_tree.fronts)
            else:
                with pytest.raises(NotPositiveDefinite) as info:
                    cholesky_factorize(mat)
                assert info.value.pivot == j

    @pytest.mark.parametrize("scale", SCALES)
    def test_completion_fails_exactly_where_a_plain_clique_factor_does(self, scale):
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(2, 16))
            xbar, dense = random_completable_partial(n, rng.random() * 0.6, rng)
            # shift the diagonal so that the smallest eigenvalue over the
            # clique blocks sits just above or just below 0
            cliques = xbar.pattern.cliques.cliques
            margin = (1e-9, -1e-9)[trial % 2]
            low = min(np.linalg.eigvalsh(dense[np.ix_(c, c)])[0] for c in cliques)
            dense = dense - (low - margin) * np.eye(n)
            plain = [plain_cholesky_passes(dense[np.ix_(c, c)], tol=0.0) for c in cliques]
            assert all(plain) == (margin > 0)
            partial = sparse_from_dense(xbar.pattern, scale * dense)
            if all(plain):
                completion_factors(partial)
            else:
                with pytest.raises(NotCompletable):
                    completion_factors(partial)

    def test_border_fails_only_past_its_stated_bound(self):
        # the border of a clique block R passes while ||R^-1|| < BORDER:
        # R = diag(1, lam) passes at lam = 4 / BORDER and fails at
        # lam = 1 / (4 BORDER), where the plain Cholesky passes
        pat = SparseSymPattern(2, [(0, 1)])
        for lam, passes in ((4.0 / BORDER, True), (0.25 / BORDER, False)):
            xbar = SparseSymMatrix(pat, [1.0, lam, 0.0])
            np.linalg.cholesky(xbar.to_dense())
            if passes:
                completion_factors(xbar)
            else:
                with pytest.raises(NotCompletable):
                    completion_factors(xbar)


def benchmark_problem(family, index=0):
    seed = trial_seed(3, index)
    if family == "random":
        return maxcut_sdp(random_graph(35, 105, seed))
    if family == "banded":
        return maxcut_sdp(Graph(*graphs.banded_graph(60, 3, seed)))
    return maxcut_sdp(Graph(*graphs.odd_torus_graph(5, 7, seed, max_weight=2)))


def front_sets(tree):
    return [(f.cols.tolist(), f.seps.tolist(), f.parent) for f in tree.fronts]


class TestMergeFloor:
    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("family", ["random", "torus"])
    def test_dense_benchmark_trees_are_the_size_rule_trees(self, family, index,
                                                           monkeypatch):
        # the floor leaves the trees of the near-dense benchmark patterns
        # as the size rule alone builds them
        fill = benchmark_problem(family, index).fill
        default = chordal.CliqueTree(fill)
        monkeypatch.setattr(chordal, "MERGE_FILL", 0.0)
        assert front_sets(default) == front_sets(chordal.CliqueTree(fill))

    @pytest.mark.parametrize("index", range(6))
    def test_banded_fronts_stop_at_the_floor(self, index, monkeypatch):
        # banded fill is a few entries per column, so the size rule alone
        # merges it into fronts that are mostly zeros
        fill, floor = benchmark_problem("banded", index).fill, chordal.MERGE_FILL
        default = chordal.CliqueTree(fill)
        assert all(front_density(fill, f) >= floor
                   for f in default.fronts if is_merged(fill, f))
        monkeypatch.setattr(chordal, "MERGE_FILL", 0.0)
        size_only = chordal.CliqueTree(fill)
        assert min(front_density(fill, f) for f in size_only.fronts) < floor
        widest = [max(len(f.cols) for f in t.fronts) for t in (default, size_only)]
        assert widest[0] < widest[1]


class TestNoLuInverses:
    @pytest.mark.parametrize("family", ["random", "banded", "torus"])
    def test_solve_path_kernels_call_no_lu_inverse_or_solve(self, family, monkeypatch):
        # the dual factor, the selected inverse, the completion sweep and
        # the inverse of a dual factor take every triangular inverse from
        # the bordered Cholesky calls; a factor made from its values alone
        # (that of the completion inverse) may invert its fronts once
        problem = benchmark_problem(family)
        x0, y0 = initial_point(problem)
        inside, lu_calls, dual_factors, calls = [], [], [], {}

        def counting(name, real):
            def call(*args, **kwargs):
                if inside:
                    lu_calls.append((inside[-1], name))
                return real(*args, **kwargs)
            return call

        def guarded(name, real, only=None):
            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                watch = only is None or any(args[0] is f for f in dual_factors)
                if watch:
                    inside.append(name)
                try:
                    out = real(*args, **kwargs)
                finally:
                    if watch:
                        inside.pop()
                if name == "cholesky_factorize":
                    dual_factors.append(out)
                return out
            return call

        for name in ("inv", "solve"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("cholesky_factorize", "sparse_inverse", "completion_factors",
                     "completion_inverse"):
            monkeypatch.setattr(solver, name, guarded(name, getattr(solver, name)))
        monkeypatch.setattr(solver, "inverse_columns",
                            guarded("inverse_columns", solver.inverse_columns, only="dual"))
        report = solve(problem, x0, y0, SolverConfig())
        assert report.status == "converged"
        assert lu_calls == []
        assert set(calls) == {"cholesky_factorize", "sparse_inverse", "completion_factors",
                              "completion_inverse", "inverse_columns"}
