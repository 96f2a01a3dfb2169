import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sdp import (CliquePlan, NotCompletable, SparseSymMatrix,
                        SparseSymPattern, banded_pattern, cholesky_factorize,
                        completion_factors, completion_inverse,
                        completion_inverse_factor, completion_vectors, hess_vec,
                        inner_product, logdet_completion,
                        logdet_completion_banded, rip_order)
from sparse_sdp.bench import random_banded_partial

from conftest import (clique_plan, dense_mask, random_completable_partial,
                      reconstruct_dense, restrict_abs_error, sparse_from_dense)


def tridiagonal_example():
    pat = SparseSymPattern(3, [(0, 1), (1, 2)])
    xbar = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 1.0, 1.0])
    plan = clique_plan(pat)
    return xbar, plan


def completion_hess_product(xbar, plan, z):
    """Entries on F of X^ Z X^ by the Hessian product on the factor of
    the completion inverse, with the partial matrix as selected inverse."""
    return hess_vec(completion_inverse_factor(completion_factors(xbar, plan)), z, sinv=xbar)


def per_clique_completion(xbar, plan):
    """Log-det and dense inverse of the max-determinant completion, block
    by block in the order clique r, separator r, r = 0, 1, ... (Vandenberghe
    and Andersen, Chordal Graphs and Semidefinite Optimization, 2015)."""
    dense = xbar.to_dense()
    logdet, inv = 0.0, np.zeros_like(dense)
    cs = plan.cliques
    for c, u in zip(cs.cliques, cs.separators):
        for verts, sign in ((c, 1.0), (u, -1.0)):
            if len(verts):
                chol = np.linalg.cholesky(dense[np.ix_(verts, verts)])
                logdet += sign * 2.0 * float(np.sum(np.log(np.diagonal(chol))))
                ci = np.linalg.inv(chol)
                inv[np.ix_(verts, verts)] += sign * (ci.T @ ci)
    return logdet, inv


class TestCliquePdCheck:
    """A partial matrix is completable iff every clique block is PD;
    logdet_completion checks exactly that."""

    def test_identity_partial(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(completion_factors(eye, plan)) == pytest.approx(0.0, abs=1e-14)

    def test_tridiagonal_pd(self):
        xbar, plan = tridiagonal_example()
        assert math.isfinite(logdet_completion(completion_factors(xbar, plan)))

    def test_indefinite_clique_block(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 3.0, 1.0])
        plan = clique_plan(pat)
        with pytest.raises(NotCompletable):
            logdet_completion(completion_factors(bad, plan))


class TestCompletionFactors:
    def test_tridiagonal_implied_entry(self):
        xbar, plan = tridiagonal_example()
        dense = reconstruct_dense(completion_factors(xbar, plan))
        assert dense[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(dense, dense.T)

    def test_block_diagonal_has_no_couplings(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        plan = clique_plan(pat)
        factors = completion_factors(xbar, plan)
        # every clique is all residual: no separator row in any block
        assert all(residual.all() for _, _, residual in factors.plan.groups)
        dense = reconstruct_dense(factors)
        assert dense[0, 2] == dense[0, 3] == dense[1, 2] == dense[1, 3] == 0.0

    def test_identity_partial(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert np.allclose(reconstruct_dense(completion_factors(eye, plan)), np.eye(3))

    def test_not_completable(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 3.0, 1.0])
        plan = clique_plan(pat)
        with pytest.raises(NotCompletable):
            completion_factors(bad, plan)

    def test_rejects_a_matrix_on_another_pattern(self):
        # same n and nnz, so without the check the gather would read the
        # wrong entries silently
        _, plan = tridiagonal_example()
        other = SparseSymMatrix.identity(SparseSymPattern(3, [(0, 1), (0, 2)]))
        with pytest.raises(ValueError):
            completion_factors(other, plan)

    def test_accepts_an_equal_pattern_object(self):
        xbar, plan = tridiagonal_example()
        twin = SparseSymMatrix(SparseSymPattern(3, [(2, 1), (1, 0)]), xbar.values.copy())
        assert twin.pattern is not plan.pattern
        assert logdet_completion(completion_factors(twin, plan)) == \
            logdet_completion(completion_factors(xbar, plan))


class TestLogdetCompletion:
    def test_tridiagonal_value(self):
        xbar, plan = tridiagonal_example()
        expected = 2.0 * math.log(3.0) - math.log(2.0)
        assert logdet_completion(completion_factors(xbar, plan)) == pytest.approx(expected, abs=1e-12)
        dense = reconstruct_dense(completion_factors(xbar, plan))
        assert np.linalg.slogdet(dense)[1] == pytest.approx(expected, abs=1e-12)

    def test_identity(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(completion_factors(eye, plan)) == pytest.approx(0.0, abs=1e-14)

    def test_band_one_n4_against_dense_determinant(self):
        pat = banded_pattern(4, 1)
        xbar = SparseSymMatrix(pat, [2.0] * 4 + [1.0] * 3)
        plan = clique_plan(pat)
        xhat = reconstruct_dense(completion_factors(xbar, plan))
        expected = np.linalg.slogdet(xhat)[1]
        got = logdet_completion(completion_factors(xbar, plan))
        assert got == pytest.approx(expected, abs=1e-12)
        # strictly beats the zero-filled tridiagonal (det 5) by maximality
        assert got > math.log(5.0)


class TestCompletionInverse:
    def test_identity(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        inv = completion_inverse(completion_factors(eye, plan))
        assert np.allclose(inv.to_dense(), np.eye(3))

    def test_tridiagonal_against_dense(self):
        xbar, plan = tridiagonal_example()
        dense_inv = np.linalg.inv(np.array([[2, 1, 0.5], [1, 2, 1], [0.5, 1, 2]]))
        assert dense_inv[0, 2] == pytest.approx(0.0, abs=1e-12)
        inv = completion_inverse(completion_factors(xbar, plan))
        assert restrict_abs_error(dense_inv, inv) < 1e-12

    def test_disjoint_blocks(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        plan = clique_plan(pat)
        inv = completion_inverse(completion_factors(xbar, plan))
        top = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
        assert inv.to_dense()[:2, :2] == pytest.approx(top)

    def test_matches_gradient_of_logdet(self):
        rng = np.random.default_rng(21)
        xbar, plan, _ = random_completable_partial(8, 0.35, rng)
        inv = completion_inverse(completion_factors(xbar, plan))
        step = 1e-6
        for v in range(xbar.n):
            plus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            plus.diag[v] += step
            minus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            minus.diag[v] -= step
            fd = (logdet_completion(completion_factors(plus, plan)) - logdet_completion(completion_factors(minus, plan))) / (2 * step)
            assert fd == pytest.approx(inv.diag[v], rel=1e-4, abs=1e-7)
        for k in range(xbar.pattern.nnz):
            plus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            plus.offdiag[k] += step
            minus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            minus.offdiag[k] -= step
            fd = (logdet_completion(completion_factors(plus, plan)) - logdet_completion(completion_factors(minus, plan))) / (2 * step)
            # symmetric perturbation counts the entry twice
            assert fd == pytest.approx(2.0 * inv.offdiag[k], rel=1e-4, abs=1e-7)


class TestCompletionHessApply:
    def test_identity_returns_argument(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        z = SparseSymMatrix(xbar.pattern, [1.0, -2.0, 0.5, 0.3, -0.7])
        out = completion_hess_product(eye, plan, z)
        assert np.allclose(out.diag, z.diag)
        assert np.allclose(out.offdiag, z.offdiag)

    def test_diagonal_scaling(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        plan = clique_plan(pat)
        d = np.array([2.0, 3.0, 0.5])
        xbar = SparseSymMatrix(pat, np.append(d, [0.0, 0.0]))
        z = SparseSymMatrix(pat, [1.0, 1.0, 1.0, 1.0, 1.0])
        out = completion_hess_product(xbar, plan, z)
        assert out.diag == pytest.approx(d * d)
        assert out.values[pat.slots(0, 1)] == pytest.approx(d[0] * d[1])

    def test_rank_one_probe_against_dense(self):
        xbar, plan = tridiagonal_example()
        z = SparseSymMatrix(xbar.pattern, [1.0, 0.0, 0.0, 0.0, 0.0])
        xhat = reconstruct_dense(completion_factors(xbar, plan))
        target = xhat @ z.to_dense() @ xhat
        out = completion_hess_product(xbar, plan, z)
        assert restrict_abs_error(target, out) < 1e-10

    def test_random_instances_against_dense(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            xbar, plan, _ = random_completable_partial(n, 0.4, rng)
            z = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + xbar.pattern.nnz))
            xhat = reconstruct_dense(completion_factors(xbar, plan))
            target = xhat @ z.to_dense() @ xhat
            out = completion_hess_product(xbar, plan, z)
            scale = max(np.abs(target).max(), 1.0)
            assert restrict_abs_error(target, out) < 1e-9 * scale

    def test_symmetric_bilinear_form(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            xbar, plan, _ = random_completable_partial(n, 0.4, rng)
            nnz = xbar.pattern.nnz
            z1 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + nnz))
            z2 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + nnz))
            h1 = completion_hess_product(xbar, plan, z1)
            h2 = completion_hess_product(xbar, plan, z2)
            lhs = inner_product(h1, z2)
            rhs = inner_product(z1, h2)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestCompletionVectors:
    def test_identity(self):
        xbar, plan = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        v = completion_vectors(completion_factors(eye, plan))
        assert np.allclose(v, np.eye(3))

    def test_tridiagonal_gram(self):
        xbar, plan = tridiagonal_example()
        factors = completion_factors(xbar, plan)
        v = completion_vectors(factors)
        assert np.abs(v.T @ v - reconstruct_dense(factors)).max() < 1e-10

    def test_single_clique_is_dense_cholesky_transpose(self):
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        dense = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        xbar = sparse_from_dense(pat, dense)
        plan = clique_plan(pat)
        v = completion_vectors(completion_factors(xbar, plan))
        assert np.allclose(v, np.linalg.cholesky(dense).T)


class TestMaxDeterminantProperties:
    def test_off_pattern_inverse_zero_and_determinant_maximality(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(3, 12))
            xbar, plan, _ = random_completable_partial(n, 0.3, rng)
            xhat = reconstruct_dense(completion_factors(xbar, plan))
            inv = np.linalg.inv(xhat)
            mask = dense_mask(xbar.pattern)
            off = np.abs(inv[~mask]).max() if (~mask).any() else 0.0
            assert off <= 1e-10
            # perturb unspecified entries; determinant must not improve
            sign, base = np.linalg.slogdet(xhat)
            assert sign > 0
            holes = np.argwhere(~mask)
            holes = [(i, j) for i, j in holes if i < j]
            accepted = 0
            attempts = 0
            while accepted < 50 and attempts < 1000 and holes:
                attempts += 1
                cand = xhat.copy()
                for i, j in holes:
                    d = rng.standard_normal() * 0.05
                    cand[i, j] += d
                    cand[j, i] += d
                try:
                    np.linalg.cholesky(cand)
                except np.linalg.LinAlgError:
                    continue
                accepted += 1
                assert np.linalg.slogdet(cand)[1] <= base + 1e-12


class TestBatchedSweep:
    """The sweep batches its blocks by size; on random chordal patterns
    with several clique and separator sizes it must still agree with
    dense oracles, and one bad block in a batch must still be caught."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chordal_patterns_match_dense_oracles(self, n, density, seed):
        rng = np.random.default_rng(seed)
        xbar, plan, _ = random_completable_partial(n, density, rng)
        factors = completion_factors(xbar, plan)
        xhat = reconstruct_dense(factors)
        # V^T V from completion_vectors reproduces X-bar on F ...
        assert restrict_abs_error(xhat, xbar) <= 1e-10 * max(np.abs(xhat).max(), 1.0)
        # ... and is the max-determinant completion: its inverse vanishes off F.
        inv = np.linalg.inv(xhat)
        scale = max(np.abs(inv).max(), 1.0)
        assert np.abs(inv[~dense_mask(xbar.pattern)]).max(initial=0.0) <= 1e-10 * scale
        sign, logdet = np.linalg.slogdet(xhat)
        assert sign > 0
        assert logdet_completion(factors) == pytest.approx(logdet, abs=1e-9)
        assert restrict_abs_error(inv, completion_inverse(factors)) <= 1e-10 * scale
        # The separator-first sweep reads the separator factors off the
        # clique factors, so it matches the clique-by-clique formulas to
        # rounding.
        loop_logdet, loop_inv = per_clique_completion(xbar, plan)
        assert logdet_completion(factors) == pytest.approx(
            loop_logdet, rel=1e-12, abs=1e-12)
        got = completion_inverse(factors).to_dense()
        assert np.abs(got - loop_inv).max() <= 1e-12 * np.abs(loop_inv).max()

    @pytest.mark.parametrize("bad", range(5))
    def test_one_indefinite_block_in_a_size_group_is_caught(self, bad):
        n = 7
        pat = banded_pattern(n, 2)                 # five 3-vertex cliques
        xbar = SparseSymMatrix.identity(pat)
        xbar.values[pat.slots(bad + 2, bad)] = 2.0   # only in clique {bad..bad+2}
        plan = clique_plan(pat)
        groups = completion_factors(SparseSymMatrix.identity(pat), plan).plan.groups
        assert [len(members) for members, _, _ in groups] == [n - 2]
        with pytest.raises(NotCompletable):
            completion_factors(xbar, plan)


class TestCompletionInverseFactor:
    """The factor of X^-1 read off the clique factors, against the scalar
    factorization of the assembled inverse and against dense X^."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chordal_patterns_match_refactorization(self, n, density, seed):
        rng = np.random.default_rng(seed)
        xbar, plan, _ = random_completable_partial(n, density, rng)
        factors = completion_factors(xbar, plan)
        got = completion_inverse_factor(factors)
        want = cholesky_factorize(completion_inverse(factors))
        assert got.pattern is want.pattern
        assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()
        assert got.logdet == pytest.approx(-logdet_completion(factors), rel=1e-12, abs=1e-12)
        # the Hessian product on it, with X-bar as the selected inverse
        z = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + xbar.pattern.nnz))
        xhat = reconstruct_dense(factors)
        target = xhat @ z.to_dense() @ xhat
        out = hess_vec(got, z, sinv=xbar)
        assert restrict_abs_error(target, out) <= 1e-10 * max(np.abs(target).max(), 1.0)

    def test_residual_above_its_separator(self):
        # path 0-1-2 with C_0 = {1, 2}, U_0 = {1}: S_0 = {2} lies above U_0
        xbar, _ = tridiagonal_example()
        cs = rip_order([[1, 2], [0, 1]])
        assert cs.residuals[0].tolist() == [2] and cs.separators[0].tolist() == [1]
        plan = CliquePlan(cs, xbar.pattern)
        factors = completion_factors(xbar, plan)
        xhat = reconstruct_dense(factors)
        assert xhat[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert logdet_completion(factors) == pytest.approx(
            np.linalg.slogdet(xhat)[1], abs=1e-12)
        inv = np.linalg.inv(xhat)
        assert restrict_abs_error(inv, completion_inverse(factors)) <= 1e-12
        assert abs(inv[0, 2]) <= 1e-12
        with pytest.raises(ValueError):
            completion_inverse_factor(factors)


class TestBandedLogdet:
    def test_agrees_with_general_path(self):
        rng = np.random.default_rng(25)
        for n, p in [(6, 1), (12, 3), (9, 8), (25, 4), (40, 2)]:
            xbar = random_banded_partial(n, p, seed=int(rng.integers(1 << 30)))
            plan = clique_plan(xbar.pattern)
            a = logdet_completion(completion_factors(xbar, plan))
            b = logdet_completion_banded(xbar, p)
            assert b == pytest.approx(a, abs=1e-9)

    def test_full_band_single_clique(self):
        n = 7
        xbar = random_banded_partial(n, n - 1, seed=5)
        plan = clique_plan(xbar.pattern)
        assert len(plan.cliques) == 1
        assert logdet_completion_banded(xbar, n - 1) == \
            pytest.approx(logdet_completion(completion_factors(xbar, plan)), abs=1e-9)

    def test_rejects_non_band_pattern(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0] * 4 + [0.5, 0.5])
        with pytest.raises(ValueError):
            logdet_completion_banded(xbar, 1)

    @pytest.mark.parametrize("edges, p", [
        ([(0, 1), (1, 2), (0, 3)], 1),      # as many edges as the band, one outside
        ([(0, 1), (1, 2), (2, 3)], 2),      # the band of width 1, not 2
        ([(0, 1), (1, 2), (2, 3), (0, 2)], 2),
    ])
    def test_rejects_pattern_other_than_the_full_band(self, edges, p):
        pat = SparseSymPattern(4, edges)
        with pytest.raises(ValueError, match="full band"):
            logdet_completion_banded(SparseSymMatrix.identity(pat), p)

    def test_not_completable_detected(self):
        pat = banded_pattern(4, 1)
        xbar = SparseSymMatrix(pat, [1.0] * 4 + [2.0, 0.1, 0.1])
        with pytest.raises(NotCompletable):
            logdet_completion_banded(xbar, 1)

    def test_quadratic_work_scaling(self):
        # accepted-flop proxy: the per-clique update is O(p^2), so doubling
        # p at fixed n - p roughly quadruples the work; covered by timing
        # in the acceptance suite, here only the values are cross-checked
        for p in (2, 4, 8):
            xbar = random_banded_partial(10 + p, p, seed=p)
            plan = clique_plan(xbar.pattern)
            assert logdet_completion_banded(xbar, p) == \
                pytest.approx(logdet_completion(completion_factors(xbar, plan)), abs=1e-9)

