import math

import numpy as np
import pytest

from sparse_sdp import (NotCompletable, SparseSymMatrix, SparseSymPattern,
                        banded_pattern, cholesky_factorize, completion_factors,
                        completion_inverse, completion_vectors, hess_vec,
                        inner_product, logdet_completion,
                        logdet_completion_banded, maximal_cliques,
                        reconstruct_dense, rip_order)
from sparse_sdp.bench import random_banded_partial

from conftest import random_completable_partial, restrict_abs_error


def tridiagonal_example():
    pat = SparseSymPattern(3, [(0, 1), (1, 2)])
    xbar = SparseSymMatrix(pat, [2.0, 2.0, 2.0], [1.0, 1.0])
    cs = rip_order(maximal_cliques(pat))
    return xbar, cs


def completion_hess_product(xbar, cs, z):
    """Entries on F of X^ Z X^, computed as the solver does it: the
    Hessian product on the factor of the completion inverse."""
    return hess_vec(cholesky_factorize(completion_inverse(xbar, cs)), z,
                    sinv=xbar)


class TestCliquePdCheck:
    """A partial matrix is completable iff every clique block is PD;
    logdet_completion checks exactly that."""

    def test_identity_partial(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(eye, cs) == pytest.approx(0.0, abs=1e-14)

    def test_tridiagonal_pd(self):
        xbar, cs = tridiagonal_example()
        assert math.isfinite(logdet_completion(xbar, cs))

    def test_indefinite_clique_block(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0], [3.0, 1.0])
        cs = rip_order(maximal_cliques(pat))
        with pytest.raises(NotCompletable):
            logdet_completion(bad, cs)


class TestCompletionFactors:
    def test_tridiagonal_implied_entry(self):
        xbar, cs = tridiagonal_example()
        dense = reconstruct_dense(completion_factors(xbar, cs))
        assert dense[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(dense, dense.T)

    def test_block_diagonal_has_no_couplings(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0], [1.0, 1.0])
        cs = rip_order(maximal_cliques(pat))
        factors = completion_factors(xbar, cs)
        assert all(k.size == 0 for k in factors.couplings)
        dense = reconstruct_dense(factors)
        assert dense[0, 2] == dense[0, 3] == dense[1, 2] == dense[1, 3] == 0.0

    def test_identity_partial(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert np.allclose(reconstruct_dense(completion_factors(eye, cs)), np.eye(3))

    def test_not_completable(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0], [3.0, 1.0])
        cs = rip_order(maximal_cliques(pat))
        with pytest.raises(NotCompletable):
            completion_factors(bad, cs)


class TestLogdetCompletion:
    def test_tridiagonal_value(self):
        xbar, cs = tridiagonal_example()
        expected = 2.0 * math.log(3.0) - math.log(2.0)
        assert logdet_completion(xbar, cs) == pytest.approx(expected, abs=1e-12)
        dense = reconstruct_dense(completion_factors(xbar, cs))
        assert np.linalg.slogdet(dense)[1] == pytest.approx(expected, abs=1e-12)

    def test_identity(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(eye, cs) == pytest.approx(0.0, abs=1e-14)

    def test_band_one_n4_against_dense_determinant(self):
        pat = banded_pattern(4, 1)
        xbar = SparseSymMatrix(pat, [2.0] * 4, [1.0] * 3)
        cs = rip_order(maximal_cliques(pat))
        xhat = reconstruct_dense(completion_factors(xbar, cs))
        expected = np.linalg.slogdet(xhat)[1]
        got = logdet_completion(xbar, cs)
        assert got == pytest.approx(expected, abs=1e-12)
        # strictly beats the zero-filled tridiagonal (det 5) by maximality
        assert got > math.log(5.0)


class TestCompletionInverse:
    def test_identity(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        inv = completion_inverse(eye, cs)
        assert np.allclose(inv.to_dense(), np.eye(3))

    def test_tridiagonal_against_dense(self):
        xbar, cs = tridiagonal_example()
        dense_inv = np.linalg.inv(np.array([[2, 1, 0.5], [1, 2, 1], [0.5, 1, 2]]))
        assert dense_inv[0, 2] == pytest.approx(0.0, abs=1e-12)
        inv = completion_inverse(xbar, cs)
        assert restrict_abs_error(dense_inv, inv) < 1e-12

    def test_disjoint_blocks(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0], [1.0, 1.0])
        cs = rip_order(maximal_cliques(pat))
        inv = completion_inverse(xbar, cs)
        top = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
        assert inv.to_dense()[:2, :2] == pytest.approx(top)

    def test_matches_gradient_of_logdet(self):
        rng = np.random.default_rng(21)
        xbar, cs, _ = random_completable_partial(8, 0.35, rng)
        inv = completion_inverse(xbar, cs)
        step = 1e-6
        for v in range(xbar.n):
            plus = xbar.copy()
            plus.diag[v] += step
            minus = xbar.copy()
            minus.diag[v] -= step
            fd = (logdet_completion(plus, cs) - logdet_completion(minus, cs)) / (2 * step)
            assert fd == pytest.approx(inv.diag[v], rel=1e-4, abs=1e-7)
        for i, j, k in xbar.pattern.edges():
            plus = xbar.copy()
            plus.offdiag[k] += step
            minus = xbar.copy()
            minus.offdiag[k] -= step
            fd = (logdet_completion(plus, cs) - logdet_completion(minus, cs)) / (2 * step)
            # symmetric perturbation counts the entry twice
            assert fd == pytest.approx(2.0 * inv.offdiag[k], rel=1e-4, abs=1e-7)


class TestCompletionHessApply:
    def test_identity_returns_argument(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        z = SparseSymMatrix(xbar.pattern, [1.0, -2.0, 0.5], [0.3, -0.7])
        out = completion_hess_product(eye, cs, z)
        assert np.allclose(out.diag, z.diag)
        assert np.allclose(out.offdiag, z.offdiag)

    def test_diagonal_scaling(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        cs = rip_order(maximal_cliques(pat))
        d = np.array([2.0, 3.0, 0.5])
        xbar = SparseSymMatrix(pat, d, [0.0, 0.0])
        z = SparseSymMatrix(pat, [1.0, 1.0, 1.0], [1.0, 1.0])
        out = completion_hess_product(xbar, cs, z)
        assert out.diag == pytest.approx(d * d)
        assert out.offdiag[pat.edge_index(0, 1)] == pytest.approx(d[0] * d[1])

    def test_rank_one_probe_against_dense(self):
        xbar, cs = tridiagonal_example()
        z = SparseSymMatrix(xbar.pattern, [1.0, 0.0, 0.0], [0.0, 0.0])
        xhat = reconstruct_dense(completion_factors(xbar, cs))
        target = xhat @ z.to_dense() @ xhat
        out = completion_hess_product(xbar, cs, z)
        assert restrict_abs_error(target, out) < 1e-10

    def test_random_instances_against_dense(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            xbar, cs, _ = random_completable_partial(n, 0.4, rng)
            z = SparseSymMatrix(xbar.pattern, rng.standard_normal(n),
                                rng.standard_normal(xbar.pattern.nnz))
            xhat = reconstruct_dense(completion_factors(xbar, cs))
            target = xhat @ z.to_dense() @ xhat
            out = completion_hess_product(xbar, cs, z)
            scale = max(np.abs(target).max(), 1.0)
            assert restrict_abs_error(target, out) < 1e-9 * scale

    def test_symmetric_bilinear_form(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            xbar, cs, _ = random_completable_partial(n, 0.4, rng)
            nnz = xbar.pattern.nnz
            z1 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n),
                                 rng.standard_normal(nnz))
            z2 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n),
                                 rng.standard_normal(nnz))
            h1 = completion_hess_product(xbar, cs, z1)
            h2 = completion_hess_product(xbar, cs, z2)
            lhs = inner_product(h1, z2)
            rhs = inner_product(z1, h2)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestCompletionVectors:
    def test_identity(self):
        xbar, cs = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        v = completion_vectors(completion_factors(eye, cs))
        assert np.allclose(v, np.eye(3))

    def test_tridiagonal_gram(self):
        xbar, cs = tridiagonal_example()
        factors = completion_factors(xbar, cs)
        v = completion_vectors(factors)
        assert np.abs(v.T @ v - reconstruct_dense(factors)).max() < 1e-10

    def test_single_clique_is_dense_cholesky_transpose(self):
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        dense = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        xbar = SparseSymMatrix.from_dense(pat, dense)
        cs = rip_order(maximal_cliques(pat))
        v = completion_vectors(completion_factors(xbar, cs))
        assert np.allclose(v, np.linalg.cholesky(dense).T)


class TestMaxDeterminantProperties:
    def test_off_pattern_inverse_zero_and_determinant_maximality(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(3, 12))
            xbar, cs, _ = random_completable_partial(n, 0.3, rng)
            xhat = reconstruct_dense(completion_factors(xbar, cs))
            inv = np.linalg.inv(xhat)
            mask = xbar.pattern.to_dense_mask()
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


class TestBandedLogdet:
    def test_agrees_with_general_path(self):
        rng = np.random.default_rng(25)
        for n, p in [(6, 1), (12, 3), (9, 8), (25, 4), (40, 2)]:
            xbar = random_banded_partial(n, p, seed=int(rng.integers(1 << 30)))
            cs = rip_order(maximal_cliques(xbar.pattern))
            a = logdet_completion(xbar, cs)
            b = logdet_completion_banded(xbar, p)
            assert b == pytest.approx(a, abs=1e-9)

    def test_full_band_single_clique(self):
        n = 7
        xbar = random_banded_partial(n, n - 1, seed=5)
        cs = rip_order(maximal_cliques(xbar.pattern))
        assert len(cs) == 1
        assert logdet_completion_banded(xbar, n - 1) == \
            pytest.approx(logdet_completion(xbar, cs), abs=1e-9)

    def test_rejects_non_band_pattern(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0] * 4, [0.5, 0.5])
        with pytest.raises(ValueError):
            logdet_completion_banded(xbar, 1)

    def test_not_completable_detected(self):
        pat = banded_pattern(4, 1)
        xbar = SparseSymMatrix(pat, [1.0] * 4, [2.0, 0.1, 0.1])
        with pytest.raises(NotCompletable):
            logdet_completion_banded(xbar, 1)

    def test_quadratic_work_scaling(self):
        # accepted-flop proxy: the per-clique update is O(p^2), so doubling
        # p at fixed n - p roughly quadruples the work; covered by timing
        # in the acceptance suite, here only the values are cross-checked
        for p in (2, 4, 8):
            xbar = random_banded_partial(10 + p, p, seed=p)
            cs = rip_order(maximal_cliques(xbar.pattern))
            assert logdet_completion_banded(xbar, p) == \
                pytest.approx(logdet_completion(xbar, cs), abs=1e-9)

