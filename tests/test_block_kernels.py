"""The block kernels on the merged clique tree against dense oracles.

``cholesky_factorize``, ``sparse_inverse``, ``inverse_columns`` and
``hess_vec`` run on the dense fronts of ``SparseSymPattern.clique_tree``.
Each check runs at merge thresholds t = 1 (no merging), an intermediate
t and t >= n (one front per connected component), on fresh random
chordal patterns, since a pattern keeps the tree it built first.
"""

import numpy as np
import pytest

from sparse_sdp import (NotPositiveDefinite, SparseSymMatrix, SparseSymPattern,
                        cholesky_factorize, hess_vec, inverse_columns, sparse_inverse)
from sparse_sdp import chordal
from sparse_sdp.completion import completion_factors, completion_inverse_factor

from conftest import (dense_mask, factor_to_dense, random_completable_partial,
                      random_filled_pattern, random_pd_on_pattern, reconstruct_dense,
                      restrict_abs_error)

THRESHOLDS = [1, 6, 10_000]


@pytest.fixture(params=THRESHOLDS, ids=lambda t: f"t{t}")
def merge_size(request, monkeypatch):
    monkeypatch.setattr(chordal, "MERGE_SIZE", request.param)
    return request.param


def random_cases(seed, count=40, nmax=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, nmax))
        yield rng, random_filled_pattern(n, rng.random() * 0.5, rng)


class TestCliqueTree:
    def test_fronts_partition_the_columns_and_cover_every_slot(self, merge_size):
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
                    up = tree.fronts[f.parent]
                    assert np.array_equal(np.concatenate((up.cols, up.seps))[f.upos],
                                          f.seps)
                else:
                    assert len(f.seps) == 0

    def test_threshold_sets_the_front_count(self, merge_size):
        for _, fill in random_cases(2):
            cliques = chordal.maximal_cliques(fill)
            tree = fill.clique_tree
            roots = sum(f.parent < 0 for f in tree.fronts)
            if merge_size == 1:
                assert len(tree.fronts) == len(cliques)
            elif merge_size >= fill.n:
                assert len(tree.fronts) == roots
            merged = [len(f.cols) + len(f.seps) for f in tree.fronts]
            assert all(k <= max(merge_size, max(map(len, cliques))) for k in merged)

    def test_unclosed_pattern_rejected(self):
        with pytest.raises(ValueError, match="elimination-closed"):
            SparseSymPattern(3, [(0, 1), (0, 2)]).clique_tree


class TestAgainstDense:
    def test_factor_is_the_dense_factor_and_zero_off_the_pattern(self, merge_size):
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
            assert factor.logdet == pytest.approx(np.linalg.slogdet(dense)[1],
                                                  abs=1e-10 * max(fill.n, 1))

    def test_sparse_inverse_is_the_inverse_on_the_pattern(self, merge_size):
        for rng, fill in random_cases(4):
            mat, dense = random_pd_on_pattern(fill, rng)
            ref = np.linalg.inv(dense)
            w = sparse_inverse(cholesky_factorize(mat))
            assert restrict_abs_error(ref, w) <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_inverse_columns_on_the_dual_factor(self, merge_size):
        for rng, fill in random_cases(5):
            mat, dense = random_pd_on_pattern(fill, rng)
            ref = np.linalg.inv(dense)
            w = inverse_columns(cholesky_factorize(mat))
            assert np.abs(w - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_inverse_columns_on_the_completion_inverse_factor(self, merge_size):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            xbar, _ = random_completable_partial(n, rng.random() * 0.5, rng)
            factors = completion_factors(xbar)
            xhat = reconstruct_dense(xbar)
            w = inverse_columns(completion_inverse_factor(factors))
            assert np.abs(w - xhat).max() <= 1e-9 * max(np.abs(xhat).max(), 1.0)

    def test_hess_vec_on_the_dual_factor(self, merge_size):
        # W Z W on the pattern, W = S^-1, from the selected inverse
        for rng, fill in random_cases(8):
            mat, dense = random_pd_on_pattern(fill, rng)
            factor = cholesky_factorize(mat)
            z = SparseSymMatrix(fill, rng.standard_normal(fill.n + fill.nnz))
            w = np.linalg.inv(dense)
            want = w @ z.to_dense() @ w
            got = hess_vec(factor, z, sparse_inverse(factor))
            assert restrict_abs_error(want, got) <= 1e-10 * max(np.abs(want).max(), 1.0)

    def test_hess_vec_on_the_completion_inverse_factor(self, merge_size):
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

    def test_indefinite_matrix_raises_at_every_threshold(self, merge_size):
        fill = random_filled_pattern(12, 0.4, np.random.default_rng(7))
        mat = SparseSymMatrix.identity(fill)
        mat.diag[5] = -1.0
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_factorize(mat)
        assert info.value.pivot == 5
