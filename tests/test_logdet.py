import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sdp import chordal, logdet
from sparse_sdp import (CholeskyFactor, SparseSymMatrix, SparseSymPattern,
                        cholesky_factorize, hess_from_columns, hess_vec, inverse_columns,
                        sparse_inverse)
from sparse_sdp.bench import random_banded_partial

from conftest import (random_filled_pattern, random_pd_on_pattern,
                      restrict_abs_error)

# 0-1, 0-2 without the 1-2 fill edge is not elimination-closed
UNCLOSED = SparseSymPattern(3, [(0, 1), (0, 2)])


class TestSparseInverse:
    def test_identity(self):
        pat = SparseSymPattern(4, [(0, 1), (1, 2), (2, 3)])
        w = sparse_inverse(cholesky_factorize(SparseSymMatrix.identity(pat)))
        assert np.allclose(w.diag, 1.0)
        assert np.allclose(w.offdiag, 0.0)

    def test_tridiagonal_hand_values(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        s = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 1.0, 1.0])
        w = sparse_inverse(cholesky_factorize(s))
        assert w.diag == pytest.approx([0.75, 1.0, 0.75], abs=1e-12)
        assert w.offdiag == pytest.approx([-0.5, -0.5], abs=1e-12)

    def test_two_by_two_hand_values(self):
        pat = SparseSymPattern(2, [(0, 1)])
        w = sparse_inverse(cholesky_factorize(SparseSymMatrix(pat, [4.0, 5.0, 2.0])))
        assert w.diag == pytest.approx([5 / 16, 4 / 16], abs=1e-12)
        assert w.offdiag == pytest.approx([-2 / 16], abs=1e-12)

    def test_isolated_vertex_diagonal_produced(self):
        pat = SparseSymPattern(3, [(1, 2)])
        s = SparseSymMatrix(pat, [4.0, 2.0, 2.0, 1.0])
        w = sparse_inverse(cholesky_factorize(s))
        assert w.diag[0] == pytest.approx(0.25, abs=1e-14)

    def test_missing_fill_slot_rejected(self):
        fac = CholeskyFactor(UNCLOSED, [1.0, 1.0, 1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="elimination-closed"):
            sparse_inverse(fac)

    def test_random_instances_match_dense_inverse(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 26))
            fill = random_filled_pattern(n, rng.random() * 0.6, rng)
            mat, dense = random_pd_on_pattern(fill, rng)
            w = sparse_inverse(cholesky_factorize(mat))
            dinv = np.linalg.inv(dense)
            err = restrict_abs_error(dinv, w) / max(np.abs(dinv).max(), 1.0)
            worst = max(worst, err)
        assert worst <= 1e-10


class TestInverseColumns:
    def test_tridiagonal_hand_values(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        fac = cholesky_factorize(SparseSymMatrix(pat, [2.0, 2.0, 2.0, 1.0, 1.0]))
        w = inverse_columns(fac)[:, [2, 0]]
        assert w == pytest.approx(np.array([[0.25, 0.75], [-0.5, -0.5],
                                            [0.75, 0.25]]), abs=1e-14)

    def test_no_columns(self):
        fac = cholesky_factorize(SparseSymMatrix.identity(SparseSymPattern(0)))
        assert inverse_columns(fac).shape == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), density=st.floats(0.0, 0.7),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chordal_patterns_match_dense_inverse(self, n, density, seed):
        rng = np.random.default_rng(seed)
        fill = random_filled_pattern(n, density, rng)
        mat, dense = random_pd_on_pattern(fill, rng)
        w = inverse_columns(cholesky_factorize(mat))
        ref = np.linalg.inv(dense)
        assert w.shape == (n, n)
        assert np.abs(w - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)


class TestHessVec:
    def test_identity_returns_argument(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        fac = cholesky_factorize(SparseSymMatrix.identity(pat))
        z = SparseSymMatrix(pat, [1.0, -1.0, 2.0, 0.5, -0.25])
        out = hess_vec(fac, z, sinv=sparse_inverse(fac))
        assert np.allclose(out.diag, z.diag)
        assert np.allclose(out.offdiag, z.offdiag)

    def test_diagonal_matrix_scales_entries(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        d = np.array([2.0, 5.0, 0.25])
        fac = cholesky_factorize(SparseSymMatrix(pat, np.append(d, np.zeros(2))))
        z = SparseSymMatrix(pat, [1.0, 1.0, 1.0, 1.0, 1.0])
        out = hess_vec(fac, z, sinv=sparse_inverse(fac))
        assert out.diag == pytest.approx(1.0 / d ** 2)
        assert out.values[pat.slots(0, 1)] == pytest.approx(1 / (d[0] * d[1]))

    def test_random_six_by_six_against_dense(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            fill = random_filled_pattern(6, 0.5, rng)
            mat, dense = random_pd_on_pattern(fill, rng)
            fac = cholesky_factorize(mat)
            z = SparseSymMatrix(fill, rng.standard_normal(6 + fill.nnz))
            target = np.linalg.inv(dense) @ z.to_dense() @ np.linalg.inv(dense)
            out = hess_vec(fac, z, sinv=sparse_inverse(fac))
            assert restrict_abs_error(target, out) < 1e-9 * max(np.abs(target).max(), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        fill = random_filled_pattern(9, 0.4, rng)
        mat, _ = random_pd_on_pattern(fill, rng)
        fac = cholesky_factorize(mat)
        w = sparse_inverse(fac)
        z1 = SparseSymMatrix(fill, rng.standard_normal(9 + fill.nnz))
        z2 = SparseSymMatrix(fill, rng.standard_normal(9 + fill.nnz))
        a, b = 0.3, -1.7
        combo = SparseSymMatrix(fill, a * z1.values + b * z2.values)
        lhs = hess_vec(fac, combo, sinv=w)
        h1 = hess_vec(fac, z1, sinv=w)
        h2 = hess_vec(fac, z2, sinv=w)
        assert np.abs(lhs.diag - (a * h1.diag + b * h2.diag)).max() < 1e-10
        assert np.abs(lhs.offdiag - (a * h1.offdiag + b * h2.offdiag)).max() < 1e-10

    def test_subset_pattern_argument(self):
        # Z supported on a subset of the fill, stored on the fill itself
        fill = SparseSymPattern(3, [(0, 1), (1, 2)])
        mat = SparseSymMatrix(fill, [3.0, 3.0, 3.0, 1.0, -1.0])
        fac = cholesky_factorize(mat)
        z = SparseSymMatrix.zeros(fill)
        z.values[fill.slots(0, 1)] = 1.0
        dense = np.linalg.inv(mat.to_dense()) @ z.to_dense() @ np.linalg.inv(mat.to_dense())
        out = hess_vec(fac, z, sinv=sparse_inverse(fac))
        assert restrict_abs_error(dense, out) < 1e-12

    def test_missing_fill_slot_rejected(self):
        fac = CholeskyFactor(UNCLOSED, [1.0, 1.0, 1.0, 0.5, 0.5])
        eye = SparseSymMatrix.identity(UNCLOSED)
        with pytest.raises(ValueError, match="elimination-closed"):
            hess_vec(fac, eye, sinv=eye)

    def test_arguments_off_the_factor_pattern_raise(self):
        fill = SparseSymPattern(3, [(0, 1), (1, 2)])
        fac = cholesky_factorize(SparseSymMatrix(fill, [3.0, 3.0, 3.0, 1.0, -1.0]))
        w = sparse_inverse(fac)
        on = SparseSymMatrix(fill, [1.0, 0.0, 0.0, 1.0, 0.0])
        for pat in (SparseSymPattern(3, [(0, 1)]),
                    SparseSymPattern(3, [(0, 1), (1, 2), (0, 2)])):
            off = SparseSymMatrix.zeros(pat)
            with pytest.raises(ValueError):
                hess_vec(fac, off, sinv=w)
            with pytest.raises(ValueError):
                hess_vec(fac, on, sinv=off)


def random_z_on(pattern, rng, kind="mixed"):
    """Random Z on ``pattern`` with about 70 % of its diagonal and
    off-diagonal entries nonzero, or of one class only: ``kind``
    "diagonal" or "off-diagonal" zeroes the other class."""
    keep = rng.random(pattern.n + pattern.nnz) < 0.7
    if kind == "diagonal":
        keep[pattern.n:] = False
    elif kind == "off-diagonal":
        keep[:pattern.n] = False
    return SparseSymMatrix(pattern,
                           np.where(keep, rng.standard_normal(len(keep)), 0.0))


class TestHessFromColumns:
    # Z's diagonal entries scale W's columns, its off-diagonal ones go
    # front by front through U = Z W, so each class is checked alone and
    # mixed, on the default trees and on trees that a small merge cap
    # keeps apart, where most fronts have a separator (k > s)
    @pytest.mark.parametrize("merge_size", [chordal.MERGE_SIZE, 6, 1])
    @pytest.mark.parametrize("kind", ["mixed", "diagonal", "off-diagonal"])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), density=st.floats(0.0, 0.7),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chordal_patterns_match_dense_and_hess_vec(self, kind, merge_size, n,
                                                              density, seed):
        rng = np.random.default_rng(seed)
        fill = random_filled_pattern(n, density, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chordal, "MERGE_SIZE", merge_size)
            fill.clique_tree        # built, and cached, under this cap
        mat, dense = random_pd_on_pattern(fill, rng)
        fac = cholesky_factorize(mat)
        z = random_z_on(fill, rng, kind)
        out = hess_from_columns(inverse_columns(fac), z)
        dinv = np.linalg.inv(dense)
        target = dinv @ z.to_dense() @ dinv
        scale = max(np.abs(target).max(), 1e-300)
        assert restrict_abs_error(target, out) <= 1e-12 * scale
        want = hess_vec(fac, z, sinv=sparse_inverse(fac))
        assert np.abs(out.values - want.values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["mixed", "off-diagonal"])
    def test_chain_of_fronts_matches_dense(self, kind, monkeypatch):
        # the path 0-1-...-11 at cap 1: eleven fronts {i, i+1}, each but
        # the root with a one-vertex separator
        monkeypatch.setattr(chordal, "MERGE_SIZE", 1)
        fill = SparseSymPattern(12, [(i, i + 1) for i in range(11)])
        fronts = fill.clique_tree.fronts
        assert len(fronts) == 11 and sum(len(f.seps) for f in fronts) == 10
        rng = np.random.default_rng(7)
        mat, dense = random_pd_on_pattern(fill, rng)
        z = random_z_on(fill, rng, kind)
        out = hess_from_columns(inverse_columns(cholesky_factorize(mat)), z)
        dinv = np.linalg.inv(dense)
        target = dinv @ z.to_dense() @ dinv
        assert restrict_abs_error(target, out) <= 1e-13 * np.abs(target).max()

    def test_diagonal_z_is_the_column_scaling_exactly(self):
        # a diagonal Z takes no off-diagonal work: T = W diag(z), then the
        # blocked slot dots, bit for bit
        rng = np.random.default_rng(12)
        fill = random_filled_pattern(30, 0.3, rng)
        mat, _ = random_pd_on_pattern(fill, rng)
        w = inverse_columns(cholesky_factorize(mat))
        z = random_z_on(fill, rng, "diagonal")
        rows, cols = fill.slot_ends
        t = w * z.diag
        step = max(logdet.HFC_BLOCK // fill.n, 1)
        want = np.concatenate([np.einsum("ij,ij->i", w[rows[lo:lo + step]],
                                         t[cols[lo:lo + step]])
                               for lo in range(0, fill.n + fill.nnz, step)])
        assert np.array_equal(hess_from_columns(w, z).values, want)

    @pytest.mark.parametrize("values", [[1.0, 1.0, 1.0, 0.5, 0.5],
                                        [1.0, 2.0, 3.0, 0.0, 0.0]])
    def test_z_off_an_elimination_closed_pattern_raises(self, values):
        with pytest.raises(ValueError, match="elimination-closed"):
            hess_from_columns(np.eye(3), SparseSymMatrix(UNCLOSED, values))

    def test_sums_split_over_blocks(self, monkeypatch):
        # one slot per block of the row dots gives the same image
        rng = np.random.default_rng(46)
        fill = random_filled_pattern(14, 0.5, rng)
        mat, dense = random_pd_on_pattern(fill, rng)
        w = inverse_columns(cholesky_factorize(mat))
        z = random_z_on(fill, rng)
        whole = hess_from_columns(w, z).values
        monkeypatch.setattr(logdet, "HFC_BLOCK", 1)
        split = hess_from_columns(w, z)
        dinv = np.linalg.inv(dense)
        target = dinv @ z.to_dense() @ dinv
        scale = np.abs(target).max()
        assert restrict_abs_error(target, split) <= 1e-12 * scale
        assert np.abs(split.values - whole).max() <= 1e-13 * scale

    def test_wrong_shape_columns_raise(self):
        fill = SparseSymPattern(3, [(0, 1), (1, 2)])
        fac = cholesky_factorize(SparseSymMatrix(fill, [3.0, 3.0, 3.0, 1.0, -1.0]))
        z = SparseSymMatrix(fill, [1.0, 2.0, 0.0, 0.5, 0.0])
        for cols in ([0, 1], [0, 1, 2, 0]):
            w = inverse_columns(fac)[:, cols]
            for bad in (w, w.T):
                with pytest.raises(ValueError):
                    hess_from_columns(bad, z)
        assert hess_from_columns(inverse_columns(fac), z).values.any()

    def test_storage_stays_within_the_columns(self):
        # every pair on n = 150 with Z nonzero everywhere: an nnz(F) x n
        # or n x nnz(Z) intermediate would take 13 or 27 MB, against the
        # 180 KB of W
        n = 150
        pat = SparseSymPattern(n, [(i, j) for i in range(n) for j in range(i)])
        rng = np.random.default_rng(36)
        w = rng.standard_normal((n, n))
        z = SparseSymMatrix(pat, rng.standard_normal(n + pat.nnz))
        budget = 12 * (w.nbytes + z.values.nbytes)
        tracemalloc.start()
        try:
            hess_from_columns(w, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, f"hess_from_columns peak {peak} over {budget}"
        assert budget < pat.nnz * n * 8


class TestDerivativeChecks:
    def build_problem(self, rng, n=8, m=3):
        """Random constraint family with a strictly feasible base point."""
        agg = random_filled_pattern(n, 0.35, rng)
        base, base_dense = random_pd_on_pattern(agg, rng, shift=1.0)
        a_list = []
        for _ in range(m):
            diag = np.where(rng.random(n) < 0.4, rng.standard_normal(n), 0.0)
            off = np.where(rng.random(agg.nnz) < 0.4,
                           rng.standard_normal(agg.nnz), 0.0)
            a_list.append(SparseSymMatrix(agg, np.append(diag, off)))
        return agg, base, base_dense, a_list

    @staticmethod
    def slack(base, a_list, u):
        return SparseSymMatrix(
            base.pattern, base.values - sum(ui * a.values for ui, a in zip(u, a_list)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            agg, base, _, a_list = self.build_problem(rng)
            u0 = rng.standard_normal(len(a_list)) * 0.05

            def f(u):
                return cholesky_factorize(self.slack(base, a_list, u)).logdet

            fac = cholesky_factorize(self.slack(base, a_list, u0))
            w = sparse_inverse(fac)
            grad = np.array([-float(np.sum(a.diag * w.diag))
                             - 2.0 * float(np.sum(a.offdiag * w.offdiag))
                             for a in a_list])
            step = 1e-5
            for p in range(len(a_list)):
                up = u0.copy()
                up[p] += step
                um = u0.copy()
                um[p] -= step
                fd = (f(up) - f(um)) / (2 * step)
                assert fd == pytest.approx(grad[p], rel=1e-4, abs=1e-6)

    def test_hessian_product_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            agg, base, _, a_list = self.build_problem(rng)
            m = len(a_list)
            u0 = rng.standard_normal(m) * 0.05
            z = rng.standard_normal(m)

            def grad(u):
                fac = cholesky_factorize(self.slack(base, a_list, u))
                w = sparse_inverse(fac)
                return np.array([-float(np.sum(a.diag * w.diag))
                                 - 2.0 * float(np.sum(a.offdiag * w.offdiag))
                                 for a in a_list])

            fac = cholesky_factorize(self.slack(base, a_list, u0))
            zmat = SparseSymMatrix(agg, sum(zp * a.values for zp, a in zip(z, a_list)))
            hv = hess_vec(fac, zmat, sinv=sparse_inverse(fac))
            # d/dt grad(u0 + t z)_p = -A_p . (S^-1 Z S^-1)
            hz = np.array([-float(np.sum(a.diag * hv.diag))
                           - 2.0 * float(np.sum(a.offdiag * hv.offdiag))
                           for a in a_list])
            step = 1e-5
            fd = (grad(u0 + step * z) - grad(u0 - step * z)) / (2 * step)
            scale = max(np.abs(fd).max(), 1e-9)
            assert np.abs(fd - hz).max() <= 1e-3 * scale


class TestMemoryFootprint:
    def test_no_dense_intermediates(self):
        # band of width 3 at n = 600: the factor needs ~tens of KB while a
        # single dense n x n intermediate would take 2.9 MB; the generous
        # multiplier absorbs Python float-object overhead in the kernels
        xbar = random_banded_partial(600, 3, seed=1)
        mat = SparseSymMatrix(xbar.pattern, xbar.values.copy())
        mat.diag[:] += 3.0
        fac = cholesky_factorize(mat)
        z = SparseSymMatrix(xbar.pattern, np.ones(600 + xbar.pattern.nnz))
        factor_bytes = (8 * (fac.n + fac.pattern.nnz)
                        + fac.pattern.rows.nbytes + fac.pattern.col_ptr.nbytes)
        budget = 40 * factor_bytes + 262144
        tracemalloc.start()
        try:
            w = sparse_inverse(fac)
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= budget, f"sparse_inverse peak {peak} over {budget}"
            tracemalloc.reset_peak()
            hess_vec(fac, z, sinv=w)
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= budget, f"hess_vec peak {peak} over {budget}"
        finally:
            tracemalloc.stop()
        dense_bytes = 600 * 600 * 8
        assert budget < dense_bytes
