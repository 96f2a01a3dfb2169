import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sdp import (NotCompletable, SparseSymMatrix,
                        SparseSymPattern, banded_pattern, chordal,
                        cholesky_factorize, completion_factors,
                        completion_inverse, completion_inverse_factor, hess_vec,
                        inner_product, logdet_completion,
                        logdet_completion_banded, maxcut_sdp, random_graph)
from sparse_sdp.bench import random_banded_partial, trial_seed
from sparse_sdp.logdet import lower_inverse

from conftest import (dense_mask, factor_entries, factor_on, factor_to_dense,
                      random_completable_partial, reconstruct_dense, restrict_abs_error,
                      sparse_from_dense)


def tridiagonal_example():
    pat = SparseSymPattern(3, [(0, 1), (1, 2)])
    return SparseSymMatrix(pat, [2.0, 2.0, 2.0, 1.0, 1.0])


def completion_hess_product(xbar, z):
    """Entries on F of X^ Z X^ by the Hessian product on the factor of
    the completion inverse, with the partial matrix as selected inverse."""
    return hess_vec(completion_inverse_factor(completion_factors(xbar)), z, sinv=xbar)


def gram_vectors_of(xbar):
    """V = L^-1 for L the factor of the completion inverse, as
    ``maxcut.gram_vectors`` takes it: its columns are Gram vectors of
    the completion."""
    return lower_inverse(completion_inverse_factor(completion_factors(xbar)))


def per_clique_completion(xbar):
    """Log-det and dense inverse of the max-determinant completion, block
    by block in the order clique r, separator r, r = 0, 1, ... (Vandenberghe
    and Andersen, Chordal Graphs and Semidefinite Optimization, 2015)."""
    dense = xbar.to_dense()
    logdet, inv = 0.0, np.zeros_like(dense)
    cs = xbar.pattern.cliques
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
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(completion_factors(eye)) == pytest.approx(0.0, abs=1e-14)

    def test_tridiagonal_pd(self):
        xbar = tridiagonal_example()
        assert math.isfinite(logdet_completion(completion_factors(xbar)))

    def test_indefinite_clique_block(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 3.0, 1.0])
        with pytest.raises(NotCompletable):
            logdet_completion(completion_factors(bad))


class TestCompletionFactors:
    def test_tridiagonal_implied_entry(self):
        xbar = tridiagonal_example()
        dense = reconstruct_dense(xbar)
        assert dense[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(dense, dense.T)

    def test_block_diagonal_has_no_couplings(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        factors = completion_factors(xbar)
        # every clique is all residual: no separator row in any block
        assert all(residual.all() for _, residual in factors.plan.buckets)
        dense = reconstruct_dense(xbar)
        assert dense[0, 2] == dense[0, 3] == dense[1, 2] == dense[1, 3] == 0.0

    def test_identity_partial(self):
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert np.allclose(reconstruct_dense(eye), np.eye(3))

    def test_not_completable(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        bad = SparseSymMatrix(pat, [2.0, 2.0, 2.0, 3.0, 1.0])
        with pytest.raises(NotCompletable):
            completion_factors(bad)

    def test_accepts_an_equal_pattern_object(self):
        xbar = tridiagonal_example()
        twin = SparseSymMatrix(SparseSymPattern(3, [(2, 1), (1, 0)]), xbar.values.copy())
        assert twin.pattern is not xbar.pattern
        assert logdet_completion(completion_factors(twin)) == \
            logdet_completion(completion_factors(xbar))


class TestLogdetCompletion:
    def test_tridiagonal_value(self):
        xbar = tridiagonal_example()
        expected = 2.0 * math.log(3.0) - math.log(2.0)
        assert logdet_completion(completion_factors(xbar)) == pytest.approx(expected, abs=1e-12)
        dense = reconstruct_dense(xbar)
        assert np.linalg.slogdet(dense)[1] == pytest.approx(expected, abs=1e-12)

    def test_identity(self):
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert logdet_completion(completion_factors(eye)) == pytest.approx(0.0, abs=1e-14)

    def test_band_one_n4_against_dense_determinant(self):
        pat = banded_pattern(4, 1)
        xbar = SparseSymMatrix(pat, [2.0] * 4 + [1.0] * 3)
        xhat = reconstruct_dense(xbar)
        expected = np.linalg.slogdet(xhat)[1]
        got = logdet_completion(completion_factors(xbar))
        assert got == pytest.approx(expected, abs=1e-12)
        # strictly beats the zero-filled tridiagonal (det 5) by maximality
        assert got > math.log(5.0)


class TestCompletionInverse:
    def test_identity(self):
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        inv = completion_inverse(completion_factors(eye))
        assert np.allclose(inv.to_dense(), np.eye(3))

    def test_tridiagonal_against_dense(self):
        xbar = tridiagonal_example()
        dense_inv = np.linalg.inv(np.array([[2, 1, 0.5], [1, 2, 1], [0.5, 1, 2]]))
        assert dense_inv[0, 2] == pytest.approx(0.0, abs=1e-12)
        inv = completion_inverse(completion_factors(xbar))
        assert restrict_abs_error(dense_inv, inv) < 1e-12

    def test_disjoint_blocks(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3)])
        xbar = SparseSymMatrix(pat, [2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        inv = completion_inverse(completion_factors(xbar))
        top = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
        assert inv.to_dense()[:2, :2] == pytest.approx(top)

    def test_matches_gradient_of_logdet(self):
        rng = np.random.default_rng(21)
        xbar, _ = random_completable_partial(8, 0.35, rng)
        inv = completion_inverse(completion_factors(xbar))
        step = 1e-6
        for v in range(xbar.n):
            plus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            plus.diag[v] += step
            minus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            minus.diag[v] -= step
            fd = (logdet_completion(completion_factors(plus)) - logdet_completion(completion_factors(minus))) / (2 * step)
            assert fd == pytest.approx(inv.diag[v], rel=1e-4, abs=1e-7)
        for k in range(xbar.pattern.nnz):
            plus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            plus.offdiag[k] += step
            minus = SparseSymMatrix(xbar.pattern, xbar.values.copy())
            minus.offdiag[k] -= step
            fd = (logdet_completion(completion_factors(plus)) - logdet_completion(completion_factors(minus))) / (2 * step)
            # symmetric perturbation counts the entry twice
            assert fd == pytest.approx(2.0 * inv.offdiag[k], rel=1e-4, abs=1e-7)


class TestCompletionHessApply:
    def test_identity_returns_argument(self):
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        z = SparseSymMatrix(xbar.pattern, [1.0, -2.0, 0.5, 0.3, -0.7])
        out = completion_hess_product(eye, z)
        assert np.allclose(out.diag, z.diag)
        assert np.allclose(out.offdiag, z.offdiag)

    def test_diagonal_scaling(self):
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        d = np.array([2.0, 3.0, 0.5])
        xbar = SparseSymMatrix(pat, np.append(d, [0.0, 0.0]))
        z = SparseSymMatrix(pat, [1.0, 1.0, 1.0, 1.0, 1.0])
        out = completion_hess_product(xbar, z)
        assert out.diag == pytest.approx(d * d)
        assert out.values[pat.slots(0, 1)] == pytest.approx(d[0] * d[1])

    def test_rank_one_probe_against_dense(self):
        xbar = tridiagonal_example()
        z = SparseSymMatrix(xbar.pattern, [1.0, 0.0, 0.0, 0.0, 0.0])
        xhat = reconstruct_dense(xbar)
        target = xhat @ z.to_dense() @ xhat
        out = completion_hess_product(xbar, z)
        assert restrict_abs_error(target, out) < 1e-10

    def test_random_instances_against_dense(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            xbar, _ = random_completable_partial(n, 0.4, rng)
            z = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + xbar.pattern.nnz))
            xhat = reconstruct_dense(xbar)
            target = xhat @ z.to_dense() @ xhat
            out = completion_hess_product(xbar, z)
            scale = max(np.abs(target).max(), 1.0)
            assert restrict_abs_error(target, out) < 1e-9 * scale

    def test_symmetric_bilinear_form(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            xbar, _ = random_completable_partial(n, 0.4, rng)
            nnz = xbar.pattern.nnz
            z1 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + nnz))
            z2 = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + nnz))
            h1 = completion_hess_product(xbar, z1)
            h2 = completion_hess_product(xbar, z2)
            lhs = inner_product(h1, z2)
            rhs = inner_product(z1, h2)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestCompletionVectors:
    """Gram vectors of the completion: the columns of L^-1, for L the
    factor of the completion inverse."""

    def test_identity(self):
        xbar = tridiagonal_example()
        eye = SparseSymMatrix.identity(xbar.pattern)
        assert np.allclose(gram_vectors_of(eye), np.eye(3))

    def test_tridiagonal_gram(self):
        xbar = tridiagonal_example()
        v = gram_vectors_of(xbar)
        assert np.abs(v.T @ v - reconstruct_dense(xbar)).max() < 1e-10

    def test_single_clique_is_dense_cholesky_transpose(self):
        # V = L^-1 with L L^T = X^-1 is lower triangular with V^T V = X:
        # V^T is X's upper triangular factor, Cholesky in reversed order
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        dense = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        v = gram_vectors_of(sparse_from_dense(pat, dense))
        flip = np.linalg.cholesky(dense[::-1, ::-1])[::-1, ::-1]
        assert np.allclose(v, flip.T)
        assert np.allclose(v.T @ v, dense)


class TestMaxDeterminantProperties:
    def test_off_pattern_inverse_zero_and_determinant_maximality(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(3, 12))
            xbar, _ = random_completable_partial(n, 0.3, rng)
            xhat = reconstruct_dense(xbar)
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
        xbar, _ = random_completable_partial(n, density, rng)
        factors = completion_factors(xbar)
        xhat = reconstruct_dense(xbar)
        # the clique-by-clique oracle reproduces X-bar on F ...
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
        loop_logdet, loop_inv = per_clique_completion(xbar)
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
        buckets = pat.clique_plan.buckets
        assert [gather.shape for gather, _ in buckets] == [(n - 2, 3, 3)]
        with pytest.raises(NotCompletable):
            completion_factors(xbar)


def on_fresh_plan(xbar, call):
    """``xbar`` on a copy of its pattern whose clique plan is built with
    BUCKET_CALL = ``call``: 0 gives one bucket per clique size, a huge
    call one bucket for all."""
    pat = xbar.pattern
    twin = SparseSymPattern(pat.n, np.column_stack(pat.slot_ends)[pat.n:])
    assert np.array_equal(twin.slot_ends, pat.slot_ends)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordal, "BUCKET_CALL", call)
        twin.clique_plan
    return SparseSymMatrix(twin, xbar.values.copy())


def sweep_results(xbar, lower):
    """Log-det, inverse and inverse factor of the completion of ``xbar``,
    and L L^T for the lower factor values ``lower``, through its plan."""
    factors = completion_factors(xbar)
    product = xbar.pattern.clique_plan.factor_product(
        factor_on(xbar.pattern, lower))
    return (logdet_completion(factors), completion_inverse(factors),
            completion_inverse_factor(factors), product)


def check_bucketings(xbar, rng, calls=(0, 50, chordal.BUCKET_CALL, 1e12)):
    """The sweep on ``xbar`` under each BUCKET_CALL in ``calls`` against
    dense oracles and against the per-size grouping (call 0); returns the
    bucket sizes under each call."""
    n, nnz = xbar.n, xbar.pattern.nnz
    xhat = reconstruct_dense(xbar)
    inv = np.linalg.inv(xhat)
    scale = max(np.abs(inv).max(), 1.0)
    lower = rng.standard_normal(n + nnz)
    lower[:n] = rng.random(n) + 0.5
    ldense = factor_to_dense(factor_on(xbar.pattern, lower))
    llt = ldense @ ldense.T
    per_size, tops = None, []
    for call in calls:
        x = on_fresh_plan(xbar, call)
        plan = x.pattern.clique_plan
        sizes = sorted({len(c) for c in x.pattern.cliques.cliques})
        tops.append([gather.shape[1] for gather, _ in plan.buckets])
        if call == 0:
            assert tops[-1] == sizes
        if call == 1e12:
            assert tops[-1] == [sizes[-1]]
        assert sum(len(gather) for gather, _ in plan.buckets) == len(x.pattern.cliques)
        assert np.array_equal(np.sort(np.concatenate(plan.factor_slots)),
                              np.sort(x.pattern.clique_tree.scatter))
        logdet, xinv, factor, product = sweep_results(x, lower)
        assert logdet == pytest.approx(np.linalg.slogdet(xhat)[1], abs=1e-9)
        assert restrict_abs_error(inv, xinv) <= 1e-10 * scale
        fdense = factor_to_dense(factor)
        assert restrict_abs_error(inv, sparse_from_dense(x.pattern, fdense @ fdense.T)) \
            <= 1e-10 * scale
        assert restrict_abs_error(llt, product) <= 1e-13 * np.abs(llt).max()
        got = (logdet, xinv.values, factor_entries(factor), product.values)
        if per_size is None:
            per_size = got
            continue
        assert logdet == pytest.approx(per_size[0], rel=1e-12, abs=1e-12)
        for mine, theirs in zip(got[1:], per_size[1:]):
            assert np.abs(mine - theirs).max() <= 1e-12 * np.abs(theirs).max()
    return tops


class TestBucketedPlan:
    """The plan pads the clique blocks into the buckets its cost rule
    picks; the padding must not change what the sweep computes."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_every_bucketing_matches_dense_oracles(self, n, density, seed):
        rng = np.random.default_rng(seed)
        xbar, _ = random_completable_partial(n, density, rng)
        check_bucketings(xbar, rng)

    def test_benchmark_fill_pads_into_two_buckets(self):
        # the maxcut-random fill: clique sizes 3..14 in two padded buckets
        fill = maxcut_sdp(random_graph(35, 105, trial_seed(3, 0))).fill
        rng = np.random.default_rng(4)
        g = rng.standard_normal((fill.n, fill.n)) / np.sqrt(fill.n)
        xbar = sparse_from_dense(fill, g @ g.T + np.eye(fill.n))
        tops = check_bucketings(xbar, rng, calls=(0, chordal.BUCKET_CALL))
        assert len(tops[0]) > len(tops[1]) >= 2
        plan = fill.clique_plan
        assert all(np.any(gather == plan.one) for gather, _ in plan.buckets)

    @pytest.mark.parametrize("bad", [(1, 0), (5, 2)])
    def test_indefinite_block_padded_into_a_larger_bucket(self, bad):
        # cliques {0, 1} and {2, 3, 4, 5} share one bucket of size 4, so
        # the 2-block is padded with an identity
        edges = [(0, 1)] + [(i, j) for i in range(2, 6) for j in range(2, i)]
        pat = SparseSymPattern(6, edges)
        assert [gather.shape for gather, _ in pat.clique_plan.buckets] == [(2, 4, 4)]
        xbar = SparseSymMatrix.identity(pat)
        xbar.values[pat.slots(*bad)] = 0.5
        assert logdet_completion(completion_factors(xbar)) == \
            pytest.approx(math.log(0.75), abs=1e-15)
        xbar.values[pat.slots(*bad)] = 2.0
        with pytest.raises(NotCompletable):
            completion_factors(xbar)

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=30),
           call=st.sampled_from([0, 50, 2000, 20_000, 10**6]))
    def test_bucket_rule_is_the_cheapest_partition(self, sizes, call):
        # every set of bucket tops holding the largest size, each block
        # in the smallest top that fits it
        def cost(tops):
            fit = np.searchsorted(tops, sizes)
            return len(tops) * call + sum(tops[b] ** 3 for b in fit.tolist())
        distinct = sorted(set(sizes))
        best = min(cost([k for bit, k in enumerate(distinct[:-1]) if mask >> bit & 1]
                        + [distinct[-1]])
                   for mask in range(2 ** (len(distinct) - 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chordal, "BUCKET_CALL", call)
            tops = chordal.bucket_sizes(np.array(sizes))
        assert tops == sorted(tops) and tops[-1] == distinct[-1]
        assert set(tops) <= set(distinct)
        assert cost(tops) == best


class TestCompletionInverseFactor:
    """The factor of X^-1 read off the clique factors, against the scalar
    factorization of the assembled inverse and against dense X^."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chordal_patterns_match_refactorization(self, n, density, seed):
        rng = np.random.default_rng(seed)
        xbar, _ = random_completable_partial(n, density, rng)
        factors = completion_factors(xbar)
        got = completion_inverse_factor(factors)
        want = cholesky_factorize(completion_inverse(factors))
        assert got.pattern is want.pattern
        got_entries, want_entries = factor_entries(got), factor_entries(want)
        assert np.abs(got_entries - want_entries).max() <= 1e-12 * np.abs(want_entries).max()
        assert got.logdet == pytest.approx(-logdet_completion(factors), rel=1e-12, abs=1e-12)
        # the Hessian product on it, with X-bar as the selected inverse
        z = SparseSymMatrix(xbar.pattern, rng.standard_normal(n + xbar.pattern.nnz))
        xhat = reconstruct_dense(xbar)
        target = xhat @ z.to_dense() @ xhat
        out = hess_vec(got, z, sinv=xbar)
        assert restrict_abs_error(target, out) <= 1e-10 * max(np.abs(target).max(), 1.0)


class TestBandedLogdet:
    def test_agrees_with_general_path(self):
        rng = np.random.default_rng(25)
        for n, p in [(6, 1), (12, 3), (9, 8), (25, 4), (40, 2)]:
            xbar = random_banded_partial(n, p, seed=int(rng.integers(1 << 30)))
            a = logdet_completion(completion_factors(xbar))
            b = logdet_completion_banded(xbar, p)
            assert b == pytest.approx(a, abs=1e-9)

    def test_full_band_single_clique(self):
        n = 7
        xbar = random_banded_partial(n, n - 1, seed=5)
        assert len(xbar.pattern.cliques) == 1
        assert logdet_completion_banded(xbar, n - 1) == \
            pytest.approx(logdet_completion(completion_factors(xbar)), abs=1e-9)

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

    @pytest.mark.parametrize("n", [1, 4])
    def test_rejects_a_negative_bandwidth(self, n):
        # an empty band passed the edge count and the sweep then raised
        # IndexError
        xbar = SparseSymMatrix.identity(banded_pattern(n, 0))
        with pytest.raises(ValueError, match="bandwidth must be nonnegative"):
            logdet_completion_banded(xbar, -1)

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
            assert logdet_completion_banded(xbar, p) == \
                pytest.approx(logdet_completion(completion_factors(xbar)), abs=1e-9)

