import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparse_sdp import (EliminationOrdering, NotPositiveDefinite,
                        SparseSymMatrix, SparseSymPattern, cholesky_factorize,
                        inner_product, maximal_cliques, min_degree_ordering,
                        symbolic_factorize)
from sparse_sdp import chordal
from sparse_sdp.sparsemat import PIVOT_RTOL

from conftest import (dense_mask, elimination_sequence, factor_entries,
                      factor_to_dense, min_degree_sequence, random_filled_pattern,
                      random_pattern, random_pd_on_pattern)


@st.composite
def edge_lists(draw):
    """(n, edges): n in 0..20 and a list of pairs with repeats in both
    orientations."""
    n = draw(st.integers(0, 20))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    again = draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    return n, edges + [(b, a) for a, b in again]


def dense_ldl_pivots(a):
    """Pivots d of the dense unpivoted LDL^T of ``a``, in the order 0..n-1."""
    a = np.array(a, dtype=float)
    d = np.empty(len(a))
    for k in range(len(a)):
        d[k] = a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:]) / d[k]
    return d


def oracle_arrays(mask):
    """(col_ptr, rows) of the pattern whose strict lower triangle is that
    of the symmetric boolean ``mask``."""
    lower = np.tril(mask, -1)
    rows = [i for j in range(len(mask)) for i in np.flatnonzero(lower[:, j]).tolist()]
    return [0, *np.cumsum(lower.sum(axis=0)).tolist()], rows


class TestPattern:
    def test_rejects_self_loops_and_range(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            SparseSymPattern(3, [(1, 1)])
        with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for n=3"):
            SparseSymPattern(3, [(0, 3)])

    @pytest.mark.parametrize("edges, shown", [([(0.5, 2.7)], "0.5"), ([(0, 1), (1, 2.5)], "2.5"),
                                              (np.array([[0.0, np.inf]]), "inf")])
    def test_rejects_labels_that_are_not_integers(self, edges, shown):
        # [(0.5, 2.7)] stored the edge (0, 2)
        with pytest.raises(ValueError, match=f"edge end {shown} is not an integer"):
            SparseSymPattern(3, edges)

    def test_integral_float_labels_are_taken(self):
        pat = SparseSymPattern(3, np.array([[2.0, 0.0]]))
        assert pat.rows.tolist() == [2] and pat.col_ptr.tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2, 0)], [0, 1], [[0], [1]],
                                       np.zeros((2, 2, 2)), np.zeros((0, 3))],
                             ids=["triples", "flat pair", "singletons", "3-d", "empty triples"])
    def test_rejects_edges_not_an_e_by_2_array(self, edges):
        with pytest.raises(ValueError, match=r"\(E, 2\) array"):
            SparseSymPattern(3, edges)

    @settings(max_examples=100, deadline=None)
    @given(case=edge_lists(), seed=st.integers(0, 2**32 - 1))
    @example(case=(0, []), seed=0)
    @example(case=(5, []), seed=0)
    def test_arrays_match_dense_oracle(self, case, seed):
        n, edges = case
        rng = np.random.default_rng(seed)
        pat = SparseSymPattern(n, np.reshape(edges, (-1, 2)))
        mask = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            mask[a, b] = mask[b, a] = True
        assert (pat.col_ptr.tolist(), pat.rows.tolist()) == oracle_arrays(mask)

        perm = rng.permutation(n)
        moved = np.zeros_like(mask)
        moved[np.ix_(perm, perm)] = mask
        permuted = pat.permuted(EliminationOrdering(perm))
        assert (permuted.col_ptr.tolist(), permuted.rows.tolist()) == oracle_arrays(moved)

        # the same edges shuffled, some turned round
        shuffled = np.reshape(edges, (-1, 2))[rng.permutation(len(edges))]
        turn = rng.random(len(edges)) < 0.5
        shuffled[turn] = shuffled[turn, ::-1]
        again = SparseSymPattern(n, shuffled)
        assert again == pat and hash(again) == hash(pat)

    def test_dedup_and_symmetry(self):
        pat = SparseSymPattern(4, [(0, 1), (1, 0), (3, 2)])
        assert pat.nnz == 2
        assert pat.slots(0, 1) == pat.slots(1, 0)
        pat.slots(2, 3)
        with pytest.raises(KeyError):
            pat.slots(0, 2)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 20), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, density=0.5, seed=0)
    @example(n=6, density=0.0, seed=0)
    def test_slots_invert_slot_ends(self, n, density, seed):
        rng = np.random.default_rng(seed)
        pat = random_pattern(n, density, rng)
        rows, cols = pat.slot_ends
        assert np.array_equal(pat.slots(rows, cols), np.arange(n + pat.nnz))
        # either triangle, elementwise
        i, j = rng.integers(0, max(n, 1), size=(2, 40))   # all (0, 0) when n = 0
        on = dense_mask(pat)[i, j] if n else np.zeros(40, dtype=bool)
        assert np.array_equal(pat.slots(i[on], j[on]), pat.slots(j[on], i[on]))
        for a, b in zip(i[~on].tolist(), j[~on].tolist()):
            with pytest.raises(KeyError):
                pat.slots(a, b)
        # (0, n + 2) has the key of the edge (2, 1): range is checked too
        for bad in [(-1, 0), (0, -1), (-1, -1), (n, 0), (n, n), (0, n + 2)]:
            with pytest.raises(KeyError):
                pat.slots(*bad)
            with pytest.raises(KeyError):
                pat.slots([bad[0]], [bad[1]])

    def test_slots_reject_absent_entries(self):
        with pytest.raises(KeyError):
            SparseSymPattern(3).slots(0, 1)         # no edges at all
        with pytest.raises(KeyError):
            SparseSymPattern(3, [(2, 1)]).slots(0, 5)   # 0 n + 5 = 1 n + 2
        assert SparseSymPattern(0).slots([], []).shape == (0,)

    def test_column_rows_are_higher_neighbors(self):
        pat = SparseSymPattern(5, [(0, 2), (2, 4), (1, 2)])
        assert pat.column_rows(2) == (4,)
        assert pat.column_rows(0) == (2,)
        assert pat.column_rows(1) == (2,)

    def test_permuted_roundtrip(self):
        pat = SparseSymPattern(4, [(0, 1), (2, 3), (0, 3)])
        ordering = EliminationOrdering.from_sequence([3, 1, 0, 2])
        back = EliminationOrdering(ordering.inverse)
        assert pat.permuted(ordering).permuted(back) == pat


class TestMinDegree:
    def test_path_eliminates_endpoint_first(self):
        # path 0-1-2: endpoint 0 wins the tie, then 1 drops to degree one
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        assert elimination_sequence(min_degree_ordering(pat)).tolist() == [0, 1, 2]

    def test_complete_graph_breaks_ties_ascending(self):
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        assert elimination_sequence(min_degree_ordering(pat)).tolist() == [0, 1, 2]

    def test_star_eliminates_leaves_while_degrees_differ(self):
        # center 0, leaves 1..3: after leaves 1 and 2 go, the center ties
        # with leaf 3 at degree one and wins by the smaller-index rule
        pat = SparseSymPattern(4, [(0, 1), (0, 2), (0, 3)])
        assert elimination_sequence(min_degree_ordering(pat)).tolist() == [1, 2, 0, 3]

    def test_wider_star_defers_center_until_tie(self):
        pat = SparseSymPattern(6, [(0, j) for j in range(1, 6)])
        assert elimination_sequence(min_degree_ordering(pat)).tolist() == [1, 2, 3, 4, 0, 5]

    def test_empty_graph_identity(self):
        pat = SparseSymPattern(4)
        assert elimination_sequence(min_degree_ordering(pat)).tolist() == [0, 1, 2, 3]

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 30), density=st.floats(0.0, 0.8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_scan_oracle(self, n, density, seed):
        pat = random_pattern(n, density, np.random.default_rng(seed))
        assert elimination_sequence(min_degree_ordering(pat)).tolist() \
            == min_degree_sequence(pat)


class TestMatrix:
    def test_diag_and_offdiag_view_values(self):
        a = SparseSymMatrix(SparseSymPattern(3, [(0, 1)]), [1.0, 2.0, 3.0, 4.0])
        assert a.diag.tolist() == [1.0, 2.0, 3.0] and a.offdiag.tolist() == [4.0]
        a.offdiag[0] = 5.0
        a.diag[2] = 6.0
        assert a.values.tolist() == [1.0, 2.0, 6.0, 5.0]

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                                        [[1.0, 2.0], [3.0, 4.0]]])
    def test_wrong_values_length_raises(self, values):
        with pytest.raises(ValueError):
            SparseSymMatrix(SparseSymPattern(3, [(0, 1)]), values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 3])
    def test_non_finite_entry_raises(self, bad, slot):
        values = [1.0, 2.0, 3.0, 4.0]
        values[slot] = bad
        with pytest.raises(ValueError):
            SparseSymMatrix(SparseSymPattern(3, [(0, 1)]), values)


class TestSymbolicFactorize:
    def test_tridiagonal_no_fill(self):
        pat = SparseSymPattern(4, [(0, 1), (1, 2), (2, 3)])
        filled = symbolic_factorize(pat, EliminationOrdering(np.arange(4)))
        assert filled == pat

    def test_four_cycle_fills_one_edge(self):
        pat = SparseSymPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        filled = symbolic_factorize(pat, EliminationOrdering(np.arange(4)))
        assert filled.nnz == 5
        filled.slots(1, 3)  # raises KeyError unless filled

    def test_dense_first_column_fills_completely(self):
        n = 5
        pat = SparseSymPattern(n, [(0, j) for j in range(1, n)])
        filled = symbolic_factorize(pat, EliminationOrdering(np.arange(n)))
        assert filled.nnz == n * (n - 1) // 2

    def test_output_is_perfect_elimination_ordered(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            pat = random_pattern(n, rng.random() * 0.5, rng)
            filled = symbolic_factorize(pat, min_degree_ordering(pat))
            maximal_cliques(filled)  # raises NotChordal unless a PEO
            # raises KeyError unless every entry is kept
            filled.slots(*pat.permuted(min_degree_ordering(pat)).slot_ends)


class TestCholesky:
    def test_two_by_two_by_hand(self):
        pat = SparseSymPattern(2, [(0, 1)])
        factor = cholesky_factorize(SparseSymMatrix(pat, [4.0, 5.0, 2.0]))
        assert np.allclose(factor_to_dense(factor), [[2.0, 0.0], [1.0, 2.0]])
        assert factor.logdet == pytest.approx(math.log(16.0), abs=1e-12)

    def test_identity(self):
        pat = SparseSymPattern(5, [(0, 4), (1, 2)])
        factor = cholesky_factorize(SparseSymMatrix.identity(pat))
        entries = factor_entries(factor)
        assert np.allclose(entries[:pat.n], 1.0)
        assert np.allclose(entries[pat.n:], 0.0)
        assert factor.logdet == pytest.approx(0.0, abs=1e-14)

    def test_indefinite_reports_failing_pivot(self):
        pat = SparseSymPattern(2, [(0, 1)])
        with pytest.raises(NotPositiveDefinite):
            cholesky_factorize(SparseSymMatrix(pat, [1.0, 1.0, 2.0]))

    def test_missing_fill_slot_rejected(self):
        # 0-1, 0-2 without the 1-2 fill edge is not elimination-closed
        pat = SparseSymPattern(3, [(0, 1), (0, 2)])
        mat = SparseSymMatrix(pat, [4.0, 4.0, 4.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="elimination-closed"):
            cholesky_factorize(mat)

    @pytest.mark.parametrize("merge_size", [1, 8, chordal.MERGE_SIZE])
    def test_failing_pivot_contract_against_dense_ldl(self, merge_size, monkeypatch):
        # the factorization raises exactly when some pivot of the dense
        # unpivoted LDL^T is <= tol, at every merge threshold
        monkeypatch.setattr(chordal, "MERGE_SIZE", merge_size)
        rng = np.random.default_rng(9)
        for trial in range(120):
            n = int(rng.integers(2, 26))
            fill = random_filled_pattern(n, rng.random() * 0.6, rng)
            if trial % 2:
                mat, dense = random_pd_on_pattern(fill, rng, shift=-2.0 * rng.random())
            else:
                # pivots in [0.5, 2] but a few, negative or tiny and positive
                # (which only the relative test rejects)
                low = np.linalg.cholesky(random_pd_on_pattern(fill, rng)[1])
                d = 0.5 + 1.5 * rng.random(n)
                d[rng.integers(n, size=3)] = rng.choice([-1.0, 1e-15], size=3)
                unit = low / np.diagonal(low)
                dense = unit @ np.diag(d) @ unit.T
                mat = SparseSymMatrix(fill, dense[fill.slot_ends])
            tol = PIVOT_RTOL * max(dense.diagonal().max(), 0.0)
            pivots = dense_ldl_pivots(dense)
            if np.all(pivots > tol):
                cholesky_factorize(mat)
                continue
            with pytest.raises(NotPositiveDefinite):
                cholesky_factorize(mat)

    def test_reconstruction_on_random_filled_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 26))
            fill = random_filled_pattern(n, rng.random() * 0.6, rng)
            mat, dense = random_pd_on_pattern(fill, rng)
            factor = cholesky_factorize(mat)
            ldense = factor_to_dense(factor)
            err = np.abs(ldense @ ldense.T - dense).max()
            assert err <= 1e-10 * max(np.abs(dense).max(), 1.0)

    def test_logdet_cache_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 21))
            fill = random_filled_pattern(n, rng.random() * 0.6, rng)
            mat, dense = random_pd_on_pattern(fill, rng)
            factor = cholesky_factorize(mat)
            expected = np.linalg.slogdet(dense)[1]
            assert factor.logdet == pytest.approx(expected, abs=1e-9)


class TestInnerProduct:
    def test_identities(self):
        pat = SparseSymPattern(3)
        eye = SparseSymMatrix.identity(pat)
        assert inner_product(eye, eye) == 3.0

    def test_offdiagonal_counts_twice(self):
        pat = SparseSymPattern(2, [(0, 1)])
        a = SparseSymMatrix(pat, [0.0, 0.0, 1.0])
        b = SparseSymMatrix(pat, [0.0, 0.0, 2.0])
        assert inner_product(a, b) == 4.0

    def test_different_patterns_raise(self):
        a = SparseSymMatrix(SparseSymPattern(2, [(0, 1)]), [1.0, 3.0, 2.0])
        b = SparseSymMatrix(SparseSymPattern(2), [4.0, 5.0])
        with pytest.raises(ValueError):
            inner_product(a, b)
        with pytest.raises(ValueError):
            inner_product(b, a)
        # an equal pattern built separately is the same pattern
        c = SparseSymMatrix(SparseSymPattern(2, [(1, 0)]), [4.0, 5.0, 1.0])
        assert inner_product(a, c) == 19.0 + 4.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            pat = random_pattern(n, 0.4, rng)
            a = SparseSymMatrix(pat, rng.standard_normal(n + pat.nnz))
            b = SparseSymMatrix(pat, rng.standard_normal(n + pat.nnz))
            assert inner_product(a, b) == pytest.approx(inner_product(b, a), rel=1e-12)
            assert inner_product(a, a) >= 0.0
            dense = float(np.sum(a.to_dense() * b.to_dense()))
            assert inner_product(a, b) == pytest.approx(dense, abs=1e-10)

    def test_dimension_mismatch(self):
        a = SparseSymMatrix.identity(SparseSymPattern(2))
        b = SparseSymMatrix.identity(SparseSymPattern(3))
        with pytest.raises(ValueError):
            inner_product(a, b)
