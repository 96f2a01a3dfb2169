import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sdp import (EliminationOrdering, NotChordal, RipFailure,
                        SparseSymPattern, chordal, maximal_cliques, rip_order,
                        symbolic_factorize)

from conftest import (brute_force_cliques, clique_cover_edges, factor_on,
                      factor_to_dense, random_filled_pattern, random_pattern,
                      sparse_from_dense)


FILLED_4CYCLE = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
# hub {0, 3, 4} with leaves {1, 3} and {2, 4}: every order that puts the
# hub before both leaves splits its separator {3, 4} across them
STAR_OF_CLIQUES = [(0, 3), (0, 4), (3, 4), (1, 3), (2, 4)]


class TestVerifyPeo:
    """The perfect-elimination-order check inside ``maximal_cliques``."""

    def test_filled_four_cycle(self):
        maximal_cliques(SparseSymPattern(4, FILLED_4CYCLE))

    def test_raw_four_cycle_fails(self):
        # vertex 0's higher neighbors {1, 3} are not adjacent
        with pytest.raises(NotChordal):
            maximal_cliques(SparseSymPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))

    def test_complete_graph(self):
        n = 5
        pat = SparseSymPattern(n, [(i, j) for i in range(n) for j in range(i)])
        assert maximal_cliques(pat) == [list(range(n))]

    def test_edgeless(self):
        assert maximal_cliques(SparseSymPattern(6)) == [[v] for v in range(6)]

    def test_chordal_graph_in_a_wrong_order_fails(self):
        # the path 1 - 0 - 2 is chordal, but eliminating its middle vertex
        # 0 first would join the non-adjacent 1 and 2
        with pytest.raises(NotChordal):
            maximal_cliques(SparseSymPattern(3, [(0, 1), (0, 2)]))


class TestMaximalCliques:
    def test_path(self):
        cliques = maximal_cliques(SparseSymPattern(3, [(0, 1), (1, 2)]))
        assert cliques == [[0, 1], [1, 2]]

    def test_complete_graph_single_clique(self):
        pat = SparseSymPattern(3, [(0, 1), (0, 2), (1, 2)])
        assert maximal_cliques(pat) == [[0, 1, 2]]

    def test_filled_four_cycle(self):
        assert maximal_cliques(SparseSymPattern(4, FILLED_4CYCLE)) == \
            [[0, 1, 3], [1, 2, 3]]

    def test_non_chordal_rejected(self):
        with pytest.raises(NotChordal):
            maximal_cliques(SparseSymPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))

    def test_isolated_vertices_are_singletons(self):
        cliques = maximal_cliques(SparseSymPattern(4, [(1, 2)]))
        assert cliques == [[0], [1, 2], [3]]

    def test_star_of_cliques_puts_the_hub_last(self):
        pat = SparseSymPattern(5, STAR_OF_CLIQUES)
        cliques = maximal_cliques(pat)
        assert cliques == [[1, 3], [2, 4], [0, 3, 4]]
        cs = rip_order(cliques, n=5)
        assert [u.tolist() for u in cs.separators] == [[3], [4], []]


class TestRipOrder:
    def test_path_split(self):
        cs = rip_order([[0, 1], [1, 2]])
        assert [c.tolist() for c in cs.cliques] == [[0, 1], [1, 2]]
        assert [s.tolist() for s in cs.residuals] == [[0], [1, 2]]
        assert [u.tolist() for u in cs.separators] == [[1], []]

    def test_single_clique(self):
        cs = rip_order([[0, 1, 2]])
        assert cs.residuals[0].tolist() == [0, 1, 2]
        assert cs.separators[0].tolist() == []

    def test_filled_four_cycle(self):
        cs = rip_order([[0, 1, 3], [1, 2, 3]])
        assert [c.tolist() for c in cs.cliques] == [[0, 1, 3], [1, 2, 3]]
        assert cs.separators[0].tolist() == [1, 3]

    def test_needs_reordering_beyond_representative_sort(self):
        # ascending-representative order breaks running intersection for
        # this star of cliques ({3,4} splits across the two late cliques);
        # rip_order verifies the order it is given and does not reorder
        with pytest.raises(RipFailure):
            rip_order([[0, 3, 4], [1, 3], [2, 4]])
        cs = rip_order([[1, 3], [2, 4], [0, 3, 4]])
        assert [u.tolist() for u in cs.separators] == [[3], [4], []]

    def test_separator_inside_a_non_adjacent_later_clique(self):
        # U_0 = {0, 1} lies in C_3 only; C_1 and C_2 each hold one of it
        cs = rip_order([[0, 1, 2], [0, 3], [1, 4], [0, 1, 5]])
        assert [u.tolist() for u in cs.separators] == [[0, 1], [0], [1], []]

    def test_disconnected_components(self):
        cs = rip_order([[0, 1], [2, 3]])
        assert all(len(u) == 0 for u in cs.separators)

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(RipFailure):
            rip_order([[0, 1]], n=3)

    def test_nested_clique_rejected(self):
        # [0, 1] lies inside a later clique, so its residual is empty
        with pytest.raises(RipFailure):
            rip_order([[0, 1], [0, 1, 2]])


def chordal_patterns():
    """Random fills under minimum degree and, sparser, under the natural
    order (whose elimination trees branch more), then the star of cliques."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 41))
        yield random_filled_pattern(n, rng.random() * 0.5, rng)
    for _ in range(100):
        n = int(rng.integers(2, 41))
        pat = random_pattern(n, rng.random() * 0.2, rng)
        yield symbolic_factorize(pat, EliminationOrdering(np.arange(n)))
    yield SparseSymPattern(5, STAR_OF_CLIQUES)


class TestRandomChordalInvariants:
    def test_cover_rip_and_partition(self):
        for fill in chordal_patterns():
            n = fill.n
            cliques = maximal_cliques(fill)
            # the same clique sets as the domination-based enumeration
            assert sorted(cliques) == brute_force_cliques(fill)
            cs = rip_order(cliques, n=n)
            # union covers all vertices
            assert set().union(*(set(c.tolist()) for c in cs.cliques)) == set(range(n))
            # every pattern edge lies inside some clique
            covered = clique_cover_edges(cs)
            for i, j in zip(*fill.slot_ends):
                assert i == j or (i, j) in covered
            # running intersection and residual partition
            seen = set()
            for r in range(len(cs)):
                u = set(cs.separators[r].tolist())
                s = set(cs.residuals[r].tolist())
                assert u | s == set(cs.cliques[r].tolist())
                assert not (u & s)
                assert not (s & seen)
                seen |= s
                assert any(u <= set(cs.cliques[t].tolist())
                           for t in range(r + 1, len(cs))) or not u
                # the separator is higher(last residual vertex), and the
                # cliques ascend by that vertex
                assert cs.separators[r].tolist() == list(fill.column_rows(max(s)))
                assert r == 0 or max(s) > cs.residuals[r - 1].max()
            assert len(cs.separators[-1]) == 0
            assert sum(len(s) for s in cs.residuals) == n

    def test_raw_patterns_agree_with_the_oracle(self):
        rng = np.random.default_rng(12)
        rejected = 0
        for _ in range(100):
            n = int(rng.integers(3, 16))
            edges = [(i, j) for i in range(n) for j in range(i)
                     if rng.random() < 0.3]
            pat = SparseSymPattern(n, edges)
            expected = brute_force_cliques(pat)
            if expected is None:
                rejected += 1
                with pytest.raises(NotChordal):
                    maximal_cliques(pat)
            else:
                assert sorted(maximal_cliques(pat)) == expected
        assert rejected > 20


class TestCliquePlan:
    """The plan of the maximal cliques reads every entry of a lower factor
    on the pattern, and forms its L L^T clique by clique."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 24), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_factor_product_matches_dense(self, n, density, seed):
        rng = np.random.default_rng(seed)
        fill = random_filled_pattern(n, density, rng)
        values = rng.standard_normal(n + fill.nnz)
        values[:n] = rng.random(n) + 0.5
        factor = factor_on(fill, values)
        ldense = factor_to_dense(factor)
        want = sparse_from_dense(fill, ldense @ ldense.T).values
        got = fill.clique_plan.factor_product(factor)
        assert got.pattern is fill
        assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("merge_size", [1, 6, 10_000])
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 24), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_factor_slots_are_a_permutation_of_the_storage(self, merge_size, n,
                                                           density, seed):
        # the positions of a factor's entries in the clique tree's buffer,
        # at merge thresholds from none to one front per component
        fill = random_filled_pattern(n, density, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chordal, "MERGE_SIZE", merge_size)
            slots = np.concatenate(fill.clique_plan.factor_slots)
        assert np.array_equal(np.sort(slots), np.sort(fill.clique_tree.scatter))
