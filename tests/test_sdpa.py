import numpy as np
import pytest

from sparse_sdp import SdpaParseError, read_sdpa, write_sdpa
from sparse_sdp.maxcut import random_graph
from sparse_sdp.sparsemat import SparseSymMatrix, SparseSymPattern

from conftest import entry


def maxcut_file(tmp_path, graph, name="instance.dat-s"):
    """Write the MAX-CUT relaxation data (original labels) as SDPA sparse."""
    n = graph.n
    pat = SparseSymPattern(n, [(i, j) for i, j, _ in graph.edges])
    values = np.zeros(n + pat.nnz)
    for i, j, w in graph.edges:
        values[pat.slots(i, j)] = w / 4.0
        values[i] -= w / 4.0
        values[j] -= w / 4.0
    c = SparseSymMatrix(pat, values)
    empty = SparseSymPattern(n)
    constraints = []
    for p in range(n):
        d = np.zeros(n)
        d[p] = 1.0
        constraints.append(SparseSymMatrix(empty, d))
    path = tmp_path / name
    write_sdpa(path, c, constraints, np.ones(n))
    return path, c, constraints


class TestRoundtrip:
    def test_maxcut_instance(self, tmp_path):
        g = random_graph(6, 9, seed=31)
        path, c, constraints = maxcut_file(tmp_path, g)
        c2, a2, b2 = read_sdpa(path)
        assert np.allclose(c2.to_dense(), c.to_dense())
        assert len(a2) == len(constraints)
        for a, ref in zip(a2, constraints):
            assert np.allclose(a.to_dense(), ref.to_dense())
        assert np.allclose(b2, np.ones(6))

    def test_no_constraints(self, tmp_path):
        # the b line of m = 0 must survive reading, which skips blank lines
        c = SparseSymMatrix(SparseSymPattern(3, [(2, 0)]), [1.0, 2.0, 3.0, 0.5])
        path = tmp_path / "free.dat-s"
        write_sdpa(path, c, [], np.zeros(0))
        c2, a2, b2 = read_sdpa(path)
        assert np.array_equal(c2.to_dense(), c.to_dense())
        assert a2 == [] and b2.shape == (0,)

    def test_comments_and_braces_tolerated(self, tmp_path):
        path = tmp_path / "inst.dat-s"
        path.write_text(
            '* comment line\n"another comment\n'
            "2\n1\n{3}\n1.0, 2.0\n"
            "0 1 1 1 -0.5\n0 1 1 2 0.25\n"
            "1 1 1 1 1.0\n2 1 2 2 1.0\n")
        c, a, b = read_sdpa(path)
        assert c.n == 3
        assert b.tolist() == [1.0, 2.0]
        assert entry(c, 0, 1) == 0.25
        assert a[0].diag[0] == 1.0 and a[1].diag[1] == 1.0

    def test_manual_example_with_header_tails(self, tmp_path):
        # the SDPA manual's example1.dat-s names each header count after it
        entries = ("0 1 1 1 -11\n0 1 2 2 23\n1 1 1 1 10\n1 1 1 2 4\n"
                   "2 1 2 2 -8\n3 1 1 2 -8\n3 1 2 2 -2\n")
        inline = tmp_path / "example1.dat-s"
        inline.write_text('"Example 1: mDim = 3, nBLOCK = 1, {2}"\n'
                          "   3  =  mDIM\n   1  =  nBOLCK\n   2  =  bLOCKsTRUCT\n"
                          "{48, -8, 20}\n" + entries)
        stripped = tmp_path / "stripped.dat-s"
        stripped.write_text("3\n1\n2\n48 -8 20\n" + entries)
        (c, a, b), (c2, a2, b2) = read_sdpa(inline), read_sdpa(stripped)
        assert np.array_equal(b, [48.0, -8.0, 20.0]) and np.array_equal(b, b2)
        assert len(a) == len(a2) == 3
        for got, want in zip([c, *a], [c2, *a2]):
            assert got.pattern == want.pattern
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(c.to_dense(), [[-11.0, 0.0], [0.0, 23.0]])

    def test_matrices_without_off_diagonal_entries_share_one_pattern(self, tmp_path):
        path, _, _ = maxcut_file(tmp_path, random_graph(6, 9, seed=31))
        c, a, _ = read_sdpa(path)
        assert c.pattern.nnz == 9
        assert all(ai.pattern is a[0].pattern for ai in a)
        assert a[0].pattern == SparseSymPattern(6)


class TestParseErrors:
    def test_multi_block_rejected(self, tmp_path):
        path = tmp_path / "multi.dat-s"
        path.write_text("1\n2\n2 2\n1.0\n0 1 1 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("header, line", [
        ("mDIM\n1\n2\n", 1), ("1\n= nBLOCK\n2\n", 2), ("1\n1\n{}\n", 3),
        ("1 2 = mDIM\n1\n2\n", 1)])
    def test_header_line_without_one_leading_integer_names_line(self, tmp_path, header, line):
        path = tmp_path / "head.dat-s"
        path.write_text(header + "1.0\n0 1 1 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == line

    def test_malformed_entry_names_line(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 1 oops 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 5

    def test_entry_out_of_range(self, tmp_path):
        path = tmp_path / "range.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 3 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 5

    def test_wrong_b_length(self, tmp_path):
        path = tmp_path / "b.dat-s"
        path.write_text("2\n1\n2\n1.0\n0 1 1 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 4

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 1 2 1.0\n0 1 2 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 6

    def test_duplicate_diagonal_entry_after_zero(self, tmp_path):
        path = tmp_path / "dupdiag.dat-s"
        path.write_text("1\n1\n2\n1.0\n1 1 1 1 0.0\n1 1 1 1 1.0\n")
        with pytest.raises(SdpaParseError) as info:
            read_sdpa(path)
        assert info.value.line == 6

    @pytest.mark.parametrize("b, value, line",
                             [("1.0 nan", "1.0", 4), ("-inf 1.0", "1.0", 4),
                              ("1.0 1.0", "nan", 6), ("1.0 1.0", "inf", 6)])
    def test_non_finite_number_names_line(self, tmp_path, b, value, line):
        path = tmp_path / "finite.dat-s"
        path.write_text(f"2\n1\n2\n{b}\n0 1 1 2 1.0\n1 1 1 1 {value}\n2 1 2 2 1.0\n")
        with pytest.raises(SdpaParseError, match="not finite") as info:
            read_sdpa(path)
        assert info.value.line == line

    def test_off_diagonal_entry_in_diagonal_block(self, tmp_path):
        # a negative size declares a diagonal block; this file used to
        # parse as a full 2 x 2 block
        path = tmp_path / "diagblock.dat-s"
        path.write_text("1\n1\n-2\n1.0\n1 1 1 1 1.0\n0 1 1 2 0.5\n")
        with pytest.raises(SdpaParseError, match="diagonal block") as info:
            read_sdpa(path)
        assert info.value.line == 6

    def test_diagonal_block_reads_its_diagonal(self, tmp_path):
        path = tmp_path / "diag.dat-s"
        path.write_text("1\n1\n-2\n1.0\n0 1 1 1 2.0\n0 1 2 2 3.0\n1 1 1 1 1.0\n")
        c, a, b = read_sdpa(path)
        assert c.n == 2 and c.pattern.nnz == 0
        assert c.diag.tolist() == [2.0, 3.0] and a[0].diag.tolist() == [1.0, 0.0]

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.dat-s"
        path.write_text("2\n1\n")
        with pytest.raises(SdpaParseError):
            read_sdpa(path)
