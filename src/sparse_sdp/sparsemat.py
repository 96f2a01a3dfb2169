"""Symmetric sparse storage, fill-reducing ordering, and sparse Cholesky.

Patterns and matrices keep only the strict lower triangle plus the
diagonal, compressed-column style.  All indices are 0-based.

``cholesky_factorize`` is multifrontal, on the dense fronts of the
pattern's merged ``clique_tree`` (Vandenberghe & Andersen, *Chordal
Graphs and Semidefinite Optimization*, 2015, section 9).
"""

from __future__ import annotations

import heapq
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import NotPositiveDefinite

PIVOT_RTOL = 1e-12  # pivot <= PIVOT_RTOL * max input diagonal fails


class SparseSymPattern:
    """Sparsity pattern of a symmetric matrix.

    Edges are unordered pairs {i, j}, i != j; the diagonal is implicit and
    always present.  The pattern is its two arrays: column j holds the
    rows i > j, ascending, in ``rows[col_ptr[j]:col_ptr[j + 1]]``, so
    ``column_rows(j)`` is exactly the higher-numbered neighborhood of j
    when (0..n-1) is taken as an elimination order.  A matrix on the
    pattern stores its entries in ``values`` = [diag | offdiag], one slot
    per diagonal entry and per edge in storage order; ``slots`` and
    ``slot_ends`` are the one map between entries (i, j) and slots, and
    every other index here is derived from them.
    """

    def __init__(self, n, edges=()):
        """``edges``: an (E, 2) array of vertex pairs, either orientation,
        duplicates allowed."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        ends = np.asarray(edges, dtype=np.int64)
        if ends.shape == (0,):
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edges must be an (E, 2) array, not shape {ends.shape}")
        col, row = ends.min(axis=1), ends.max(axis=1)
        bad = (col == row) | (col < 0) | (row >= n)
        if bad.any():
            a, b = ends[np.argmax(bad)]
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        keys = np.unique(col * n + row)
        self.n = n
        self.col_ptr = keys.searchsorted(np.arange(n + 1, dtype=np.int64) * n)
        self.rows = keys % max(n, 1)
        self.col_ptr.flags.writeable = self.rows.flags.writeable = False

    @property
    def nnz(self):
        return len(self.rows)

    def column_rows(self, j):
        """Rows i > j present in column j (ascending)."""
        return self.rows[self.col_ptr[j]:self.col_ptr[j + 1]]

    @cached_property
    def slot_ends(self):
        """(rows, cols): the entry (rows[k], cols[k]), rows[k] >= cols[k],
        held in slot k of [diag | offdiag]; (v, v) for the diagonal, then
        the edges in storage order.  Read-only."""
        diag = np.arange(self.n, dtype=np.int64)
        rows = np.concatenate((diag, self.rows))
        cols = np.concatenate((diag, np.repeat(diag, np.diff(self.col_ptr))))
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def _slot_keys(self):
        """Every slot's key col n + row, ascending, and a sentinel; each key's slot."""
        rows, cols = self.slot_ends
        keys = cols * self.n + rows
        order = np.argsort(keys, kind="stable")
        return np.append(keys[order], np.iinfo(np.int64).max), order

    def slots(self, i, j, missing=None):
        """Slots in [diag | offdiag] of the entries (i, j), elementwise over
        broadcast arrays, from either triangle.  An index outside 0..n-1 or
        an off-diagonal (i, j) off the pattern raises KeyError, or maps to
        ``missing`` when that is given."""
        n = self.n
        row = np.asarray(np.maximum(i, j), dtype=np.int64)
        col = np.asarray(np.minimum(i, j), dtype=np.int64)
        probe = col * n + row       # negative, and so absent, when col < 0 <= row
        keys, order = self._slot_keys
        at = keys.searchsorted(probe)
        bad = (row >= n) | (keys[at] != probe)
        if missing is not None:
            return np.where(bad, missing, order[np.minimum(at, len(order) - 1)])
        if bad.any():
            raise KeyError(f"({row[bad][0]}, {col[bad][0]}) is not an entry on 0..{n - 1}")
        return order[at]

    @cached_property
    def row_edges(self):
        """(ptr, edges): the edges (j, k), k < j, of row j are
        ``edges[ptr[j]:ptr[j + 1]]``, by increasing k, as offdiag indices."""
        edges = np.argsort(self.rows, kind="stable")
        ptr = np.append(0, np.cumsum(np.bincount(self.rows, minlength=self.n)))
        ptr.flags.writeable = edges.flags.writeable = False
        return ptr, edges

    @cached_property
    def column_blocks(self):
        """(ptr, blocks): ``blocks[ptr[j]:ptr[j + 1]]`` holds the slots of
        rows_j x rows_j row by row, rows_j = ``column_rows(j)``.  Raises
        ValueError unless the pattern is elimination-closed, that is every
        such block lies on it."""
        count = np.diff(self.col_ptr)
        ptr = np.append(0, np.cumsum(count * count))
        col = np.repeat(np.arange(self.n), count * count)
        t, u = np.divmod(np.arange(ptr[-1]) - ptr[col], count[col])   # entry (t, u) of block j
        base = self.col_ptr[col]
        try:
            blocks = self.slots(self.rows[base + t], self.rows[base + u])
        except KeyError as exc:
            raise ValueError(f"pattern is not elimination-closed: {exc.args[0]}") from None
        ptr.flags.writeable = blocks.flags.writeable = False
        return ptr, blocks

    @cached_property
    def clique_tree(self):
        """The merged clique tree whose dense fronts the factor and inverse
        kernels run on (``chordal.CliqueTree``); raises ValueError unless
        the pattern is elimination-closed."""
        from .chordal import CliqueTree     # chordal imports this module
        return CliqueTree(self)

    def adjacency(self):
        """Per-vertex neighbor sets, new on every call."""
        rows, cols = self.slot_ends
        ends = np.concatenate((rows[self.n:], cols[self.n:]))
        order = np.argsort(ends, kind="stable")
        other = np.concatenate((cols[self.n:], rows[self.n:]))[order].tolist()
        at = ends[order].searchsorted(np.arange(self.n + 1)).tolist()
        return [set(other[at[v]:at[v + 1]]) for v in range(self.n)]

    def permuted(self, ordering):
        perm = ordering.perm
        rows, cols = self.slot_ends
        return SparseSymPattern(self.n, np.column_stack((perm[rows], perm[cols]))[self.n:])

    def __eq__(self, other):
        if not isinstance(other, SparseSymPattern):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.col_ptr, other.col_ptr)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.n, self.col_ptr.tobytes(), self.rows.tobytes()))

    def __repr__(self):
        return f"SparseSymPattern(n={self.n}, nnz={self.nnz})"


class SparseSymMatrix:
    """Numeric symmetric matrix on a fixed pattern.

    ``values`` holds the n diagonal values followed by one value per
    pattern edge (in the pattern's storage order); ``diag`` and
    ``offdiag`` are views of its two parts.  Entries off the pattern are
    zero by convention, except where the completion routines read the
    matrix as a partial matrix and leave them unspecified.
    """

    def __init__(self, pattern, values, check=True):
        self.pattern = pattern
        self.values = np.asarray(values, dtype=float)
        if check:
            if self.values.shape != (pattern.n + pattern.nnz,):
                raise ValueError("values length is not n + nnz")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("entries must be finite")
        self.diag = self.values[:pattern.n]
        self.offdiag = self.values[pattern.n:]

    @property
    def n(self):
        return self.pattern.n

    @classmethod
    def zeros(cls, pattern):
        return cls(pattern, np.zeros(pattern.n + pattern.nnz), check=False)

    @classmethod
    def identity(cls, pattern):
        out = cls.zeros(pattern)
        out.diag[:] = 1.0
        return out

    def to_dense(self):
        rows, cols = self.pattern.slot_ends
        out = np.zeros((self.n, self.n))
        out[rows, cols] = out[cols, rows] = self.values
        return out

    def permuted(self, ordering):
        perm = ordering.perm
        rows, cols = self.pattern.slot_ends
        newpat = self.pattern.permuted(ordering)
        out = SparseSymMatrix.zeros(newpat)
        out.values[newpat.slots(perm[rows], perm[cols])] = self.values
        return out

    def scaled(self, alpha):
        return SparseSymMatrix(self.pattern, alpha * self.values, check=False)

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.pattern.nnz})"


class EliminationOrdering:
    """Bijection old-index -> new-index together with its inverse."""

    def __init__(self, perm):
        perm = np.asarray(perm, dtype=np.int64)
        n = len(perm)
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm is not a bijection on 0..n-1")
        self.perm = perm
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[perm] = np.arange(n, dtype=np.int64)

    @property
    def n(self):
        return len(self.perm)

    @classmethod
    def from_sequence(cls, seq):
        """Build from the elimination sequence (old labels in order)."""
        seq = np.asarray(seq, dtype=np.int64)
        perm = np.empty(len(seq), dtype=np.int64)
        perm[seq] = np.arange(len(seq), dtype=np.int64)
        return cls(perm)

    def __eq__(self, other):
        if not isinstance(other, EliminationOrdering):
            return NotImplemented
        return np.array_equal(self.perm, other.perm)

    def __repr__(self):
        return f"EliminationOrdering({self.perm.tolist()})"


class CholeskyFactor:
    """Lower-triangular Cholesky factor on an elimination-closed pattern.

    ``values`` holds [diag | offdiag] as in ``SparseSymMatrix``, with
    ``diag`` and ``offdiag`` views of its two parts.  The diagonal holds
    the actual (positive) pivot square roots; ``logdet`` caches
    2*sum(log diag).  ``chordal.CliquePlan.factor_product`` forms
    L L^T on the pattern, clique by clique.
    """

    def __init__(self, pattern, values, logdet):
        self.pattern = pattern
        self.values = np.asarray(values, dtype=float)
        self.diag = self.values[:pattern.n]
        self.offdiag = self.values[pattern.n:]
        self.logdet = float(logdet)

    @property
    def n(self):
        return self.pattern.n

    def __repr__(self):
        return f"CholeskyFactor(n={self.n}, nnz={self.pattern.nnz})"


def min_degree_ordering(pattern):
    """Fill-reducing ordering by repeated minimum-degree elimination.

    Plain (non-multiple, non-approximate) minimum degree on the
    elimination graph; ties break toward the smallest original index so
    the result is deterministic.  A heap of (degree, vertex) picks each
    pivot: a vertex is pushed again whenever elimination changes its
    neighbourhood, and entries whose degree is stale are skipped.
    """
    n = pattern.n
    adj = pattern.adjacency()
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * n
    seq = []
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue
        seq.append(v)
        done[v] = True
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        for a, b in combinations(sorted(nbrs), 2):
            adj[a].add(b)
            adj[b].add(a)
        for u in nbrs:
            heapq.heappush(heap, (len(adj[u]), u))
    return EliminationOrdering.from_sequence(seq)


def symbolic_factorize(pattern, ordering):
    """Fill pattern of Cholesky elimination under the no-cancellation rule.

    Returns the filled pattern in the permuted labels; its graph is
    chordal with (0..n-1) a perfect elimination ordering.  Column v of
    the fill is column v of the permuted pattern joined with every column
    whose lowest row is v, less v itself (the elimination tree).
    """
    n = pattern.n
    pat = pattern.permuted(ordering)
    rows, ptr = pat.rows.tolist(), pat.col_ptr.tolist()
    higher = [set(rows[ptr[v]:ptr[v + 1]]) for v in range(n)]
    for v in range(n):
        if higher[v]:
            parent = min(higher[v])
            higher[parent] |= higher[v]
            higher[parent].discard(parent)
    return SparseSymPattern(n, [(i, v) for v, h in enumerate(higher) for i in h])


def cholesky_factorize(matrix):
    """Sparse Cholesky M = L L^T on M's own (elimination-closed) pattern.

    Multifrontal, over the fronts of the pattern's ``clique_tree``,
    children first.  A front gathers the columns S' of M on its rows C'
    and adds its children's update matrices; one ``np.linalg.cholesky``
    of its S' x S' block gives L there, one triangular solve gives L on
    U' x S', and the update -L_U'S' L_U'S'^T goes to the parent.  The
    blocks are scattered onto the pattern.  Raises NotPositiveDefinite
    when a pivot is not above PIVOT_RTOL times the largest input
    diagonal, and ValueError unless the pattern is elimination-closed.

    The pivot j that NotPositiveDefinite reports has an LDL^T pivot
    d_j <= PIVOT_RTOL * max(max_i M_ii, 0), and every descendant of j in
    the elimination tree has d above that.  d_j is a Schur complement of
    M on j and its descendants, so it is the pivot j of the dense
    unpivoted LDL^T of M in the order 0..n-1 (which may fail earlier, at
    a pivot outside j's subtree).
    """
    pat = matrix.pattern
    tree = pat.clique_tree
    n = pat.n
    tol = PIVOT_RTOL * max(float(matrix.diag.max()), 0.0) if n else 0.0
    buf = np.append(matrix.values, 0.0)[tree.gather]
    fronts = tree.fronts
    acc = [None] * len(fronts)          # each front's sum of its children's updates
    for f, (cols, seps, lo, parent, upos) in enumerate(fronts):
        s = len(cols)
        k = s + len(seps)
        blk = buf[lo:lo + k * s].reshape(k, s)
        sub = acc[f]
        if sub is not None:
            blk += sub[:, :s]
        low = _passing_factor(blk[:s], tol)
        if low is None:
            raise NotPositiveDefinite(cols[_failing_pivot(blk[:s], tol)])
        blk[:s] = low
        if k > s:
            blk[s:] = np.linalg.solve(low, blk[s:].T).T
            upd = -(blk[s:] @ blk[s:].T)
            if sub is not None:
                upd += sub[s:, s:]
            if acc[parent] is None:
                kp = len(fronts[parent].cols) + len(fronts[parent].seps)
                acc[parent] = np.zeros((kp, kp))
            acc[parent][np.ix_(upos, upos)] += upd
        acc[f] = None
    values = buf[tree.scatter]
    return CholeskyFactor(pat, values, 2.0 * float(np.sum(np.log(values[:n]))))


def _passing_factor(a, tol):
    """Lower Cholesky factor of the square ``a`` (its lower triangle), or
    None unless every pivot is above tol."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return low if np.min(np.diagonal(low)) ** 2 > tol else None


def _failing_pivot(a, tol):
    """Position of the first pivot <= tol of the unpivoted LDL^T of the
    square ``a`` (its lower triangle), which must have one: bisection over
    the leading blocks that ``_passing_factor`` passes."""
    good, bad = 0, len(a)               # leading block sizes that pass and fail
    while bad - good > 1:
        mid = (good + bad) // 2
        if _passing_factor(a[:mid, :mid], tol) is None:
            bad = mid
        else:
            good = mid
    return good


def inner_product(a, b):
    """Frobenius inner product sum_ij A_ij B_ij (off-diagonals count twice)
    of two matrices on one pattern; ValueError on different patterns."""
    if a.pattern is not b.pattern and a.pattern != b.pattern:
        raise ValueError("matrices lie on different patterns")
    return float(a.diag @ b.diag) + 2.0 * float(a.offdiag @ b.offdiag)
