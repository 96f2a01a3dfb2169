"""Symmetric sparse storage, fill-reducing ordering, and sparse Cholesky.

Patterns and matrices keep only the strict lower triangle plus the
diagonal, compressed-column style.  All indices are 0-based.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import NotPositiveDefinite

PIVOT_RTOL = 1e-12  # pivot <= PIVOT_RTOL * max input diagonal fails


class SparseSymPattern:
    """Sparsity pattern of a symmetric matrix.

    Edges are unordered pairs {i, j}, i != j; the diagonal is implicit and
    always present.  Column j stores the rows i > j in ascending order, so
    ``column_rows(j)`` is exactly the higher-numbered neighborhood of j
    when (0..n-1) is taken as an elimination order.  A matrix on the
    pattern stores its entries in ``values`` = [diag | offdiag], one slot
    per diagonal entry and per edge in storage order; ``slots`` and
    ``slot_ends`` are the one map between entries (i, j) and slots.
    """

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        cols = [[] for _ in range(n)]
        seen = set()
        for a, b in edges:
            a = int(a)
            b = int(b)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            i, j = (a, b) if a > b else (b, a)
            if (i, j) in seen:
                continue
            seen.add((i, j))
            cols[j].append(i)
        ptr = [0]
        rows = []
        index = {}
        for j in range(n):
            cols[j].sort()
            for i in cols[j]:
                index[(i, j)] = len(rows)
                rows.append(i)
            ptr.append(len(rows))
        self.col_ptr = np.asarray(ptr, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self._index = index
        self._cols = [tuple(c) for c in cols]
        self._adj = None
        self._row_cols = None

    @property
    def nnz(self):
        return len(self.rows)

    def column_rows(self, j):
        """Rows i > j present in column j (ascending)."""
        return self._cols[j]

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

    def slots(self, i, j):
        """Slots in [diag | offdiag] of the entries (i, j), elementwise over
        broadcast arrays, from either triangle.  Raises KeyError for an
        index outside 0..n-1 or an off-diagonal (i, j) off the pattern."""
        n = self.n
        row = np.asarray(np.maximum(i, j), dtype=np.int64)
        col = np.asarray(np.minimum(i, j), dtype=np.int64)
        probe = col * n + row       # negative, and so absent, when col < 0 <= row
        keys, order = self._slot_keys
        at = keys.searchsorted(probe)
        bad = (row >= n) | (keys[at] != probe)
        if bad.any():
            raise KeyError(f"({row[bad][0]}, {col[bad][0]}) is not an entry on 0..{n - 1}")
        return order[at]

    def adjacency(self):
        """Per-vertex neighbor sets (cached; patterns are immutable)."""
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for (i, j) in self._index:
                adj[i].add(j)
                adj[j].add(i)
            self._adj = adj
        return self._adj

    def row_columns(self):
        """For each row i, the columns k < i with an edge (i, k)."""
        if self._row_cols is None:
            rc = [[] for _ in range(self.n)]
            for j in range(self.n):
                for i in self._cols[j]:
                    rc[i].append(j)
            self._row_cols = [tuple(r) for r in rc]
        return self._row_cols

    def permuted(self, ordering):
        perm = ordering.perm
        return SparseSymPattern(self.n, [(perm[i], perm[j]) for (i, j) in self._index])

    def __eq__(self, other):
        if not isinstance(other, SparseSymPattern):
            return NotImplemented
        return self.n == other.n and self._index.keys() == other._index.keys()

    def __hash__(self):
        return hash((self.n, frozenset(self._index)))

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
    adj = [set(s) for s in pattern.adjacency()]
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
    chordal with (0..n-1) a perfect elimination ordering.
    """
    n = pattern.n
    perm = ordering.perm
    adj = [set() for _ in range(n)]
    for (i, j) in pattern._index:
        a, b = perm[i], perm[j]
        adj[a].add(b)
        adj[b].add(a)
    edges = []
    for v in range(n):
        hi = sorted(u for u in adj[v] if u > v)
        for t, a in enumerate(hi):
            edges.append((a, v))
            for b in hi[t + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
    return SparseSymPattern(n, edges)


def cholesky_factorize(matrix):
    """Sparse Cholesky M = L L^T on M's own (elimination-closed) pattern.

    Left-looking, column by column.  Raises NotPositiveDefinite(k) when
    pivot k is not strictly positive relative to the largest input
    diagonal, and ValueError if the pattern misses a fill-in slot.
    """
    pat = matrix.pattern
    n = pat.n
    cols = pat._cols
    row_cols = pat.row_columns()
    eindex = pat._index
    mval = matrix.values.tolist()
    col_start = (n + pat.col_ptr).tolist()   # column starts in [diag | offdiag]

    maxdiag = max(mval[:n]) if n else 0.0
    tol = PIVOT_RTOL * max(maxdiag, 0.0)
    lval = [0.0] * (n + pat.nnz)    # stored like mval, as CholeskyFactor keeps it
    work = [0.0] * n
    intarget = [False] * n
    logdet = 0.0
    for j in range(n):
        rows_j = cols[j]
        base = col_start[j]
        work[j] = mval[j]
        intarget[j] = True
        for t, i in enumerate(rows_j):
            work[i] = mval[base + t]
            intarget[i] = True
        for k in row_cols[j]:
            ljk = lval[n + eindex[(j, k)]]
            if ljk == 0.0:
                continue
            kbase = col_start[k]
            krows = cols[k]
            for t, i in enumerate(krows):
                if i < j:
                    continue
                if not intarget[i]:
                    raise ValueError(
                        f"pattern is not elimination-closed: missing fill slot ({i},{j})"
                    )
                work[i] -= ljk * lval[kbase + t]
        pivot = work[j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        root = math.sqrt(pivot)
        lval[j] = root
        logdet += math.log(pivot)
        for t, i in enumerate(rows_j):
            lval[base + t] = work[i] / root
            intarget[i] = False
        intarget[j] = False
    return CholeskyFactor(pat, lval, logdet)


def inner_product(a, b):
    """Frobenius inner product sum_ij A_ij B_ij (off-diagonals count twice)
    of two matrices on one pattern; ValueError on different patterns."""
    if a.pattern is not b.pattern and a.pattern != b.pattern:
        raise ValueError("matrices lie on different patterns")
    return float(a.diag @ b.diag) + 2.0 * float(a.offdiag @ b.offdiag)
