"""Symmetric sparse storage, fill-reducing ordering, and sparse Cholesky.

Patterns and matrices keep only the strict lower triangle plus the
diagonal, compressed-column style.  All indices are 0-based.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import NotPositiveDefinite

PIVOT_RTOL = 1e-12  # pivot <= PIVOT_RTOL * max input diagonal fails


class SparseSymPattern:
    """Sparsity pattern of a symmetric matrix.

    Edges are unordered pairs {i, j}, i != j; the diagonal is implicit and
    always present.  Column j stores the rows i > j in ascending order, so
    ``column_rows(j)`` is exactly the higher-numbered neighborhood of j
    when (0..n-1) is taken as an elimination order.
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

    def edge_index(self, i, j):
        """Storage slot of edge {i, j}; raises KeyError if absent."""
        if i < j:
            i, j = j, i
        return self._index[(i, j)]

    def has_edge(self, i, j):
        if i < j:
            i, j = j, i
        return (i, j) in self._index

    def edges(self):
        """Iterate (row, col, slot) with row > col."""
        for (i, j), k in self._index.items():
            yield i, j, k

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

    def is_subset_of(self, other):
        return self.n == other.n and all(key in other._index for key in self._index)

    def union(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SparseSymPattern(self.n, list(self._index) + list(other._index))

    def permuted(self, ordering):
        perm = ordering.perm
        return SparseSymPattern(self.n, [(perm[i], perm[j]) for (i, j) in self._index])

    def to_dense_mask(self):
        mask = np.eye(self.n, dtype=bool)
        for (i, j) in self._index:
            mask[i, j] = mask[j, i] = True
        return mask

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

    ``diag`` holds the n diagonal values, ``offdiag`` one value per pattern
    edge (in the pattern's storage order).  Entries off the pattern are
    zero by convention, except where the completion routines read the
    matrix as a partial matrix and leave them unspecified.
    """

    def __init__(self, pattern, diag, offdiag, check=True):
        self.pattern = pattern
        self.diag = np.asarray(diag, dtype=float)
        self.offdiag = np.asarray(offdiag, dtype=float)
        if check:
            if self.diag.shape != (pattern.n,):
                raise ValueError("diag length mismatch")
            if self.offdiag.shape != (pattern.nnz,):
                raise ValueError("offdiag length mismatch")
            if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
                raise ValueError("entries must be finite")

    @property
    def n(self):
        return self.pattern.n

    @classmethod
    def zeros(cls, pattern):
        return cls(pattern, np.zeros(pattern.n), np.zeros(pattern.nnz), check=False)

    @classmethod
    def identity(cls, pattern):
        return cls(pattern, np.ones(pattern.n), np.zeros(pattern.nnz), check=False)

    @classmethod
    def from_dense(cls, pattern, dense):
        dense = np.asarray(dense, dtype=float)
        off = np.empty(pattern.nnz)
        for i, j, k in pattern.edges():
            off[k] = dense[i, j]
        return cls(pattern, np.diagonal(dense).copy(), off)

    def to_dense(self):
        out = np.diag(self.diag)
        for i, j, k in self.pattern.edges():
            out[i, j] = out[j, i] = self.offdiag[k]
        return out

    def copy(self):
        return SparseSymMatrix(self.pattern, self.diag.copy(), self.offdiag.copy(), check=False)

    def entry(self, i, j):
        if i == j:
            return self.diag[i]
        if self.pattern.has_edge(i, j):
            return self.offdiag[self.pattern.edge_index(i, j)]
        return 0.0

    def block(self, verts):
        """Dense submatrix over ``verts`` (all pairs must lie on the pattern)."""
        k = len(verts)
        out = np.empty((k, k))
        pat = self.pattern
        off = self.offdiag
        for a in range(k):
            va = verts[a]
            out[a, a] = self.diag[va]
            for b in range(a + 1, k):
                v = off[pat.edge_index(va, verts[b])]
                out[a, b] = out[b, a] = v
        return out

    def embedded(self, superpattern):
        """Copy onto a larger pattern (zeros where this matrix is absent)."""
        if not self.pattern.is_subset_of(superpattern):
            raise ValueError("pattern is not a subset of the target pattern")
        off = np.zeros(superpattern.nnz)
        for i, j, k in self.pattern.edges():
            off[superpattern.edge_index(i, j)] = self.offdiag[k]
        return SparseSymMatrix(superpattern, self.diag.copy(), off, check=False)

    def permuted(self, ordering):
        perm = ordering.perm
        newpat = self.pattern.permuted(ordering)
        diag = np.empty(self.n)
        diag[perm] = self.diag
        off = np.empty(self.pattern.nnz)
        for i, j, k in self.pattern.edges():
            off[newpat.edge_index(perm[i], perm[j])] = self.offdiag[k]
        return SparseSymMatrix(newpat, diag, off, check=False)

    def scaled(self, alpha):
        return SparseSymMatrix(self.pattern, alpha * self.diag, alpha * self.offdiag, check=False)

    def __add__(self, other):
        self._require_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.diag + other.diag,
                               self.offdiag + other.offdiag, check=False)

    def __sub__(self, other):
        self._require_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.diag - other.diag,
                               self.offdiag - other.offdiag, check=False)

    def _require_same_pattern(self, other):
        if self.pattern is not other.pattern and self.pattern != other.pattern:
            raise ValueError("patterns differ")

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
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_sequence(cls, seq):
        """Build from the elimination sequence (old labels in order)."""
        seq = np.asarray(seq, dtype=np.int64)
        perm = np.empty(len(seq), dtype=np.int64)
        perm[seq] = np.arange(len(seq), dtype=np.int64)
        return cls(perm)

    @property
    def sequence(self):
        return self.inverse

    def __eq__(self, other):
        if not isinstance(other, EliminationOrdering):
            return NotImplemented
        return np.array_equal(self.perm, other.perm)

    def __repr__(self):
        return f"EliminationOrdering({self.perm.tolist()})"


class CholeskyFactor:
    """Lower-triangular Cholesky factor on an elimination-closed pattern.

    The diagonal holds the actual (positive) pivot square roots;
    ``logdet`` caches 2*sum(log diag).
    """

    def __init__(self, pattern, diag, offdiag, logdet):
        self.pattern = pattern
        self.diag = np.asarray(diag, dtype=float)
        self.offdiag = np.asarray(offdiag, dtype=float)
        self.logdet = float(logdet)

    @property
    def n(self):
        return self.pattern.n

    def to_dense(self):
        out = np.diag(self.diag)
        for i, j, k in self.pattern.edges():
            out[i, j] = self.offdiag[k]
        return out

    def __repr__(self):
        return f"CholeskyFactor(n={self.n}, nnz={self.pattern.nnz})"


def min_degree_ordering(pattern):
    """Fill-reducing ordering by repeated minimum-degree elimination.

    Plain (non-multiple, non-approximate) minimum degree on the
    elimination graph; ties break toward the smallest original index so
    the result is deterministic.
    """
    n = pattern.n
    adj = [set(s) for s in pattern.adjacency()]
    alive = set(range(n))
    seq = []
    for _ in range(n):
        v = min(alive, key=lambda u: (len(adj[u]), u))
        seq.append(v)
        alive.remove(v)
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        for a, b in combinations(sorted(nbrs), 2):
            adj[a].add(b)
            adj[b].add(a)
        adj[v] = set()
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
    mdiag = matrix.diag.tolist()
    moff = matrix.offdiag.tolist()
    col_of = [0] * pat.nnz
    col_start = pat.col_ptr.tolist()
    for j in range(n):
        for k in range(col_start[j], col_start[j + 1]):
            col_of[k] = j

    maxdiag = max(mdiag) if n else 0.0
    tol = PIVOT_RTOL * max(maxdiag, 0.0)
    ldiag = [0.0] * n
    loff = [0.0] * pat.nnz
    work = [0.0] * n
    intarget = [False] * n
    logdet = 0.0
    for j in range(n):
        rows_j = cols[j]
        base = col_start[j]
        work[j] = mdiag[j]
        intarget[j] = True
        for t, i in enumerate(rows_j):
            work[i] = moff[base + t]
            intarget[i] = True
        for k in row_cols[j]:
            ljk = loff[eindex[(j, k)]]
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
                work[i] -= ljk * loff[kbase + t]
        pivot = work[j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        root = math.sqrt(pivot)
        ldiag[j] = root
        logdet += math.log(pivot)
        for t, i in enumerate(rows_j):
            loff[base + t] = work[i] / root
            intarget[i] = False
        intarget[j] = False
    return CholeskyFactor(pat, ldiag, loff, logdet)


def inner_product(a, b):
    """Frobenius inner product sum_ij A_ij B_ij (off-diagonals count twice)."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    d = float(a.diag @ b.diag)
    if a.pattern is b.pattern or a.pattern == b.pattern:
        return d + 2.0 * float(a.offdiag @ b.offdiag)
    small, big = (a, b) if a.pattern.nnz <= b.pattern.nnz else (b, a)
    bigpat = big.pattern
    s = 0.0
    for i, j, k in small.pattern.edges():
        if bigpat.has_edge(i, j):
            s += small.offdiag[k] * big.offdiag[bigpat.edge_index(i, j)]
    return d + 2.0 * s
