"""Symmetric sparse storage, fill-reducing ordering, and sparse Cholesky.

Patterns and matrices keep only the strict lower triangle plus the
diagonal, compressed-column style.  All indices are 0-based.

``cholesky_factorize`` is multifrontal, on the dense fronts of the
pattern's merged ``clique_tree`` (Vandenberghe & Andersen, *Chordal
Graphs and Semidefinite Optimization*, 2015, section 9), as are the
inverse and Hessian-product kernels in ``logdet``.  Each front is
factored bordered by identities, written into a copy of the template
``bordered``, so the one Cholesky call that gives the factor on the
front also gives the inverse of its diagonal block.  A factor is its
pattern and the tree's flat buffer of its fronts (``CholeskyFactor.blocks``);
``cholesky_factorize`` also hands it those inverses (``front_inverses``).
The completion sweep borders its clique blocks the same way.
"""

from __future__ import annotations

import heapq
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import NotPositiveDefinite

PIVOT_RTOL = 1e-12  # pivot <= PIVOT_RTOL * max input diagonal fails

# beta, the diagonal of the identity borders: the Cholesky factor of the
# SPD [[R, I], [I, beta I]] is [[L, 0], [L^-T, L_2]] with L_2 L_2^T =
# beta I - R^-1, so one call gives L and L^-1 whenever ||R^-1|| < beta.
# ``cholesky_factorize`` and ``completion.completion_factors`` state why
# that bound never decides a failure that the plain Cholesky of R would
# not.
BORDER = 2.0 ** 400


@lru_cache(maxsize=None)
def bordered(k):
    """The 2k x 2k template [[0, 0], [I, BORDER I]] of a bordered k x k
    block, whose leading block the caller fills in a copy (shared
    between callers, so read-only)."""
    out = np.zeros((2 * k, 2 * k))
    out[k:, :k] = np.eye(k)
    out[k:, k:] = BORDER * np.eye(k)
    out.flags.writeable = False
    return out


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
        """``edges``: an (E, 2) array of integral vertex pairs, either
        orientation, duplicates allowed."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        ends = np.asarray(edges)
        if ends.dtype.kind == "f" and ends.size:
            whole = np.isfinite(ends) & (np.trunc(ends) == ends)
            if not whole.all():
                raise ValueError(f"edge end {ends[~whole][0]} is not an integer")
        ends = ends.astype(np.int64, copy=False)
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
    def cliques(self):
        """The maximal cliques in running-intersection order, with their
        residuals and separators (a ``chordal.CliqueSequence``); raises
        NotChordal unless (0..n-1) is a perfect elimination ordering."""
        from .chordal import maximal_cliques, rip_order     # chordal imports this module
        return rip_order(maximal_cliques(self), n=self.n)

    @cached_property
    def clique_plan(self):
        """The ``chordal.CliquePlan`` of ``cliques`` for the batched clique
        sweeps; raises NotChordal as ``cliques`` does."""
        from .chordal import CliquePlan
        return CliquePlan(self)

    @cached_property
    def clique_tree(self):
        """The merged clique tree of ``cliques`` whose dense fronts every
        factor and inverse kernel runs on (``chordal.CliqueTree``); raises
        ValueError unless the pattern is elimination-closed."""
        from .chordal import CliqueTree
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

    ``blocks`` is the flat buffer of the pattern's ``clique_tree``, its
    fronts' k x s blocks laid out by the tree's ``gather``, and ``fronts``
    views it front by front; the entry in slot j of [diag | offdiag] is
    ``blocks[clique_tree.scatter[j]]``.  The diagonal holds the actual
    (positive) pivot square roots, and ``logdet`` is 2*sum(log diag).
    ``front_inverses`` lists L_S'S'^-1 per front, in the tree's order:
    ``cholesky_factorize`` hands over the ones its bordered fronts give,
    and any other factor inverts its fronts once, on first read.
    ``chordal.CliquePlan.factor_product`` forms L L^T on the pattern.
    """

    def __init__(self, pattern, blocks):
        self.pattern = pattern
        self.blocks = blocks

    @property
    def n(self):
        return self.pattern.n

    @cached_property
    def fronts(self):
        """Each front's k x s block, a view of ``blocks``."""
        return self.pattern.clique_tree.split(self.blocks)

    @cached_property
    def front_inverses(self):
        """L_S'S'^-1 per front, inverted from the factor's fronts."""
        return [np.linalg.inv(front[:front.shape[1]]) for front in self.fronts]

    @cached_property
    def logdet(self):
        """ln det L L^T: twice the sum of the log pivots, in label order."""
        return 2.0 * float(np.log(self.blocks[self.pattern.clique_tree.scatter[:self.n]]).sum())

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
    children first.  The fronts' blocks are gathered by the tree's
    ``gather`` into its flat buffer, and a front adds its children's
    update matrices to its block, which gives its k x s block F; with
    beta = BORDER, one
    ``np.linalg.cholesky`` of the S' x S' block written into a copy of
    ``bordered(s)`` gives

        [[F_S'S', .     ],  =  [[L_S'S',     0  ],  (.)^T,
         [I,      beta I]]      [L_S'S'^-T,  L_2]]

    so L_S'S' and L_S'S'^-1 (kept as ``front_inverses``) come from the
    same call, L_U'S' = F_U'S' L_S'S'^-T is one product, and the update
    -L_U'S' L_U'S'^T goes to the parent.  Each front's L overwrites its
    F, and the factor keeps that buffer and its views, ``blocks`` and
    ``fronts``.  Raises NotPositiveDefinite when a squared pivot of L_S'S'
    is not above PIVOT_RTOL times the largest input diagonal, and
    ValueError unless the pattern is elimination-closed.

    The border's trailing block is L_2 L_2^T = beta I - F_S'S'^-1, so it
    passes while ||F_S'S'^-1|| < beta = 2^400, about 2.6e120.  F_S'S' is
    a Schur complement of a principal block of M, so for a positive
    definite M, ||F_S'S'^-1|| <= 1 / lambda_min(M): the border can fail
    only when lambda_min(M) < 2^-400, about 3.9e-121, past where any
    such M is numerically singular.  Within that bound the factorization
    fails where the plain Cholesky of each front with the same pivot
    test does, up to the rounding of the update matrices.
    """
    tree = matrix.pattern.clique_tree
    tol = PIVOT_RTOL * float(matrix.diag.max(initial=0.0))
    blocks = np.append(matrix.values, 0.0)[tree.gather]     # F, then L
    fronts = tree.split(blocks)
    acc = [None] * len(fronts)          # each front's sum of its children's updates, raveled
    inverses = []
    for f, ((_, _, parent, uflat), front) in enumerate(zip(tree.fronts, fronts)):
        k, s = front.shape
        blk = bordered(s).copy()
        blk[:s, :s] = front[:s]
        sub = acc[f]
        if sub is not None:
            sub = sub.reshape(k, k)
            blk[:s, :s] += sub[:s, :s]
            front[s:] += sub[s:, :s]
        try:
            low = np.linalg.cholesky(blk)
            passes = low.diagonal()[:s].min() ** 2 > tol
        except np.linalg.LinAlgError:
            passes = False
        if not passes:
            raise NotPositiveDefinite("the matrix is not numerically positive definite")
        front[:s] = low[:s, :s]
        inverses.append(low[s:, :s].T.copy())
        if k > s:
            off = front[s:] = front[s:] @ low[s:, :s]     # L_U'S' = F_U'S' L_S'S'^-T
            upd = -(off @ off.T)
            if sub is not None:
                upd += sub[s:, s:]
            if acc[parent] is None:
                acc[parent] = np.zeros(len(fronts[parent]) ** 2)
            acc[parent][uflat] += upd.ravel()
        acc[f] = None
    factor = CholeskyFactor(matrix.pattern, blocks)
    factor.fronts, factor.front_inverses = fronts, inverses
    return factor


def inner_product(a, b):
    """Frobenius inner product sum_ij A_ij B_ij (off-diagonals count twice)
    of two matrices on one pattern; ValueError on different patterns."""
    if a.pattern is not b.pattern and a.pattern != b.pattern:
        raise ValueError("matrices lie on different patterns")
    return float(a.diag @ b.diag) + 2.0 * float(a.offdiag @ b.offdiag)
