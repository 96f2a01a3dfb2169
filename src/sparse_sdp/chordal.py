"""Chordal-graph machinery: maximal cliques in running-intersection order,
the clique plan of the primal completion and the dual residual, and the
merged clique tree of the factor and inverse kernels.

Everything here assumes patterns whose natural order (0..n-1) is meant to
be a perfect elimination ordering (the output of symbolic factorization
already is).  The cliques and their order come from the elimination
tree, as in Vandenberghe & Andersen, *Chordal Graphs and Semidefinite
Optimization* (2015), section 4: with higher(v) the neighbours of v above
v, the parent of v is the lowest vertex of higher(v).  A pattern caches
its cliques and, on first read, the two structures built from them.
Its ``clique_tree`` (a ``CliqueTree``) merges the cliques into the dense
fronts that the factor and inverse kernels run on, laid out in one flat
buffer, the layout of every ``CholeskyFactor``.  Its ``clique_plan`` (a
``CliquePlan``) says where each clique block C_r x C_r sits in the
[diag | offdiag] storage of a matrix on the pattern, padded with an
identity into a few size buckets (the slots that ``padded`` appends),
and where the blocks' columns S_r of a factor sit in the tree's buffer,
so a sweep over the cliques is one batched numpy call per bucket: the
completion of the primal partial matrix factors each bucket's blocks
bordered by identities (in copies of ``sparsemat.bordered``), which
gives their factors and the factors' inverses in one call, and the dual
residual's L L^T reads the factor's columns S_r from its buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NotChordal, RipFailure
from .sparsemat import SparseSymMatrix

# t: a child clique joins its parent while |S_child| + |C_parent| <= t.  At
# 48 the benchmark patterns (n = 35 to 60) are one or two fronts, and a
# merged front's dense products stay below 64 x 64 x 64, where OpenBLAS
# starts threads.
MERGE_SIZE = 48

# The cost of one batched numpy call (Cholesky, inverse or product) over a
# stack of clique blocks, in units of the k^3 work per k x k block: the
# clique plan pads its blocks into the buckets that minimize the number
# of calls times this plus the padded blocks' sum of k^3.
BUCKET_CALL = 20_000


def maximal_cliques(pattern):
    """Maximal cliques of a chordal, elimination-ordered pattern, RIP-ordered.

    (0..n-1) is a perfect elimination ordering iff higher(v) minus parent(v)
    lies in higher(parent(v)) for every v (Tarjan & Yannakakis); otherwise
    NotChordal is raised.  A vertex v whose child w has higher(w) =
    {v} ∪ higher(v), that is |higher(w)| = |higher(v)| + 1, continues w's
    supernode; every other vertex starts one, and {first} ∪ higher(first)
    is a maximal clique.  The clique is its supernode plus higher(last),
    where last is the supernode's highest vertex.  Cliques are returned as
    sorted lists, ordered by that last vertex: the supernode holding
    parent(last) comes later, and its clique contains higher(last), so
    the order has the running intersection property.
    """
    n = pattern.n
    ptr, rows = pattern.col_ptr, pattern.rows
    size = np.diff(ptr)
    parent = np.full(n, -1, dtype=np.int64)
    has = size > 0
    parent[has] = rows[ptr[:-1][has]]

    # each edge (i, j), i > j, i != parent(j), needs the edge (i, parent(j))
    up = parent[pattern.slot_ends[1][n:]]
    try:
        pattern.slots(rows[rows != up], up[rows != up])
    except KeyError:
        raise NotChordal("(0..n-1) is not a perfect elimination ordering") from None

    # prev[v]: a child w with higher(w) = {v} ∪ higher(v), whose supernode
    # v continues (any such child will do; the last one is taken)
    child = np.flatnonzero(has)
    prev = [-1] * n
    for w in child[size[child] == size[parent[child]] + 1].tolist():
        prev[int(parent[w])] = w
    first = list(range(n))
    last = list(range(n))
    for v in range(n):
        if prev[v] >= 0:
            first[v] = first[prev[v]]
            last[first[v]] = v
    reps = sorted((v for v in range(n) if prev[v] < 0), key=last.__getitem__)
    return [[v, *pattern.column_rows(v).tolist()] for v in reps]


@dataclass
class CliqueSequence:
    """Maximal cliques in running-intersection order with the S/U split.

    ``cliques[r]`` = C_r (sorted), ``separators[r]`` = U_r = C_r
    intersected with the union of all later cliques, ``residuals[r]`` =
    S_r = C_r minus U_r.
    """

    cliques: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    separators: list = field(default_factory=list)

    def __len__(self):
        return len(self.cliques)


def rip_order(cliques, n=None):
    """Split cliques given in running-intersection order into S_r and U_r.

    Orders nothing: it verifies that the given order has the running
    intersection property and raises RipFailure if not.  Every residual
    must be nonempty, the residuals must cover 0..n-1, and each separator
    must lie in a later clique.  The cliques holding one vertex form a
    subtree of a clique tree, rooted at the clique whose residual holds
    the vertex; so U_r lies in some later clique iff it lies in C_t for
    the lowest such root t over U_r.  That makes the check linear in the
    clique sizes.
    """
    cliques = [np.unique(np.asarray(c, dtype=np.int64)) for c in cliques]
    if not cliques:
        return CliqueSequence()
    sizes = [len(c) for c in cliques]
    flat = np.concatenate(cliques)
    if n is None:
        n = 1 + int(flat.max()) if len(flat) else 0
    if len(flat) and (flat.min() < 0 or flat.max() >= n):
        raise RipFailure(f"a clique vertex lies outside 0..{n - 1}")
    owner = np.searchsorted(np.cumsum(sizes), np.arange(len(flat)), side="right")
    home = np.full(n, -1, dtype=np.int64)       # the clique whose residual holds v
    np.maximum.at(home, flat, owner)
    if np.any(home < 0):
        raise RipFailure("cliques do not cover every vertex")
    in_residual = home[flat] == owner
    residual_sizes = np.bincount(owner[in_residual], minlength=len(cliques))
    if np.any(residual_sizes == 0):
        raise RipFailure(f"clique {int(np.argmin(residual_sizes))} has an empty residual")

    sep, sep_owner = flat[~in_residual], owner[~in_residual]
    target = np.full(len(cliques), len(cliques), dtype=np.int64)
    np.minimum.at(target, sep_owner, home[sep])
    keys, probe = owner * n + flat, target[sep_owner] * n + sep    # keys ascend
    if not np.array_equal(keys[np.minimum(keys.searchsorted(probe), len(keys) - 1)], probe):
        raise RipFailure("a separator lies in no later clique")

    residual_ends = np.cumsum(residual_sizes)[:-1]
    return CliqueSequence(
        cliques=cliques,
        residuals=np.split(flat[in_residual], residual_ends),
        separators=np.split(sep, np.cumsum(np.subtract(sizes, residual_sizes))[:-1]))


def padded(values):
    """[diag | offdiag] of a matrix on a pattern with the slots n + nnz
    and n + nnz + 1 appended, holding 0 and 1: the pads ``zero`` and
    ``one`` that the index maps of a ``CliquePlan`` read."""
    return np.concatenate((values, (0.0, 1.0)))


class CliquePlan:
    """Where the clique blocks of a matrix on ``pattern`` sit in its
    ``values`` = [diag | offdiag], padded into a few size buckets.

    Built from ``pattern.cliques``; read it as ``pattern.clique_plan``,
    which it holds no reference back to, so that a pattern and its plan
    are freed without the cycle collector.  Block r is gathered separator
    first: U_r, then S_r, each in descending labels, so its leading |U_r|
    block is X_{U_r,U_r}.  The blocks are grouped into the buckets that
    ``bucket_sizes`` picks, and a block of size k_r in a bucket of size k
    is padded to k x k after S_r: its pad diagonal reads the slot ``one``
    and every other pad entry the slot ``zero``, the two slots that
    ``padded`` appends to [diag | offdiag].  A padded block is
    blockdiag(R_r, I), whose Cholesky factor is blockdiag(L_r, I), so one
    batched call per bucket factors or multiplies all its blocks; the
    completion sweep borders them in copies of ``sparsemat.bordered(k)``.

    ``buckets`` holds one ``(gather, residual)`` per bucket, by increasing
    size k: the (N, k, k) slots of its blocks (in increasing r) and the
    (N, k) mask of the S_r positions, False at the pads.  A block's
    place in the buckets is its stack position.  ``pivots`` indexes the
    S_r positions in the concatenated diagonals of the stacks.  ``scatter``
    lists the slots of the blocks' upper triangles in stack order, with
    every pad entry sent to the dump slot ``zero``.  ``factor_masks``
    picks from each stack the entries on and left of the diagonal in the
    S_r rows: row j holds column j of a lower factor on the pattern, whose
    rows lie in C_r, because every S_r of ``maximal_cliques`` lies below
    its U_r.  ``factor_slots[b]`` lists, in stack order, where bucket b's
    entries lie in a ``CholeskyFactor``'s ``blocks``.
    """

    def __init__(self, pattern):
        cliques = pattern.cliques
        nsep = np.array([len(u) for u in cliques.separators], dtype=np.int64)
        sizes = nsep + [len(s) for s in cliques.residuals]
        # S_0, U_0, S_1, U_1, ...; block r is its run ending at end[r], reversed
        flat = np.concatenate([x for pair in zip(cliques.residuals, cliques.separators)
                               for x in pair])
        end = np.cumsum(sizes)
        self.zero = pattern.n + pattern.nnz
        self.one = self.zero + 1
        tops = bucket_sizes(sizes)
        bucket = np.searchsorted(tops, sizes)
        self.buckets, self.factor_masks, self.factor_slots = [], [], []
        tri_slots, pivots = [], []
        for b, k in enumerate(tops):
            members = np.flatnonzero(bucket == b)
            size = sizes[members, None]
            pos = np.arange(k)
            real = pos < size
            # a pad looks up the block's last vertex, so that every lookup
            # lies on the pattern; the where below sends it to a constant slot
            verts = flat[end[members, None] - 1 - np.minimum(pos, size - 1)]
            gather = np.where(real[:, :, None] & real[:, None, :],
                              pattern.slots(verts[:, :, None], verts[:, None, :]),
                              np.where(np.eye(k, dtype=bool), self.one, self.zero))
            residual = real & (pos >= nsep[members, None])
            self.buckets.append((gather, residual))
            mask = residual[:, :, None] & np.tri(k, dtype=bool)
            self.factor_masks.append(mask)
            self.factor_slots.append(pattern.clique_tree.scatter[gather[mask]])
            tri_slots.append(np.minimum(gather[_upper(k)], self.zero).ravel())
            pivots.append(residual.ravel())
        self.scatter = np.concatenate(tri_slots)
        self.pivots = np.flatnonzero(np.concatenate(pivots))

    def gram_sum(self, pattern, stacks):
        """The sum of B_r^T B_r over the cliques, on the plan's ``pattern``,
        from ``stacks[b]``, the (N, k, k) B_r of bucket b in block order;
        each B_r must be 0 in its pad rows."""
        parts = [(np.swapaxes(b, 1, 2) @ b)[_upper(b.shape[1])].ravel() for b in stacks]
        acc = np.bincount(self.scatter, weights=np.concatenate(parts),
                          minlength=self.one)
        return SparseSymMatrix(pattern, acc[:self.zero], check=False)

    def factor_product(self, factor):
        """L L^T on the pattern for a lower ``factor`` L on it: the
        ``gram_sum`` of L's columns S_r, read from its ``blocks`` at
        ``factor_slots`` into the ``factor_masks``."""
        stacks = [np.zeros(mask.shape) for mask in self.factor_masks]
        for stack, mask, pos in zip(stacks, self.factor_masks, self.factor_slots):
            stack[mask] = factor.blocks[pos]
        return self.gram_sum(factor.pattern, stacks)


def bucket_sizes(sizes):
    """The sizes of the buckets that the clique blocks of ``sizes`` are
    padded into: the partition of the distinct sizes into runs, each
    padded to its largest size k_b, that minimizes the sum over buckets
    of BUCKET_CALL + N_b k_b^3, found by an exact dynamic program over the
    sorted distinct sizes.  Returned in increasing order."""
    ks, counts = np.unique(sizes, return_counts=True)
    ks, below = ks.tolist(), [0, *np.cumsum(counts).tolist()]
    best, cut = [0.0], [0]          # over the first j distinct sizes
    for j in range(1, len(ks) + 1):
        cost, i = min((best[i] + BUCKET_CALL + (below[j] - below[i]) * ks[j - 1] ** 3, i)
                      for i in range(j))
        best.append(cost)
        cut.append(i)
    tops, j = [], len(ks)
    while j:
        tops.append(ks[j - 1])
        j = cut[j]
    return tops[::-1]


class Front(NamedTuple):
    """One dense front of a ``CliqueTree``: the columns ``cols`` = S' of
    the factor and the separator ``seps`` = U', each ascending, so the
    front's vertices C' = S' then U' ascend too.  ``parent`` is the
    parent front (-1 at a root) and ``uflat`` the positions of U' x U' in
    the parent's C' x C' block, raveled."""

    cols: np.ndarray
    seps: np.ndarray
    parent: int
    uflat: np.ndarray


class CliqueTree:
    """The clique tree of an elimination-closed pattern, with small
    cliques merged, as the dense fronts of the block kernels.

    The cliques are ``pattern.cliques``, split by ``rip_order``.
    In that order (every child before its parent) a child is merged into
    its parent while |S_child| + |C_parent| <= MERGE_SIZE; the merged
    clique is C_parent with S_child added to its residual.  Merging only
    changes the fronts' shapes: column j of a factor on the pattern has
    its rows in the C' of the front holding j, and it is 0 on the rows
    the merge added (the pattern is elimination-closed).  ``fronts``
    lists the ``Front``s, every child before its parent.  The tree's flat
    buffer holds their k x s blocks (rows C', columns S') row by row, in
    that order, and ``split`` views it front by front.  ``gather`` reads
    the buffer from [diag | offdiag] with one zero slot n + nnz appended:
    the entries of C' x S' on and below the diagonal that lie on the
    pattern, and the zero slot for the rest.  ``scatter`` is its inverse
    on the pattern, the buffer position of each slot.  Raises ValueError
    unless the pattern is elimination-closed.
    """

    def __init__(self, pattern):
        n = pattern.n
        try:
            seq = pattern.cliques
        except NotChordal:
            raise ValueError("pattern is not elimination-closed") from None
        home = np.empty(n, dtype=np.int64)      # the clique whose residual holds v
        for r, s in enumerate(seq.residuals):
            home[s] = r
        parent = [int(home[u[0]]) if len(u) else -1 for u in seq.separators]
        size = [len(c) for c in seq.cliques]
        cols = [[s] for s in seq.residuals]
        into = list(range(len(seq)))
        for r, p in enumerate(parent):
            ns = size[r] - len(seq.separators[r])
            if p >= 0 and ns + size[p] <= MERGE_SIZE:
                into[r] = p
                size[p] += ns
                cols[p] += cols[r]
        for r in reversed(range(len(seq))):     # a parent comes after its child
            into[r] = into[into[r]]
        keep = [r for r in range(len(seq)) if into[r] == r]
        front_of = {r: f for f, r in enumerate(keep)}

        verts = [np.concatenate((np.sort(np.concatenate(cols[r])), seq.separators[r]))
                 for r in keep]
        pad = n + pattern.nnz
        self.fronts, gather = [], [np.zeros(0, dtype=np.int64)]
        for r, c in zip(keep, verts):
            u = seq.separators[r]
            k, s = len(c), len(c) - len(u)
            p = front_of[into[parent[r]]] if len(u) else -1
            upos = np.searchsorted(verts[p], u) if len(u) else u
            uflat = (upos[:, None] * len(verts[p]) + upos).ravel()
            self.fronts.append(Front(c[:s], u, p, uflat))
            slots = pattern.slots(c[:, None], c[:s], missing=pad)
            gather.append(np.where(np.tri(k, s, dtype=bool), slots, pad).ravel())
        self._ends = np.cumsum([len(g) for g in gather]).tolist()
        self.gather = np.concatenate(gather)
        self.scatter = np.empty(pad, dtype=np.int64)
        on = self.gather < pad
        self.scatter[self.gather[on]] = np.flatnonzero(on)
        self.gather.flags.writeable = self.scatter.flags.writeable = False

    def split(self, buf):
        """Views of the fronts' k x s blocks in ``buf``, a flat buffer laid
        out as the tree's, in the order of ``fronts``."""
        return [buf[lo:hi].reshape(-1, len(f.cols))
                for f, lo, hi in zip(self.fronts, self._ends, self._ends[1:])]


@lru_cache(maxsize=None)
def _upper(k):
    """Index of the upper triangles of a stack of k x k blocks (shared
    between callers, so read-only)."""
    rows, cols = np.triu_indices(k)
    rows.flags.writeable = cols.flags.writeable = False
    return slice(None), rows, cols
