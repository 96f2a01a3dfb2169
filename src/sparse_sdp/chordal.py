"""Chordal-graph machinery: maximal cliques in running-intersection order,
the clique plan that both halves of the solver read, and the merged
clique tree of the factor and inverse kernels.

Everything here assumes patterns whose natural order (0..n-1) is meant to
be a perfect elimination ordering (the output of symbolic factorization
already is).  The cliques and their order come from the elimination
tree, as in Vandenberghe & Andersen, *Chordal Graphs and Semidefinite
Optimization* (2015), section 4: with higher(v) the neighbours of v above
v, the parent of v is the lowest vertex of higher(v).  A ``CliquePlan``
says where each clique block C_r x C_r sits in the [diag | offdiag]
storage of a matrix on the pattern, grouped by clique size and looked
up by one ``slots`` call per size, so a sweep over the cliques is one
batched numpy call per size: the completion of the primal partial
matrix reads it, and so does the dual residual's L L^T.

A ``CliqueTree`` merges the same cliques into the dense fronts that the
factor and inverse kernels run on, one Python step per front.
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

    n: int
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
        return CliqueSequence(n=0)
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
        n=n,
        cliques=cliques,
        residuals=np.split(flat[in_residual], residual_ends),
        separators=np.split(sep, np.cumsum(np.subtract(sizes, residual_sizes))[:-1]))


class CliquePlan:
    """Where the clique blocks of a matrix on ``pattern`` sit in its
    ``values`` = [diag | offdiag], grouped by clique size.

    Built from a ``CliqueSequence`` ``cliques`` on ``pattern``.  Block r
    is gathered separator first: U_r, then S_r, each in descending
    labels, so its leading |U_r| block is X_{U_r,U_r}.  ``groups`` holds
    one ``(members, gather, residual)`` per clique size k, by increasing
    k: the indices r of the cliques of that size (increasing), the
    (N, k, k) slots of their blocks and the (N, k) mask of the S_r
    positions.  A block's place in the groups is its stack position;
    ``scatter`` lists the slots of the blocks' upper triangles in stack
    order.  ``factor_masks`` picks from each stack the entries on and
    left of the diagonal in the S_r rows: row j holds column j of a
    lower factor on the pattern, whose rows lie in C_r for the cliques
    of ``maximal_cliques``.  ``factor_slots`` lists their slots in stack
    order; it is None unless every S_r lies below its U_r, which
    ``maximal_cliques`` always gives.
    """

    def __init__(self, cliques, pattern):
        self.cliques = cliques
        self.pattern = pattern
        nsep = np.array([len(u) for u in cliques.separators], dtype=np.int64)
        sizes = nsep + [len(s) for s in cliques.residuals]
        # S_0, U_0, S_1, U_1, ...; block r is its run ending at end[r], reversed
        flat = np.concatenate([x for pair in zip(cliques.residuals, cliques.separators)
                               for x in pair])
        end = np.cumsum(sizes)
        self.groups, self.factor_masks, tri_slots = [], [], []
        for k in np.unique(sizes).tolist():
            members = np.flatnonzero(sizes == k)
            verts = flat[end[members, None] - 1 - np.arange(k)]
            gather = pattern.slots(verts[:, :, None], verts[:, None, :])
            residual = np.arange(k) >= nsep[members, None]
            self.groups.append((members, gather, residual))
            self.factor_masks.append(residual[:, :, None] & np.tri(k, dtype=bool))
            tri_slots.append(gather[_upper(k)].ravel())
        self.scatter = np.concatenate(tri_slots)
        first_u = (end - nsep)[nsep > 0]          # where U_r starts, right after S_r
        below = np.all(flat[first_u - 1] < flat[first_u])
        self.factor_slots = np.concatenate(
            [gather[mask] for (_, gather, _), mask in zip(self.groups, self.factor_masks)]
        ) if below else None

    def gram_sum(self, stacks):
        """The sum of B_r^T B_r over the cliques, on the pattern, from
        ``stacks[g]``, the (N, k, k) B_r of size group g in block order."""
        parts = [(np.swapaxes(b, 1, 2) @ b)[_upper(b.shape[1])].ravel() for b in stacks]
        pat = self.pattern
        acc = np.bincount(self.scatter, weights=np.concatenate(parts),
                          minlength=pat.n + pat.nnz)
        return SparseSymMatrix(pat, acc, check=False)

    def factor_product(self, factor):
        """L L^T on the pattern for a lower ``factor`` L on it: the
        ``gram_sum`` of L's columns S_r, gathered by ``factor_masks``."""
        return self.gram_sum([np.where(mask, factor.values[gather], 0.0)
                              for (_, gather, _), mask in zip(self.groups, self.factor_masks)])


class Front(NamedTuple):
    """One dense front of a ``CliqueTree``: the columns ``cols`` = S' of
    the factor and the separator ``seps`` = U', each ascending, so the
    front's vertices C' = S' then U' ascend too.  Its k x s block (rows
    C', columns S') starts at ``lo`` in the tree's flat buffer; ``parent``
    is the parent front (-1 at a root) and ``upos`` the positions of U'
    in the parent's C'."""

    cols: np.ndarray
    seps: np.ndarray
    lo: int
    parent: int
    upos: np.ndarray


class CliqueTree:
    """The clique tree of an elimination-closed pattern, with small
    cliques merged, as the dense fronts of the block kernels.

    The cliques are those of ``maximal_cliques``, split by ``rip_order``.
    In that order (every child before its parent) a child is merged into
    its parent while |S_child| + |C_parent| <= MERGE_SIZE; the merged
    clique is C_parent with S_child added to its residual.  Merging only
    changes the fronts' shapes: column j of a factor on the pattern has
    its rows in the C' of the front holding j, and it is 0 on the rows
    the merge added (the pattern is elimination-closed).  ``fronts``
    lists the ``Front``s, every child before its parent.  ``gather``
    reads the fronts' k x s blocks, row by row, from [diag | offdiag]
    with one zero slot n + nnz appended: the entries of C' x S' on and
    below the diagonal that lie on the pattern, and the zero slot for
    the rest.  ``scatter`` is its inverse on the pattern, the buffer
    position of each slot.  Raises ValueError unless the pattern is
    elimination-closed.
    """

    def __init__(self, pattern):
        n = pattern.n
        try:
            seq = rip_order(maximal_cliques(pattern), n=n)
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
        self.fronts, gather, lo = [], [np.zeros(0, dtype=np.int64)], 0
        for r, c in zip(keep, verts):
            u = seq.separators[r]
            k, s = len(c), len(c) - len(u)
            p = front_of[into[parent[r]]] if len(u) else -1
            upos = np.searchsorted(verts[p], u) if len(u) else u
            self.fronts.append(Front(c[:s], u, lo, p, upos))
            slots = pattern.slots(c[:, None], c[:s], missing=pad)
            gather.append(np.where(np.tri(k, s, dtype=bool), slots, pad).ravel())
            lo += k * s
        self.gather = np.concatenate(gather)
        self.scatter = np.empty(pad, dtype=np.int64)
        on = self.gather < pad
        self.scatter[self.gather[on]] = np.flatnonzero(on)
        self.gather.flags.writeable = self.scatter.flags.writeable = False


@lru_cache(maxsize=None)
def _upper(k):
    """Index of the upper triangles of a stack of k x k blocks (shared
    between callers, so read-only)."""
    rows, cols = np.triu_indices(k)
    rows.flags.writeable = cols.flags.writeable = False
    return slice(None), rows, cols
