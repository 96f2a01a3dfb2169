"""Chordal-graph machinery: maximal cliques in running-intersection order,
and the clique plan that both halves of the solver read.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NotChordal, RipFailure
from .sparsemat import SparseSymMatrix


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


@lru_cache(maxsize=None)
def _upper(k):
    """Index of the upper triangles of a stack of k x k blocks (shared
    between callers, so read-only)."""
    rows, cols = np.triu_indices(k)
    rows.flags.writeable = cols.flags.writeable = False
    return slice(None), rows, cols
