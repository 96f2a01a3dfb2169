"""Max-determinant positive definite completions of partial matrices.

A partial matrix is a ``SparseSymMatrix`` on a chordal, elimination-ordered
pattern read as specifying only its pattern entries (plus the diagonal);
the entries off the pattern are free, not zero.  Among all positive
definite completions the determinant-maximizing one is singled out by
having an inverse supported exactly on the pattern.  One sweep,
``completion_factors``, gathers each clique block once and factors each
clique and separator block once; the log-determinant, the inverse on the
pattern and the Gram vectors all read that sweep, so the completion is
never formed densely.  The sweep groups the blocks by size: the clique
blocks of one size form one (N, k, k) stack, as do the nonempty separator
blocks of one size, and each stack is gathered, factored and inverted by
one batched numpy call.  Per-block results are put back in the order
clique r, separator r, r = 0, 1, ... before they are summed, so each sum
is the clique-by-clique formula of Vandenberghe and Andersen (Chordal
Graphs and Semidefinite Optimization, 2015) with the same rounding.  Its
Hessian products X^ Z X^ come from X^ in full, which
``logdet.inverse_columns`` solves for on the factor of
``completion_inverse`` (``logdet.hess_from_columns``).
``logdet.hess_vec`` on that factor, with the partial matrix itself as
the selected inverse, gives the same entries within the factor's
storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chordal import CliqueSequence
from .errors import NotCompletable
from .sparsemat import SparseSymMatrix, SparseSymPattern


class _CliqueSlots:
    """Where the clique and separator blocks of a partial matrix on
    ``pattern`` sit in its ``values`` = [diag | offdiag], grouped by block
    size.

    ``cliques`` and ``separators`` list one ``(members, gather)`` pair per
    block size k, by increasing k: ``members`` are the indices r, in
    increasing order, of the cliques C_r (or the nonempty separators U_r)
    of that size, and ``gather`` of shape (len(members), k, k) holds the
    slot of every entry of their blocks.  Empty separators belong to no
    group.  A block's place in the size groups, cliques first, is its
    stack position; ``block_order`` and ``entry_order`` take per-block
    values and per-block upper-triangle entries from stack order to the
    order clique r, separator r, for r = 0, 1, ..., and ``scatter`` lists
    the slots of those upper-triangle entries in that order.
    """

    def __init__(self, cs, pattern):
        n = pattern.n
        self.pattern = pattern
        clique_idx, sep_idx = [], []
        for c, u in zip(cs.cliques, cs.separators):
            k = len(c)
            idx = np.empty((k, k), dtype=np.int64)
            for a in range(k):
                idx[a, a] = c[a]
                for b in range(a + 1, k):
                    idx[a, b] = idx[b, a] = n + pattern.edge_index(c[a], c[b])
            u_pos = np.flatnonzero(np.isin(c, u))   # U_r is sorted, like C_r
            clique_idx.append(idx)
            sep_idx.append(idx[np.ix_(u_pos, u_pos)] if len(u_pos) else None)
        self.cliques = _size_groups(clique_idx)
        self.separators = _size_groups(sep_idx)

        # Block r's key is 2r for its clique and 2r + 1 for its separator,
        # so sorting by key gives the order clique r, separator r, ...
        keyed = [(2 * m, g) for m, g in self.cliques] + \
                [(2 * m + 1, g) for m, g in self.separators]
        self.block_order = np.argsort(np.concatenate([key for key, _ in keyed]))
        tri_slots, entry_keys = [], []
        for key, gather in keyed:
            rows, cols = _upper(gather.shape[1])
            tri_slots.append(gather[:, rows, cols].ravel())
            entry_keys.append(np.repeat(key, len(rows)))
        self.entry_order = np.argsort(np.concatenate(entry_keys), kind="stable")
        self.scatter = np.concatenate(tri_slots)[self.entry_order]


def _size_groups(blocks):
    """(members, stacked blocks) per block size, skipping None blocks."""
    sizes = sorted({len(b) for b in blocks if b is not None})
    groups = []
    for k in sizes:
        members = np.array([r for r, b in enumerate(blocks)
                            if b is not None and len(b) == k], dtype=np.int64)
        groups.append((members, np.stack([blocks[r] for r in members])))
    return groups


@dataclass
class CompletionFactors:
    """One factor sweep over the clique blocks of a partial matrix.

    The blocks are grouped by size as in ``slots.cliques`` and
    ``slots.separators`` (see ``_CliqueSlots``): ``blocks[g]`` is the
    (N, k, k) stack of the dense clique blocks X_{C_r,C_r} of the g-th
    clique size and ``clique_chol[g]`` their lower Cholesky factors;
    ``sep_chol[g]`` stacks the lower Cholesky factors of the nonempty
    separator blocks X_{U_r,U_r} of the g-th separator size.  A pattern
    without couplings between its cliques has no separator group.
    """

    cliques: CliqueSequence
    slots: _CliqueSlots
    blocks: list
    clique_chol: list
    sep_chol: list


def completion_factors(xbar, cs):
    """Gather and factor each clique block of the partial ``xbar`` once.

    Each clique block and each nonempty separator block gets one dense
    Cholesky factorization, made as one batched call per block size.
    Raises NotCompletable unless every clique block is positive definite,
    which on a chordal pattern is exactly when a positive definite
    completion exists.  The slot arrays are built on the first call for a
    clique sequence and pattern and kept on ``cs`` as a private attribute.
    """
    slots = getattr(cs, "_slots", None)
    if slots is None or slots.pattern is not xbar.pattern:   # first use: build, cache
        slots = cs._slots = _CliqueSlots(cs, xbar.pattern)
    blocks = [xbar.values[gather] for _, gather in slots.cliques]
    clique_chol = [_cholesky(blk, "clique") for blk in blocks]
    sep_chol = [_cholesky(xbar.values[gather], "separator")
                for _, gather in slots.separators]
    return CompletionFactors(cs, slots, blocks, clique_chol, sep_chol)


def logdet_completion(factors):
    """ln det of the max-determinant completion, from its clique factors.

    Sum of clique-block log-determinants minus separator-block
    log-determinants, added left to right in clique order.
    """
    per_block = [2.0 * sign * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
                 for chol, sign in _signed_factors(factors)]
    return float(np.cumsum(np.concatenate(per_block)[factors.slots.block_order])[-1])


def completion_inverse(factors):
    """Inverse of the max-determinant completion, from its clique factors.

    It is supported exactly on the pattern F: the clique-block inverses
    minus the separator-block inverses, scattered onto the pattern.
    """
    parts = []
    for chol, sign in _signed_factors(factors):
        ci = np.linalg.inv(chol)
        rows, cols = _upper(chol.shape[1])
        parts.append(sign * (np.swapaxes(ci, 1, 2) @ ci)[:, rows, cols].ravel())
    slots = factors.slots
    pat = slots.pattern
    acc = np.bincount(slots.scatter, weights=np.concatenate(parts)[slots.entry_order],
                      minlength=pat.n + pat.nnz)
    return SparseSymMatrix(pat, acc, check=False)


def completion_vectors(factors):
    """Dense V with V^T V equal to the max-determinant completion.

    Rows of V live in the same (elimination) labels as the partial
    matrix; column i is the Gram vector of vertex i.  One pass suffices:
    the rows S_r are final once clique r is reached, because no later
    separator meets S_r.
    """
    cs = factors.cliques
    slots = factors.slots
    blocks = _by_clique(slots.cliques, factors.blocks, len(cs))
    sep_chol = _by_clique(slots.separators, factors.sep_chol, len(cs))
    v = np.eye(cs.n)
    for r, (c, u, s) in enumerate(zip(cs.cliques, cs.separators, cs.residuals)):
        in_u = np.isin(c, u)
        u_pos, s_pos = np.flatnonzero(in_u), np.flatnonzero(~in_u)
        blk = blocks[r]
        d_block = blk[np.ix_(s_pos, s_pos)]       # residual (Schur-complement) block
        if len(u_pos):
            cu = sep_chol[r]
            us = blk[np.ix_(u_pos, s_pos)]
            coupling = np.linalg.solve(cu.T, np.linalg.solve(cu, us))
            v[u, :] += coupling @ v[s, :]
            d_block = d_block - us.T @ coupling
        v[s, :] = _cholesky(d_block, f"clique {r} residual").T @ v[s, :]
    return v


def banded_pattern(n, bandwidth):
    """Pattern with every entry 0 < i - j <= bandwidth present."""
    edges = [(i, j) for j in range(n) for i in range(j + 1, min(j + bandwidth + 1, n))]
    return SparseSymPattern(n, edges)


def logdet_completion_banded(xbar, bandwidth):
    """ln det of the completion of a partial matrix on a full band.

    Walks the clique chain {r..r+p} reusing each clique's Cholesky
    factor: drop the departing leading row, re-triangularize with Givens
    rotations, append the entering row.  The separator determinants
    cancel against the retained rows, leaving one log per new pivot.
    Cost is O((n-p) p^2) against O((n-p) p^3) for fresh per-clique
    factorizations.
    """
    n = xbar.n
    p = int(bandwidth)
    _require_full_band(xbar.pattern, p)
    if p >= n - 1:  # single clique: one dense factorization
        rows = _dense_chol_rows(xbar.to_dense())
        return 2.0 * sum(math.log(r[t]) for t, r in enumerate(rows))

    col_start = xbar.pattern.col_ptr.tolist()
    off = xbar.offdiag.tolist()
    diag = xbar.diag.tolist()

    def entry(i, j):  # i > j, inside the band
        return off[col_start[j] + (i - j - 1)]

    rows = _dense_chol_rows([[entry(i, j) if i > j else (entry(j, i) if j > i else diag[i])
                              for j in range(p + 1)] for i in range(p + 1)])
    logdet = 2.0 * sum(math.log(r[t]) for t, r in enumerate(rows))
    sqrt = math.sqrt
    log = math.log
    for new in range(p + 1, n):
        # Drop the departing leading row, then one Givens rotation per row
        # re-triangularizes the survivors in place (their Gram matrix is
        # the clique block without the departed vertex).
        del rows[0]
        for t in range(p):
            row = rows[t]
            y = row.pop()
            x = row[t]
            r = sqrt(x * x + y * y)
            if r == 0.0:
                raise NotCompletable("factor became singular after row removal")
            co = x / r
            si = y / r
            row[t] = r
            t1 = t + 1
            for q in range(t1, p):
                wq = rows[q]
                a = wq[t]
                b = wq[t1]
                wq[t] = co * a + si * b
                wq[t1] = co * b - si * a
        # Append the entering vertex: forward-substitute its matrix column
        # through the refreshed factor, then take the new pivot.
        colbase = new - p
        newrow = []
        s2 = 0.0
        for j in range(p):
            acc = off[col_start[colbase + j] + (p - j - 1)]
            rj = rows[j]
            for q in range(j):
                acc -= rj[q] * newrow[q]
            w = acc / rj[j]
            newrow.append(w)
            s2 += w * w
        rem = diag[new] - s2
        if rem <= 0.0:
            raise NotCompletable("appended pivot is not positive")
        piv = sqrt(rem)
        newrow.append(piv)
        rows.append(newrow)
        logdet += 2.0 * log(piv)
    return logdet


# -- helpers ----------------------------------------------------------------

@lru_cache(maxsize=None)
def _upper(k):
    """Row and column indices of the upper triangle of a k x k block
    (shared between callers, so read-only)."""
    rows, cols = np.triu_indices(k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _cholesky(blocks, what):
    """Lower Cholesky factor of one block, or of each block of a stack."""
    try:
        return np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise NotCompletable(f"{what}: a block of size {blocks.shape[-1]} is not PD") from exc


def _signed_factors(factors):
    """(stacked factors, sign) per size group, cliques (+1) first, then
    separators (-1): the stack order of ``_CliqueSlots``."""
    return [(chol, 1.0) for chol in factors.clique_chol] + \
           [(chol, -1.0) for chol in factors.sep_chol]


def _by_clique(groups, stacks, count):
    """Per-clique list of the blocks in size-grouped ``stacks`` (None for
    a clique with no block in them)."""
    out = [None] * count
    for (members, _), stack in zip(groups, stacks):
        for r, blk in zip(members.tolist(), stack):
            out[r] = blk
    return out


def _dense_chol_rows(a):
    """Scalar unblocked Cholesky returning packed row lists."""
    m = len(a)
    rows = []
    for i in range(m):
        row = [0.0] * (i + 1)
        for j in range(i):
            s = a[i][j]
            rj = rows[j]
            for q in range(j):
                s -= row[q] * rj[q]
            row[j] = s / rj[j]
        rem = a[i][i] - sum(x * x for x in row[:i])
        if rem <= 0.0:
            raise NotCompletable(f"leading block pivot {i} is not positive")
        row[i] = math.sqrt(rem)
        rows.append(row)
    return rows


def _require_full_band(pattern, p):
    n = pattern.n
    counts = np.minimum(p, n - 1 - np.arange(n))
    counts = np.maximum(counts, 0)
    if not np.array_equal(np.diff(pattern.col_ptr), counts):
        raise ValueError("pattern is not the full band of the stated bandwidth")
    total = int(counts.sum())
    if total:
        starts = pattern.col_ptr[:-1]
        within = np.arange(total) - np.repeat(starts, counts)
        expected = np.repeat(np.arange(n), counts) + within + 1
        if not np.array_equal(pattern.rows, expected):
            raise ValueError("pattern is not the full band of the stated bandwidth")
