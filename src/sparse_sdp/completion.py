"""Max-determinant positive definite completions of partial matrices.

A partial matrix is a ``SparseSymMatrix`` on a chordal, elimination-ordered
pattern read as specifying only its pattern entries (plus the diagonal);
the entries off the pattern are free, not zero.  Among all positive
definite completions the determinant-maximizing one is singled out by
having an inverse supported exactly on the pattern.  One sweep,
``completion_factors``, gathers each clique block once and factors each
clique and separator block once; the log-determinant, the inverse on the
pattern and the Gram vectors all read that sweep, so the completion is
never formed densely.  Its Hessian products are ``logdet.hess_vec`` on the
factor of ``completion_inverse``, with the partial matrix itself as the
selected inverse.
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
    """Where each clique block of a partial matrix on ``pattern`` sits in
    its concatenated [diag | offdiag] storage.

    ``gather[r]`` holds the slot of every entry of the block on C_r, and
    ``sep_pos[r]`` and ``res_pos[r]`` the positions of U_r and S_r in C_r.
    ``scatter`` lists the slots of the upper triangle of clique block r,
    then of separator block r, for r = 0, 1, ...
    """

    def __init__(self, cs, pattern):
        n = pattern.n
        self.pattern = pattern
        self.gather, self.sep_pos, self.res_pos = [], [], []
        scatter = []
        for c, u in zip(cs.cliques, cs.separators):
            k = len(c)
            idx = np.empty((k, k), dtype=np.int64)
            for a in range(k):
                idx[a, a] = c[a]
                for b in range(a + 1, k):
                    idx[a, b] = idx[b, a] = n + pattern.edge_index(c[a], c[b])
            in_u = np.isin(c, u)
            u_pos = np.flatnonzero(in_u)          # U_r and S_r are sorted, like C_r
            self.gather.append(idx)
            self.sep_pos.append(u_pos)
            self.res_pos.append(np.flatnonzero(~in_u))
            scatter.append(idx[_upper(k)])
            if len(u_pos):
                scatter.append(idx[np.ix_(u_pos, u_pos)][_upper(len(u_pos))])
        self.scatter = np.concatenate(scatter)


@dataclass
class CompletionFactors:
    """One factor sweep over the clique blocks of a partial matrix.

    ``blocks[r]`` is the dense clique block X_{C_r,C_r} and
    ``clique_chol[r]`` its lower Cholesky factor; ``sep_chol[r]`` is the
    lower Cholesky factor of the separator block X_{U_r,U_r}, sliced out of
    ``blocks[r]`` (None when U_r is empty).  ``slots`` says where the
    blocks sit in the partial matrix's storage.
    """

    cliques: CliqueSequence
    slots: _CliqueSlots
    blocks: list
    clique_chol: list
    sep_chol: list


def completion_factors(xbar, cs):
    """Gather and factor each clique block of the partial ``xbar`` once.

    Each clique block and each nonempty separator block (sliced out of its
    clique block) gets one dense Cholesky factorization.  Raises
    NotCompletable unless every clique block is positive definite, which
    on a chordal pattern is exactly when a positive definite completion
    exists.  The slot arrays are built on the first call for a clique
    sequence and pattern and kept on ``cs`` as a private attribute.
    """
    slots = getattr(cs, "_slots", None)
    if slots is None or slots.pattern is not xbar.pattern:   # first use: build, cache
        slots = cs._slots = _CliqueSlots(cs, xbar.pattern)
    values = np.concatenate((xbar.diag, xbar.offdiag))
    blocks, clique_chol, sep_chol = [], [], []
    for r, (idx, u_pos) in enumerate(zip(slots.gather, slots.sep_pos)):
        blk = values[idx]
        blocks.append(blk)
        clique_chol.append(_cholesky(blk, f"clique {r}"))
        sep_chol.append(_cholesky(blk[np.ix_(u_pos, u_pos)], f"separator {r}")
                        if len(u_pos) else None)
    return CompletionFactors(cs, slots, blocks, clique_chol, sep_chol)


def logdet_completion(factors):
    """ln det of the max-determinant completion, from its clique factors.

    Sum of clique-block log-determinants minus separator-block
    log-determinants.
    """
    total = 0.0
    for cc, cu in zip(factors.clique_chol, factors.sep_chol):
        total += _logdet(cc)
        if cu is not None:
            total -= _logdet(cu)
    return total


def completion_inverse(factors):
    """Inverse of the max-determinant completion, from its clique factors.

    It is supported exactly on the pattern F: the clique-block inverses
    minus the separator-block inverses, scattered onto the pattern.
    """
    parts = []
    for cc, cu in zip(factors.clique_chol, factors.sep_chol):
        parts.append(_inverse(cc)[_upper(len(cc))])
        if cu is not None:
            parts.append(-_inverse(cu)[_upper(len(cu))])
    n = factors.cliques.n
    pat = factors.slots.pattern
    acc = np.zeros(n + pat.nnz)
    np.add.at(acc, factors.slots.scatter, np.concatenate(parts))
    return SparseSymMatrix(pat, acc[:n], acc[n:], check=False)


def completion_vectors(factors):
    """Dense V with V^T V equal to the max-determinant completion.

    Rows of V live in the same (elimination) labels as the partial
    matrix; column i is the Gram vector of vertex i.  One pass suffices:
    the rows S_r are final once clique r is reached, because no later
    separator meets S_r.
    """
    cs = factors.cliques
    slots = factors.slots
    v = np.eye(cs.n)
    for r, blk in enumerate(factors.blocks):
        u_pos, s_pos = slots.sep_pos[r], slots.res_pos[r]
        s = cs.residuals[r]
        d_block = blk[np.ix_(s_pos, s_pos)]       # residual (Schur-complement) block
        if len(u_pos):
            cu = factors.sep_chol[r]
            us = blk[np.ix_(u_pos, s_pos)]
            coupling = np.linalg.solve(cu.T, np.linalg.solve(cu, us))
            v[cs.separators[r], :] += coupling @ v[s, :]
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


def _cholesky(block, what):
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotCompletable(f"{what}: block not PD") from exc


def _logdet(chol):
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def _inverse(chol):
    ci = np.linalg.inv(chol)
    return ci.T @ ci


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
