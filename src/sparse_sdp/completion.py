"""Max-determinant positive definite completions of partial matrices.

A partial matrix is a ``SparseSymMatrix`` on a chordal, elimination-ordered
pattern read as specifying only its pattern entries (plus the diagonal);
the entries off the pattern are free, not zero.  Among all positive
definite completions the determinant-maximizing one is singled out by
having an inverse supported exactly on the pattern; everything here
(log-determinant, inverse, factor form) works clique by clique against
that completion without ever forming it densely.  Its Hessian products
are ``logdet.hess_vec`` on the factor of ``completion_inverse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chordal import CliqueSequence
from .errors import NotCompletable
from .sparsemat import SparseSymMatrix, SparseSymPattern


@dataclass
class CompletionFactors:
    """Clique-wise factor form of the max-determinant completion.

    For each non-final clique, ``couplings[r]`` is the |U_r| x |S_r| block
    inv(X_{U_r,U_r}) @ X_{U_r,S_r}; ``blocks[r]`` is the dense residual
    (Schur-complement) block on S_r.  ``logdet`` is ln det of the
    completion.
    """

    cliques: CliqueSequence
    couplings: list
    blocks: list
    logdet: float

    @property
    def n(self):
        return self.cliques.n


def completion_factors(xbar, cs):
    """Clique factorization of the max-determinant completion of ``xbar``.

    Raises NotCompletable when a separator or residual block is not
    positive definite.
    """
    couplings = []
    blocks = []
    logdet = 0.0
    l = len(cs)
    for r in range(l):
        s_r = cs.residuals[r]
        u_r = cs.separators[r]
        ss = xbar.block(s_r)
        if len(u_r) == 0:
            coup = np.zeros((0, len(s_r)))
            d_block = ss
        else:
            uu = xbar.block(u_r)
            us = _cross_block(xbar, u_r, s_r)
            try:
                cu = np.linalg.cholesky(uu)
            except np.linalg.LinAlgError as exc:
                raise NotCompletable(f"clique {r}: separator block not PD") from exc
            coup = np.linalg.solve(cu.T, np.linalg.solve(cu, us))
            d_block = ss - us.T @ coup
        try:
            cd = np.linalg.cholesky(d_block)
        except np.linalg.LinAlgError as exc:
            raise NotCompletable(f"clique {r}: residual block not PD") from exc
        couplings.append(coup)
        blocks.append(d_block)
        logdet += 2.0 * float(np.sum(np.log(np.diagonal(cd))))
    return CompletionFactors(cs, couplings, blocks, logdet)


def logdet_completion(xbar, cs):
    """ln det of the max-determinant completion of the partial ``xbar``.

    Sum of clique-block log-determinants minus separator-block
    log-determinants, each from a fresh dense factorization.  Raises
    NotCompletable unless every clique block is positive definite, which
    on a chordal pattern is exactly when a positive definite completion
    exists.
    """
    total = 0.0
    for r in range(len(cs)):
        total += _dense_logdet(xbar.block(cs.cliques[r]), f"clique {r}")
        u_r = cs.separators[r]
        if len(u_r):
            total -= _dense_logdet(xbar.block(u_r), f"separator {r}")
    return total


def completion_inverse(xbar, cs):
    """Inverse of the max-determinant completion of the partial ``xbar``.

    It is supported exactly on the pattern F: the clique-block inverses
    minus the separator-block inverses, scattered onto the pattern.
    """
    pat = xbar.pattern
    diag = np.zeros(pat.n)
    off = np.zeros(pat.nnz)
    for r in range(len(cs)):
        c = cs.cliques[r]
        _scatter(diag, off, pat, c, _pd_inverse(xbar.block(c), f"clique {r}"), +1.0)
        u = cs.separators[r]
        if len(u):
            _scatter(diag, off, pat, u, _pd_inverse(xbar.block(u), f"separator {r}"), -1.0)
    return SparseSymMatrix(pat, diag, off, check=False)


def completion_vectors(factors):
    """Dense V with V^T V equal to the max-determinant completion.

    Rows of V live in the same (elimination) labels as the partial
    matrix; column i is the Gram vector of vertex i.
    """
    cs = factors.cliques
    n = cs.n
    v = np.eye(n)
    for r in range(len(cs) - 1):
        coup = factors.couplings[r]
        if coup.size:
            u = cs.separators[r]
            s = cs.residuals[r]
            v[u, :] += coup @ v[s, :]
    for r in range(len(cs)):
        s = cs.residuals[r]
        v[s, :] = np.linalg.cholesky(factors.blocks[r]).T @ v[s, :]
    return v


def reconstruct_dense(factors):
    """Dense max-determinant completion (small-n checks and rounding)."""
    v = completion_vectors(factors)
    return v.T @ v


def banded_pattern(n, bandwidth):
    """Pattern with every entry 0 < i - j <= bandwidth present."""
    edges = [(i, j) for j in range(n) for i in range(j + 1, min(j + bandwidth + 1, n))]
    return SparseSymPattern(n, edges)


def logdet_completion_banded(xbar, bandwidth=None):
    """ln det of the completion of a partial matrix on a full band.

    Walks the clique chain {r..r+p} reusing each clique's Cholesky
    factor: drop the departing leading row, re-triangularize with Givens
    rotations, append the entering row.  The separator determinants
    cancel against the retained rows, leaving one log per new pivot.
    Cost is O((n-p) p^2) against O((n-p) p^3) for fresh per-clique
    factorizations.
    """
    n = xbar.n
    p = _bandwidth_of(xbar.pattern) if bandwidth is None else int(bandwidth)
    _require_full_band(xbar.pattern, p)
    if p >= n - 1:  # single clique: one dense factorization
        rows = _dense_chol_rows(xbar.block(np.arange(n)))
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

def _cross_block(xbar, rows, cols):
    pat = xbar.pattern
    off = xbar.offdiag
    out = np.empty((len(rows), len(cols)))
    for a, va in enumerate(rows):
        for b, vb in enumerate(cols):
            out[a, b] = off[pat.edge_index(va, vb)]
    return out


def _pd_inverse(block, what):
    try:
        c = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotCompletable(f"{what}: block not PD") from exc
    ci = np.linalg.inv(c)
    return ci.T @ ci


def _dense_logdet(block, what):
    try:
        c = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotCompletable(f"{what}: block not PD") from exc
    return 2.0 * float(np.sum(np.log(np.diagonal(c))))


def _scatter(diag, off, pat, verts, block, sign):
    k = len(verts)
    for a in range(k):
        va = verts[a]
        diag[va] += sign * block[a, a]
        for b in range(a + 1, k):
            off[pat.edge_index(va, verts[b])] += sign * block[a, b]


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


def _bandwidth_of(pattern):
    if pattern.nnz == 0:
        return 0
    width = 0
    for j in range(pattern.n):
        rows = pattern.column_rows(j)
        if rows:
            width = max(width, rows[-1] - j)
    return width
