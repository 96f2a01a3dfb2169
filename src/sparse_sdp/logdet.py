"""Derivatives of sparse-Cholesky log-determinants on the fill pattern.

``sparse_inverse`` produces the entries of S^-1 restricted to the filled
pattern (the gradient of ln det S there) at factorization cost, via the
selected-inverse recurrences that run backward over the factor columns.
``hess_vec`` pushes a direction Z through the tangent of that same
computation, starting from the selected inverse its caller already
holds, yielding the entries on the pattern of S^-1 Z S^-1 -- the log-det
Hessian applied to Z, up to sign -- with the same time and space
footprint.  No dense intermediate is ever formed.  ``inverse_columns``
gives the inverse in full, by batched forward and back solves on the
factor.  With it in hand, ``hess_from_columns`` gives the same product
W Z W on the pattern by dense row dots, with no sweep over the factor;
the solver takes every product it needs that way (the Newton systems'
columns, as in Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997), and
``hess_vec`` is the sweep that needs no more than the factor's storage.
"""

from __future__ import annotations

import numpy as np

from .sparsemat import SparseSymMatrix


def _unit_factor(factor):
    """Split L L^T into unit-lower L~ and pivots d (lists for scalar loops)."""
    pat = factor.pattern
    ldiag = factor.diag.tolist()
    loff = factor.offdiag.tolist()
    d = [v * v for v in ldiag]
    lt = [0.0] * pat.nnz
    start = pat.col_ptr.tolist()
    for j in range(pat.n):
        root = ldiag[j]
        for k in range(start[j], start[j + 1]):
            lt[k] = loff[k] / root
    return lt, d, start


def sparse_inverse(factor):
    """Entries on the fill pattern of the inverse of the factored matrix.

    Backward recurrences over the columns of the factor; every referenced
    inverse entry lies on the pattern because the pattern is
    elimination-closed.
    """
    pat = factor.pattern
    n = pat.n
    cols = pat._cols
    eindex = pat._index
    lt, d, start = _unit_factor(factor)
    wdiag = [0.0] * n
    woff = [0.0] * pat.nnz
    for j in range(n - 1, -1, -1):
        rows_j = cols[j]
        base = start[j]
        for t, i in enumerate(rows_j):
            s = 0.0
            for u, k in enumerate(rows_j):
                if k == i:
                    wk = wdiag[i]
                elif k > i:
                    wk = woff[eindex[(k, i)]]
                else:
                    wk = woff[eindex[(i, k)]]
                s -= lt[base + u] * wk
            woff[base + t] = s
        s = 1.0 / d[j]
        for u in range(len(rows_j)):
            s -= lt[base + u] * woff[base + u]
        wdiag[j] = s
    return SparseSymMatrix(pat, wdiag + woff, check=False)


def inverse_columns(factor):
    """The inverse of the factored matrix L L^T, in full.

    Solves L L^T W = I for all n right-hand sides at once: one numpy row
    update per factor column in the forward solve and one in the back
    solve, so the work is O(nnz(L) n) and the result, a dense n x n
    array, is the only storage beyond the factor's.
    """
    pat = factor.pattern
    ldiag = factor.diag.tolist()
    loff = factor.offdiag
    rows = pat.rows
    start = pat.col_ptr.tolist()
    w = np.eye(pat.n)
    for j in range(pat.n):
        w[j] /= ldiag[j]
        lo, hi = start[j], start[j + 1]
        if hi > lo:
            w[rows[lo:hi]] -= np.outer(loff[lo:hi], w[j])
    for j in range(pat.n - 1, -1, -1):
        lo, hi = start[j], start[j + 1]
        if hi > lo:
            w[j] -= loff[lo:hi] @ w[rows[lo:hi]]
        w[j] /= ldiag[j]
    return w


def hess_from_columns(w, z):
    """Entries on Z's pattern of W Z W, from W held in full.

    ``w`` is the n x n symmetric W, e.g. ``inverse_columns(factor)``;
    any other shape raises ValueError.  First
    T = W Z, summed from Z's nonzero entries (O(n nnz(Z)) work, no dense
    Z); then (W Z W)_ij = W[i, :] . T[j, :] for each diagonal and
    off-diagonal slot.  Both steps run in blocks of at most
    max(n^2, 2^15) products, so the storage beyond the result and Z's
    entry lists is O(n^2), the size of ``w`` itself, and small problems
    take one block.
    """
    pat = z.pattern
    n = pat.n
    if w.shape != (n, n):
        raise ValueError(f"W must be {n} x {n}, not {w.shape}")
    rows, cols = pat.slot_ends
    nz = np.flatnonzero(z.values)
    a, b = rows[nz], cols[nz]

    # rows of T^T: T^T[dst] += z W[src, :]^T over both orientations of
    # each entry, grouped by dst so each block adds one sum per row
    off = a != b
    dst = np.concatenate((a, b[off]))
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    src = np.concatenate((b, a[off]))[order]
    val = np.concatenate((z.values[nz], z.values[nz][off]))[order]
    block = max(n * n, 1 << 15)
    tt = np.zeros((n, n))
    step = block // max(n, 1)
    for lo in range(0, len(dst), step):
        d = dst[lo:lo + step]
        first = np.ones(len(d), dtype=bool)
        np.not_equal(d[1:], d[:-1], out=first[1:])
        first = np.flatnonzero(first)
        tt[d[first]] += np.add.reduceat(w.T[src[lo:lo + step]] * val[lo:lo + step, None],
                                        first, axis=0)

    out = np.empty(n + pat.nnz)
    for lo in range(0, len(out), step):
        out[lo:lo + step] = np.einsum("ij,ji->i", w[rows[lo:lo + step]],
                                      tt[:, cols[lo:lo + step]])
    return SparseSymMatrix(pat, out, check=False)


def hess_vec(factor, z, sinv):
    """Entries on the fill pattern of S^-1 Z S^-1 for Z on that pattern.

    ``sinv`` is the selected inverse the product differentiates: the
    entries on the pattern of the inverse of the factored matrix, e.g.
    ``sparse_inverse(factor)``.  For the factor of the completion inverse
    X^-1 that is the partial matrix X itself.  Differentiates the
    factorization and the selected-inverse recurrences along Z; the
    intermediates are overwritten in place, so the auxiliary storage
    stays proportional to the factor's.  Raises ValueError when Z or
    ``sinv`` lies on another pattern than the factor.
    """
    pat = factor.pattern
    n = pat.n
    for arg, what in ((z, "Z"), (sinv, "sinv")):
        if arg.pattern is not pat and arg.pattern != pat:
            raise ValueError(f"{what} must lie on the factor's pattern")
    cols = pat._cols
    row_cols = pat.row_columns()
    eindex = pat._index
    start = pat.col_ptr.tolist()
    ldiag = factor.diag.tolist()
    loff = factor.offdiag.tolist()
    zdiag = z.diag.tolist()
    zoff = z.offdiag.tolist()

    # Tangent of the Cholesky factorization in direction Z.
    ldd = [0.0] * n
    ldo = [0.0] * pat.nnz
    work = [0.0] * n
    for j in range(n):
        rows_j = cols[j]
        base = start[j]
        work[j] = zdiag[j]
        for t, i in enumerate(rows_j):
            work[i] = zoff[base + t]
        for k in row_cols[j]:
            e_jk = eindex[(j, k)]
            ljk = loff[e_jk]
            ljk_dot = ldo[e_jk]
            kbase = start[k]
            krows = cols[k]
            for t, i in enumerate(krows):
                if i < j:
                    continue
                work[i] -= ljk_dot * loff[kbase + t] + ljk * ldo[kbase + t]
        root = ldiag[j]
        droot = work[j] / (2.0 * root)
        ldd[j] = droot
        for t, i in enumerate(rows_j):
            ldo[base + t] = (work[i] - loff[base + t] * droot) / root

    # Tangents of the unit factor and pivots.
    lt, d, _ = _unit_factor(factor)
    ltd = [0.0] * pat.nnz
    dd = [0.0] * n
    for j in range(n):
        root = ldiag[j]
        dd[j] = 2.0 * root * ldd[j]
        for k in range(start[j], start[j + 1]):
            ltd[k] = (ldo[k] - lt[k] * ldd[j]) / root

    # Tangent of the selected-inverse sweep, against the given base sinv.
    wdiag = sinv.diag.tolist()
    woff = sinv.offdiag.tolist()
    vdiag = [0.0] * n
    voff = [0.0] * pat.nnz
    for j in range(n - 1, -1, -1):
        rows_j = cols[j]
        base = start[j]
        for t, i in enumerate(rows_j):
            sv = 0.0
            for u, k in enumerate(rows_j):
                if k == i:
                    wk = wdiag[i]
                    vk = vdiag[i]
                elif k > i:
                    e = eindex[(k, i)]
                    wk = woff[e]
                    vk = voff[e]
                else:
                    e = eindex[(i, k)]
                    wk = woff[e]
                    vk = voff[e]
                sv -= ltd[base + u] * wk + lt[base + u] * vk
            voff[base + t] = sv
        sv = -dd[j] / (d[j] * d[j])
        for u in range(len(rows_j)):
            sv -= ltd[base + u] * woff[base + u] + lt[base + u] * voff[base + u]
        vdiag[j] = sv

    # W(t) = entries of (S + tZ)^-1, so the Hessian product is -W'.
    return SparseSymMatrix(pat, [-v for v in vdiag + voff], check=False)
