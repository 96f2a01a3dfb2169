"""Derivatives of sparse-Cholesky log-determinants on the fill pattern.

``sparse_inverse`` produces the entries of S^-1 restricted to the filled
pattern (the gradient of ln det S there) at factorization cost, via the
selected-inverse recurrences that run backward over the factor columns.
``hess_vec`` pushes a direction Z through the tangent of that same
computation, starting from the selected inverse its caller already
holds, yielding the entries on the pattern of S^-1 Z S^-1 -- the log-det
Hessian applied to Z, up to sign -- at the same cost.  Both sweeps read
each column's block of slots from the pattern's ``column_blocks``, an
index of sum_j c_j^2 slots (c_j the entries of factor column j) built
once per pattern; their storage per call stays O(nnz), and no dense
intermediate is ever formed.  ``inverse_columns`` gives the inverse in
full, by batched forward and back solves on the factor.  With it in
hand, ``hess_from_columns`` gives the same product W Z W on the pattern
by dense row dots, with no sweep over the factor; the solver takes every
product it needs that way (the Newton systems' columns, as in Fujisawa,
Kojima and Nakata, Math. Prog. 79, 1997), and ``hess_vec`` is the sweep
that needs no n x n storage.
"""

from __future__ import annotations

import numpy as np

from .sparsemat import SparseSymMatrix


def _unit_factor(factor):
    """Split L L^T into unit-lower L~ (offdiag entries) and pivots d."""
    cols = factor.pattern.slot_ends[1][factor.n:]
    return factor.offdiag / factor.diag[cols], factor.diag * factor.diag


def _blocks_backward(pat):
    """(j, run, k) for j = n-1 down to 0: the slots of column j's block
    rows_j x rows_j, row by row, are run[k:k + c_j^2].  ``run`` is a list
    taken from ``pat.column_blocks`` about n + nnz slots at a time, so
    the lists stay O(nnz) however many slots the blocks hold; raises
    ValueError unless the pattern is elimination-closed."""
    ptr, blocks = pat.column_blocks
    ptr = ptr.tolist()
    lo = ptr[-1]
    run = []
    for j in range(pat.n - 1, -1, -1):
        if ptr[j] < lo:
            lo = min(ptr[j], max(ptr[j + 1] - pat.n - pat.nnz, 0))
            run = blocks[lo:ptr[j + 1]].tolist()
        yield j, run, ptr[j] - lo


def sparse_inverse(factor):
    """Entries on the fill pattern of the inverse of the factored matrix.

    Backward recurrences over the columns of the factor; every referenced
    inverse entry lies on the pattern because the pattern is
    elimination-closed, and ``column_blocks`` says where.  Raises
    ValueError when the pattern is not elimination-closed.
    """
    pat = factor.pattern
    n = pat.n
    lt, d = (a.tolist() for a in _unit_factor(factor))
    start = pat.col_ptr.tolist()
    w = [0.0] * (n + pat.nnz)         # [diag | offdiag], as the result keeps it
    for j, run, k in _blocks_backward(pat):
        lo, hi = start[j], start[j + 1]
        ltj = lt[lo:hi]
        for e in range(n + lo, n + hi):
            s = 0.0
            for lk in ltj:
                s -= lk * w[run[k]]
                k += 1
            w[e] = s
        s = 1.0 / d[j]
        for lk, wk in zip(ltj, w[n + lo:n + hi]):
            s -= lk * wk
        w[j] = s
    return SparseSymMatrix(pat, w, check=False)


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
    intermediates are overwritten in place, so the storage per call stays
    O(nnz), beside the pattern's own index ``column_blocks`` of
    sum_j c_j^2 slots (c_j the entries of factor column j).  Raises
    ValueError when Z or ``sinv`` lies on another pattern than the factor
    or the pattern is not elimination-closed.
    """
    pat = factor.pattern
    n = pat.n
    for arg, what in ((z, "Z"), (sinv, "sinv")):
        if arg.pattern is not pat and arg.pattern != pat:
            raise ValueError(f"{what} must lie on the factor's pattern")
    rows = pat.rows.tolist()
    start = pat.col_ptr.tolist()
    cols = pat.slot_ends[1][n:]
    ecol = cols.tolist()
    rptr, redges = (a.tolist() for a in pat.row_edges)
    ldiag = factor.diag.tolist()
    loff = factor.offdiag.tolist()
    zdiag = z.diag.tolist()
    zoff = z.offdiag.tolist()

    # Tangent of the Cholesky factorization in direction Z.
    ldd = np.zeros(n)
    ldo = [0.0] * pat.nnz
    work = [0.0] * n
    for j in range(n):
        lo, hi = start[j], start[j + 1]
        work[j] = zdiag[j]
        for e in range(lo, hi):
            work[rows[e]] = zoff[e]
        for e in redges[rptr[j]:rptr[j + 1]]:
            ljk = loff[e]
            ljk_dot = ldo[e]
            for f in range(e, start[ecol[e] + 1]):
                work[rows[f]] -= ljk_dot * loff[f] + ljk * ldo[f]
        root = ldiag[j]
        droot = work[j] / (2.0 * root)
        ldd[j] = droot
        for e in range(lo, hi):
            ldo[e] = (work[rows[e]] - loff[e] * droot) / root

    # Tangents of the unit factor and pivots.
    lt, d = _unit_factor(factor)
    ltd = ((np.array(ldo) - lt * ldd[cols]) / factor.diag[cols]).tolist()
    dd = (2.0 * factor.diag * ldd).tolist()
    lt, d = lt.tolist(), d.tolist()

    # Tangent of the selected-inverse sweep, against the given base sinv;
    # w and v hold [diag | offdiag].
    w = sinv.values.tolist()
    v = [0.0] * (n + pat.nnz)
    for j, run, k in _blocks_backward(pat):
        lo, hi = start[j], start[j + 1]
        ltj, ltdj = lt[lo:hi], ltd[lo:hi]
        for e in range(n + lo, n + hi):
            sv = 0.0
            for lk, ldk in zip(ltj, ltdj):
                q = run[k]
                k += 1
                sv -= ldk * w[q] + lk * v[q]
            v[e] = sv
        sv = -dd[j] / (d[j] * d[j])
        for lk, ldk, wk, vk in zip(ltj, ltdj, w[n + lo:n + hi], v[n + lo:n + hi]):
            sv -= ldk * wk + lk * vk
        v[j] = sv

    # W(t) = entries of (S + tZ)^-1, so the Hessian product is -W'.
    return SparseSymMatrix(pat, -np.array(v), check=False)
