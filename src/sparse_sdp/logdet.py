"""Inverses of a sparse Cholesky factor and the log-det Hessian product.

``sparse_inverse`` gives the entries of S^-1 on the filled pattern (the
gradient of ln det S there), and ``inverse_columns`` gives S^-1 in
full.  Both run on the dense fronts of the pattern's ``clique_tree``, as
the factor does: the selected inverse is the projected inverse, top down
over the fronts, with storage the sum of k^2 over them; the full
inverse is a forward and a back solve, one block of rows per front.
They read the factor's values only, so the factor of the completion
inverse (``completion.completion_inverse_factor``) serves as well as that
of S.  ``hess_vec`` pushes a direction Z through the tangent of the
scalar factorization and selected-inverse recurrences, starting from the
selected inverse its caller already holds, yielding the entries on the
pattern of S^-1 Z S^-1 -- the log-det Hessian applied to Z, up to sign
-- within O(nnz) storage per call.  It reads each column's block of
slots from the pattern's ``column_blocks``, an index of sum_j c_j^2
slots (c_j the entries of factor column j) built once per pattern.
``hess_from_columns`` gives the same product W Z W on the pattern from W
held in full, by dense row dots; the solver takes every product it
needs that way (the Newton systems' columns, as in Fujisawa, Kojima and
Nakata, Math. Prog. 79, 1997), and ``hess_vec`` is the sweep that needs
no n x n storage.
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


def _front_blocks(factor):
    """The factor's k x s blocks over the fronts of its pattern's
    ``clique_tree``, in one flat buffer laid out as ``gather`` says."""
    tree = factor.pattern.clique_tree
    return tree, np.append(factor.values, 0.0)[tree.gather]


def sparse_inverse(factor):
    """Entries on the fill pattern of the inverse of the factored matrix.

    The projected inverse, top down over the fronts of the pattern's
    ``clique_tree``.  With W = (L L^T)^-1, L on front C' = S' then U'
    and B = L_U'S' L_S'S'^-1, W_U'U' is read from the parent's block and

        W_U'S' = -W_U'U' B,    W_S'S' = L_S'S'^-T L_S'S'^-1 - B^T W_U'S'.

    Every front keeps its C' x C' block of W until the pass ends, so the
    storage is the sum of k^2 over the fronts, never n x n.  Raises
    ValueError when the pattern is not elimination-closed.
    """
    tree, low = _front_blocks(factor)
    out = np.empty_like(low)
    blocks = [None] * len(tree.fronts)
    for f in reversed(range(len(tree.fronts))):
        cols, seps, lo, parent, upos = tree.fronts[f]
        s = len(cols)
        k = s + len(seps)
        blk = low[lo:lo + k * s].reshape(k, s)
        inv = np.linalg.inv(blk[:s])
        w = np.empty((k, k))
        w[:s, :s] = inv.T @ inv
        if k > s:
            b = blk[s:] @ inv
            w[s:, s:] = blocks[parent][np.ix_(upos, upos)]
            w[s:, :s] = -(w[s:, s:] @ b)
            w[:s, s:] = w[s:, :s].T
            w[:s, :s] -= b.T @ w[s:, :s]
        blocks[f] = w
        out[lo:lo + k * s] = w[:, :s].ravel()
    return SparseSymMatrix(factor.pattern, out[tree.scatter], check=False)


def inverse_columns(factor):
    """The inverse of the factored matrix L L^T, in full.

    Solves L L^T W = I for all n right-hand sides at once, one block of
    rows per front of the pattern's ``clique_tree``: forward, children
    first, rows S' become L_S'S'^-1 times themselves and rows U' lose
    L_U'S' times those; back, parents first, rows S' become
    L_S'S'^-T (rows S' - L_U'S'^T rows U').  Any lower factor on the
    pattern will do, that of S or of the completion inverse.  The result,
    a dense n x n array, is the only storage beyond the factor's blocks.
    """
    tree, low = _front_blocks(factor)
    w = np.eye(factor.n)
    steps = []
    for cols, seps, lo, _, _ in tree.fronts:
        s = len(cols)
        blk = low[lo:lo + (s + len(seps)) * s].reshape(-1, s)
        inv = np.linalg.inv(blk[:s])
        rows = inv @ w[cols]
        w[cols] = rows
        if len(seps):
            w[seps] -= blk[s:] @ rows
        steps.append((cols, seps, blk[s:], inv))
    for cols, seps, off, inv in reversed(steps):
        rows = w[cols]
        if len(seps):
            rows -= off.T @ w[seps]
        w[cols] = inv.T @ rows
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
