"""Inverses of a sparse Cholesky factor and the log-det Hessian product.

``sparse_inverse`` gives the entries of S^-1 on the filled pattern (the
gradient of ln det S there), ``inverse_columns`` gives S^-1 in full,
``lower_inverse`` L^-1, and ``hess_vec`` the entries on the pattern of
S^-1 Z S^-1 (the log-det Hessian applied to Z, up to sign) as the
tangent of the factor and of the selected inverse.  All of them run on
the dense fronts of the pattern's ``clique_tree``, as the factor does:
they read the factor's ``fronts`` and its ``front_inverses`` L_S'S'^-1,
and write their own buffers front by front through the tree's
``split``, so none of them gathers the factor or inverts a block.  The
factor of S brings both from the bordered fronts of
``sparsemat.cholesky_factorize``; the factor of the completion inverse
(``completion.completion_inverse_factor``), which serves as well,
inverts its fronts once, on first read.
``hess_from_columns`` gives W Z W on the pattern from W held in full:
W Z from one scaling of W's columns by Z's diagonal and two dense
products per front for its off-diagonal entries, then one row dot of W
per slot; the solver takes every product it needs that way
(the Newton systems' columns, as in Fujisawa, Kojima and Nakata, Math.
Prog. 79, 1997), and ``hess_vec`` is the product that needs no n x n
storage (Andersen, Dahl and Vandenberghe, Optim. Methods Softw. 28,
2013).
"""

from __future__ import annotations

import numpy as np

from .sparsemat import SparseSymMatrix

HFC_BLOCK = 1 << 15     # products per block of ``hess_from_columns``


def sparse_inverse(factor):
    """Entries on the fill pattern of the inverse of the factored matrix.

    The projected inverse, top down over the fronts of the pattern's
    ``clique_tree``.  With W = (L L^T)^-1, L on front C' = S' then U'
    and B = L_U'S' L_S'S'^-1, W_U'U' is read from the parent's block and

        W_U'S' = -W_U'U' B,    W_S'S' = L_S'S'^-T L_S'S'^-1 - B^T W_U'S',

    with L_S'S'^-1 read from the factor's ``front_inverses``.  Every
    front keeps its C' x C' block of W until the pass ends, so the
    storage is the sum of k^2 over the fronts, never n x n.  Raises
    ValueError when the pattern is not elimination-closed.
    """
    tree = factor.pattern.clique_tree
    out = np.empty_like(factor.blocks)
    outs = tree.split(out)
    blocks = [None] * len(tree.fronts)
    for f in reversed(range(len(tree.fronts))):
        _, _, parent, uflat = tree.fronts[f]
        blk = factor.fronts[f]
        k, s = blk.shape
        inv = factor.front_inverses[f]
        w = np.empty((k, k))
        w[:s, :s] = inv.T @ inv
        if k > s:
            b = blk[s:] @ inv
            w[s:, s:] = blocks[parent].take(uflat).reshape(k - s, k - s)
            w[s:, :s] = -(w[s:, s:] @ b)
            w[:s, s:] = w[s:, :s].T
            w[:s, :s] -= b.T @ w[s:, :s]
        blocks[f] = w
        outs[f][:] = w[:, :s]
    return SparseSymMatrix(factor.pattern, out[tree.scatter], check=False)


def lower_inverse(factor):
    """V = L^-1 in full for a lower ``factor`` L, so V^T V = (L L^T)^-1.

    Solves L V = I one block of rows per front of the pattern's
    ``clique_tree``, children first: rows S' become L_S'S'^-1 (from
    ``front_inverses``) times themselves and rows U' lose L_U'S' times
    those.
    """
    tree = factor.pattern.clique_tree
    v = np.eye(factor.n)
    for (cols, seps, *_), blk, inv in zip(tree.fronts, factor.fronts, factor.front_inverses):
        rows = inv @ v[cols]
        v[cols] = rows
        if len(seps):
            v[seps] -= blk[len(cols):] @ rows
    return v


def inverse_columns(factor):
    """The inverse of the factored matrix L L^T, in full.

    Solves L L^T W = I for all n right-hand sides at once: forward by
    ``lower_inverse``, then back over the pattern's ``clique_tree``,
    parents first, rows S' become L_S'S'^-T (rows S' - L_U'S'^T rows U').
    Any lower factor on the pattern will do, that of S or of the
    completion inverse.  The result, a dense n x n array, is the only
    storage beyond the factor's blocks.
    """
    w = lower_inverse(factor)
    fronts = zip(factor.pattern.clique_tree.fronts, factor.fronts, factor.front_inverses)
    for (cols, seps, *_), blk, inv in reversed(list(fronts)):
        rows = w[cols]
        if len(seps):
            rows -= blk[len(cols):].T @ w[seps]
        w[cols] = inv.T @ rows
    return w


def hess_from_columns(w, z):
    """Entries on Z's pattern of W Z W, from W held in full.

    ``w`` is the n x n symmetric W, e.g. ``inverse_columns(factor)``;
    another shape raises ValueError, and so does Z off an
    elimination-closed pattern.  T = W Z: Z's diagonal scales W's
    columns in one pass, and its off-diagonal entries, read per front of
    the pattern's ``clique_tree`` as k x s blocks (``gather``, diagonal
    zeroed), give U = Z_off W by two dense products per front, parents
    first (the S' partition U's rows): U[S'] = [Z_S'S', Z_S'U'] W[C'],
    U[U'] += Z_U'S' W[S'].  T = W diag(z) + U^T.  Then (W Z W)_ij =
    W[i, :] . T[j, :] per slot, in reused blocks of at most max(n, 2^15)
    products.  Beside T and the result it holds U (n x n) and one
    front's k rows of W at a time; a diagonal Z needs neither.
    """
    pat = z.pattern
    n = pat.n
    if w.shape != (n, n):
        raise ValueError(f"W must be {n} x {n}, not {w.shape}")
    tree = pat.clique_tree
    rows, cols = pat.slot_ends
    t = w * z.diag
    if z.offdiag.any():
        u = np.empty((n, n))
        off = np.concatenate((np.zeros(n), z.offdiag, (0.0,)))[tree.gather]
        for (fcols, seps, *_), blk in zip(reversed(tree.fronts), reversed(tree.split(off))):
            s = len(fcols)
            blk[:s] += blk[:s].T.copy()
            wc = w[np.concatenate((fcols, seps))]
            u[fcols] = blk.T @ wc
            if len(seps):
                u[seps] += blk[s:] @ wc[:s]
        t += u.T
    step = max(HFC_BLOCK // max(n, 1), 1)
    out = np.empty(n + pat.nnz)
    for lo in range(0, len(out), step):
        out[lo:lo + step] = np.einsum("ij,ij->i", w[rows[lo:lo + step]],
                                      t[cols[lo:lo + step]])
    return SparseSymMatrix(pat, out, check=False)


def hess_vec(factor, z, sinv):
    """Entries on the fill pattern of S^-1 Z S^-1 for Z on that pattern.

    ``sinv`` holds the entries on the pattern of the inverse of the
    factored matrix, e.g. ``sparse_inverse(factor)``; for the factor of
    the completion inverse X^-1, the partial matrix X itself.  The
    tangent along Z of the block kernels on the pattern's
    ``clique_tree``: children first, that of ``cholesky_factorize``,

        dL_S'S' = L_S'S' Phi(L_S'S'^-1 dA_S'S' L_S'S'^-T),
        dL_U'S' = (dA_U'S' - L_U'S' dL_S'S'^T) L_S'S'^-T,

    Phi the lower triangle with its diagonal halved; then parents first,
    that of ``sparse_inverse``, with W_U'U' read from ``sinv``.  Beside
    the factor's blocks and one buffer of their size it stores 2 sum k^2
    at most.  Raises ValueError when Z or ``sinv`` lies on another
    pattern than the factor or the pattern is not elimination-closed.
    """
    pat = factor.pattern
    for arg, what in ((z, "Z"), (sinv, "sinv")):
        if arg.pattern is not pat and arg.pattern != pat:
            raise ValueError(f"{what} must lie on the factor's pattern")
    tree = pat.clique_tree
    low, inverses = factor.fronts, factor.front_inverses
    buf = np.append(z.values, 0.0)[tree.gather]     # dA, then dL, then -dW
    bufs = tree.split(buf)
    acc = [np.zeros((len(blk),) * 2) for blk in low]      # sums of dU'
    for f, (_, _, parent, uflat) in enumerate(tree.fronts):
        blk, d = low[f], bufs[f]
        k, s = blk.shape
        d += acc[f][:, :s]
        inv = inverses[f]
        phi = np.tril(inv @ (np.tril(d[:s]) + np.tril(d[:s], -1).T) @ inv.T)
        phi[np.diag_indices(s)] *= 0.5
        d[:s] = blk[:s] @ phi
        if k > s:
            d[s:] = (d[s:] - blk[s:] @ d[:s].T) @ inv.T
            upd = d[s:] @ blk[s:].T
            acc[parent].reshape(-1)[uflat] += (acc[f][s:, s:] - upd - upd.T).ravel()
        acc[f] = None

    blocks = [None] * len(tree.fronts)      # each front's dW on C' x C'
    for f in reversed(range(len(tree.fronts))):
        _, seps, parent, uflat = tree.fronts[f]
        blk, d = low[f], bufs[f]
        k, s = blk.shape
        inv = inverses[f]
        dinv = -(inv @ d[:s] @ inv)
        dw = blocks[f] = np.empty((k, k))
        dw[:s, :s] = dinv.T @ inv + inv.T @ dinv
        if k > s:
            b = blk[s:] @ inv
            db = d[s:] @ inv + blk[s:] @ dinv
            wuu = sinv.values[pat.slots(seps[:, None], seps)]
            dw[s:, s:] = blocks[parent].take(uflat).reshape(k - s, k - s)
            dw[s:, :s] = -(dw[s:, s:] @ b + wuu @ db)
            dw[:s, s:] = dw[s:, :s].T
            dw[:s, :s] += db.T @ wuu @ b - b.T @ dw[s:, :s]
        d[:] = -dw[:, :s]

    # W(t) = entries of (S + tZ)^-1, so the Hessian product is -W'.
    return SparseSymMatrix(pat, buf[tree.scatter], check=False)
