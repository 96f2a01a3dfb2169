"""Max-determinant positive definite completions of partial matrices.

A partial matrix is a ``SparseSymMatrix`` on a chordal, elimination-ordered
pattern read as specifying only its pattern entries (plus the diagonal);
the entries off the pattern are free, not zero.  Among all positive
definite completions the determinant-maximizing one is singled out by
having an inverse supported exactly on the pattern.  One sweep,
``completion_factors``, gathers each clique block R_r once through the
pattern's ``clique_plan`` (a ``chordal.CliquePlan``), separator first
(U_r, then S_r), and factors it once, R_r = L_r L_r^T; the leading |U_r|
block of L_r is the separator's factor.  With T_r the inverse of L_r
less its first |U_r| rows (Vandenberghe and Andersen, Chordal Graphs and
Semidefinite Optimization, 2015, section 10),

    ln det X^ = sum_r 2 sum_{p >= |U_r|} ln (L_r)_pp,
    X^-1      = sum_r T_r^T T_r   (scattered onto the pattern),

and the rows of T_r are the columns S_r of the Cholesky factor L of
X^-1.  The log-determinant, the inverse and its factor all read that
sweep.  The plan pads the blocks into a few size buckets, each block to
blockdiag(R_r, I), whose factor is blockdiag(L_r, I), and the sweep
writes each padded block into a copy of the template
``sparsemat.bordered(k)``, which gives [[R_r, .], [I, beta I]], whose
factor is [[L_r, 0], [L_r^-T, .]]: one batched Cholesky call per bucket
gives the L_r and the L_r^-1 that T_r is read from, and the inverse is
scattered by the plan's ``gram_sum``, the helper that also forms L L^T
for the dual residual.  The factor L of the inverse is written into
the front buffer of the pattern's ``clique_tree``, where the ``logdet``
kernels read it: X^ in full (``inverse_columns``), its Gram vectors
L^-1 (``lower_inverse``, as L^-T L^-1 = X^) and, with the partial
matrix as the selected inverse, X^ Z X^ on the pattern (``hess_vec``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCompletable
from .chordal import padded
from .sparsemat import CholeskyFactor, SparseSymPattern, bordered


@dataclass
class CompletionFactors:
    """One factor sweep over the clique blocks of a partial matrix on
    ``pattern``, in the padded buckets of its ``plan``: ``pivots`` holds
    the S_r pivots of every clique factor L_r, and ``inverse_rows[b]``
    stacks the T_r of bucket b, L_r^-1 with its first |U_r| rows and its
    pad rows zeroed, shared by the inverse and its factor.  Both are read
    from the bordered factors [[blockdiag(L_r, I), 0],
    [blockdiag(L_r^-T, I), .]] of the padded clique blocks R_r, gathered
    separator first.
    """

    pattern: SparseSymPattern
    pivots: np.ndarray
    inverse_rows: list
    plan = property(lambda self: self.pattern.clique_plan)


def completion_factors(xbar):
    """Gather and factor each clique block of the partial ``xbar`` once,
    bordered, by one batched Cholesky call per bucket of its pattern's
    ``clique_plan``: each bucket's (N, 2k, 2k) stack is filled from
    ``sparsemat.bordered(k)``, with the padded blocks in the leading
    k x k blocks.

    Raises NotCompletable unless every clique block is positive definite,
    which on a chordal pattern is exactly when a positive definite
    completion exists; a block's identity padding does not change that.
    The border of a block R passes whenever ||R^-1|| < beta =
    ``sparsemat.BORDER`` = 2^400, its trailing block being beta I - R^-1:
    only a block whose smallest eigenvalue is below 2^-400, about 3.9e-121,
    and so is numerically singular, can fail by its border alone.
    """
    plan = xbar.pattern.clique_plan
    values = padded(xbar.values)
    diagonals, rows = [], []
    for gather, residual in plan.buckets:
        k = residual.shape[1]
        stack = np.empty((len(gather), 2 * k, 2 * k))
        stack[:] = bordered(k)
        stack[:, :k, :k] = values[gather]
        try:
            low = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError as exc:
            raise NotCompletable("a clique block is not positive definite") from exc
        diagonals.append(np.diagonal(low, axis1=1, axis2=2)[:, :k].ravel())
        rows.append(np.where(residual[:, :, None], np.swapaxes(low[:, k:, :k], 1, 2), 0.0))
    return CompletionFactors(xbar.pattern, np.concatenate(diagonals)[plan.pivots], rows)


def logdet_completion(factors):
    """ln det of the max-determinant completion, from its clique factors:
    twice the sum of the log pivots of the S_r rows of each L_r."""
    return 2.0 * float(np.log(factors.pivots).sum())


def completion_inverse(factors):
    """Inverse of the max-determinant completion, from its clique factors.

    It is supported exactly on the pattern F: the sum of the T_r^T T_r,
    scattered onto the pattern.
    """
    return factors.plan.gram_sum(factors.pattern, factors.inverse_rows)


def completion_inverse_factor(factors):
    """Lower Cholesky factor of the completion inverse, on the pattern.

    Column j, for j in S_r, is row j of T_r on and left of its diagonal,
    which in the separator-first order are the entries at j and at the
    higher labels of C_r: Dempster's L_{alpha j} = -X_{alpha alpha}^-1
    X_{alpha j}, alpha = C_r above j, up to the pivot scaling.  They go
    into the front buffer at the plan's ``factor_slots``; the solve takes
    ln det X^ from ``logdet_completion``, not from this factor.
    """
    plan, tree = factors.plan, factors.pattern.clique_tree
    blocks = np.zeros(len(tree.gather))
    for t, mask, pos in zip(factors.inverse_rows, plan.factor_masks, plan.factor_slots):
        blocks[pos] = t[mask]
    return CholeskyFactor(factors.pattern, blocks)


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
    """ValueError unless p >= 0 and the pattern holds every entry
    0 < i - j <= p: its edges lie in that band and are as many as the band
    has."""
    if p < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {p}")
    n = pattern.n
    rows, cols = pattern.slot_ends
    q = max(min(p, n - 1), 0)            # the band's width
    if np.any(rows[n:] - cols[n:] > p) or pattern.nnz != q * n - q * (q + 1) // 2:
        raise ValueError("pattern is not the full band of the stated bandwidth")
