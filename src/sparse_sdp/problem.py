"""Problem container: data matrices, chordal fill, and constraint maps.

An `SdpProblem` owns the standard-form data (C, A_1..A_m, b), a
fill-reducing ordering of the aggregate pattern of all data matrices, the
chordal extension produced by symbolic factorization, which caches its
cliques, their clique plan and their clique tree on first read, and one
table of the constraint entries on that extension, split once into its
diagonal and off-diagonal entries.  The maps A and A* are one
``np.bincount`` each over the table.  It assembles the m x m matrix
A_p . (W A_q W) of a Newton system from W held in full, block by entry
class, and the Gram matrix A_p . A_q as that matrix at W = I.
All stored matrices live in the permuted (elimination) labels;
`ordering` maps original labels to them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .sparsemat import (SparseSymMatrix, SparseSymPattern, min_degree_ordering,
                        symbolic_factorize)


class SdpProblem:
    """min C.X s.t. A_p.X = b_p, X PSD, with sparse symmetric data.

    ``fill`` is the chordal pattern F and ``cliques`` its maximal cliques
    in running-intersection order (``fill.cliques``).  The factor kernels
    of both halves of an iterate run on ``fill.clique_tree``; only the
    primal half's completion routines and the dual residual's L L^T read
    ``fill.clique_plan``.
    """

    def __init__(self, c, constraints, b):
        b = np.asarray(b, dtype=float)
        m = len(constraints)
        if b.shape != (m,):
            raise ValueError("b length does not match the number of constraints")
        if not np.all(np.isfinite(b)):
            raise ValueError("b entries must be finite")
        n = c.n
        for a in constraints:
            if a.n != n:
                raise ValueError("constraint dimension mismatch")

        agg = SparseSymPattern(n, np.concatenate([
            np.column_stack(mat.pattern.slot_ends)[n:]
            for mat in (c, *(a for a in constraints if a.pattern.nnz))]))
        ordering = min_degree_ordering(agg)
        fill = symbolic_factorize(agg, ordering)

        self.n = n
        self.m = m
        self.b = b
        self.ordering = ordering
        self.fill = fill
        self.cliques = fill.cliques
        self._data = constraints
        perm = ordering.perm
        rows, cols = c.pattern.slot_ends
        self.c = SparseSymMatrix.zeros(fill)
        self.c.values[fill.slots(perm[rows], perm[cols])] = c.values

        # Every nonzero constraint entry as (owner, row, col, value) in the
        # caller's labels; a diagonal entry has row == col.
        none = np.zeros(0, dtype=np.int64)
        parts = [(none, none, none, np.zeros(0))]
        for p, a in enumerate(constraints):
            nz = np.flatnonzero(a.values)
            rows, cols = a.pattern.slot_ends
            parts.append((np.full(len(nz), p), rows[nz], cols[nz], a.values[nz]))
        own, rows, cols, val = (np.concatenate(x) for x in zip(*parts))
        slot = fill.slots(perm[rows], perm[cols])
        # by constraint, then by slot, so each constraint's diagonal entries
        # come first
        order = np.lexsort((slot, own))

        # The one table of constraint entries (r, s), r >= s, in the fill's
        # labels: owner, slot, value, weight in A(.) (the value on the
        # diagonal, twice it off it) and the ends r, s.
        self._ent_own = own[order]
        self._ent_slot = slot[order]
        self._ent_val = val[order]
        self._ent_weight = np.where(rows == cols, 1.0, 2.0)[order] * self._ent_val
        self._ent_r, self._ent_s = (ends[self._ent_slot] for ends in fill.slot_ends)
        # the table's diagonal (r = s) and off-diagonal entries, for the
        # Newton matrix's blocks
        self._diag, self._off = (_EntryClass.of(self, sub) for sub in
                                 (self._ent_r == self._ent_s, self._ent_r != self._ent_s))
        self._gram_inv = None

    @cached_property
    def constraints(self):
        """A_1..A_m in the permuted labels, built on first read.

        The maps, the Gram matrix and the Newton matrix read only the
        entry table, so a solve never builds these copies.
        """
        return [a.permuted(self.ordering) for a in self._data]

    def apply_map(self, w):
        """(A_1.W, ..., A_m.W) for W supported on the fill pattern: one
        ``np.bincount`` of W's entries times their weights by owner."""
        return np.bincount(self._ent_own, w.values[self._ent_slot] * self._ent_weight,
                           minlength=self.m)

    def adjoint_map(self, z):
        """sum_p z_p A_p on the fill pattern: one ``np.bincount`` of the
        entries' values times z of their owner, by slot."""
        z = np.asarray(z, dtype=float)
        values = np.bincount(self._ent_slot, z[self._ent_own] * self._ent_val,
                             minlength=self.n + self.fill.nnz)
        return SparseSymMatrix(self.fill, values, check=False)

    def newton_matrix(self, w):
        """The m x m matrix M_pq = A_p . (W A_q W) for a symmetric W.

        ``w`` is W in full, n x n.  With every constraint entry written as
        c (e_r e_s^T + e_s e_r^T), c half the entry's weight,
          M = P^T K P,
          K_ef = 2 c_e c_f (W_{s_e r_f} W_{s_f r_e} + W_{s_e s_f} W_{r_e r_f}),
        where P sums the entries into their constraints.  K is built by
        entry class, each block by one formula: between two diagonal
        entries (r = s) it is w_e w_f W_{r_e r_f}^2, one gather of W, its
        square and the weights w; every block that touches an
        off-diagonal entry takes the general formula.  For unit-diagonal
        constraints (MAX-CUT) M = W o W, the diagonal block alone.  No
        block outlives the call.
        """
        diag, off = self._diag, self._off
        k = w[np.ix_(diag.r, diag.r)]
        k *= k
        k *= diag.weight[:, None]
        k *= diag.weight
        k = _constraint_sums(k, diag.start, diag.start)
        if len(diag.owner) == self.m:       # every constraint has a diagonal entry
            out = k
        else:
            out = np.zeros((self.m, self.m))
            out[np.ix_(diag.owner, diag.owner)] = k
        if len(off.r):
            mixed = _constraint_sums(_general_block(w, diag, off), diag.start, off.start)
            out[np.ix_(diag.owner, off.owner)] += mixed
            out[np.ix_(off.owner, diag.owner)] += mixed.T
            out[np.ix_(off.owner, off.owner)] += _constraint_sums(
                _general_block(w, off, off), off.start, off.start)
        return out

    def _gram_inverse(self):
        """G^-1 for the Gram matrix G_pq = A_p . A_q, built on first use.

        When no slot holds entries of two constraints, G is diagonal and
        G_pp the sum of entry weight times value over A_p's entries, read
        off the entry table.  Otherwise G is the Newton matrix at W = I.
        """
        if self._gram_inv is None:
            slot = self._ent_slot
            if len(np.unique(slot)) == len(slot):
                g = np.bincount(self._ent_own, self._ent_weight * self._ent_val,
                                minlength=self.m)
                if np.any(g <= 0.0):
                    raise ValueError("constraint matrices are linearly dependent")
                self._gram_inv = np.diag(1.0 / g)
            else:
                self._gram_inv = _spd_inverse(self.newton_matrix(np.eye(self.n)))
        return self._gram_inv

    def project_out_constraints(self, w):
        """Remove W's component in span{A_p} so A_p.W = 0 exactly.

        Search directions built from inexact linear solves carry a small
        constraint-space component; stripping it keeps iterates feasible
        to machine precision.  After the first call, which builds G^-1,
        each costs one m x m product on top of the two constraint maps.
        """
        corr = self.adjoint_map(self._gram_inverse() @ self.apply_map(w))
        return SparseSymMatrix(self.fill, w.values - corr.values, check=False)

    def dual_slack(self, y):
        """S = C - sum_p y_p A_p on the fill pattern."""
        a = self.adjoint_map(y)
        return SparseSymMatrix(self.fill, self.c.values - a.values, check=False)

    def __repr__(self):
        return f"SdpProblem(n={self.n}, m={self.m}, nnz_fill={self.fill.nnz})"


class _EntryClass(NamedTuple):
    """One class of the entry table, still by constraint: the ends r, s
    and weights of its entries, the first entry of each constraint's
    group and that constraint."""

    r: np.ndarray
    s: np.ndarray
    weight: np.ndarray
    start: np.ndarray
    owner: np.ndarray

    @classmethod
    def of(cls, problem, sub):
        """The class of ``problem``'s entries where the mask ``sub`` holds."""
        own = problem._ent_own[sub]
        start = np.flatnonzero(np.diff(own, prepend=-1))
        return cls(problem._ent_r[sub], problem._ent_s[sub],
                   problem._ent_weight[sub], start, own[start])


def _general_block(w, e, f):
    """K_ef = 2 c_e c_f (W_{s_e r_f} W_{s_f r_e} + W_{s_e s_f} W_{r_e r_f})
    for e over the entry class ``e`` and f over ``f``, c half the
    weight."""
    k = w[np.ix_(e.s, f.r)] * w[np.ix_(e.r, f.s)]
    k += w[np.ix_(e.s, f.s)] * w[np.ix_(e.r, f.r)]
    k *= e.weight[:, None]
    k *= 0.5 * f.weight
    return k


def _constraint_sums(k, row_start, col_start):
    """P^T k Q: the rows of ``k`` summed over the groups that begin at
    ``row_start``, its columns over those at ``col_start``, skipping an
    axis whose groups are single entries."""
    if len(row_start) < k.shape[0]:
        k = np.add.reduceat(k, row_start, axis=0)
    if len(col_start) < k.shape[1]:
        k = np.add.reduceat(k, col_start, axis=1)
    return k


def _spd_inverse(g):
    """G^-1 from one Cholesky factor of the Gram matrix G; ValueError when
    G is singular, that is the constraints are linearly dependent."""
    try:
        chol = np.linalg.cholesky(g)
        # rounding can leave a dependent A_p a pivot of about
        # (m + 1) eps G_pp in place of 0
        tol = 4 * (len(g) + 1) * np.finfo(float).eps
        if np.any(np.diagonal(chol) ** 2 <= tol * np.diagonal(g)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError as exc:
        raise ValueError("constraint matrices are linearly dependent") from exc
    chol_inv = np.linalg.inv(chol)
    return chol_inv.T @ chol_inv
