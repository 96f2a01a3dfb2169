"""Problem container: data matrices, chordal fill, and constraint maps.

An `SdpProblem` owns the standard-form data (C, A_1..A_m, b), the
aggregate pattern of all data matrices, a fill-reducing ordering, and the
chordal extension produced by symbolic factorization.  All stored
matrices live in the permuted (elimination) labels; `ordering` maps
original labels to them.
"""

from __future__ import annotations

import numpy as np

from .chordal import maximal_cliques, rip_order
from .sparsemat import (SparseSymMatrix, inner_product, min_degree_ordering,
                        symbolic_factorize)


class SdpProblem:
    """min C.X s.t. A_p.X = b_p, X PSD, with sparse symmetric data."""

    def __init__(self, c, constraints, b, ordering=None):
        b = np.asarray(b, dtype=float)
        m = len(constraints)
        if b.shape != (m,):
            raise ValueError("b length does not match the number of constraints")
        n = c.n
        for a in constraints:
            if a.n != n:
                raise ValueError("constraint dimension mismatch")

        agg = c.pattern
        for a in constraints:
            agg = agg.union(a.pattern)
        if ordering is None:
            ordering = min_degree_ordering(agg)
        fill = symbolic_factorize(agg, ordering)

        self.n = n
        self.m = m
        self.b = b
        self.ordering = ordering
        self.aggregate = agg.permuted(ordering)
        self.fill = fill
        self.cliques = rip_order(maximal_cliques(fill), n=n)
        self.c = c.permuted(ordering).embedded(fill)
        self.constraints = [a.permuted(ordering) for a in constraints]

        # Flattened scatter/gather index arrays against the fill pattern.
        d_idx, d_val, d_own = [], [], []
        e_idx, e_val, e_own = [], [], []
        for p, a in enumerate(self.constraints):
            for v in range(n):
                if a.diag[v] != 0.0:
                    d_idx.append(v)
                    d_val.append(a.diag[v])
                    d_own.append(p)
            for i, j, k in a.pattern.edges():
                if a.offdiag[k] != 0.0:
                    e_idx.append(fill.edge_index(i, j))
                    e_val.append(a.offdiag[k])
                    e_own.append(p)
        self._d_idx = np.asarray(d_idx, dtype=np.int64)
        self._d_val = np.asarray(d_val, dtype=float)
        self._d_own = np.asarray(d_own, dtype=np.int64)
        self._e_idx = np.asarray(e_idx, dtype=np.int64)
        self._e_val = np.asarray(e_val, dtype=float)
        self._e_own = np.asarray(e_own, dtype=np.int64)
        self._gram_chol = None

    def apply_map(self, w):
        """(A_1.W, ..., A_m.W) for W supported on the fill pattern."""
        out = np.zeros(self.m)
        np.add.at(out, self._d_own, w.diag[self._d_idx] * self._d_val)
        if len(self._e_idx):
            np.add.at(out, self._e_own, 2.0 * w.offdiag[self._e_idx] * self._e_val)
        return out

    def adjoint_map(self, z):
        """sum_p z_p A_p scattered onto the fill pattern."""
        z = np.asarray(z, dtype=float)
        diag = np.zeros(self.n)
        off = np.zeros(self.fill.nnz)
        np.add.at(diag, self._d_idx, z[self._d_own] * self._d_val)
        if len(self._e_idx):
            np.add.at(off, self._e_idx, z[self._e_own] * self._e_val)
        return SparseSymMatrix(self.fill, diag, off, check=False)

    def _gram(self):
        if self._gram_chol is None:
            g = np.empty((self.m, self.m))
            for p in range(self.m):
                for q in range(p, self.m):
                    g[p, q] = g[q, p] = inner_product(self.constraints[p],
                                                      self.constraints[q])
            try:
                self._gram_chol = np.linalg.cholesky(g)
            except np.linalg.LinAlgError as exc:
                raise ValueError("constraint matrices are linearly dependent") from exc
        return self._gram_chol

    def project_out_constraints(self, w):
        """Remove W's component in span{A_p} so A_p.W = 0 exactly.

        Search directions built from inexact linear solves carry a small
        constraint-space component; stripping it keeps iterates feasible
        to machine precision.
        """
        ch = self._gram()
        coef = np.linalg.solve(ch.T, np.linalg.solve(ch, self.apply_map(w)))
        corr = self.adjoint_map(coef)
        return SparseSymMatrix(self.fill, w.diag - corr.diag,
                               w.offdiag - corr.offdiag, check=False)

    def dual_slack(self, y):
        """S = C - sum_p y_p A_p on the fill pattern."""
        a = self.adjoint_map(y)
        return SparseSymMatrix(self.fill, self.c.diag - a.diag,
                               self.c.offdiag - a.offdiag, check=False)

    def __repr__(self):
        return (f"SdpProblem(n={self.n}, m={self.m}, "
                f"nnz_agg={self.aggregate.nnz}, nnz_fill={self.fill.nnz})")

