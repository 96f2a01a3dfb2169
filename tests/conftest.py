"""Shared generators and dense reference implementations for the tests."""

import numpy as np
import pytest

from sparse_sdp import (SparseSymMatrix, SparseSymPattern, min_degree_ordering,
                        symbolic_factorize)
from sparse_sdp.chordal import maximal_cliques, rip_order


def random_pattern(n, density, rng):
    """Random symmetric pattern with roughly the given edge density."""
    edges = [(i, j) for i in range(n) for j in range(i)
             if rng.random() < density]
    return SparseSymPattern(n, edges)


def random_filled_pattern(n, density, rng):
    """Random chordal pattern in elimination order (via symbolic fill)."""
    pat = random_pattern(n, density, rng)
    return symbolic_factorize(pat, min_degree_ordering(pat))


def random_pd_on_pattern(pattern, rng, shift=0.0):
    """PD matrix whose nonzeros sit exactly on an elimination-closed pattern.

    Built as L L^T for a random lower factor on the pattern, so the
    product introduces no entries outside it.
    """
    n = pattern.n
    ldense = np.zeros((n, n))
    for i, j, k in pattern.edges():
        ldense[i, j] = rng.standard_normal() * 0.4
    np.fill_diagonal(ldense, rng.random(n) + 0.7)
    dense = ldense @ ldense.T + shift * np.eye(n)
    return SparseSymMatrix.from_dense(pattern, dense), dense


def random_completable_partial(n, density, rng):
    """Random completable partial matrix: projection of a dense PD matrix."""
    fill = random_filled_pattern(n, density, rng)
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    dense = g @ g.T + np.eye(n)
    cs = rip_order(maximal_cliques(fill), n=n)
    return SparseSymMatrix.from_dense(fill, dense), cs, dense


def clique_cover_edges(cs):
    covered = set()
    for c in cs.cliques:
        c = list(c)
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                covered.add((max(c[a], c[b]), min(c[a], c[b])))
    return covered


def dense_from_sparse(mat):
    return mat.to_dense()


def restrict_abs_error(dense, sparse_mat):
    """Max |dense - sparse| over the sparse matrix's pattern plus diagonal."""
    err = float(np.max(np.abs(np.diagonal(dense) - sparse_mat.diag)))
    for i, j, k in sparse_mat.pattern.edges():
        err = max(err, abs(dense[i, j] - sparse_mat.offdiag[k]))
    return err


def dense_reference_directions(c, a_list, b, xhat, s, rho):
    """Steps of one main iteration carried out with dense linear algebra.

    ``xhat`` is the dense completion of the current primal iterate and
    ``s`` the dense dual slack.  Solves both projected-Newton systems by
    direct factorization and returns every direction plus the scalars.
    Self-checks the constructions before returning.
    """
    m = len(a_list)
    gap = float(np.sum(s * xhat))
    mu = gap / rho
    xinv = np.linalg.inv(xhat)
    sinv = np.linalg.inv(s)
    m_mat = (rho / gap) * s
    mt_mat = (rho / gap) * xhat

    def dot(u, v):
        return float(np.sum(u * v))

    # primal projected Newton direction
    xax = [xhat @ a @ xhat for a in a_list]
    gram = np.array([[dot(xax[p], a_list[q]) for p in range(m)] for q in range(m)])
    xmx = xhat @ m_mat @ xhat
    rhs = np.array([dot(xmx - xhat, a) for a in a_list])
    lam_mult = np.linalg.solve(gram, rhs)
    n_mat = xhat - xmx + sum(lam_mult[p] * xax[p] for p in range(m))
    lam = float(np.sqrt(max(dot(xinv @ n_mat @ xinv, n_mat), 0.0)))
    dx1 = n_mat / (1.0 + lam)
    ds1 = mu * (xinv - xinv @ n_mat @ xinv) - s

    # dual projected Newton direction
    sas = [sinv @ a @ sinv for a in a_list]
    gram_d = np.array([[dot(sas[p], a_list[q]) for p in range(m)] for q in range(m)])
    rhs_d = np.array([dot(sinv - mt_mat, a) for a in a_list])
    z = np.linalg.solve(gram_d, rhs_d)
    nt = sum(z[p] * a_list[p] for p in range(m))
    lam_tilde = float(np.sqrt(max(dot(sinv @ nt @ sinv, nt), 0.0)))
    ds2 = nt / (1.0 + lam_tilde)
    dx2 = mu * (sinv - sinv @ nt @ sinv) - xhat

    # construction sanity: directions live in the right subspaces
    for a in a_list:
        assert abs(dot(a, n_mat)) < 1e-7 * (1 + np.abs(n_mat).max())
        assert abs(dot(a, dx2)) < 1e-7 * (1 + np.abs(dx2).max())
    span_res = ds1 - sum((-mu * lam_mult[p]) * a_list[p] for p in range(m))
    assert np.abs(span_res).max() < 1e-8 * (1 + np.abs(ds1).max())
    return {
        "dx1": dx1, "dx2": dx2, "ds1": ds1, "ds2": ds2,
        "lam": lam, "lam_tilde": lam_tilde,
        "lambda_mult": lam_mult, "z": z, "mu": mu, "gap": gap,
    }


def problem_dense_data(problem):
    """Dense copies of a problem's (permuted) data matrices."""
    c = problem.c.to_dense()
    a_list = [a.embedded(problem.fill).to_dense() for a in problem.constraints]
    return c, a_list, problem.b.copy()


@pytest.fixture(scope="session")
def report_registry():
    """Solve reports accumulated across tests for global invariant checks."""
    return []
