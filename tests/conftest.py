"""Shared generators and dense reference implementations for the tests."""

from itertools import combinations

import numpy as np
import pytest

from sparse_sdp import (CholeskyFactor, SparseSymMatrix, SparseSymPattern,
                        min_degree_ordering, symbolic_factorize)


def random_pattern(n, density, rng):
    """Random symmetric pattern with roughly the given edge density."""
    edges = [(i, j) for i in range(n) for j in range(i)
             if rng.random() < density]
    return SparseSymPattern(n, edges)


def min_degree_sequence(pattern):
    """Plain minimum-degree elimination sequence by a scan of every live
    vertex at each step (smallest degree, then smallest label): the
    reference for ``min_degree_ordering``."""
    adj = [set(s) for s in pattern.adjacency()]
    alive = set(range(pattern.n))
    seq = []
    for _ in range(pattern.n):
        v = min(alive, key=lambda u: (len(adj[u]), u))
        seq.append(v)
        alive.remove(v)
        for u in adj[v]:
            adj[u].discard(v)
        for a, b in combinations(sorted(adj[v]), 2):
            adj[a].add(b)
            adj[b].add(a)
    return seq


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
    rows, cols = pattern.slot_ends
    ldense = np.zeros((n, n))
    ldense[rows[n:], cols[n:]] = rng.standard_normal(pattern.nnz) * 0.4
    np.fill_diagonal(ldense, rng.random(n) + 0.7)
    dense = ldense @ ldense.T + shift * np.eye(n)
    return sparse_from_dense(pattern, dense), dense


def random_completable_partial(n, density, rng):
    """Random completable partial matrix: projection of a dense PD matrix,
    with that matrix."""
    fill = random_filled_pattern(n, density, rng)
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    dense = g @ g.T + np.eye(n)
    return sparse_from_dense(fill, dense), dense


def random_generic_sdp(n, m, rng):
    """SDP data (C, [A_1..A_m], b) with off-diagonal constraint entries.

    C is positive definite on a random chordal pattern and b = A(I), so
    X = I with y = 0 is a strictly feasible start.  Each A_p has one
    positive diagonal entry and up to two random off-diagonal ones.
    """
    fill = random_filled_pattern(n, 0.3, rng)
    c, _ = random_pd_on_pattern(fill, rng)
    constraints, b = [], []
    for _ in range(m):
        dense = np.zeros((n, n))
        edges = []
        for _ in range(2):
            i, j = rng.choice(n, 2, replace=False)
            dense[i, j] = dense[j, i] = rng.standard_normal()
            edges.append((i, j))
        v = rng.choice(n)
        dense[v, v] = 1.0 + rng.random()
        constraints.append(sparse_from_dense(SparseSymPattern(n, edges), dense))
        b.append(np.trace(dense))
    return c, constraints, np.array(b)


def brute_force_cliques(pattern):
    """Maximal cliques of an elimination-ordered pattern by domination.

    Each candidate {v} ∪ higher(v) is kept unless a lower neighbour u has
    {v} ∪ higher(v) inside {u} ∪ higher(u).  Returns None when (0..n-1)
    is not a perfect elimination ordering (some higher(v) is not a
    clique), else the cliques as sorted lists, by their smallest vertex.
    """
    adj = pattern.adjacency()
    higher = [set(pattern.column_rows(v)) for v in range(pattern.n)]
    for v in range(pattern.n):
        if any(b not in adj[a] for a in higher[v] for b in higher[v] if a != b):
            return None
    return [sorted(higher[v] | {v}) for v in range(pattern.n)
            if not any(u < v and higher[v] <= higher[u] for u in adj[v])]


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


def sparse_from_dense(pattern, dense):
    """The entries of ``dense`` on ``pattern`` (plus the diagonal)."""
    rows, cols = pattern.slot_ends
    return SparseSymMatrix(pattern, np.asarray(dense, dtype=float)[rows, cols])


def entry(mat, i, j):
    """Entry (i, j) of a sparse matrix; zero off its pattern."""
    try:
        return mat.values[mat.pattern.slots(i, j)]
    except KeyError:
        return 0.0


def dense_mask(pattern):
    """Boolean n x n mask of the pattern plus the diagonal."""
    rows, cols = pattern.slot_ends
    mask = np.zeros((pattern.n, pattern.n), dtype=bool)
    mask[rows, cols] = mask[cols, rows] = True
    return mask


def factor_entries(factor):
    """A CholeskyFactor's entries in the slots [diag | offdiag]."""
    return factor.blocks[factor.pattern.clique_tree.scatter]


def factor_on(pattern, values):
    """The CholeskyFactor with the entries ``values`` in the slots
    [diag | offdiag] of ``pattern`` (logdet 0)."""
    return CholeskyFactor(pattern, np.append(values, 0.0)[pattern.clique_tree.gather], 0.0)


def factor_to_dense(factor):
    """Dense lower-triangular copy of a CholeskyFactor."""
    rows, cols = factor.pattern.slot_ends
    out = np.zeros((factor.n, factor.n))
    out[rows, cols] = factor_entries(factor)
    return out


def elimination_sequence(ordering):
    """Old labels in elimination order."""
    return ordering.inverse


def reconstruct_dense(xbar):
    """Dense max-determinant completion of the partial ``xbar``, built
    clique by clique from its blocks, apart from the library's factors.

    Gram vectors V, V^T V = X^, by Schur complements over the cliques of
    ``xbar.pattern.cliques`` in running-intersection order: rows U_r take
    X_{U_r U_r}^-1 X_{U_r S_r} times rows S_r, then rows S_r take the
    transposed Cholesky factor of the Schur complement of X_{U_r U_r}.
    Rows S_r are final once clique r is reached, because no later
    separator meets S_r.
    """
    cs = xbar.pattern.cliques
    dense = xbar.to_dense()
    v = np.eye(xbar.n)
    for s, u in zip(cs.residuals, cs.separators):
        schur = dense[np.ix_(s, s)]
        if len(u):
            us = dense[np.ix_(u, s)]
            coupling = np.linalg.solve(dense[np.ix_(u, u)], us)
            v[u] += coupling @ v[s]
            schur = schur - us.T @ coupling
        v[s] = np.linalg.cholesky(schur).T @ v[s]
    return v.T @ v


def restrict_abs_error(dense, sparse_mat):
    """Max |dense - sparse| over the sparse matrix's pattern plus diagonal."""
    rows, cols = sparse_mat.pattern.slot_ends
    return float(np.max(np.abs(dense[rows, cols] - sparse_mat.values)))


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
    a_list = [a.to_dense() for a in problem.constraints]
    return c, a_list, problem.b.copy()


@pytest.fixture(scope="session")
def report_registry():
    """Solve reports accumulated across tests for global invariant checks."""
    return []


def break_newton_matrix_at(monkeypatch, iteration):
    """Make every Newton matrix -I from main iteration ``iteration`` on.

    The iteration is counted by the step searches ``solve`` has run, so
    the Gram matrix ``project_out_constraints`` builds through
    ``newton_matrix`` on first use is not mistaken for one.
    """
    from sparse_sdp import SdpProblem, solver

    searches = []
    search, assemble = solver.potential_minimize, SdpProblem.newton_matrix

    def counted_search(*args):
        searches.append(1)
        return search(*args)

    def newton_matrix(self, w):
        if len(searches) >= iteration - 1:
            return -np.eye(self.m)
        return assemble(self, w)

    monkeypatch.setattr(solver, "potential_minimize", counted_search)
    monkeypatch.setattr(SdpProblem, "newton_matrix", newton_matrix)


def front_density(pattern, front):
    """The share of pattern entries in the front's k x s block on and
    below the diagonal."""
    s, k = len(front.cols), len(front.cols) + len(front.seps)
    held = sum(1 + len(pattern.column_rows(j)) for j in front.cols.tolist())
    return held / (s * k - s * (s - 1) // 2)


def is_merged(pattern, front):
    """Whether the front holds the columns of more than one clique."""
    return tuple(front.cols.tolist()) not in {tuple(s.tolist())
                                              for s in pattern.cliques.residuals}
