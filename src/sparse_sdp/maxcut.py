"""MAX-CUT front end: relaxation, initial points, rounding, graph I/O.

The relaxation maximizes one quarter of the Laplacian quadratic form over
unit-diagonal PSD matrices; internally that is the standard minimization
form with C = -Laplacian/4 and one unit-diagonal constraint per vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .completion import completion_vectors
from .errors import NotPositiveDefinite, TooManyEdges
from .problem import SdpProblem
from .solver import SolverConfig, solve
from .sparsemat import PIVOT_RTOL, SparseSymMatrix, SparseSymPattern, cholesky_factorize


@dataclass
class Graph:
    """Simple undirected weighted graph; edges are (i, j, w) with w > 0."""

    n: int
    edges: list

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        norm = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            w = float(e[2]) if len(e) > 2 else 1.0
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if w <= 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(key)
            norm.append((key[0], key[1], w))
        self.edges = norm

    @property
    def m(self):
        return len(self.edges)


@dataclass
class CutResult:
    sides: np.ndarray        # +-1 per vertex
    cut_value: float
    sdp_bound: float
    trials: int


def random_graph(n, m, seed):
    """Uniform simple graph with exactly m edges; deterministic per seed."""
    limit = n * (n - 1) // 2
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > limit:
        raise TooManyEdges(f"{m} edges requested, K_{n} has only {limit}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(limit, size=m, replace=False) if m else np.empty(0, dtype=int)
    edges = []
    for code in sorted(int(c) for c in picks):
        # code enumerates pairs (i, j), i > j, column-major
        i = int((1 + math.isqrt(1 + 8 * code)) // 2)
        j = code - i * (i - 1) // 2
        edges.append((i, j, 1.0))
    return Graph(n, edges)


def maxcut_sdp(graph):
    """Standard-form relaxation: C = -Laplacian/4, unit diagonal constraints."""
    n = graph.n
    ends = np.array([e[:2] for e in graph.edges], dtype=np.int64).reshape(-1, 2)
    quarter = np.array([e[2] for e in graph.edges]) / 4.0
    pat = SparseSymPattern(n, ends)
    values = np.zeros(n + pat.nnz)
    values[pat.slots(ends[:, 0], ends[:, 1])] = quarter
    np.subtract.at(values, ends.ravel(), np.repeat(quarter, 2))   # i, then j, per edge
    c = SparseSymMatrix(pat, values)
    empty = SparseSymPattern(n)
    constraints = [SparseSymMatrix(empty, row, check=False) for row in np.eye(n)]
    return SdpProblem(c, constraints, np.ones(n))


def initial_point(problem):
    """Strictly feasible start for problems with diagonal constraints.

    The primal partial matrix is diagonal on the fill pattern, with
    X_vv = b_p / a_p for A_p = a_p e_v e_v^T.  The dual vector starts at
    all ones (slack C - sum_p a_p e_v e_v^T) and is shifted downward,
    y_p by (|bound| + 1) / a_p, past the worst Gershgorin bound until the
    slack is positive definite.  Whether it is comes from the slack's
    entries where they decide it: a diagonal entry <= 0 rules it out, and
    a Gershgorin margin above PIVOT_RTOL times the largest diagonal
    entry, which bounds every Cholesky pivot from below, proves it; only
    otherwise is the slack factored.  Raises ValueError unless the
    constraints are one such A_p per vertex with a_p > 0 and b_p > 0.
    """
    coef = _require_diagonal_constraints(problem)
    if np.any(problem.b <= 0.0):
        raise ValueError(f"constraint {int(np.argmax(problem.b <= 0.0))} has b_p <= 0")
    n = problem.n
    x0 = SparseSymMatrix.zeros(problem.fill)
    x0.diag[problem._ent_r] = problem.b / coef
    y0 = np.ones(n)
    while True:
        s = problem.dual_slack(y0)
        # |S_ij| added to rows i and j, edge by edge as a loop would
        ends = np.column_stack(s.pattern.slot_ends)[n:].ravel()
        row_abs = np.bincount(ends, np.repeat(np.abs(s.offdiag), 2), minlength=n)
        bound = float(np.min(s.diag - row_abs, initial=np.inf))
        if np.all(s.diag > 0.0):
            if bound > PIVOT_RTOL * float(np.max(s.diag, initial=0.0)):
                return x0, y0
            try:
                cholesky_factorize(s)
                return x0, y0
            except NotPositiveDefinite:
                pass
        y0 = y0 - (abs(bound) + 1.0) / coef     # S_vv rises by |bound| + 1


def _require_diagonal_constraints(problem):
    """The a_p of constraints A_p = a_p e_v e_v^T, one per vertex v, read
    from the problem's entry table; ValueError unless the constraints have
    that form with every a_p > 0."""
    if problem.m != problem.n:
        raise ValueError("expected one unit-diagonal constraint per vertex")
    own, r = problem._ent_own, problem._ent_r
    on_diag = r == problem._ent_s
    bad = np.bincount(own[on_diag], minlength=problem.m) != 1
    bad[own[~on_diag]] = True
    if np.any(bad):
        raise ValueError(f"constraint {int(np.argmax(bad))} is not a unit diagonal indicator")
    # one entry per constraint, so the table lists them in constraint order
    bad = (problem._ent_val <= 0.0) | (np.bincount(r, minlength=problem.n)[r] > 1)
    if np.any(bad):
        raise ValueError(f"constraint {int(np.argmax(bad))} has a coefficient <= 0 "
                         "or shares its vertex with another constraint")
    return problem._ent_val


def cut_value(graph, sides):
    """Total weight of edges whose endpoints got different signs."""
    sides = np.asarray(sides)
    if len(sides) != graph.n:
        raise ValueError("side assignment length mismatch")
    return float(sum(w for i, j, w in graph.edges if sides[i] != sides[j]))


def hyperplane_rounding(vectors, graph, trials=100, seed=0, sdp_bound=None):
    """Round Gram vectors to a cut by random hyperplanes; keep the best.

    ``vectors`` has one column per vertex (in graph labels) with
    V^T V equal to the solved primal matrix.  Deterministic per seed.
    Raises ValueError for fewer than one trial.
    """
    runs = int(trials)
    if runs < 1:
        raise ValueError(f"trials must be at least 1, got {runs}")
    rng = np.random.default_rng(seed)
    n = graph.n
    best_sides = np.ones(n, dtype=np.int8)
    best_cut = cut_value(graph, best_sides)
    for _ in range(runs):
        r = rng.standard_normal(n)
        proj = r @ vectors
        sides = np.where(proj >= 0.0, 1, -1).astype(np.int8)
        val = cut_value(graph, sides)
        if val > best_cut:
            best_cut = val
            best_sides = sides
    bound = best_cut if sdp_bound is None else float(sdp_bound)
    return CutResult(best_sides, best_cut, bound, runs)


def gram_vectors(problem, state):
    """Columns of V (one per original vertex) with V^T V the completion."""
    v = completion_vectors(state.x_factors)
    return v[:, problem.ordering.perm]


def solve_maxcut(graph, cfg=None, trials=100, seed=0):
    """Full pipeline: relax, solve, round.  Returns (report, CutResult).

    The reported bound is the dual objective in maximization form, a
    certified upper bound on every cut, so ``cut <= bound`` always holds.
    """
    problem = maxcut_sdp(graph)
    x0, y0 = initial_point(problem)
    report = solve(problem, x0, y0, cfg or SolverConfig())
    bound = -report.objective_dual
    vectors = gram_vectors(problem, report.state)
    result = hyperplane_rounding(vectors, graph, trials=trials, seed=seed,
                                 sdp_bound=bound)
    return report, result


def read_graph(path):
    """Edge-list file: first line "n m", then one "i j [w]" line per edge.

    Vertices are 1-based in the file.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [(no, ln.strip()) for no, ln in enumerate(lines, 1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError("empty graph file")
    no, head = body[0]
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"line {no}: expected 'n m'")
    n, m = int(parts[0]), int(parts[1])
    edges = []
    for no, ln in body[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {no}: expected 'i j [w]'")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        w = float(parts[2]) if len(parts) == 3 else 1.0
        edges.append((i, j, w))
    if len(edges) != m:
        raise ValueError(f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_graph(graph, path):
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for i, j, w in graph.edges:
            if w == 1.0:
                fh.write(f"{i + 1} {j + 1}\n")
            else:
                fh.write(f"{i + 1} {j + 1} {w!r}\n")
