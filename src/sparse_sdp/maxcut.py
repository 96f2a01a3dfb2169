"""MAX-CUT front end: relaxation, initial points, rounding, graph I/O.

The relaxation maximizes one quarter of the Laplacian quadratic form over
unit-diagonal PSD matrices; internally that is the standard minimization
form with C = -Laplacian/4 and one unit-diagonal constraint per vertex.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, TooManyEdges
from .logdet import lower_inverse
from .problem import SdpProblem
from .solver import SolverConfig, solve
from .sparsemat import PIVOT_RTOL, SparseSymMatrix, SparseSymPattern, cholesky_factorize


@dataclass
class Graph:
    """Simple undirected weighted graph; edges (i, j, w), w finite, > 0."""

    n: int
    edges: list

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        norm = []
        for e in self.edges:
            i, j = _integer(e[0], "vertex label"), _integer(e[1], "vertex label")
            w = float(e[2]) if len(e) > 2 else 1.0
            _add_edge(seen, i, j, w, range(self.n))
            norm.append((min(i, j), max(i, j), w))
        self.edges = norm

    @property
    def m(self):
        return len(self.edges)


def _integer(value, what):
    """``value`` as an int; ValueError naming it unless it is a whole number."""
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _add_edge(seen, i, j, w, labels):
    """Add {i, j} to ``seen``, a set of (min, max) pairs; ValueError unless
    i != j lie in the range ``labels``, the pair is new and w > 0 finite."""
    if i == j:
        raise ValueError(f"loop at vertex {i}")
    if i not in labels or j not in labels:
        raise ValueError(f"edge ({i},{j}) out of range {labels.start}..{labels.stop - 1}")
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"edge ({i},{j}) has weight {w}, not finite and positive")
    key = (min(i, j), max(i, j))
    if key in seen:
        raise ValueError(f"duplicate edge ({i},{j})")
    seen.add(key)


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
    Raises ValueError unless ``trials`` is an integer of at least 1.
    """
    runs = _integer(trials, "trials")
    if runs < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((runs, graph.n)) @ vectors    # one row per trial
    sides = np.where(proj >= 0.0, 1, -1).astype(np.int8)
    ends = np.array([e[:2] for e in graph.edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([e[2] for e in graph.edges])
    cut = sides.T[ends[:, 0]] != sides.T[ends[:, 1]]        # edge x trial
    # summed edge by edge down the first axis, in cut_value's order
    cuts = np.where(cut, weights[:, None], 0.0).sum(axis=0)
    best = int(np.argmax(cuts))          # the first trial of the largest cut
    if cuts[best] > 0.0:                 # above the all-ones start's cut
        best_sides, best_cut = sides[best].copy(), float(cuts[best])
    else:
        best_sides, best_cut = np.ones(graph.n, dtype=np.int8), 0.0
    bound = best_cut if sdp_bound is None else float(sdp_bound)
    return CutResult(best_sides, best_cut, bound, runs)


def gram_vectors(problem, state):
    """Columns of V (one per original vertex) with V^T V the completion:
    V = L^-1 for the factor L of its inverse, as L^-T L^-1 = X^."""
    return lower_inverse(state.primal.factor)[:, problem.ordering.perm]


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

    Vertices are 1-based in the file.  A malformed line, a label outside
    1..n, a loop, a repeated edge or a weight that is not finite and
    positive raises ValueError naming the line and the file's labels.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [(no, ln.strip()) for no, ln in enumerate(lines, 1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError("empty graph file")
    no, head = body[0]
    try:
        n, m = map(int, head.split())
    except ValueError:
        raise ValueError(f"line {no}: expected integers 'n m', got {head!r}") from None
    edges, seen = [], set()
    for no, ln in body[1:]:
        parts = ln.split()
        try:
            if len(parts) not in (2, 3):
                raise ValueError("expected 'i j [w]'")
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            _add_edge(seen, i, j, w, range(1, n + 1))
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        edges.append((i - 1, j - 1, w))
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
