"""Decoupled primal-dual potential reduction over partial primal matrices.

One main iteration computes two projected Newton directions (one across
the primal feasible slice, one across the dual slice), derives the two
cheap companion directions from the same quantities, and then runs a
fixed-unit-step steepest descent over the four step coefficients to
reduce the potential

    rho * ln(S.X) - ln det X - ln det S,    rho = n + gamma*sqrt(n).

Both Newton systems are solved exactly: their m x m matrix M is
assembled once per system from W (S^-1 on the dual side, the completion
X^ on the primal side) held in full, which batched forward and back
solves on the sparse factor give, by the class of the constraint
entries (``SdpProblem.newton_matrix``), then factored once by a dense
Cholesky, which is also its positive-definiteness check (and, bordered
by the right-hand side, the forward substitution while M is one block),
and solved by blocked substitution through that factor.  Each solve
reports its relative residual |M v - rhs| / |rhs|.  A factorization
that fails raises NewtonBreakdown.  The same W turns the solution back
into a matrix: the image W (sum v_p A_p) W on the fill pattern, and X^
M X^, come from ``hess_from_columns``, which scales W's columns by the
diagonal of the combination, takes two dense products per front for its
off-diagonal entries, and one row dot of W per slot.

An iterate is a dual half and a primal half with one interface: ``mat``
is S, or X on F; ``logdet`` is ln det S, or ln det X^; ``inv`` is S^-1
on F, or X^-1, which F supports; and ``factor`` is the factor of S, or
of X^-1, whose ``inverse_columns`` are the Newton system's W.  A
step-search trial that leaves y unchanged (k1 = k2 = 0) shares the
iterate's dual half, and one that leaves X unchanged (h1 = h2 = 0) its
primal half, so neither refactors nor re-inverts what the iterate
already holds.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from io import StringIO

import numpy as np

from .completion import (completion_factors, completion_inverse,
                         completion_inverse_factor, logdet_completion)
from .errors import (InfeasibleStart, IterationLimit, NewtonBreakdown,
                     NoDecrease, NotCompletable, NotPositiveDefinite)
from .logdet import hess_from_columns, inverse_columns, sparse_inverse
from .sparsemat import BORDER, SparseSymMatrix, cholesky_factorize, inner_product

FEAS_TOL = 1e-8          # strict-feasibility residual bound at entry
STALL_DECREASE = 1e-12   # potential decrease below this counts as stalled
MAX_DAMPINGS = 60        # halvings applied to an infeasible start point
MAX_DESCENT_STEPS = 20   # unit steps per start in the potential search
EXTRA_ITERS = 3          # polishing iterations once the gap is below gap_tol
SUBST_BLOCK = 64         # rows per block of the substitution through M's factor


@dataclass
class SolverConfig:
    """Solver knobs.

    ``gamma`` weights the potential, rho = n + gamma*sqrt(n); None
    resolves to sqrt(n) at solve time.  The solve converges once the
    duality gap S.X drops below ``gap_tol``.  ``max_main_iters`` bounds
    the main loop.  ``gamma`` and ``gap_tol`` must be positive finite
    reals and ``max_main_iters`` an int >= 1 (a bool is neither).  The Newton
    systems are solved exactly, so they have no knobs.  ``direction_mode``
    "four" searches over both Newton directions and their companions,
    "two" over the primal direction and its companion only.
    """

    gamma: float | None = None
    gap_tol: float = 1e-3
    max_main_iters: int = 200
    direction_mode: str = "four"

    def __post_init__(self):
        if self.gamma is not None and not _positive_finite(self.gamma):
            raise ValueError("gamma must be positive and finite")
        if not _positive_finite(self.gap_tol):
            raise ValueError("gap_tol must be positive and finite")
        if not _positive_int(self.max_main_iters):
            raise ValueError("max_main_iters must be an int >= 1")
        if self.direction_mode not in ("four", "two"):
            raise ValueError("direction_mode must be 'four' or 'two'")


def _positive_finite(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _positive_int(value):
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass
class CgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def conjugate_gradient(apply_h, rhs, rel_tol=1e-5, max_iter=None):
    """Solve H z = rhs for a symmetric positive definite operator.

    The solve does not call it: each Newton system is factored and
    solved exactly (``_newton_system``).

    Stops when the residual 2-norm drops below ``rel_tol`` times the
    2-norm of ``rhs``.  On hitting ``max_iter`` (default len(rhs)) first,
    returns the best iterate flagged ``converged=False``.  ``rel_tol``
    must be positive and finite and ``max_iter`` None or an int >= 1.
    """
    if not _positive_finite(rel_tol):
        raise ValueError("rel_tol must be positive and finite")
    if max_iter is not None and not _positive_int(max_iter):
        raise ValueError("max_iter must be None or an int >= 1")
    rhs = np.asarray(rhs, dtype=float)
    m = len(rhs)
    if max_iter is None:
        max_iter = m
    nb = float(np.linalg.norm(rhs))
    x = np.zeros(m)
    if nb == 0.0:
        return CgResult(x, 0, True, 0.0)
    r = rhs.copy()
    p = r.copy()
    rz = float(r @ r)
    best_x = x.copy()
    best_res = nb
    iters = 0
    while iters < max_iter:
        hp = apply_h(p)
        php = float(p @ hp)
        if php <= 0.0:
            break  # operator numerically lost definiteness along p
        alpha = rz / php
        x = x + alpha * p
        r = r - alpha * hp
        iters += 1
        rn = float(np.linalg.norm(r))
        if rn < best_res:
            best_res = rn
            best_x = x.copy()
        if rn <= rel_tol * nb:
            return CgResult(x, iters, True, rn)
        rz_new = float(r @ r)
        p = r + (rz_new / rz) * p
        rz = rz_new
    return CgResult(best_x, iters, False, best_res)


class DualHalf:
    """The dual half of an iterate: y, ``mat`` = S = C - sum y_p A_p, its
    ``factor`` and ``logdet``.

    Construction raises NotPositiveDefinite outside the cone.  ``inv``,
    S^-1 on F, is computed on first use and kept.
    """

    def __init__(self, problem, y):
        self.y = y
        self.mat = problem.dual_slack(y)
        self.factor = cholesky_factorize(self.mat)
        self.logdet = self.factor.logdet

    @cached_property
    def inv(self):
        """Entries on F of S^-1."""
        return sparse_inverse(self.factor)


class PrimalHalf:
    """The primal half of an iterate: ``mat`` = X, read as a partial
    matrix on the fill pattern F, its completion ``sweep`` and ``logdet``.

    Construction factors the clique blocks (``sweep``) and takes the
    completion log-det from them, so it raises NotCompletable outside the
    cone.  ``inv``, the completion inverse, and ``factor``, its Cholesky
    factor, are computed on first use and kept; both read ``sweep`` (its
    shared T_r), so the primal side makes no sparse factorization.
    """

    def __init__(self, xbar):
        self.mat = xbar
        self.sweep = completion_factors(xbar)
        self.logdet = logdet_completion(self.sweep)

    @cached_property
    def inv(self):
        """Inverse of the max-determinant completion, supported on F."""
        return completion_inverse(self.sweep)

    @cached_property
    def factor(self):
        """Cholesky factor of the completion inverse, from the same sweep."""
        return completion_inverse_factor(self.sweep)


class IterateState:
    """Iterate (X on F, y): one dual half, one primal half, gap and potential.

    ``IterateState(problem, dual, primal, rho)`` joins a ``DualHalf`` and
    a ``PrimalHalf`` already built; two states may share one, and with it
    its factors and the inverses it has computed.
    """

    def __init__(self, problem, dual, primal, rho):
        self.problem = problem
        self.dual = dual
        self.primal = primal
        self.rho = rho
        self.gap = inner_product(dual.mat, primal.mat)

    @classmethod
    def create(cls, problem, xbar, y, rho):
        """State at a start point; InfeasibleStart unless strictly feasible
        and primal feasible to FEAS_TOL."""
        try:
            dual = DualHalf(problem, np.asarray(y, dtype=float))
            state = cls(problem, dual, PrimalHalf(xbar), rho)
        except NotPositiveDefinite as exc:
            raise InfeasibleStart("dual slack is not positive definite") from exc
        except NotCompletable as exc:
            raise InfeasibleStart("primal partial matrix is not completable") from exc
        if state.gap <= 0.0:
            raise InfeasibleStart(f"duality gap {state.gap:.3e} is not positive")
        pres = state.primal_residual()
        if pres > FEAS_TOL:
            raise InfeasibleStart(f"primal residual {pres:.3e} exceeds {FEAS_TOL}")
        return state

    @property
    def phi(self):
        return self.rho * math.log(self.gap) - self.primal.logdet - self.dual.logdet

    def objective_primal(self):
        return inner_product(self.problem.c, self.primal.mat)

    def objective_dual(self):
        return float(self.problem.b @ self.dual.y)

    def primal_residual(self):
        prob = self.problem
        return float(np.max(np.abs(prob.apply_map(self.primal.mat) - prob.b))) \
            if prob.m else 0.0

    def residuals(self):
        """max |A(X) - b|, and max |S - L L^T| over F relative to max |S|
        over F, with L the dual half's factor and L L^T formed clique by
        clique through the fill's clique plan."""
        s = self.dual.mat.values
        llt = self.problem.fill.clique_plan.factor_product(self.dual.factor).values
        dres = float(np.max(np.abs(s - llt)) / np.max(np.abs(s)))
        return self.primal_residual(), dres


@dataclass
class Direction:
    """One projected Newton direction with its companion step.

    From the primal slice: dx = dX1, ds = dS1, dy = dy1, ``lam`` the
    Newton decrement and ``multipliers`` the lambda_p.  From the dual
    slice: dx = dX2, ds = dS2, dy = dy2, ``lam`` = lam~ and
    ``multipliers`` the coefficients z_p.  ``newton_res`` is the
    relative residual |M v - rhs| / |rhs| of the Newton system those
    multipliers solve.
    """

    dx: SparseSymMatrix
    ds: SparseSymMatrix
    dy: np.ndarray
    lam: float
    multipliers: np.ndarray
    newton_res: float


def _factor_solve(mat, rhs, side):
    """v with M v = rhs for M = ``mat``, and its relative residual
    |M v - rhs| / |rhs| (0 for rhs = 0).

    One dense Cholesky M = L L^T is also the positive-definiteness
    check: a failure raises NewtonBreakdown naming ``side``.  For m <=
    SUBST_BLOCK it factors [[M, r], [r^T, BORDER]], r = rhs scaled by a
    power of two to a norm in [1/2, 1), whose last row holds L^-1 r, so
    the call substitutes forward too; the border fails only when
    |L^-1 r|^2 >= 2^400, which needs lambda_min(M) < 2^-400.  A larger M
    (where the (m + 1)-row call was the slower, from m ~ 200) is factored
    alone and substituted forward as the back substitution always is, by
    blocks of SUBST_BLOCK rows: a matrix-vector product with the solved
    part, then one small ``np.linalg.solve``, never an LU of all of L.
    """
    m = len(rhs)
    norm = float(np.linalg.norm(rhs))
    exp, border, whole = math.frexp(norm)[1], m <= SUBST_BLOCK, mat
    if border:
        whole = np.empty((m + 1, m + 1))
        whole[:m, :m], whole[m, m] = mat, BORDER
        whole[m, :m] = whole[:m, m] = np.ldexp(rhs, -exp)
    try:
        low = np.linalg.cholesky(whole)
    except np.linalg.LinAlgError:
        raise NewtonBreakdown(f"{side} Newton matrix is not positive definite") from None
    u = np.ldexp(low[m, :m], exp) if border else np.zeros(m)
    for i0 in () if border else range(0, m, SUBST_BLOCK):
        i1 = min(i0 + SUBST_BLOCK, m)
        u[i0:i1] = np.linalg.solve(low[i0:i1, i0:i1],
                                   rhs[i0:i1] - low[i0:i1, :i0] @ u[:i0])
    v = np.zeros(m)
    for i0 in reversed(range(0, m, SUBST_BLOCK)):
        i1 = min(i0 + SUBST_BLOCK, m)
        v[i0:i1] = np.linalg.solve(low[i0:i1, i0:i1].T,
                                   u[i0:i1] - low[i1:m, i0:i1].T @ v[i1:])
    res = float(np.linalg.norm(mat @ v - rhs)) / norm if norm else 0.0
    return v, res


def _newton_system(prob, w, rhs, side):
    """Solve A(W (sum v_p A_p) W) = rhs for v exactly.

    ``w`` is the symmetric W in full, from batched solves on W^-1's
    sparse factor (``inverse_columns``).  ``newton_matrix`` assembles
    the system's matrix M_pq = A_p . (W A_q W) once from it, and
    ``_factor_solve`` factors and solves it.  Returns v, its relative
    residual, Z = sum v_p A_p and its image W Z W on the fill pattern,
    taken from the same W (``hess_from_columns``).
    """
    v, res = _factor_solve(prob.newton_matrix(w), rhs, side)
    combo = prob.adjoint_map(v)
    return v, res, combo, hess_from_columns(w, combo)


def dual_direction(state):
    """Projected Newton direction across the dual slice and its companion.

    Solves A(S^-1 N~ S^-1) = A(S^-1 - M~) exactly for the coefficients
    of N~ = sum z_p A_p, with M~ = (rho/gap) X.  Then
      dS2 = N~ / (1 + lam~),        lam~ = [(S^-1 N~ S^-1) . N~]^(1/2),
      dX2 = (gap/rho) (S^-1 - S^-1 N~ S^-1) - X   restricted to F,
    and dX2 is projected onto the constraint null space so primal
    feasibility is preserved exactly.
    """
    prob = state.problem
    mu = state.gap / state.rho
    s_inv = state.dual.inv
    xbar = state.primal.mat
    rhs = prob.apply_map(s_inv) - prob.apply_map(xbar) / mu
    w = inverse_columns(state.dual.factor)
    z, res, ntilde, curved = _newton_system(prob, w, rhs, "dual")
    lam_tilde = math.sqrt(max(inner_product(curved, ntilde), 0.0))
    raw = SparseSymMatrix(prob.fill, mu * (s_inv.values - curved.values) - xbar.values,
                          check=False)
    return Direction(dx=prob.project_out_constraints(raw),
                     ds=ntilde.scaled(1.0 / (1.0 + lam_tilde)),
                     dy=-z / (1.0 + lam_tilde), lam=lam_tilde, multipliers=z,
                     newton_res=res)


def primal_direction(state):
    """Projected Newton direction across the primal slice and its companion.

    Works against the completion X^ through its sparse inverse Y: with
    M = (rho/gap) S, solve A(sum lam_p X^ A_p X^) = A(X^ M X^ - X) for
    the multipliers exactly.  X^ comes in full once from
    batched solves on Y's factor; the system's matrix, (X^ M X^)|_F and
    (sum lam_p X^ A_p X^)|_F are all built from it.
    Then
      N|_F = X - (X^ M X^)|_F + sum lam_p (X^ A_p X^)|_F,
      dX1 = N / (1 + lam),   lam = [G . N]^(1/2),
      G = Y - M + sum lam_p A_p  (equals X^-1 N X^-1 on F),
      dS1 = (gap/rho) (Y - G) - S = -(gap/rho) sum lam_p A_p.
    N is projected onto the constraint null space before scaling.
    """
    prob = state.problem
    mu = state.gap / state.rho
    xbar = state.primal.mat
    w = inverse_columns(state.primal.factor)
    m_mat = state.dual.mat.scaled(1.0 / mu)
    xmx = hess_from_columns(w, m_mat)
    rhs = prob.apply_map(xmx) - prob.apply_map(xbar)
    mult, res, lam_a, xlx = _newton_system(prob, w, rhs, "primal")
    n_mat = prob.project_out_constraints(SparseSymMatrix(
        prob.fill, xbar.values - xmx.values + xlx.values, check=False))
    g_mat = SparseSymMatrix(prob.fill,
                            state.primal.inv.values - m_mat.values + lam_a.values,
                            check=False)
    lam = math.sqrt(max(inner_product(g_mat, n_mat), 0.0))
    return Direction(dx=n_mat.scaled(1.0 / (1.0 + lam)), ds=lam_a.scaled(-mu),
                     dy=mu * mult, lam=lam, multipliers=mult, newton_res=res)


@dataclass
class StepChoice:
    """Outcome of the potential minimization over step coefficients."""

    coeffs: np.ndarray            # (h1, h2, k1, k2)
    phi: float
    steps_per_start: list
    trial: IterateState | None    # None means the all-zero point won

    @property
    def mean_steps(self):
        return sum(self.steps_per_start) / len(self.steps_per_start)


def _trial(state, dirs, q):
    """The iterate moved by q = (h1, h2, k1, k2) along ``dirs`` = (primal,
    dual), or None outside the cones or at a gap that is not positive.

    Only the halves the step moves are built: with k1 = k2 = 0 the trial
    shares ``state.dual``, with h1 = h2 = 0 ``state.primal``.
    """
    prob = state.problem
    moves = [(d, q[t], q[2 + t]) for t, d in enumerate(dirs) if d is not None]
    dual_half, primal_half = state.dual, state.primal
    try:
        if any(k != 0.0 for _, _, k in moves):
            y = state.dual.y.copy()
            for d, _, k in moves:
                if k != 0.0:
                    y += k * d.dy
            dual_half = DualHalf(prob, y)
        if any(h != 0.0 for _, h, _ in moves):
            x = state.primal.mat.values.copy()
            for d, h, _ in moves:
                if h != 0.0:
                    x += h * d.dx.values
            primal_half = PrimalHalf(SparseSymMatrix(prob.fill, x, check=False))
    except (NotPositiveDefinite, NotCompletable):
        return None
    trial = IterateState(prob, dual_half, primal_half, state.rho)
    return trial if trial.gap > 0.0 else None


def potential_minimize(state, primal, dual):
    """Steepest descent on the potential over the step coefficients.

    The point (h1, h2, k1, k2) moves X by h1 dX1 + h2 dX2 and y by
    k1 dy1 + k2 dy2, with (dX1, dy1) from ``primal`` and (dX2, dy2) from
    ``dual``.  Starts from each unit coefficient point (damped by
    halving while the point is infeasible), then repeatedly moves a
    fixed unit-length step along the negative gradient while that keeps
    the point feasible and decreases the potential; no line search.
    Returns the best terminal point against the all-zero point.  With
    ``dual`` None (two-direction mode) only (h1, k1) are searched.
    Raises NoDecrease when no start can be made feasible.

    Each trial builds only the halves its step moves: with k1 = k2 = 0
    it shares the iterate's dual half (no new S, factor or S^-1), with
    h1 = h2 = 0 its primal half (no new completion, log-det or inverse).
    """
    rho = state.rho
    active = [0, 2] if dual is None else [0, 1, 2, 3]
    dirs = (primal, dual)
    phi0 = state.phi

    def gradient(trial):
        # S^-1 and the completion inverse stay cached on the trial's
        # halves: a trial that shares a half with the iterate reuses the
        # iterate's, and the one ``solve`` adopts brings its own into the
        # next directions.
        scale = rho / trial.gap
        s_inv, x_inv = trial.dual.inv, trial.primal.inv
        g = np.zeros(4)
        for t, d in enumerate(dirs):
            if d is not None:
                g[t] = scale * inner_product(trial.dual.mat, d.dx) \
                    - inner_product(x_inv, d.dx)
                g[2 + t] = scale * inner_product(trial.primal.mat, d.ds) \
                    - inner_product(s_inv, d.ds)
        return g

    terminals = []
    steps_per_start = []
    for start in active:
        q = np.zeros(4)
        q[start] = 1.0
        trial = _trial(state, dirs, q)
        dampings = 0
        while trial is None and dampings < MAX_DAMPINGS:
            q[start] *= 0.5
            trial = _trial(state, dirs, q)
            dampings += 1
        if trial is None:
            steps_per_start.append(0)
            continue
        steps = 0
        while steps < MAX_DESCENT_STEPS:
            g = gradient(trial)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                break
            cand_q = q - g / norm
            cand = _trial(state, dirs, cand_q)
            if cand is None or not cand.phi < trial.phi:
                break
            q, trial = cand_q, cand
            steps += 1
        steps_per_start.append(steps)
        terminals.append((trial.phi, start, q, trial))
    if not terminals:
        raise NoDecrease("no feasible starting point for the potential search")
    terminals.sort(key=lambda t: (t[0], t[1]))
    best_phi, _, best_q, best = terminals[0]
    if best_phi >= phi0:
        return StepChoice(np.zeros(4), phi0, steps_per_start, None)
    return StepChoice(best_q, best_phi, steps_per_start, best)


@dataclass
class IterationRecord:
    index: int
    gap: float
    phi: float
    newton_res_primal: float
    newton_res_dual: float
    descent_steps: float
    primal_residual: float
    dual_residual: float


@dataclass
class SolverReport:
    """Per-iteration trace plus final objectives and state."""

    n: int
    m: int
    direction_mode: str
    gamma: float
    gap_tol: float
    initial_gap: float
    initial_phi: float
    records: list = field(default_factory=list)
    status: str = "running"
    converged_iteration: int | None = None
    objective_primal: float = math.nan
    objective_dual: float = math.nan
    gap: float = math.nan
    state: object | None = None

    @property
    def iterations(self):
        return len(self.records)

    def csv_text(self):
        out = StringIO()
        out.write("iter,gap,phi,newton_res_primal,newton_res_dual,descent_steps\n")
        for r in self.records:
            out.write(f"{r.index},{r.gap!r},{r.phi!r},{r.newton_res_primal!r},"
                      f"{r.newton_res_dual!r},{r.descent_steps!r}\n")
        return out.getvalue()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def summary(self):
        return {
            "status": self.status,
            "n": self.n,
            "m": self.m,
            "direction_mode": self.direction_mode,
            "gamma": self.gamma,
            "gap_tol": self.gap_tol,
            "iterations": self.iterations,
            "converged_iteration": self.converged_iteration,
            "objective_primal": self.objective_primal,
            "objective_dual": self.objective_dual,
            "gap": self.gap,
            "initial_gap": self.initial_gap,
            "max_primal_residual": max((r.primal_residual for r in self.records),
                                       default=0.0),
            "max_dual_residual": max((r.dual_residual for r in self.records),
                                     default=0.0),
            "max_newton_res_primal": max((r.newton_res_primal for r in self.records),
                                         default=0.0),
            "max_newton_res_dual": max((r.newton_res_dual for r in self.records),
                                       default=0.0),
            "mean_descent_steps": _mean(r.descent_steps for r in self.records),
        }

    def write_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def solve(problem, x0, y0, cfg=None, observer=None):
    """Run the main loop from a strictly feasible start.

    Iterates until the duality gap falls below ``cfg.gap_tol``, then runs
    EXTRA_ITERS polishing iterations.  Raises InfeasibleStart for
    a bad initial point and IterationLimit (with the partial report
    attached) when the iteration budget runs out or progress stalls;
    its subclass NewtonBreakdown (status "breakdown") when a Newton
    matrix is not numerically positive definite.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else math.sqrt(problem.n)
    rho = problem.n + gamma * math.sqrt(problem.n)
    state = IterateState.create(problem, x0, y0, rho)
    report = SolverReport(n=problem.n, m=problem.m,
                          direction_mode=cfg.direction_mode, gamma=gamma,
                          gap_tol=cfg.gap_tol, initial_gap=state.gap,
                          initial_phi=state.phi)

    def finish(status):
        report.status = status
        report.objective_primal = state.objective_primal()
        report.objective_dual = state.objective_dual()
        report.gap = state.gap
        report.state = state
        return report

    converged_at = None
    for it in range(1, cfg.max_main_iters + 1):
        try:
            primal = primal_direction(state)
            dual = dual_direction(state) if cfg.direction_mode == "four" else None
        except NewtonBreakdown as exc:
            raise NewtonBreakdown(f"{exc} at gap {state.gap:.3e}",
                                  finish("breakdown")) from exc
        try:
            choice = potential_minimize(state, primal, dual)
        except NoDecrease:
            stalled, why = True, "no feasible potential-reducing step"
        else:
            stalled = choice.trial is None or state.phi - choice.phi < STALL_DECREASE
            why = f"potential decrease below {STALL_DECREASE} at gap {state.gap:.3e}"
        if stalled:
            if converged_at is not None or state.gap <= cfg.gap_tol:
                return finish("converged")
            raise IterationLimit(why, finish("stalled"))
        state = choice.trial
        pres, dres = state.residuals()
        record = IterationRecord(it, state.gap, state.phi, primal.newton_res,
                                 dual.newton_res if dual else 0.0,
                                 choice.mean_steps, pres, dres)
        report.records.append(record)
        if observer is not None:
            observer(record)
        if converged_at is None and state.gap <= cfg.gap_tol:
            converged_at = it
            report.converged_iteration = it
        if converged_at is not None and it >= converged_at + EXTRA_ITERS:
            return finish("converged")
    if converged_at is not None:
        return finish("converged")
    raise IterationLimit(f"gap {state.gap:.3e} above {cfg.gap_tol} after "
                         f"{cfg.max_main_iters} iterations",
                         finish("iteration_limit"))


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0
