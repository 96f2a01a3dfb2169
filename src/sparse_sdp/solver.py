"""Decoupled primal-dual potential reduction over partial primal matrices.

One main iteration computes two projected Newton directions (one across
the primal feasible slice, one across the dual slice), derives the two
cheap companion directions from the same quantities, and then runs a
fixed-unit-step steepest descent over the four step coefficients to
reduce the potential

    rho * ln(S.X) - ln det X - ln det S,    rho = n + gamma*sqrt(n).

Both Newton systems are solved matrix-free by conjugate gradient; each
operator application is one Hessian-product sweep over the fill pattern.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from io import StringIO

import numpy as np

from .completion import completion_inverse, logdet_completion
from .errors import (InfeasibleStart, IterationLimit, NoDecrease,
                     NotCompletable, NotPositiveDefinite)
from .logdet import hess_vec, sparse_inverse
from .sparsemat import SparseSymMatrix, cholesky_factorize, inner_product

FEAS_TOL = 1e-8          # strict-feasibility residual bound at entry
STALL_DECREASE = 1e-12   # potential decrease below this counts as stalled
MAX_DAMPINGS = 60        # halvings applied to an infeasible start point
MAX_DESCENT_STEPS = 20   # unit steps per start in the potential search
EXTRA_ITERS = 3          # polishing iterations once the gap is below gap_tol


@dataclass
class SolverConfig:
    """Solver knobs.

    ``gamma`` weights the potential, rho = n + gamma*sqrt(n); None
    resolves to sqrt(n) at solve time.  The solve converges once the
    duality gap S.X drops below ``gap_tol``.  Each Newton system is
    solved by conjugate gradient to relative residual ``cg_rel_tol`` in
    at most ``cg_max_iter`` iterations (None means m).
    ``max_main_iters`` bounds the main loop.  ``direction_mode`` "four"
    searches over both Newton directions and their companions, "two"
    over the primal direction and its companion only.
    """

    gamma: float | None = None
    gap_tol: float = 1e-3
    cg_rel_tol: float = 1e-5
    cg_max_iter: int | None = None
    max_main_iters: int = 200
    direction_mode: str = "four"

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.gap_tol <= 0 or self.cg_rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.direction_mode not in ("four", "two"):
            raise ValueError("direction_mode must be 'four' or 'two'")


@dataclass
class CgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def conjugate_gradient(apply_h, rhs, rel_tol=1e-5, max_iter=None):
    """Solve H z = rhs for a symmetric positive definite operator.

    Stops when the residual 2-norm drops below ``rel_tol`` times the
    2-norm of ``rhs``.  On hitting ``max_iter`` (default len(rhs)) first,
    returns the best iterate flagged ``converged=False``.
    """
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


class IterateState:
    """Iterate (X on F, y) with its dual slack, factor and potential.

    ``xbar`` is read as a partial matrix on the fill pattern F.
    Construction factors S = C - sum y_p A_p and takes the completion
    log-det, so it raises NotPositiveDefinite or NotCompletable outside
    the cones.  The completion inverse, its factor and S^-1 on F are
    computed on first use and kept.
    """

    def __init__(self, problem, xbar, y, rho):
        self.problem = problem
        self.xbar = xbar
        self.y = y
        self.rho = rho
        self.s = problem.dual_slack(y)
        self.s_factor = cholesky_factorize(self.s)
        self.logdet_x = logdet_completion(xbar, problem.cliques)
        self.gap = inner_product(self.s, xbar)

    @classmethod
    def create(cls, problem, xbar, y, rho, validate=False):
        """State at a start point; InfeasibleStart unless strictly feasible."""
        try:
            state = cls(problem, xbar, np.asarray(y, dtype=float), rho)
        except NotPositiveDefinite as exc:
            raise InfeasibleStart("dual slack is not positive definite") from exc
        except NotCompletable as exc:
            raise InfeasibleStart("primal partial matrix is not completable") from exc
        if state.gap <= 0.0:
            raise InfeasibleStart(f"duality gap {state.gap:.3e} is not positive")
        if validate:
            pres = state.primal_residual()
            if pres > FEAS_TOL:
                raise InfeasibleStart(f"primal residual {pres:.3e} exceeds {FEAS_TOL}")
        return state

    @property
    def logdet_s(self):
        return self.s_factor.logdet

    @property
    def phi(self):
        return self.rho * math.log(self.gap) - self.logdet_x - self.logdet_s

    @cached_property
    def xhat_inv(self):
        """Inverse of the max-determinant completion, supported on F."""
        return completion_inverse(self.xbar, self.problem.cliques)

    @cached_property
    def xhat_inv_factor(self):
        return cholesky_factorize(self.xhat_inv)

    @cached_property
    def sinv(self):
        """Entries on F of S^-1."""
        return sparse_inverse(self.s_factor)

    def objective_primal(self):
        return inner_product(self.problem.c, self.xbar)

    def objective_dual(self):
        return float(self.problem.b @ self.y)

    def primal_residual(self):
        prob = self.problem
        return float(np.max(np.abs(prob.apply_map(self.xbar) - prob.b))) \
            if prob.m else 0.0

    def residuals(self):
        pres = self.primal_residual()
        slack = self.problem.dual_slack(self.y)
        dres = max(float(np.max(np.abs(slack.diag - self.s.diag))),
                   float(np.max(np.abs(slack.offdiag - self.s.offdiag)))
                   if len(slack.offdiag) else 0.0)
        return pres, dres


@dataclass
class Direction:
    """One projected Newton direction with its companion step.

    From the primal slice: dx = dX1, ds = dS1, dy = dy1, ``lam`` the
    Newton decrement and ``cg.x`` the multipliers lambda.  From the dual
    slice: dx = dX2, ds = dS2, dy = dy2, ``lam`` = lam~ and ``cg.x`` the
    coefficients z.
    """

    dx: SparseSymMatrix
    ds: SparseSymMatrix
    dy: np.ndarray
    lam: float
    cg: CgResult


def dual_direction(state, cfg):
    """Projected Newton direction across the dual slice and its companion.

    Solves A(S^-1 N~ S^-1) = A(S^-1 - M~) for the coefficients of
    N~ = sum z_p A_p by conjugate gradient, with M~ = (rho/gap) X.  Then
      dS2 = N~ / (1 + lam~),        lam~ = [(S^-1 N~ S^-1) . N~]^(1/2),
      dX2 = (gap/rho) (S^-1 - S^-1 N~ S^-1) - X   restricted to F,
    and dX2 is projected onto the constraint null space so primal
    feasibility is preserved exactly.
    """
    prob = state.problem
    mu = state.gap / state.rho
    sinv = state.sinv
    xbar = state.xbar
    rhs = prob.apply_map(sinv) - prob.apply_map(xbar) / mu

    def op(zv):
        return prob.apply_map(hess_vec(state.s_factor, prob.adjoint_map(zv),
                                       sinv=sinv))

    res = conjugate_gradient(op, rhs, rel_tol=cfg.cg_rel_tol,
                             max_iter=cfg.cg_max_iter or prob.m)
    ntilde = prob.adjoint_map(res.x)
    curved = hess_vec(state.s_factor, ntilde, sinv=sinv)
    lam_tilde = math.sqrt(max(inner_product(curved, ntilde), 0.0))
    raw = SparseSymMatrix(prob.fill,
                          mu * (sinv.diag - curved.diag) - xbar.diag,
                          mu * (sinv.offdiag - curved.offdiag) - xbar.offdiag,
                          check=False)
    return Direction(dx=prob.project_out_constraints(raw),
                     ds=ntilde.scaled(1.0 / (1.0 + lam_tilde)),
                     dy=-res.x / (1.0 + lam_tilde), lam=lam_tilde, cg=res)


def primal_direction(state, cfg):
    """Projected Newton direction across the primal slice and its companion.

    Works against the completion X^ through its sparse inverse Y: with
    M = (rho/gap) S, solve A(sum lam_p X^ A_p X^) = A(X^ M X^ - X) for
    the multipliers by conjugate gradient, where every product
    (X^ Z X^)|_F is one Hessian sweep on Y's factor.  Then
      N|_F = X - (X^ M X^)|_F + sum lam_p (X^ A_p X^)|_F,
      dX1 = N / (1 + lam),   lam = [G . N]^(1/2),
      G = Y - M + sum lam_p A_p  (equals X^-1 N X^-1 on F),
      dS1 = (gap/rho) (Y - G) - S = -(gap/rho) sum lam_p A_p.
    N is projected onto the constraint null space before scaling.
    """
    prob = state.problem
    mu = state.gap / state.rho
    xbar = state.xbar
    y_factor = state.xhat_inv_factor
    m_mat = state.s.scaled(1.0 / mu)
    xmx = hess_vec(y_factor, m_mat, sinv=xbar)
    rhs = prob.apply_map(xmx) - prob.apply_map(xbar)

    def op(lv):
        return prob.apply_map(hess_vec(y_factor, prob.adjoint_map(lv),
                                       sinv=xbar))

    res = conjugate_gradient(op, rhs, rel_tol=cfg.cg_rel_tol,
                             max_iter=cfg.cg_max_iter or prob.m)
    lam_a = prob.adjoint_map(res.x)
    xlx = hess_vec(y_factor, lam_a, sinv=xbar)
    n_mat = SparseSymMatrix(prob.fill,
                            xbar.diag - xmx.diag + xlx.diag,
                            xbar.offdiag - xmx.offdiag + xlx.offdiag,
                            check=False)
    n_mat = prob.project_out_constraints(n_mat)
    xhat_inv = state.xhat_inv
    g_mat = SparseSymMatrix(prob.fill,
                            xhat_inv.diag - m_mat.diag + lam_a.diag,
                            xhat_inv.offdiag - m_mat.offdiag + lam_a.offdiag,
                            check=False)
    lam = math.sqrt(max(inner_product(g_mat, n_mat), 0.0))
    return Direction(dx=n_mat.scaled(1.0 / (1.0 + lam)), ds=lam_a.scaled(-mu),
                     dy=mu * res.x, lam=lam, cg=res)


@dataclass
class StepChoice:
    """Outcome of the potential minimization over step coefficients."""

    coeffs: np.ndarray            # (h1, h2, k1, k2)
    phi: float
    steps_per_start: list
    trial: IterateState | None    # None means the all-zero point won

    @property
    def mean_steps(self):
        if not self.steps_per_start:
            return 0.0
        return sum(self.steps_per_start) / len(self.steps_per_start)


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
    """
    prob = state.problem
    rho = state.rho
    active = [0, 2] if dual is None else [0, 1, 2, 3]
    dirs = (primal, dual)
    phi0 = state.phi

    def evaluate(q):
        xdiag = state.xbar.diag.copy()
        xoff = state.xbar.offdiag.copy()
        y = state.y.copy()
        for d, h, k in ((primal, q[0], q[2]), (dual, q[1], q[3])):
            if d is None:
                continue
            if h != 0.0:
                xdiag += h * d.dx.diag
                xoff += h * d.dx.offdiag
            if k != 0.0:
                y += k * d.dy
        xbar = SparseSymMatrix(prob.fill, xdiag, xoff, check=False)
        try:
            trial = IterateState(prob, xbar, y, rho)
        except (NotPositiveDefinite, NotCompletable):
            return None
        return trial if trial.gap > 0.0 else None

    def gradient(trial):
        scale = rho / trial.gap
        sinv = sparse_inverse(trial.s_factor)
        g = np.zeros(4)
        for t, d in enumerate(dirs):
            if d is not None:
                g[t] = scale * inner_product(trial.s, d.dx) \
                    - inner_product(trial.xhat_inv, d.dx)
                g[2 + t] = scale * inner_product(trial.xbar, d.ds) \
                    - inner_product(sinv, d.ds)
        mask = np.zeros(4)
        mask[active] = 1.0
        return g * mask

    terminals = []
    steps_per_start = []
    for start in active:
        q = np.zeros(4)
        q[start] = 1.0
        trial = evaluate(q)
        dampings = 0
        while trial is None and dampings < MAX_DAMPINGS:
            q[start] *= 0.5
            trial = evaluate(q)
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
            cand = evaluate(cand_q)
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
    cg_primal: int
    cg_dual: int
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
        out.write("iter,gap,phi,cg_primal,cg_dual,descent_steps\n")
        for r in self.records:
            out.write(f"{r.index},{r.gap!r},{r.phi!r},{r.cg_primal},"
                      f"{r.cg_dual},{r.descent_steps!r}\n")
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
            "mean_cg_primal": _mean(r.cg_primal for r in self.records),
            "mean_cg_dual": _mean(r.cg_dual for r in self.records),
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
    attached) when the iteration budget runs out or progress stalls.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else math.sqrt(problem.n)
    rho = problem.n + gamma * math.sqrt(problem.n)
    state = IterateState.create(problem, x0, y0, rho, validate=True)
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
        primal = primal_direction(state, cfg)
        dual = dual_direction(state, cfg) if cfg.direction_mode == "four" else None
        try:
            choice = potential_minimize(state, primal, dual)
        except NoDecrease:
            if converged_at is not None or state.gap <= cfg.gap_tol:
                return finish("converged")
            raise IterationLimit("no feasible potential-reducing step",
                                 finish("stalled"))
        if choice.trial is None or state.phi - choice.phi < STALL_DECREASE:
            if converged_at is not None or state.gap <= cfg.gap_tol:
                return finish("converged")
            raise IterationLimit(
                f"potential decrease below {STALL_DECREASE} at gap "
                f"{state.gap:.3e}", finish("stalled"))
        state = choice.trial
        pres, dres = state.residuals()
        record = IterationRecord(it, state.gap, state.phi, primal.cg.iterations,
                                 dual.cg.iterations if dual else 0,
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
