"""The exact Newton solve: one Cholesky of M (bordered by the right-hand
side while M is one block), blocked substitution through its factor, the
typed breakdown, and the solves it keeps from stalling."""

import importlib.util
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sdp import (Graph, IterationLimit, NewtonBreakdown, SolverConfig,
                        initial_point, inverse_columns, maxcut_sdp, solve, solver)
from sparse_sdp.bench import trial_seed

import solve_digest
from conftest import break_newton_matrix_at

_spec = importlib.util.spec_from_file_location(
    "perfbench_graphs", Path(__file__).resolve().parent.parent / "perfbench" / "graphs.py")
graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(graphs)


def banded(n, seed):
    problem = maxcut_sdp(Graph(*graphs.banded_graph(n, 3, seed)))
    return (problem, *initial_point(problem))


class TestFactorSolve:
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([0, 1, 63, 64, 65, 129, 200]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_spd_against_dense_solve(self, m, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m, m))
        mat = g @ g.T / max(m, 1) + 0.1 * np.eye(m)
        rhs = rng.standard_normal(m)
        v, res = solver._factor_solve(mat, rhs, "primal")
        want = np.linalg.solve(mat, rhs) if m else np.zeros(0)
        assert np.linalg.norm(v - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300)
        recomputed = np.linalg.norm(mat @ v - rhs) / np.linalg.norm(rhs) if m else 0.0
        assert res == pytest.approx(recomputed, rel=1e-12, abs=0.0)

    def test_zero_rhs_has_zero_residual(self):
        # the bordered factor at m <= SUBST_BLOCK, the blocked pass above
        for m in (3, 100):
            v, res = solver._factor_solve(2.0 * np.eye(m), np.zeros(m), "dual")
            assert v.shape == (m,) and not v.any() and res == 0.0

    @pytest.mark.parametrize("m", [5, 100])
    @pytest.mark.parametrize("size", [1e100, 1e-300])
    def test_extreme_rhs_solves_without_breakdown(self, m, size):
        # |L^-1 rhs|^2 ~ 1e200 would fail a border of 2^400 ~ 2.6e120 if
        # the border row were not scaled by a power of two to a norm below
        # 1; 1e-300 takes a scaling by about 2^996 up
        rng = np.random.default_rng(m)
        g = rng.standard_normal((m, m))
        mat = g @ g.T / m + np.eye(m)
        rhs = size * rng.standard_normal(m)
        v, res = solver._factor_solve(mat, rhs, "dual")
        want = np.linalg.solve(mat, rhs)
        assert np.linalg.norm(v - want) <= 1e-12 * np.linalg.norm(want)
        assert res <= 1e-14

    def test_indefinite_matrix_names_its_side(self):
        with pytest.raises(NewtonBreakdown, match="dual Newton matrix"):
            solver._factor_solve(np.diag([1.0, -1.0]), np.ones(2), "dual")
        # on both sides of SUBST_BLOCK, the last pivot failing
        for m, side in ((64, "primal"), (65, "dual"), (130, "primal")):
            mat = np.eye(m)
            mat[m - 1, m - 1] = -1e-3
            with pytest.raises(NewtonBreakdown, match=f"^{side} Newton matrix is not"):
                solver._factor_solve(mat, np.ones(m), side)

    def test_one_cholesky_and_only_block_sized_solves(self, monkeypatch):
        # m = 60: one bordered call [[M, r], [r^T, beta]] does the forward
        # pass, so the one solve is the back pass's single block; m = 130
        # is factored alone and spans three substitution blocks (64, 64
        # and 2 rows) in each pass
        cholesky, linsolve = np.linalg.cholesky, np.linalg.solve
        for n, shapes, solves in ((60, [(61, 61)], [(60, 60)]),
                                  (130, [(130, 130)],
                                   [(64, 64), (64, 64), (2, 2), (2, 2), (64, 64), (64, 64)])):
            problem, x0, y0 = banded(n, trial_seed(3, 0))
            w = inverse_columns(solver.DualHalf(problem, y0).factor)
            factored, solved = [], []
            monkeypatch.setattr(np.linalg, "cholesky",
                                lambda a: factored.append(a.shape) or cholesky(a))
            monkeypatch.setattr(np.linalg, "solve",
                                lambda a, b: solved.append(a.shape) or linsolve(a, b))
            rhs = problem.apply_map(x0)
            v, res, _, _ = solver._newton_system(problem, w, rhs, "dual")
            monkeypatch.undo()
            assert problem.m == n
            assert factored == shapes
            assert solved == solves
            assert res <= 1e-12
            assert np.allclose(v, np.linalg.solve(problem.newton_matrix(w), rhs),
                               rtol=1e-10, atol=0.0)


class TestBreakdown:
    def test_non_pd_newton_matrix_raises_with_partial_report(self, monkeypatch):
        problem, x0, y0 = banded(20, trial_seed(3, 0))
        break_newton_matrix_at(monkeypatch, 3)
        with pytest.raises(NewtonBreakdown) as info:
            solve(problem, x0, y0, SolverConfig())
        exc = info.value
        assert isinstance(exc, IterationLimit)
        assert exc.report.status == "breakdown"
        assert exc.report.iterations == 2
        assert str(exc).startswith("primal Newton matrix is not positive definite")
        assert f"at gap {exc.report.gap:.3e}" in str(exc)


class TestExactSolvesConverge:
    # Two-direction solves on banded_graph(60, 3, trial_seed(3, i)) that
    # stalled ("potential decrease below 1e-12") with the inexact CG
    # solve; the 30-instance sweep at seed 3 finds these twelve.
    STALLED_WITH_CG = [1, 3, 7, 8, 10, 15, 17, 20, 24, 25, 27, 29]

    @pytest.mark.parametrize("index", STALLED_WITH_CG)
    def test_two_direction_banded_60(self, index):
        problem, x0, y0 = banded(60, trial_seed(3, index))
        report = solve(problem, x0, y0, SolverConfig(direction_mode="two"))
        assert report.status == "converged"
        assert report.gap <= 1e-3

    def test_banded_240_within_30_iterations(self):
        # 87 iterations with CG
        problem, x0, y0 = banded(240, trial_seed(3, 0))
        report = solve(problem, x0, y0, SolverConfig())
        assert report.status == "converged"
        assert report.iterations <= 30

    def test_solve_digest_set_converges_with_rounding_level_residuals(self):
        with tempfile.TemporaryDirectory() as workdir:
            for label, problem in solve_digest.problems(workdir):
                x0, y0 = initial_point(problem)
                for mode in ("four", "two"):
                    report = solve(problem, x0, y0, SolverConfig(direction_mode=mode))
                    assert report.status == "converged", (label, mode)
                    worst = max(max(r.newton_res_primal, r.newton_res_dual)
                                for r in report.records)
                    assert worst <= 1e-10, (label, mode, worst)
                    assert math.isfinite(report.objective_dual)
