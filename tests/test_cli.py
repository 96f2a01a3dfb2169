import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sparse_sdp.cli import main
from sparse_sdp.maxcut import random_graph, write_graph

from conftest import break_newton_matrix_at
from test_sdpa import maxcut_file


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestSolveCommand:
    def test_single_edge_instance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        g = random_graph(2, 1, seed=1)
        path, _, _ = maxcut_file(tmp_path, g)
        code, out, _ = run_cli(["solve", str(path)], capsys)
        assert code == 0
        assert "status: converged" in out
        summary = json.loads((tmp_path / "instance_summary.json").read_text())
        assert summary["gap"] <= 1e-3
        with open(tmp_path / "instance_iterations.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["iterations"]

    def test_malformed_entry_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 zz 1 1.0\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert "line 5" in err

    def test_off_diagonal_entry_in_diagonal_block_exit_one(self, tmp_path, capsys):
        path = tmp_path / "diagblock.dat-s"
        path.write_text("2\n1\n-2\n1.0 1.0\n0 1 1 2 0.5\n1 1 1 1 1\n2 1 2 2 1\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert "line 5:" in err and "diagonal block" in err

    @pytest.mark.parametrize("b, value, line",
                             [("1.0 nan", "-0.25", 4), ("1.0 inf", "-0.25", 4),
                              ("1.0 1.0", "nan", 5)],
                             ids=["nan in b", "inf in b", "nan entry"])
    def test_non_finite_number_exit_one(self, tmp_path, capsys, b, value, line):
        # a NaN in b used to start the solver and exit 2, an inf in b to
        # fail with "Singular matrix", and a NaN entry to name no line
        path = tmp_path / "nonfinite.dat-s"
        path.write_text(f"2\n1\n2\n{b}\n0 1 1 2 {value}\n1 1 1 1 1\n2 1 2 2 1\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert f"line {line}:" in err and "not finite" in err

    def test_directions_flag_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        g = random_graph(5, 7, seed=2)
        path, _, _ = maxcut_file(tmp_path, g)
        code, _, _ = run_cli(["solve", str(path), "--directions", "2",
                              "--out-json", str(tmp_path / "s.json"),
                              "--out-csv", str(tmp_path / "it.csv")], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["direction_mode"] == "two"

    def test_nonconvergence_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        g = random_graph(6, 9, seed=3)
        path, _, _ = maxcut_file(tmp_path, g)
        code, _, err = run_cli(["solve", str(path), "--max-iters", "2"], capsys)
        assert code == 2
        assert "converge" in err

    def test_newton_breakdown_exit_two_with_partial_csv(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        path, _, _ = maxcut_file(tmp_path, random_graph(6, 9, seed=3))
        break_newton_matrix_at(monkeypatch, 3)
        out_csv = tmp_path / "partial.csv"
        code, _, err = run_cli(["solve", str(path), "--out-csv", str(out_csv)],
                               capsys)
        assert code == 2
        assert "primal Newton matrix is not positive definite at gap" in err
        with open(out_csv) as fh:
            assert [r["iter"] for r in csv.DictReader(fh)] == ["1", "2"]

    def test_max_iters_zero_exit_one(self, tmp_path, capsys, monkeypatch):
        # an input error, not a solve that did not converge (exit 2)
        monkeypatch.chdir(tmp_path)
        path, _, _ = maxcut_file(tmp_path, random_graph(6, 9, seed=3))
        code, _, err = run_cli(["solve", str(path), "--max-iters", "0"], capsys)
        assert code == 1
        assert "max_main_iters" in err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(["solve", str(tmp_path / "absent.dat-s")], capsys)
        assert code == 1

    @pytest.mark.parametrize("third", ["3 1 2 2 1", "3 1 3 3 -1"],
                             ids=["uncovered vertex", "negative coefficient"])
    def test_bad_diagonal_constraints_exit_one(self, tmp_path, third):
        # C = -L/4 of a triangle; A_1 = A_2 = e_1 e_1^T leave a vertex to
        # the third constraint, which misses it or has a negative
        # coefficient.  The MAX-CUT start used to loop forever on both; in
        # a subprocess so that a hang fails the test instead of the suite.
        path = tmp_path / "bad.dat-s"
        path.write_text("3\n1\n3\n1 1 1\n0 1 1 1 -0.5\n0 1 2 2 -0.5\n"
                        "0 1 3 3 -0.5\n0 1 1 2 0.25\n0 1 1 3 0.25\n"
                        f"0 1 2 3 0.25\n1 1 1 1 1\n2 1 1 1 1\n{third}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(str(p) for p in sys.path if p)
        proc = subprocess.run([sys.executable, "-m", "sparse_sdp.cli", "solve", str(path)],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=60)
        assert proc.returncode == 1
        assert "no built-in initial point" in proc.stderr

    def test_scaled_diagonal_constraints_start_feasible(self, tmp_path, capsys,
                                                        monkeypatch):
        # C = -L/4 of a triangle with A_p = a e_p e_p^T and b = 1: the start
        # X = I / a is primal feasible (X = I was not for a = 2), and the
        # optimum for a = 2 is half the unit-diagonal one
        monkeypatch.chdir(tmp_path)
        objective = {}
        for a in (1, 2):
            path = tmp_path / f"triangle{a}.dat-s"
            path.write_text("3\n1\n3\n1 1 1\n0 1 1 1 -0.5\n0 1 2 2 -0.5\n"
                            "0 1 3 3 -0.5\n0 1 1 2 0.25\n0 1 1 3 0.25\n0 1 2 3 0.25\n"
                            + "".join(f"{p} 1 {p} {p} {a}\n" for p in (1, 2, 3)))
            code, _, _ = run_cli(["solve", str(path)], capsys)
            assert code == 0
            summary = json.loads((tmp_path / f"triangle{a}_summary.json").read_text())
            objective[a] = summary["objective_primal"]
        # each lies within gap_tol = 1e-3 above its optimum
        assert objective[2] == pytest.approx(objective[1] / 2, abs=1e-3)

    def test_generic_instance_with_pd_objective(self, tmp_path, capsys,
                                                monkeypatch):
        # non-diagonal constraints exercise the identity/PD-objective start;
        # optimum 7.5 cross-checked with an independent dense solver
        from sparse_sdp import write_sdpa
        from sparse_sdp.sparsemat import SparseSymMatrix, SparseSymPattern
        monkeypatch.chdir(tmp_path)
        pat = SparseSymPattern(3, [(0, 1), (1, 2)])
        c = SparseSymMatrix(pat, [3.0, 3.0, 3.0, 1.0, -0.5])
        a1 = SparseSymMatrix(SparseSymPattern(3, [(0, 1)]), [0.0, 0.0, 0.0, 1.0])
        a2 = SparseSymMatrix(SparseSymPattern(3), np.ones(3))
        path = tmp_path / "generic.dat-s"
        write_sdpa(path, c, [a1, a2], [0.0, 3.0])
        code, out, _ = run_cli(["solve", str(path)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "generic_summary.json").read_text())
        assert summary["objective_primal"] == pytest.approx(7.5, abs=1e-3)

    def test_no_constraints(self, tmp_path, capsys, monkeypatch):
        # m = 0, written with the b line {}: the start check reads an
        # empty residual
        from sparse_sdp import write_sdpa
        from sparse_sdp.sparsemat import SparseSymMatrix, SparseSymPattern
        monkeypatch.chdir(tmp_path)
        c = SparseSymMatrix(SparseSymPattern(2, [(0, 1)]), [2.0, 1.0, 0.5])
        path = tmp_path / "free.dat-s"
        write_sdpa(path, c, [], [])
        assert path.read_text().splitlines()[3] == "{}"
        code, out, err = run_cli(["solve", str(path)], capsys)
        assert (code, err) == (0, "")
        assert "status: converged" in out
        summary = json.loads((tmp_path / "free_summary.json").read_text())
        assert summary["status"] == "converged"

    def test_default_outputs_land_next_to_the_input(self, tmp_path, capsys, monkeypatch):
        inputs, run = tmp_path / "in", tmp_path / "run"
        inputs.mkdir()
        run.mkdir()
        path, _, _ = maxcut_file(inputs, random_graph(4, 5, seed=5))
        monkeypatch.chdir(run)
        code, out, _ = run_cli(["solve", os.path.join("..", "in", path.name)], capsys)
        assert code == 0
        stem = path.name.split(".")[0]
        assert sorted(p.name for p in inputs.iterdir()) == sorted(
            [path.name, f"{stem}_iterations.csv", f"{stem}_summary.json"])
        assert list(run.iterdir()) == []


class TestMaxcutCommand:
    def test_single_edge_file(self, tmp_path, capsys):
        path = tmp_path / "edge.txt"
        path.write_text("2 1\n1 2\n")
        code, out, _ = run_cli(["maxcut", str(path), "--trials", "20",
                                "--seed", "4"], capsys)
        assert code == 0
        assert "best cut: 1.0" in out
        bound = float(out.split("sdp bound (max form): ")[1].splitlines()[0])
        assert abs(bound - 1.0) < 2e-3

    def test_triangle_file(self, tmp_path, capsys):
        path = tmp_path / "triangle.txt"
        path.write_text("3 3\n1 2\n2 3\n1 3\n")
        code, out, _ = run_cli(["maxcut", str(path), "--trials", "200",
                                "--seed", "5"], capsys)
        assert code == 0
        bound = float(out.split("sdp bound (max form): ")[1].splitlines()[0])
        assert abs(bound - 2.25) < 1e-2
        assert "best cut: 2.0" in out

    def test_seeded_output_identical(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_graph(random_graph(8, 12, seed=6), path)
        args = ["maxcut", str(path), "--trials", "50", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("body, line, detail", [
        ("3 1\n1 2 nan\n", 2, "not finite and positive"),
        ("3 1\n1 2 -inf\n", 2, "not finite and positive"),
        ("3 2\n1 2\n0 2\n", 3, "(0,2) out of range 1..3"),
        ("3 1\n\n1 x\n", 3, "invalid literal"),
        ("3 2\n1 2\n2 1\n", 3, "duplicate edge (2,1)"),
    ], ids=["nan weight", "-inf weight", "label 0", "label x", "duplicate"])
    def test_bad_edge_line_exit_one(self, tmp_path, capsys, body, line, detail):
        # these used to exit 1 naming no line, with 0-based labels
        path = tmp_path / "bad.txt"
        path.write_text(body)
        code, _, err = run_cli(["maxcut", str(path)], capsys)
        assert code == 1
        assert f"line {line}:" in err and detail in err

    def test_writes_iteration_csv(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_graph(random_graph(5, 7, seed=8), path)
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run_cli(["maxcut", str(path), "--out-csv", str(out_csv)],
                             capsys)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"iter", "gap", "phi", "newton_res_primal",
                                         "newton_res_dual", "descent_steps"}

    @pytest.mark.parametrize("n", [1, 2])
    def test_edgeless_graph_prints_positive_zero(self, tmp_path, capsys, n):
        # the primal value of an edgeless graph used to print as -0.0
        path = tmp_path / "edgeless.txt"
        path.write_text(f"{n} 0\n")
        code, out, _ = run_cli(["maxcut", str(path)], capsys)
        assert code == 0
        assert "sdp primal value (max form): 0.0\n" in out
        assert "best cut: 0.0 " in out

    def test_empty_graph_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        code, _, err = run_cli(["maxcut", str(path)], capsys)
        assert code == 1
        assert "need at least one vertex" in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_one(self, tmp_path, capsys, trials):
        path = tmp_path / "edge.txt"
        path.write_text("2 1\n1 2\n")
        code, out, err = run_cli(["maxcut", str(path), "--trials", trials], capsys)
        assert code == 1
        assert "--trials" in err and out == ""


class TestGenGraph:
    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run_cli(["gen-graph", "7", "11", "--seed", "9", "-o", str(a)],
                       capsys)[0] == 0
        assert run_cli(["gen-graph", "7", "11", "--seed", "9", "-o", str(b)],
                       capsys)[0] == 0
        assert a.read_text() == b.read_text()

    def test_too_many_edges_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(["gen-graph", "4", "10", "-o",
                                str(tmp_path / "x.txt")], capsys)
        assert code == 1

    def test_negative_edge_count_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(["gen-graph", "5", "-1", "-o",
                                str(tmp_path / "x.txt")], capsys)
        assert code == 1
        assert "m must be nonnegative" in err


class TestBenchCommands:
    def test_table1_row_count_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code, _, _ = run_cli(["bench-table1", "--sizes", "4:4,5:6",
                              "--trials", "2", "--seed", "10",
                              "-o", str(out)], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [int(r["n"]) for r in rows] == [4, 5]
        for r in rows:
            assert float(r["mean_main_iters"]) > 0

    def test_directions_columns_and_pairing(self, tmp_path, capsys):
        out = tmp_path / "dirs.csv"
        code, _, _ = run_cli(["bench-directions", "--sizes", "5:6",
                              "--trials", "2", "--seed", "11",
                              "-o", str(out)], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mode"] for r in rows] == ["four", "two"]
        assert all({"mode", "n", "m", "mean_time", "mean_iters"} <= set(r)
                   for r in rows)

    @pytest.mark.parametrize("command", ["bench-table1", "bench-directions"])
    def test_zero_trials_exit_one(self, tmp_path, capsys, command):
        out = tmp_path / "t.csv"
        code, _, err = run_cli([command, "--sizes", "4:4", "--trials", "0",
                                "-o", str(out)], capsys)
        assert code == 1
        assert "--trials" in err and not out.exists()

    def test_banded_zero_reps_header_only(self, tmp_path, capsys):
        out = tmp_path / "band.csv"
        code, _, _ = run_cli(["bench-banded", "--mode", "fix-bandwidth",
                              "--range", "6:8", "--reps", "0",
                              "-o", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n,")

    def test_banded_negative_reps_exit_one(self, tmp_path, capsys):
        out = tmp_path / "band.csv"
        code, _, err = run_cli(["bench-banded", "--range", "6:8", "--reps", "-5",
                                "-o", str(out)], capsys)
        assert code == 1
        assert "--reps" in err and not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--bandwidth", "-1"], "--bandwidth"),
        (["--mode", "fix-diff", "--diff", "-3"], "--diff"),
        (["--range", "5:6:0"], "step"),
        (["--range", "6:5:-1"], "step"),
        (["--range", "0:3"], "n=0"),
        (["--mode", "fix-diff", "--range", "0:2", "--diff", "0"], "n=0"),
    ])
    def test_banded_bad_sweep_exit_one(self, tmp_path, capsys, args, flag):
        # these raised IndexError, numpy's "negative dimensions" and
        # range()'s "arg 3 must not be zero", or ran an empty sweep
        out = tmp_path / "band.csv"
        code, _, err = run_cli(["bench-banded", "--range", "6:8", "--reps", "2",
                                *args, "-o", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:") and flag in err and not out.exists()

    def test_banded_fix_diff_columns(self, tmp_path, capsys):
        out = tmp_path / "band2.csv"
        code, _, _ = run_cli(["bench-banded", "--mode", "fix-diff",
                              "--range", "2:4", "--diff", "5",
                              "--reps", "2", "-o", str(out)], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["bandwidth"]) for r in rows] == [2, 3, 4]
        assert all(int(r["bandwidth_sq"]) == int(r["bandwidth"]) ** 2
                   for r in rows)
        assert all(float(r["mean_time"]) > 0 for r in rows)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] )
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_sdp.cli", "gen-graph", "4", "3",
             "-o", str(tmp_path / "g.txt")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert (tmp_path / "g.txt").exists()
