"""``solve_digest.py --compare A B``: its report and its exit status."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "solve_digest.py"

PARENT = """\
random 0 four converged 18 -10.5 -10.5
banded 0 two converged 17 -12.25 -12.25
kernels aa
solves bb
paths cc
dd
"""


def compare(tmp_path, change):
    (tmp_path / "a.txt").write_text(PARENT)
    (tmp_path / "b.txt").write_text(change)
    return subprocess.run([sys.executable, str(SCRIPT), "--compare",
                           str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
                          capture_output=True, text=True)


def test_same_solves_exit_zero(tmp_path):
    done = compare(tmp_path, PARENT.replace("-10.5 -10.5", "-10.5000000001 -10.5"))
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "0 of 2 solves changed status or iterations",
        "max relative difference in C.X: 9.524e-12 (random 0 four)",
        "max relative difference in b.y: 0.000e+00",
        "random: max relative difference in C.X 9.524e-12, in b.y 0.000e+00",
        "banded: max relative difference in C.X 0.000e+00, in b.y 0.000e+00",
        "kernels equal", "solves equal", "paths equal", "digest equal"]


def test_each_family_reports_its_own_drift(tmp_path):
    # a change that moves one family leaves the others at exactly 0
    done = compare(tmp_path, PARENT.replace("-12.25 -12.25", "-12.25 -12.2500000049")
                   .replace("kernels aa", "kernels ab"))
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert "random: max relative difference in C.X 0.000e+00, in b.y 0.000e+00" in lines
    assert "banded: max relative difference in C.X 0.000e+00, in b.y 4.000e-10" in lines
    assert "max relative difference in b.y: 4.000e-10 (banded 0 two)" in lines
    assert "kernels differ" in lines


@pytest.mark.parametrize("change", [
    PARENT.replace("two converged 17", "two converged 18"),
    PARENT.replace("two converged", "two iteration_limit"),
    PARENT.replace("banded 0 two", "banded 1 two"),
], ids=["iterations", "status", "missing"])
def test_changed_solve_exits_one(tmp_path, change):
    done = compare(tmp_path, change)
    assert done.returncode == 1
    assert any(line.endswith(" solves changed status or iterations")
               and not line.startswith("0 of") for line in done.stdout.splitlines())
