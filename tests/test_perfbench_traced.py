"""The traced benchmark run must report every per-layer metric and no
wrong answer.  It reads library internals by name (wrapped functions,
``SdpProblem.constraints`` for the ``.dat-s`` writer, ``problem.cliques``),
so a rework of set-up can leave a metric absent while every unit test
passes; this runs the traced torus workload at its smallest size (three
instances) to catch that."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    sys.path.insert(0, str(BENCH_DIR))     # run.py imports its siblings by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module    # its dataclasses look the module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def test_traced_torus_run_has_every_metric(run, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    lib = run.Library()
    outcomes, metrics, _, wrong, missing = run.traced_metrics(
        lib, run.WORKLOADS["maxcut-torus"], seed=3, seconds=0, workdir=str(tmp_path))
    assert len(outcomes) == run.MIN_INSTANCES
    assert not [o.failure for o in outcomes if o.failure]
    assert missing == []
    assert wrong == []
    assert metrics["chordal.cliques"] > 0
