"""Determinism and shape checks for the benchmark's graph generators, and a
check that BENCHMARK.json names the metrics and workloads run.py reports.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import graphs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_banded_graph_is_deterministic_per_seed():
    a = graphs.banded_graph(60, 3, seed=11)
    assert a == graphs.banded_graph(60, 3, seed=11)
    assert a != graphs.banded_graph(60, 3, seed=12)


def test_banded_graph_shape():
    n, edges = graphs.banded_graph(60, 3, seed=5)
    pairs = {(i, j) for i, j, _ in edges}
    assert n == 60 and len(pairs) == len(edges)              # no duplicates
    assert all((i, i + 1) in pairs for i in range(59))      # the path
    assert all(1 <= j - i <= 3 for i, j in pairs)            # inside the band
    assert all(w == 1.0 for _, _, w in edges)
    assert len(pairs) > 59                                    # some band edges


def test_odd_torus_graph_is_deterministic_per_seed():
    a = graphs.odd_torus_graph(5, 7, seed=3)
    assert a == graphs.odd_torus_graph(5, 7, seed=3)
    assert a != graphs.odd_torus_graph(5, 7, seed=4)


def test_odd_torus_graph_shape():
    n, edges = graphs.odd_torus_graph(5, 7, seed=3, max_weight=2)
    assert n == 35 and len(edges) == 70
    assert len({(min(i, j), max(i, j)) for i, j, _ in edges}) == 70
    degree = [0] * n
    for i, j, w in edges:
        degree[i] += 1
        degree[j] += 1
        assert w in (1.0, 2.0)
    assert degree == [4] * n


@pytest.mark.parametrize("rows, cols", [(4, 9), (5, 8), (1, 9)])
def test_odd_torus_graph_rejects_even_or_small_sides(rows, cols):
    with pytest.raises(ValueError):
        graphs.odd_torus_graph(rows, cols, seed=0)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
