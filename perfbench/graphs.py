"""Seeded MAX-CUT instance generators for the benchmark workloads.

Each generator returns ``(n, edges)`` with edges as (i, j, weight), ready
for ``sparse_sdp.maxcut.Graph``.  Every generator is a pure function of
its arguments: the same seed gives the same edges and weights.
"""

from __future__ import annotations

import numpy as np


def banded_graph(n, bandwidth, seed, density=0.5):
    """Path 0-1-...-(n-1) plus each pair with 2 <= j - i <= bandwidth kept
    with probability ``density``; unit weights.

    The path keeps the graph connected; the band keeps every clique of the
    chordal fill at most ``bandwidth + 1`` vertices wide.
    """
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    for d in range(2, bandwidth + 1):
        keep = rng.random(n - d) < density
        edges.extend((i, i + d, 1.0) for i in np.flatnonzero(keep).tolist())
    return n, edges


def odd_torus_graph(rows, cols, seed, max_weight=10):
    """rows x cols torus (wrap-around grid) with integer weights drawn
    uniformly from 1..max_weight.

    Both sides must be odd and at least 3, so the torus has odd cycles
    (it is not bipartite and the cut bound is not attained trivially).
    """
    if rows < 3 or cols < 3 or rows % 2 == 0 or cols % 2 == 0:
        raise ValueError("torus sides must be odd and at least 3")
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    weights = rng.integers(1, max_weight + 1, size=len(edges))
    return rows * cols, [(i, j, float(w)) for (i, j), w in zip(edges, weights)]
