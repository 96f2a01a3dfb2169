"""Pinned iteration traces: a refactor must not move the solver's path.

Each case solves one fixed instance with the default configuration and
compares its iteration CSV with the trace recorded below: three random
MAX-CUT instances, one generic SDP whose constraints carry
off-diagonal entries, started from the CLI's generic initial point, and
one weighted MAX-CUT relaxation written as .dat-s and read back.
The iteration count, iter and descent_steps (a mean of small integer
step counts) must match exactly; gap and phi to a relative 1e-9.  The
Newton residual columns are rounding noise of the exact solves, so they
are bounded by 1e-10 rather than pinned.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest

from sparse_sdp import (EliminationOrdering, Graph, SdpProblem, SolverConfig,
                        initial_point, maxcut_sdp, random_graph, read_sdpa, solve,
                        write_sdpa)
from sparse_sdp.bench import trial_seed
from sparse_sdp.cli import _generic_initial_point

from conftest import random_generic_sdp

# random_graph(10, 16, trial_seed(1, 0)), direction_mode="four"
FOUR_N10_K0 = """\
iter,gap,phi,descent_steps
1,11.060231602271209,47.1408829797501,0.5
2,4.338620434693389,38.77730999697901,0.5
3,1.1935704631514374,27.363879211198025,0.75
4,0.4549231746670186,16.440053068981417,0.5
5,0.19259799245215792,6.634755840814357,0.5
6,0.08450431675426717,-1.6620097630785224,0.75
7,0.027504879709751684,-10.917018440270915,0.75
8,0.010981424261843564,-18.600667933345346,0.5
9,0.00308478815660429,-34.68049541630802,0.75
10,0.0007262455660184131,-45.21058616199637,1.0
11,0.00035444577010057543,-54.97961442023531,0.5
12,0.00013120855569237477,-65.94248111275692,0.5
13,5.784351497162277e-05,-74.44577356087166,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,descent_steps
1,12.757213722706695,48.612171591364415,0.5
2,6.069334888905364,41.46545935265816,0.5
3,5.269875497266192,39.714934046394994,0.0
4,2.7440784456746234,33.78261218016223,0.5
5,0.7601007032598543,21.98331172748613,2.0
6,0.336974577820218,12.331824679566278,1.5
7,0.07764162007724806,0.44763876665587077,3.0
8,0.045098993404443455,-6.623480700350541,1.0
9,0.018821201174272773,-16.080401704415994,1.5
10,0.007904171576416985,-25.03320829131814,1.5
11,0.0037143056440713806,-32.65460372764769,1.5
12,0.0016592798872823167,-40.786363800831865,2.0
13,0.0007833594002200073,-48.31922788060092,1.5
14,0.0002477670001850285,-56.24637962713096,2.0
15,7.89198191624152e-05,-70.32417171592013,1.5
16,4.907114271723856e-05,-75.65237554086454,0.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,descent_steps
1,20.54703848618159,123.54838875233902,0.75
2,13.621285866515153,113.04478618282721,0.0
3,6.925094816344666,101.82322068945066,0.5
4,2.3043022342814385,81.85569108006527,0.75
5,1.9007628373790446,75.38366018704194,0.25
6,0.8415890768802416,57.928006744796676,0.25
7,0.26535399303755547,35.344800716484954,0.75
8,0.0738517497357929,13.208614278524642,0.75
9,0.03183112844634728,-8.01747405675571,0.5
10,0.010805446629499116,-27.939410491186997,0.75
11,0.00495409752358178,-45.28401301954739,0.25
12,0.0015640932297795729,-66.99792460429063,0.75
13,0.0007107523360811996,-82.4881908268899,0.25
14,0.00022320210354997982,-105.09381351108668,0.75
15,0.0001548598540033197,-111.73870903968567,0.0
16,0.00010817187256151328,-122.61115857769069,0.0
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,descent_steps
1,12.191800321948584,60.13504309231039,0.5
2,5.251222751270376,49.91821485087732,0.75
3,1.731252415084679,38.26013418257167,0.75
4,1.2961777449331446,33.845304337989894,0.0
5,0.5593870411854578,23.08986950935645,0.5
6,0.14459851077133123,9.859395656812225,0.75
7,0.10594747390911152,5.478358950619381,0.0
8,0.07169151986640898,-1.658369090087132,0.0
9,0.0322460955186763,-11.36414463305622,0.5
10,0.009224016889509912,-24.827315777385138,0.75
11,0.007099563843288692,-29.226068429766435,0.0
12,0.003188590193362373,-39.05664689663028,0.5
13,0.0009170225682222366,-52.148856350808835,0.75
14,0.0007041982507658417,-56.60540482352796,0.0
15,0.00031347944910109504,-66.37183367435972,0.5
16,8.840648155228337e-05,-79.56352624297347,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,descent_steps
1,9.178757683587081,40.01950653947011,0.5
2,2.395994831805326,28.706770084860366,1.0
3,0.9927659800746227,19.99463883452247,0.5
4,0.3350886746197492,11.286071001420027,0.75
5,0.13357451210006133,3.24331180104582,0.5
6,0.05454657736427038,-6.294323371640786,0.5
7,0.015857494807111294,-15.023981432083055,0.75
8,0.0087736728798955,-22.477601967557675,0.0
9,0.0038112504362324273,-30.281300743036002,0.5
10,0.0016437851101418488,-37.89899471779867,0.75
11,0.0003437918635587067,-51.4179603449639,1.0
12,0.0001485836468777535,-59.34974578165776,0.5
13,6.34351681778611e-05,-67.17647239906188,0.75
14,2.7780562767532047e-05,-74.62317871563559,0.75
"""


def _maxcut(n, m, index):
    def build():
        problem = maxcut_sdp(random_graph(n, m, trial_seed(1, index)))
        return (problem, *initial_point(problem))
    return build


def _generic():
    problem = SdpProblem(*random_generic_sdp(12, 6, np.random.default_rng(0)))
    return (problem, *_generic_initial_point(problem))


def _weighted_sdpa():
    graph = Graph(9, [(i, j, 1.0 + (i + 2 * j) % 3 / 2)
                      for i, j, _ in random_graph(9, 14, trial_seed(1, 2)).edges])
    relaxation = maxcut_sdp(graph)
    back = EliminationOrdering(relaxation.ordering.inverse)   # original labels
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "weighted.dat-s")
        write_sdpa(path, relaxation.c.permuted(back),
                   [a.permuted(back) for a in relaxation.constraints], relaxation.b)
        problem = SdpProblem(*read_sdpa(path))
    return (problem, *initial_point(problem))


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("build,mode,expected", [
    (_maxcut(10, 16, 0), "four", FOUR_N10_K0),
    (_maxcut(10, 16, 1), "two", TWO_N10_K1),
    (_maxcut(20, 40, 0), "four", FOUR_N20_K0),
    (_generic, "four", GENERIC_FOUR),
    (_weighted_sdpa, "four", SDPA_FOUR),
], ids=["four", "two", "four-n20", "generic", "sdpa-weighted"])
def test_iteration_csv_is_pinned(build, mode, expected):
    problem, x0, y0 = build()
    report = solve(problem, x0, y0, SolverConfig(direction_mode=mode))
    got, want = _rows(report.csv_text()), _rows(expected)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("iter", "descent_steps"):
            assert g[key] == w[key], (w["iter"], key)
        for key in ("newton_res_primal", "newton_res_dual"):
            assert 0.0 <= float(g[key]) <= 1e-10, (w["iter"], key)
        for key in ("gap", "phi"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9), \
                (w["iter"], key)
