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
1,11.060231602271209,47.14088297975011,0.5
2,4.338620434693389,38.77730999697901,0.5
3,1.193570463151433,27.36387921119799,0.75
4,0.45492317466701504,16.440053068981385,0.5
5,0.1925979924521588,6.6347558408144955,0.5
6,0.0845043167542654,-1.662009763078828,0.75
7,0.027504879709770336,-10.917018440267746,0.75
8,0.010981424261844452,-18.600667933376197,0.5
9,0.003084788156510143,-34.68049541657189,0.75
10,0.0007262455660184131,-45.210586130427075,1.0
11,0.00035444578886245637,-54.97961278783856,0.5
12,0.00013120857744830516,-65.94247890072488,0.5
13,5.78435320504056e-05,-74.44577100054954,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,descent_steps
1,12.757213722706695,48.612171591364415,0.5
2,6.069334888905361,41.46545935265816,0.5
3,5.26987549726619,39.71493404639499,0.0
4,2.7440784456746234,33.78261218016223,0.5
5,0.7601007032598543,21.9833117274861,2.0
6,0.33697457782022067,12.331824679566344,1.5
7,0.07764162007725339,0.44763876665390256,3.0
8,0.045098993404448784,-6.623480700352271,1.0
9,0.018821201174279878,-16.080401704406484,1.5
10,0.007904171576368135,-25.033208291435933,1.5
11,0.003714305644346716,-32.654603726485796,1.5
12,0.0016592798864802916,-40.786363805574894,2.0
13,0.0007833593998842758,-48.3192278859006,1.5
14,0.00024776700091511117,-56.24637950466462,2.0
15,7.891978143170775e-05,-70.32417581060287,1.5
16,4.9071121317467714e-05,-75.65237988578785,0.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,descent_steps
1,20.54703848618159,123.54838875233902,0.75
2,13.621285866515153,113.04478618282721,0.0
3,6.925094816344668,101.82322068945066,0.5
4,2.3043022342814137,81.85569108006517,0.75
5,1.9007628373790215,75.38366018704178,0.25
6,0.841589076880231,57.92800674479646,0.25
7,0.2653539930375928,35.344800716486624,0.75
8,0.07385174973578756,13.208614278452707,0.75
9,0.031831128445368506,-8.017474057188103,0.5
10,0.010805446629742477,-27.939410490445418,0.75
11,0.004954097523171441,-45.284013022938055,0.25
12,0.0015640932291258736,-66.99792462023001,0.75
13,0.0007107523326652654,-82.48819112517171,0.25
14,0.00022320210089255,-105.09381414837883,0.75
15,0.0001548598523157807,-111.73870924986979,0.0
16,0.00010817187127543093,-122.61115881625057,0.0
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,descent_steps
1,12.191800321948584,60.13504309231039,0.5
2,5.251222751270376,49.91821485087732,0.75
3,1.731252415084679,38.26013418257166,0.75
4,1.2961777449331446,33.84530433798991,0.0
5,0.5593870411854578,23.089869509356436,0.5
6,0.1445985107713188,9.859395656811,0.75
7,0.1059474739091062,5.478358950619242,0.0
8,0.07169151986640188,-1.6583690900885575,0.0
9,0.03224609551867452,-11.364144633055275,0.5
10,0.009224016889666231,-24.827315777247613,0.75
11,0.007099563843453893,-29.226068429497452,0.0
12,0.0031885901934156635,-39.056646896496936,0.5
13,0.0009170225692578526,-52.14885634075678,0.75
14,0.000704198251842314,-56.60540480496856,0.0
15,0.0003134794468220292,-66.37183380049905,0.5
16,8.840645142349501e-05,-79.56352719727289,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,descent_steps
1,9.178757683587078,40.0195065394701,0.5
2,2.3959948318053224,28.706770084860352,1.0
3,0.9927659800746236,19.9946388345225,0.5
4,0.3350886746197457,11.286071001419922,0.75
5,0.1335745121000631,3.2433118010458166,0.5
6,0.05454657736425972,-6.2943233716426015,0.5
7,0.015857494807031358,-15.02398143202679,0.75
8,0.008773672879806682,-22.477601967584157,0.0
9,0.0038112504362892707,-30.28130074287534,0.5
10,0.0016437851096284817,-37.89899472075817,0.75
11,0.0003437919027078351,-51.41795933975554,1.0
12,0.00014858366770909015,-59.34974452564833,0.5
13,6.343515973838976e-05,-67.17647412590675,0.75
14,2.7780556406398205e-05,-74.62318025875231,0.75
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
