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
3,1.1935704631514366,27.363879211198014,0.75
4,0.45492317466701593,16.44005306898137,0.5
5,0.1925979924521597,6.634755840814506,0.5
6,0.08450431675426806,-1.6620097630782258,0.75
7,0.02750487970973925,-10.917018440277019,0.75
8,0.01098142426183557,-18.600667933331366,0.5
9,0.0030847881566078428,-34.680495416219635,0.75
10,0.0007262455661072309,-45.210586138036525,1.0
11,0.0003544457734854234,-54.979614677374,0.5
12,0.0001312085528928364,-65.94248143989788,0.5
13,5.784351825699474e-05,-74.44577321621597,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,descent_steps
1,12.757213722706695,48.612171591364415,0.5
2,6.069334888905364,41.46545935265816,0.5
3,5.269875497266192,39.714934046394994,0.0
4,2.744078445674626,33.782612180162246,0.5
5,0.7601007032598535,21.9833117274861,2.0
6,0.33697457782022244,12.331824679566397,1.5
7,0.07764162007725339,0.4476387666539665,3.0
8,0.045098993404458554,-6.623480700350822,1.0
9,0.018821201174325175,-16.080401704379128,1.5
10,0.007904171576483598,-25.03320829122533,1.5
11,0.0037143056442356936,-32.654603727045526,1.5
12,0.0016592798869545788,-40.78636380305305,2.0
13,0.0007833594007964351,-48.319227876577116,1.5
14,0.0002477670032519086,-56.24637954532156,2.0
15,7.891979230834067e-05,-70.32417462131187,1.5
16,4.90711295206836e-05,-75.65237694744502,0.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,descent_steps
1,20.54703848618159,123.54838875233902,0.75
2,13.621285866515153,113.04478618282721,0.0
3,6.92509481634467,101.82322068945071,0.5
4,2.3043022342814403,81.85569108006533,0.75
5,1.9007628373790428,75.38366018704194,0.25
6,0.8415890768802399,57.92800674479671,0.25
7,0.2653539930375448,35.34480071648446,0.75
8,0.07385174973579467,13.208614278520635,0.75
9,0.03183112844620517,-8.017474056836608,0.5
10,0.010805446629678528,-27.939410490696368,0.75
11,0.00495409752233833,-45.28401302641586,0.25
12,0.0015640932292999565,-66.99792460824796,0.75
13,0.0007107523354967782,-82.4881909130375,0.25
14,0.0002232020984678229,-105.09381383531938,0.75
15,0.0001548598514595767,-111.73870927465371,0.0
16,0.0001081718701367862,-122.61115903018191,0.0
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,descent_steps
1,12.191800321948584,60.13504309231039,0.5
2,5.251222751270378,49.91821485087733,0.75
3,1.731252415084679,38.260134182571655,0.75
4,1.2961777449331446,33.84530433798991,0.0
5,0.559387041185456,23.089869509356348,0.5
6,0.1445985107713348,9.85939565681192,0.75
7,0.10594747390911508,5.478358950619388,0.0
8,0.07169151986641253,-1.6583690900873993,0.0
9,0.032246095518683404,-11.364144633051836,0.5
10,0.009224016889893605,-24.82731577709784,0.75
11,0.007099563843693701,-29.22606842916616,0.0
12,0.0031885901935009286,-39.056646896228656,0.5
13,0.0009170225693058143,-52.14885634183039,0.75
14,0.0007041982518813938,-56.60540480601224,0.0
15,0.00031347944942261563,-66.37183364936803,0.5
16,8.840646616192771e-05,-79.56352911017768,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,descent_steps
1,9.178757683587081,40.01950653947011,0.5
2,2.395994831805326,28.706770084860374,1.0
3,0.9927659800746254,19.99463883452252,0.5
4,0.3350886746197492,11.28607100141998,0.75
5,0.13357451210005777,3.2433118010457473,0.5
6,0.05454657736425972,-6.294323371642456,0.5
7,0.01585749480705445,-15.023981432034871,0.75
8,0.008773672879833327,-22.47760196756657,0.0
9,0.003811250436269731,-30.281300742949682,0.5
10,0.0016437851098718426,-37.89899471930568,0.75
11,0.0003437918867348344,-51.417959743128804,1.0
12,0.0001485836596444301,-59.34974494799917,0.5
13,6.343516886353484e-05,-67.17647256438877,0.75
14,2.7780574791691492e-05,-74.62317411250586,0.75
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
