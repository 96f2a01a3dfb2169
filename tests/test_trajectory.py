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
3,1.1935704631514374,27.36387921119804,0.75
4,0.4549231746670168,16.440053068981403,0.5
5,0.19259799245215703,6.634755840814348,0.5
6,0.08450431675426362,-1.6620097630788546,0.75
7,0.027504879709774777,-10.917018440271889,0.75
8,0.01098142426185067,-18.600667933378872,0.5
9,0.0030847881564861623,-34.68049541666744,0.75
10,0.0007262455660814737,-45.210586135545185,1.0
11,0.0003544457887167951,-54.97961267366562,0.5
12,0.00013120858040771566,-65.9424785760058,0.5
13,5.784353079718585e-05,-74.44577117213981,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,descent_steps
1,12.757213722706695,48.612171591364415,0.5
2,6.069334888905364,41.46545935265816,0.5
3,5.269875497266192,39.714934046394994,0.0
4,2.7440784456746234,33.78261218016224,0.5
5,0.7601007032598552,21.98331172748611,2.0
6,0.3369745778202349,12.331824679566688,1.5
7,0.07764162007724984,0.4476387666519379,3.0
8,0.045098993404457666,-6.623480700351667,1.0
9,0.01882120117426389,-16.080401704408622,1.5
10,0.0079041715762882,-25.033208291405565,1.5
11,0.003714305644157534,-32.65460372690626,1.5
12,0.0016592798867520742,-40.78636380330104,2.0
13,0.0007833594006410038,-48.31922787521807,1.5
14,0.00024776700066464485,-56.24637905338464,2.0
15,7.891980210494864e-05,-70.3241718279586,1.5
16,4.9071137228295925e-05,-75.65237444326789,0.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,descent_steps
1,20.54703848618159,123.54838875233902,0.75
2,13.621285866515153,113.04478618282721,0.0
3,6.925094816344668,101.82322068945066,0.5
4,2.3043022342814403,81.85569108006523,0.75
5,1.9007628373790464,75.3836601870419,0.25
6,0.841589076880247,57.928006744796534,0.25
7,0.2653539930375519,35.344800716484464,0.75
8,0.0738517497358071,13.208614278559022,0.75
9,0.031831128446720314,-8.017474056606158,0.5
10,0.010805446629669646,-27.939410491024645,0.75
11,0.004954097524588974,-45.2840130158087,0.25
12,0.001564093229237784,-66.99792461112801,0.75
13,0.0007107523354186185,-82.48819085814782,0.25
14,0.00022320210201343116,-105.09381359664368,0.75
15,0.0001548598532874479,-111.73870909866275,0.0
16,0.00010817187182965426,-122.6111587148527,0.0
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,descent_steps
1,12.191800321948584,60.13504309231039,0.5
2,5.251222751270376,49.91821485087733,0.75
3,1.7312524150846773,38.260134182571655,0.75
4,1.2961777449331429,33.8453043379899,0.0
5,0.5593870411854578,23.08986950935646,0.5
6,0.14459851077133123,9.85939565681122,0.75
7,0.1059474739091133,5.478358950619782,0.0
8,0.07169151986640543,-1.6583690900878771,0.0
9,0.032246095518717155,-11.364144633038407,0.5
10,0.009224016889575637,-24.827315777348094,0.75
11,0.007099563843361523,-29.22606842968341,0.0
12,0.0031885901936252736,-39.0566468955952,0.5
13,0.0009170225674317578,-52.14885634946914,0.75
14,0.0007041982499327304,-56.6054048289579,0.0
15,0.00031347944800508287,-66.371833718196,0.5
16,8.840646762209303e-05,-79.56352704971432,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,descent_steps
1,9.178757683587081,40.01950653947011,0.5
2,2.395994831805326,28.706770084860374,1.0
3,0.9927659800746245,19.994638834522505,0.5
4,0.33508867461974745,11.286071001420009,0.75
5,0.13357451210005777,3.24331180104576,0.5
6,0.05454657736425972,-6.294323371642619,0.5
7,0.0158574948070882,-15.023981432057607,0.75
8,0.008773672879870631,-22.477601967555735,0.0
9,0.0038112504362146638,-30.28130074302681,0.5
10,0.0016437851100352674,-37.898994718375675,0.75
11,0.0003437918695556874,-51.41796020888562,1.0
12,0.00014858365104508664,-59.34974548413212,0.5
13,6.343515577533765e-05,-67.17647439726383,0.75
14,2.7780570267310623e-05,-74.62317623523096,0.75
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
