"""Pinned iteration traces: a refactor must not move the solver's path.

Each case solves one fixed instance with the default configuration and
compares its iteration CSV with the trace recorded below: three random
MAX-CUT instances, one generic SDP whose constraints carry
off-diagonal entries, started from the CLI's generic initial point, and
one weighted MAX-CUT relaxation written as .dat-s and read back.
The integer columns and descent_steps (a mean of small integer step
counts) must match exactly; gap and phi to a relative 1e-9.
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
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,11.060231608947019,47.14088299343081,1,6,0.5
2,4.338620697751848,38.77730371159322,4,4,0.5
3,1.1935706994759911,27.363838508193126,6,9,0.75
4,0.4549200808003375,16.440111444017443,9,9,0.5
5,0.19259666900304406,6.634685338314492,9,10,0.5
6,0.08450374627881807,-1.6620773546796581,10,10,0.75
7,0.02750391985309797,-10.916847378843002,9,9,0.75
8,0.01098223406681953,-18.598302381538478,8,9,0.5
9,0.0030967481786925433,-34.646973736857035,10,9,0.75
10,0.000723389600715052,-46.96748686444673,9,10,1.0
11,0.0002914092321795181,-54.756190142155475,8,9,0.5
12,0.00020937377888596842,-58.70858437079366,7,3,0.0
13,0.0001529307263243851,-62.40973589417726,6,3,0.0
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,12.757213722706695,48.612171591364415,1,0,0.5
2,6.06933489168942,41.46545952653822,3,0,0.5
3,5.269875478884732,39.71493419857023,4,0,0.0
4,2.7440783826928437,33.78261122682805,6,0,0.5
5,0.7600987728342377,21.9833081426788,7,0,2.0
6,0.33695850386345505,12.331406243117872,10,0,1.5
7,0.07764402454977493,0.4498624414844521,10,0,3.0
8,0.044915207718288386,-6.64367898097586,10,0,0.5
9,0.01867653205798181,-16.086399402651768,10,0,1.5
10,0.0077635231310395625,-25.14613154915456,10,0,1.5
11,0.0036083350922950785,-32.855740376442924,10,0,1.5
12,0.001599556322937623,-41.17081527369116,10,0,2.0
13,0.0007566727231509418,-48.720625238971856,10,0,1.5
14,0.0003475758140014662,-56.44007300574603,10,0,1.5
15,0.0001639590489563858,-63.99597620191027,10,0,1.5
16,7.624065324929319e-05,-71.38843893267139,4,0,1.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,20.547038487051925,123.54838853604872,1,8,0.75
2,13.621286729832098,113.04478682940855,2,12,0.0
3,6.925098029730405,101.82328781046833,8,12,0.5
4,2.3043750117186637,81.85624975931358,10,19,0.75
5,1.9008304993967258,75.38438756514627,15,20,0.25
6,0.8416075720258416,57.92793962964425,15,15,0.25
7,0.26535909151668235,35.345316747457915,18,17,0.75
8,0.07386695238887775,13.241065295061823,17,19,0.75
9,0.03378883299799007,-6.729751882190001,18,20,0.5
10,0.015506840778266806,-23.126418807925887,17,18,0.5
11,0.005059902561326268,-44.14430761393455,16,19,0.75
12,0.002477362216531276,-56.526633794679995,13,17,0.25
13,0.001699663926441275,-61.888245428048876,14,15,0.25
14,0.0007781843771343944,-83.00631161321368,20,10,0.5
15,0.00027617091919829306,-100.50778784818826,11,13,0.75
16,0.00021156246477538332,-107.02078273832754,9,11,0.25
17,9.941402690927248e-05,-123.85040033498566,18,10,0.5
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,12.191800321944571,60.13504309230606,6,6,0.5
2,5.251222751268762,49.91821485087402,6,6,0.75
3,1.731252415085196,38.2601341825748,6,6,0.75
4,1.29617774728227,33.84530434226136,6,6,0.0
5,0.5593869293145719,23.08986673907264,6,6,0.5
6,0.14461938275923814,9.859010510355226,6,6,0.75
7,0.10600550400734932,5.481956886401775,6,6,0.0
8,0.07175223607529979,-1.6482301380294437,6,6,0.0
9,0.032292687825329125,-11.346344455224779,6,6,0.5
10,0.009257094940641863,-24.80255460464111,6,6,0.75
11,0.007131591533680037,-29.182336330172,4,6,0.0
12,0.003206135303138069,-38.99605091361667,6,6,0.5
13,0.0009273051643496899,-52.01498478510595,6,6,0.75
14,0.0007137040892679636,-56.42357247838097,5,6,0.0
15,0.00031757332423509865,-66.29547681396299,6,3,0.5
16,9.098475473834355e-05,-78.83094430923487,6,6,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,9.178757358092268,40.01950649690805,1,6,0.5
2,2.395993560776958,28.706810503366036,4,7,1.0
3,0.9927853481464508,19.994931186240116,9,9,0.5
4,0.335076874044697,11.287137035036134,9,9,0.75
5,0.13357129414743696,3.244866537839375,8,9,0.5
6,0.05457482631226007,-6.288478287803095,9,9,0.5
7,0.017573951026676582,-15.032414685995796,9,9,1.0
8,0.005663254942321672,-26.04775335302361,9,9,0.75
9,0.001955389198460722,-33.846211059371214,9,9,0.5
10,0.0008517830884624544,-42.77841047424465,9,9,0.25
11,0.0003596898032469653,-51.18427961393036,9,9,0.5
12,0.00015472781415049042,-59.0219757668685,5,8,0.5
13,6.30477271936769e-05,-64.83438728880597,5,4,0.75
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
        for key in ("iter", "cg_primal", "cg_dual", "descent_steps"):
            assert g[key] == w[key], (w["iter"], key)
        for key in ("gap", "phi"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9), \
                (w["iter"], key)
