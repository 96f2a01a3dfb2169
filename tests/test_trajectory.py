"""Pinned iteration traces: a refactor must not move the solver's path.

Each case solves one fixed random MAX-CUT instance with the default
configuration and compares its iteration CSV with the trace recorded
below.  The integer columns and descent_steps (a mean of small integer
step counts) must match exactly; gap and phi to a relative 1e-9.
"""

import csv
import io

import pytest

from sparse_sdp import SolverConfig, initial_point, maxcut_sdp, random_graph, solve
from sparse_sdp.bench import trial_seed

# random_graph(10, 16, trial_seed(1, 0)), direction_mode="four"
FOUR_N10_K0 = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,11.060231608947019,47.14088299343081,1,6,0.5
2,4.338620697751846,38.77730371159322,4,4,0.5
3,1.193570682414376,27.36383849387797,6,9,0.75
4,0.45491919079542953,16.440028291797752,9,9,0.5
5,0.19259679725436474,6.634691480700367,9,10,0.5
6,0.08450382047122673,-1.6620688495946059,10,10,0.75
7,0.0275039671869024,-10.916839596339862,9,9,0.75
8,0.010982210655035018,-18.59841662881886,10,9,0.5
9,0.003096775146023134,-34.64335418754768,10,9,0.75
10,0.000724715717048241,-46.43854396348547,10,10,1.0
11,0.00028523986343031993,-56.70427763110773,9,9,0.5
12,0.00011549708747349285,-66.30981173862894,9,6,0.5
13,4.752449464362485e-05,-76.15097058355704,10,9,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,cg_primal,cg_dual,descent_steps
1,12.757213722706695,48.612171591364415,1,0,0.5
2,6.069334891689421,41.46545952653822,3,0,0.5
3,5.2698754788847335,39.71493419857024,4,0,0.0
4,2.744078382692846,33.78261122682805,6,0,0.5
5,0.7600987728342368,21.983308142678844,7,0,2.0
6,0.3369584568649868,12.331404868456412,10,0,1.5
7,0.07764626680776221,0.44980537762959116,10,0,3.0
8,0.044947765453673405,-6.639925724152732,10,0,0.5
9,0.01875614267133141,-16.035750566333377,10,0,1.5
10,0.007796621797032444,-25.10375535919512,10,0,1.5
11,0.0036184134698995507,-32.829553097279806,10,0,1.5
12,0.0016069573890655775,-41.12065757012691,10,0,2.0
13,0.0007613052992914149,-48.652349468346095,10,0,1.5
14,0.00034972510467667917,-56.375744042673446,10,0,1.5
15,0.00016473422505569602,-63.93803509897724,10,0,1.5
16,7.580764119552441e-05,-71.31715039173115,6,0,1.5
"""


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("index,mode,expected", [
    (0, "four", FOUR_N10_K0),
    (1, "two", TWO_N10_K1),
], ids=["four", "two"])
def test_iteration_csv_is_pinned(index, mode, expected):
    problem = maxcut_sdp(random_graph(10, 16, trial_seed(1, index)))
    x0, y0 = initial_point(problem)
    report = solve(problem, x0, y0, SolverConfig(direction_mode=mode))
    got, want = _rows(report.csv_text()), _rows(expected)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("iter", "cg_primal", "cg_dual", "descent_steps"):
            assert g[key] == w[key], (w["iter"], key)
        for key in ("gap", "phi"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9), \
                (w["iter"], key)
