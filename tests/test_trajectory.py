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
3,1.1935704631514348,27.363879211198004,0.75
4,0.4549231746670177,16.44005306898144,0.5
5,0.19259799245215703,6.634755840814396,0.5
6,0.08450431675426984,-1.6620097630780322,0.75
7,0.027504879709741914,-10.917018440269572,0.75
8,0.010981424261838235,-18.60066793332566,0.5
9,0.0030847881567215296,-34.68049541591971,0.75
10,0.0007262455659891032,-45.2105861316484,1.0
11,0.0003544457960522607,-54.979612251497045,0.5
12,0.00013120858429616078,-65.94247826791047,0.5
13,5.7843528298739955e-05,-74.44577169454396,0.5
"""

# random_graph(10, 16, trial_seed(1, 1)), direction_mode="two"
TWO_N10_K1 = """\
iter,gap,phi,descent_steps
1,12.757213722706695,48.612171591364415,0.5
2,6.069334888905364,41.46545935265816,0.5
3,5.269875497266192,39.714934046394994,0.0
4,2.7440784456746266,33.782612180162246,0.5
5,0.7601007032598517,21.983311727486054,2.0
6,0.33697457782022244,12.33182467956642,1.5
7,0.0776416200772525,0.447638766653359,3.0
8,0.04509899340445944,-6.6234807003507825,1.0
9,0.01882120117431363,-16.08040170438673,1.5
10,0.007904171576398333,-25.0332082912896,1.5
11,0.0037143056441113487,-32.65460372709407,1.5
12,0.0016592798868320102,-40.786363803859636,2.0
13,0.0007833594009465372,-48.319227872887204,1.5
14,0.0002477670015554878,-56.24637930645194,2.0
15,7.891978861263027e-05,-70.3241743948625,1.5
16,4.907112324925578e-05,-75.65237846291507,0.5
"""

# random_graph(20, 40, trial_seed(1, 0)), direction_mode="four"
FOUR_N20_K0 = """\
iter,gap,phi,descent_steps
1,20.54703848618159,123.54838875233902,0.75
2,13.621285866515153,113.04478618282721,0.0
3,6.92509481634467,101.82322068945068,0.5
4,2.304302234281433,81.85569108006517,0.75
5,1.900762837379041,75.38366018704188,0.25
6,0.8415890768802505,57.92800674479675,0.25
7,0.26535399303755725,35.34480071648514,0.75
8,0.0738517497357929,13.208614278543244,0.75
9,0.03183112844686775,-8.017474056478033,0.5
10,0.010805446629980509,-27.939410490361396,0.75
11,0.0049540975241484375,-45.28401301780964,0.25
12,0.0015640932283940145,-66.99792461990852,0.75
13,0.0007107523365821322,-82.48819083529133,0.25
14,0.0002232021084687119,-105.09381284697332,0.75
15,0.00015485985586138895,-111.73870892565012,0.0
16,0.00010817187487077717,-122.6111581447244,0.0
"""

# random_generic_sdp(12, 6, np.random.default_rng(0)), direction_mode="four"
GENERIC_FOUR = """\
iter,gap,phi,descent_steps
1,12.191800321948586,60.135043092310404,0.5
2,5.2512227512703795,49.918214850877334,0.75
3,1.7312524150846826,38.26013418257168,0.75
4,1.2961777449331446,33.845304337989894,0.0
5,0.5593870411854578,23.08986950935643,0.5
6,0.14459851077132946,9.859395656811571,0.75
7,0.1059474739091133,5.4783589506197785,0.0
8,0.0716915198664072,-1.6583690900877706,0.0
9,0.03224609551871538,-11.364144633039977,0.5
10,0.009224016889582742,-24.827315777321743,0.75
11,0.007099563843365075,-29.226068429635465,0.0
12,0.003188590193516916,-39.05664689606785,0.5
13,0.0009170225712953339,-52.14885633497116,0.75
14,0.0007041982539597313,-56.60540478256587,0.0
15,0.00031347944596937793,-66.3718338640395,0.5
16,8.840648485630709e-05,-79.56352647098663,0.75
"""

# random_graph(9, 14, trial_seed(1, 2)) reweighted to 1-2 (see _weighted_sdpa),
# through write_sdpa and read_sdpa, direction_mode="four"
SDPA_FOUR = """\
iter,gap,phi,descent_steps
1,9.17875768358708,40.01950653947011,0.5
2,2.395994831805325,28.706770084860363,1.0
3,0.9927659800746245,19.994638834522494,0.5
4,0.3350886746197492,11.286071001420002,0.75
5,0.13357451210005777,3.2433118010456994,0.5
6,0.054546577364261495,-6.294323371642484,0.5
7,0.015857494806990502,-15.023981432065693,0.75
8,0.008773672879762273,-22.477601967661755,0.0
9,0.0038112504361844657,-30.281300743169695,0.5
10,0.0016437851097013123,-37.898994720117415,0.75
11,0.0003437918117192851,-51.41796168431534,1.0
12,0.00014858362697189875,-59.34974682173484,0.5
13,6.34351496575647e-05,-67.176475208834,0.75
14,2.778055849894656e-05,-74.62318028510603,0.75
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
