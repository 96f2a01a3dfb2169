"""One line per solve and one SHA-256 over 36 fixed solves, to check
that a change leaves the solver's path where it was.

    python3 tests/solve_digest.py > out.txt
    python3 tests/solve_digest.py --compare parent.txt change.txt

Run it in two checkouts and ``diff`` the outputs, or ``--compare``
them: that prints each solve whose status or iteration count changed,
the largest relative difference in C.X and in b.y over the solves and
then per family (random, banded, torus), so a change meant to move one
family shows the others at exactly 0, and which of the three hashes and
the digest differ, and exits with status 1
when any solve changed status or iteration count (0 otherwise), so a
script can gate on it.  Each solve prints one
line, ``family i mode status iterations C.X b.y`` (objectives as repr),
so a change that moves the path within a tolerance shows which solves
moved and by how much; the last line, the digest, is equal only when
the path is byte for byte the same.  Before it, ``kernels <sha256>``
hashes the kernel outputs at the starting slacks, ``solves <sha256>``
the problems and the solves, and ``paths <sha256>`` the same without
the Gram vectors, so a change to a kernel that no solve calls, or to
how the Gram vectors are taken, shows the solve path byte-identical
while the digest moves.  The solves are
the three benchmark families -- random_graph(35, 105), banded_graph(60, 3)
and the 5x7 odd torus with weights 1-2, the torus written as .dat-s and
read back through ``read_sdpa`` -- at ``trial_seed(3, 0..5)``, each in
four- and two-direction mode.  The digest covers C, x0 and y0 of every
problem; the outputs of ``cholesky_factorize`` (its entries in slot
order, ``blocks[clique_tree.scatter]``, and its log-det),
``sparse_inverse`` and ``hess_vec(factor, C, sinv)`` at the starting
slack C - sum y0_p A_p,
which covers ``hess_vec`` although no solve calls it, and of what the
directions call on that factor: W = ``inverse_columns(factor)``,
``newton_matrix(W)`` and ``hess_from_columns(W, C)``; the outputs of
``inverse_columns`` and ``lower_inverse`` on the factor of the
completion inverse at x0, which the primal direction and the Gram
vectors read; then each solve's
iteration CSV and Gram vectors, or the message and partial CSV of an
``IterationLimit``.  The kernel hash covers those kernel outputs, the
solve hash the rest, and the path hash the rest but the Gram vectors.
It imports ``sparse_sdp`` from this checkout's ``src/`` and the
generators from ``perfbench/graphs.py`` by path.
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sparse_sdp import (EliminationOrdering, Graph, IterationLimit,  # noqa: E402
                        SdpProblem, SolverConfig, cholesky_factorize,
                        hess_from_columns, hess_vec, initial_point,
                        inverse_columns, maxcut_sdp, random_graph, read_sdpa,
                        solve, sparse_inverse, write_sdpa)
from sparse_sdp.bench import trial_seed  # noqa: E402
from sparse_sdp.completion import (completion_factors,  # noqa: E402
                                   completion_inverse_factor)
from sparse_sdp.logdet import lower_inverse  # noqa: E402
from sparse_sdp.maxcut import gram_vectors  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_graphs",
                                               ROOT / "perfbench" / "graphs.py")
graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(graphs)

SEED = 3
INSTANCES = 6


def _via_sdpa(graph, path):
    """The MAX-CUT relaxation of ``graph`` written as .dat-s and read back."""
    problem = maxcut_sdp(graph)
    back = EliminationOrdering(problem.ordering.inverse)
    write_sdpa(path, problem.c.permuted(back),
               [a.permuted(back) for a in problem.constraints], problem.b)
    return SdpProblem(*read_sdpa(path))


def problems(workdir):
    """(label, problem) for every instance, in a fixed order."""
    for index in range(INSTANCES):
        seed = trial_seed(SEED, index)
        yield f"random {index}", maxcut_sdp(random_graph(35, 105, seed))
        yield f"banded {index}", maxcut_sdp(Graph(*graphs.banded_graph(60, 3, seed)))
        torus = Graph(*graphs.odd_torus_graph(5, 7, seed, max_weight=2))
        yield f"torus {index}", _via_sdpa(torus, Path(workdir) / f"torus{index}.dat-s")


def digest(out=sys.stdout):
    """Print one line per solve, then the kernel, solve and path hashes,
    to ``out``; return the digest."""
    h, kernels, solves, paths = (hashlib.sha256() for _ in range(4))

    def feed(part, *into):
        part = part.encode() if isinstance(part, str) else part.tobytes()
        h.update(part)
        for each in into:
            each.update(part)

    with tempfile.TemporaryDirectory() as workdir:
        for label, problem in problems(workdir):
            x0, y0 = initial_point(problem)
            for part in (problem.c.values, x0.values, y0):
                feed(part, solves, paths)
            factor = cholesky_factorize(problem.dual_slack(y0))
            sinv = sparse_inverse(factor)
            w = inverse_columns(factor)
            entries = factor.blocks[factor.pattern.clique_tree.scatter]
            for part in (entries, np.float64(factor.logdet), sinv.values,
                         hess_vec(factor, problem.c, sinv).values, w,
                         problem.newton_matrix(w), hess_from_columns(w, problem.c).values):
                feed(part, kernels)
            primal = completion_inverse_factor(completion_factors(x0))
            for part in (inverse_columns(primal), lower_inverse(primal)):
                feed(part, kernels)
            for mode in ("four", "two"):
                feed(f"{label} {mode}", solves, paths)
                try:
                    report = solve(problem, x0, y0, SolverConfig(direction_mode=mode))
                except IterationLimit as exc:
                    feed(str(exc), solves, paths)
                    report = exc.report
                    feed(report.csv_text(), solves, paths)
                else:
                    feed(report.csv_text(), solves, paths)
                    feed(gram_vectors(problem, report.state), solves)
                print(f"{label} {mode} {report.status} {report.iterations} "
                      f"{report.objective_primal!r} {report.objective_dual!r}",
                      file=out, flush=True)
    print(f"kernels {kernels.hexdigest()}", file=out)
    print(f"solves {solves.hexdigest()}", file=out)
    print(f"paths {paths.hexdigest()}", file=out)
    return h.hexdigest()


def _read(path):
    """The per-solve lines of a digest output as {label: (status,
    iterations, C.X, b.y)}, and its hash lines as {name: hex}."""
    solves, hashes = {}, {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) == 7:
            solves[" ".join(parts[:3])] = (parts[3], int(parts[4]),
                                           float(parts[5]), float(parts[6]))
        elif len(parts) == 2:
            hashes[parts[0]] = parts[1]
        elif len(parts) == 1:
            hashes["digest"] = parts[0]
    return solves, hashes


def compare(path_a, path_b, out=sys.stdout):
    """Print how the digest output at ``path_b`` differs from ``path_a``;
    return the number of solves that changed status or iteration count,
    or are in one output only."""
    a, hash_a = _read(path_a)
    b, hash_b = _read(path_b)
    changed = 0
    worst = {"C.X": (0.0, None), "b.y": (0.0, None)}
    family = {}         # family -> the largest relative C.X and b.y differences
    for label in list(a) + [label for label in b if label not in a]:
        if label not in a or label not in b:
            changed += 1
            print(f"only in {path_a if label in a else path_b}: {label}", file=out)
            continue
        (status_a, iters_a, *obj_a), (status_b, iters_b, *obj_b) = a[label], b[label]
        if (status_a, iters_a) != (status_b, iters_b):
            changed += 1
            print(f"changed: {label}: {status_a} {iters_a} -> {status_b} {iters_b}",
                  file=out)
        rels = [abs(y - x) / max(abs(x), abs(y), sys.float_info.min)
                for x, y in zip(obj_a, obj_b)]
        for name, rel in zip(worst, rels):
            if rel > worst[name][0]:
                worst[name] = (rel, label)
        fam = label.split()[0]
        family[fam] = [max(pair) for pair in zip(family.get(fam, (0.0, 0.0)), rels)]
    print(f"{changed} of {len(set(a) | set(b))} solves changed status or iterations",
          file=out)
    for name, (rel, label) in worst.items():
        print(f"max relative difference in {name}: {rel:.3e}"
              + (f" ({label})" if label else ""), file=out)
    for name, (cx, by) in family.items():
        print(f"{name}: max relative difference in C.X {cx:.3e}, in b.y {by:.3e}", file=out)
    for name in ("kernels", "solves", "paths", "digest"):
        same = hash_a.get(name) == hash_b.get(name)
        print(f"{name} {'equal' if same else 'differ'}", file=out)
    return changed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(1 if compare(*sys.argv[2:]) else 0)
    elif len(sys.argv) == 1:
        print(digest())
    else:
        sys.exit("usage: solve_digest.py [--compare A B]")
