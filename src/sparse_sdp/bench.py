"""Benchmark harnesses: solver statistics and banded log-det timing.

Per-trial seeds derive deterministically from the master seed, so runs
are reproducible; trials run one after another in this process, so each
trial's time is not skewed by concurrent ones.
"""

from __future__ import annotations

import math
import time
from statistics import mean, median

import numpy as np

from .completion import banded_pattern, logdet_completion_banded
from .maxcut import initial_point, maxcut_sdp, random_graph
from .solver import SolverConfig, solve
from .sparsemat import SparseSymMatrix


def trial_seed(master, index):
    """Stable per-trial seed derived from the master seed."""
    return int(np.random.SeedSequence(entropy=[int(master), int(index)])
               .generate_state(1)[0])


def run_solver_trial(args):
    """One random MAX-CUT solve; returns its timing and iteration stats."""
    n, m, seed, direction_mode, gamma, gap_tol = args
    graph = random_graph(n, m, seed)
    problem = maxcut_sdp(graph)
    x0, y0 = initial_point(problem)
    cfg = SolverConfig(gamma=gamma, gap_tol=gap_tol, direction_mode=direction_mode)
    t0 = time.perf_counter()
    report = solve(problem, x0, y0, cfg)
    elapsed = time.perf_counter() - t0
    summary = report.summary()
    return {
        "time": elapsed,
        "iterations": report.iterations,
        "newton_res": max(summary["max_newton_res_primal"],
                          summary["max_newton_res_dual"]),
        "descent_steps": summary["mean_descent_steps"],
    }


def parse_sizes(text):
    """'5:7,10:16' -> [(5, 7), (10, 16)]; ValueError names a chunk that is
    not two integers n:m."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_str, m_str = chunk.split(":")
            pairs.append((int(n_str), int(m_str)))
        except ValueError:
            raise ValueError(f"bad size {chunk!r}, expected n:m") from None
    if not pairs:
        raise ValueError("no sizes given")
    return pairs


def run_table_of_iterations(sizes, trials, seed, gamma=None, gap_tol=1e-3):
    """Mean solve statistics per (n, m) size with the four-direction solver."""
    rows = []
    for n, m in sizes:
        jobs = [(n, m, trial_seed(seed, 1_000_000 * n + 1_000 * m + t), "four",
                 gamma, gap_tol) for t in range(trials)]
        stats = [run_solver_trial(j) for j in jobs]
        rows.append({
            "n": n,
            "m": m,
            "trials": trials,
            "mean_time": mean(s["time"] for s in stats),
            "median_time": median(s["time"] for s in stats),
            "mean_main_iters": mean(s["iterations"] for s in stats),
            "max_newton_res": max(s["newton_res"] for s in stats),
            "mean_pot_min": mean(s["descent_steps"] for s in stats),
        })
    return rows


def run_direction_comparison(sizes, trials, seed, gamma=None, gap_tol=1e-3):
    """Four- vs two-direction solves on identical instances."""
    rows = []
    for n, m in sizes:
        seeds = [trial_seed(seed, 1_000_000 * n + 1_000 * m + t)
                 for t in range(trials)]
        for mode in ("four", "two"):
            jobs = [(n, m, s, mode, gamma, gap_tol) for s in seeds]
            stats = [run_solver_trial(j) for j in jobs]
            rows.append({
                "mode": mode,
                "n": n,
                "m": m,
                "trials": trials,
                "mean_time": mean(s["time"] for s in stats),
                "median_time": median(s["time"] for s in stats),
                "mean_iters": mean(s["iterations"] for s in stats),
            })
    return rows


def random_banded_partial(n, bandwidth, seed):
    """Random PD partial matrix on the full band of the given bandwidth.

    Built as the band of G G^T for a banded lower-triangular G with unit
    diagonal, so every clique block is positive definite.  ValueError
    unless n >= 1 and bandwidth >= 0.
    """
    if n < 1 or bandwidth < 0:
        raise ValueError(f"need n >= 1 and bandwidth >= 0, got n={n}, "
                         f"bandwidth={bandwidth}")
    rng = np.random.default_rng(seed)
    p = min(bandwidth, n - 1)
    # gband[i, k] holds G[i, i-k] for offsets k = 0..p
    gband = rng.standard_normal((n, p + 1)) * 0.5
    gband[:, 0] = 1.0
    for k in range(1, p + 1):
        gband[:k, k] = 0.0
    pat = banded_pattern(n, bandwidth)
    out = SparseSymMatrix.zeros(pat)
    # M[i, i-d] = sum_{k>=d} G[i, i-k] G[i-d, (i-d)-(k-d)]
    for d in range(p + 1):
        acc = np.zeros(n - d)
        for k in range(d, p + 1):
            acc += gband[d:, k] * gband[: n - d, k - d]
        out.values[pat.slots(np.arange(d, n), np.arange(n - d))] = acc
    return out


def time_banded_sweep(cases, reps, blocks=20, min_block_seconds=0.0025):
    """Interleaved block timing for a family of (n, bandwidth, seed) cases.

    Each timing block averages enough calls to fill ``min_block_seconds``
    (at least reps/blocks of them); the blocks of all cases interleave so
    machine-speed drift hits every case alike.  Times are process CPU
    seconds, so other processes competing for the CPU do not inflate
    them.  Returns one list of block averages per case; the per-case
    minimum is the cleanest estimate.  Many short blocks make it likely
    that every case is timed at least once while a shared host runs at
    full speed.
    """
    clock = time.process_time
    prepared = []
    counts = []
    reps = int(reps)
    blocks = max(1, min(int(blocks), reps))
    for n, bandwidth, seed in cases:
        xbar = random_banded_partial(n, bandwidth, seed)
        t0 = clock()
        logdet_completion_banded(xbar, bandwidth)  # warm path once
        probe = max(clock() - t0, 1e-9)
        prepared.append((xbar, bandwidth))
        counts.append(max(max(1, reps // blocks),
                          math.ceil(min_block_seconds / probe)))
    samples = [[] for _ in prepared]
    for _ in range(blocks):
        for idx, (xbar, bandwidth) in enumerate(prepared):
            t0 = clock()
            for _ in range(counts[idx]):
                logdet_completion_banded(xbar, bandwidth)
            samples[idx].append((clock() - t0) / counts[idx])
    return samples


def _stats(times):
    return {
        "mean_time": mean(times) if times else float("nan"),
        "median_time": median(times) if times else float("nan"),
        "min_time": min(times) if times else float("nan"),
    }


def run_banded_fixed_bandwidth(bandwidth, n_values, reps, seed):
    if not reps:
        return []
    cases = [(n, bandwidth, trial_seed(seed, n)) for n in n_values]
    samples = time_banded_sweep(cases, reps)
    return [{"n": n, "bandwidth": bandwidth, "reps": reps, **_stats(times)}
            for n, times in zip(n_values, samples)]


def run_banded_fixed_diff(diff, p_values, reps, seed):
    if not reps:
        return []
    cases = [(p + diff, p, trial_seed(seed, p)) for p in p_values]
    samples = time_banded_sweep(cases, reps)
    return [{"bandwidth": p, "bandwidth_sq": p * p, "n": p + diff, "reps": reps,
             **_stats(times)}
            for p, times in zip(p_values, samples)]
