import numpy as np
import pytest

from sparse_sdp import logdet_completion, maximal_cliques, rip_order
from sparse_sdp.bench import (parse_sizes, random_banded_partial,
                              run_direction_comparison,
                              run_table_of_iterations, time_banded_logdet,
                              trial_seed)


class TestSeeds:
    def test_trial_seed_deterministic_and_spread(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)
        seeds = {trial_seed(7, t) for t in range(100)}
        assert len(seeds) == 100
        assert trial_seed(7, 3) != trial_seed(8, 3)


class TestParseSizes:
    def test_pairs(self):
        assert parse_sizes("5:7,10:16") == [(5, 7), (10, 16)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_sizes(" , ")


class TestRandomBandedPartial:
    def test_matches_dense_gram_construction(self):
        xb = random_banded_partial(9, 3, seed=4)
        cs = rip_order(maximal_cliques(xb.pattern))
        logdet_completion(xb, cs)   # raises NotCompletable otherwise

    @pytest.mark.parametrize("n,p", [(6, 1), (10, 4), (7, 6)])
    def test_always_completable(self, n, p):
        for seed in range(5):
            xb = random_banded_partial(n, p, seed=seed)
            cs = rip_order(maximal_cliques(xb.pattern))
            logdet_completion(xb, cs)   # raises NotCompletable otherwise

    def test_deterministic(self):
        a = random_banded_partial(12, 3, seed=9)
        b = random_banded_partial(12, 3, seed=9)
        assert np.array_equal(a.diag, b.diag)
        assert np.array_equal(a.offdiag, b.offdiag)


class TestSolverTables:
    def test_cg_counts_land_in_reported_range(self):
        # desk-scale reproduction of the n=10 row: both conjugate-gradient
        # averages sit in a loose [4, 20] band
        rows = run_table_of_iterations([(10, 16)], trials=8, seed=0)
        row = rows[0]
        assert 4.0 <= row["mean_cg_dx1"] <= 20.0
        assert 4.0 <= row["mean_cg_ds2"] <= 20.0
        assert row["trials"] == 8

    def test_direction_comparison_pairs_instances(self):
        rows = run_direction_comparison([(5, 7)], trials=3, seed=1)
        assert [r["mode"] for r in rows] == ["four", "two"]
        assert rows[0]["n"] == rows[1]["n"] == 5
        assert rows[0]["trials"] == rows[1]["trials"] == 3


class TestTiming:
    def test_block_averages_positive(self):
        times = time_banded_logdet(30, 3, reps=6, seed=2)
        assert times and all(t > 0 for t in times)
