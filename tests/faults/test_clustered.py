"""Tests for the clustered (physically local) attack mode."""

import numpy as np
import pytest

from repro.core.model import HDCModel
from repro.faults.api import attack
from repro.faults.bitflip import (
    num_bits_to_flip,
    sample_clustered_bits,
)


class TestSampling:
    def test_exact_budget(self):
        bits = sample_clustered_bits(
            100_000, 0.05, np.random.default_rng(0), cluster_bits=512
        )
        assert bits.shape[0] == num_bits_to_flip(100_000, 0.05)
        assert len(set(bits.tolist())) == bits.shape[0]

    def test_locality(self):
        """Flips concentrate in few spans instead of spreading uniformly."""
        total, cluster = 100_000, 512
        bits = sample_clustered_bits(
            total, 0.02, np.random.default_rng(1), cluster_bits=cluster
        )
        spans_hit = len(set((bits // cluster).tolist()))
        uniform_bits = np.random.default_rng(1).choice(
            total, size=bits.shape[0], replace=False
        )
        uniform_spans = len(set((uniform_bits // cluster).tolist()))
        assert spans_hit < uniform_spans / 3

    def test_half_density_within_victims(self):
        total, cluster = 100_000, 512
        bits = sample_clustered_bits(
            total, 0.02, np.random.default_rng(2), cluster_bits=cluster
        )
        spans, counts = np.unique(bits // cluster, return_counts=True)
        # All but possibly the last span carry exactly cluster/2 flips.
        assert (counts == cluster // 2).sum() >= len(spans) - 1

    def test_zero_rate(self):
        bits = sample_clustered_bits(1_000, 0.0, np.random.default_rng(0))
        assert bits.size == 0

    def test_spillover_for_tiny_memories(self):
        """When the budget exceeds the victims' capacity the remainder
        spills uniformly rather than being silently dropped."""
        bits = sample_clustered_bits(
            600, 0.9, np.random.default_rng(3), cluster_bits=512
        )
        assert bits.shape[0] == num_bits_to_flip(600, 0.9)
        assert len(set(bits.tolist())) == bits.shape[0]

    @pytest.mark.parametrize("total,rate,cluster,spill", [
        (120_000, 0.03, 512, 16),  # 14 victim spans of 256 bits
        (100_000, 0.05, 384, 8),
        (4_096, 0.05, 100, 5),
        (1_000, 0.31, 7, 1),
        (600, 0.9, 512, 284),  # one span: most of the budget spills
    ])
    def test_spill_draws_match_setdiff_pool(self, total, rate, cluster,
                                            spill):
        """The spill pool is the sorted complement of the span picks, so
        the spilled draws equal a ``np.setdiff1d`` pool's draws."""

        def setdiff_reference(rng):
            budget = num_bits_to_flip(total, rate)
            size = min(cluster, total)
            per_span = size // 2
            spans = max(1, total // size)
            victims = rng.choice(
                spans, size=min(spans, max(1, round(budget / per_span))),
                replace=False,
            )
            picks, remaining = [], budget
            for span in victims:
                take = min(per_span, remaining)
                picks.append(
                    span * size + rng.choice(size, size=take, replace=False)
                )
                remaining -= take
                if remaining <= 0:
                    break
            out = np.concatenate(picks)
            assert remaining == spill
            if remaining > 0:
                pool = np.setdiff1d(np.arange(total, dtype=np.int64), out)
                out = np.concatenate(
                    [out, rng.choice(pool, size=remaining, replace=False)]
                )
            return out

        for seed in range(6):
            got = sample_clustered_bits(
                total, rate, np.random.default_rng(seed), cluster_bits=cluster
            )
            want = setdiff_reference(np.random.default_rng(seed))
            assert got.dtype == want.dtype
            assert (got == want).all()

    def test_bad_cluster(self):
        with pytest.raises(ValueError, match="cluster_bits"):
            sample_clustered_bits(100, 0.1, np.random.default_rng(0),
                                  cluster_bits=1)


class TestClusteredAttack:
    def test_damage_concentrated_per_class(self):
        rng = np.random.default_rng(4)
        model = HDCModel(
            class_hv=rng.integers(0, 2, (4, 4_096), dtype=np.uint8), bits=1
        )
        attacked, _ = attack(
            model, 0.02, "clustered", np.random.default_rng(5),
            cluster_bits=512,
        )
        per_class = (attacked.class_hv != model.class_hv).sum(axis=1)
        # With ~1 victim span, the damage is not evenly split 4 ways.
        assert per_class.max() > 2 * max(per_class.min(), 1)

    def test_budget_matches_uniform(self):
        rng = np.random.default_rng(6)
        model = HDCModel(
            class_hv=rng.integers(0, 2, (4, 4_096), dtype=np.uint8), bits=1
        )
        a, _ = attack(model, 0.05, "clustered", np.random.default_rng(7))
        b, _ = attack(model, 0.05, "random", np.random.default_rng(7))
        assert (
            (a.class_hv != model.class_hv).sum()
            == (b.class_hv != model.class_hv).sum()
        )
