"""Tests for the GreedyDual-Size cache baseline."""

import numpy as np
import pytest

from repro.simulation.lru_sim import GreedyDualSizeCache, LruCache, simulate_lru
from repro.simulation.perturbation import IDENTITY_PERTURBATION
from repro.workload.trace import generate_trace
from repro.workload.params import WorkloadParams


class TestGreedyDualSizeCache:
    def test_miss_then_hit(self):
        c = GreedyDualSizeCache(100)
        assert not c.access(1, 10)
        assert c.access(1, 10)
        assert c.hits == 1 and c.misses == 1

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(0)
        c = GreedyDualSizeCache(100)
        for _ in range(500):
            c.access(int(rng.integers(0, 50)), float(rng.integers(1, 40)))
            assert c.used <= 100 + 1e-9

    def test_oversized_never_cached(self):
        c = GreedyDualSizeCache(5)
        assert not c.access(1, 10)
        assert 1 not in c

    def test_inflation_protects_recent(self):
        """After evictions raise the baseline, a freshly admitted object
        outranks stale ones."""
        c = GreedyDualSizeCache(30)
        c.access(1, 10)
        c.access(2, 10)
        c.access(3, 10)
        c.access(4, 10)  # evicts one, inflates baseline
        assert 4 in c
        assert len(c) == 3

    def test_re_access_refreshes_credit(self):
        c = GreedyDualSizeCache(30)
        c.access(1, 10)
        c.access(2, 10)
        c.access(3, 10)
        c.access(1, 10)  # refresh 1
        c.access(4, 10)  # someone must go; 1 was refreshed
        assert 1 in c

    def test_zero_capacity(self):
        c = GreedyDualSizeCache(0)
        assert not c.access(1, 1)
        assert len(c) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            GreedyDualSizeCache(-1)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            GreedyDualSizeCache(float("nan"))

    def test_replay_matches_accesses(self):
        rng = np.random.default_rng(1)
        objects = rng.integers(0, 30, 400).tolist()
        sizes = rng.integers(1, 40, 400).astype(float).tolist()
        costs = (2.0 + 0.5 * np.array(sizes)).tolist()
        one = GreedyDualSizeCache(150)
        expected = bytearray(
            one.access(k, s, cost=c) for k, s, c in zip(objects, sizes, costs)
        )
        other = GreedyDualSizeCache(150)
        flags = other.replay(objects[:123], sizes[:123], np.array(costs[:123]))
        flags += other.replay(objects[123:], sizes[123:], costs[123:])
        assert flags == expected
        assert (other.hits, other.misses, other.evictions, other.used) == (
            one.hits,
            one.misses,
            one.evictions,
            one.used,
        )
        assert other._credit == one._credit

    def test_hit_rate(self):
        c = GreedyDualSizeCache(100)
        c.access(1, 10)
        c.access(1, 10)
        assert c.hit_rate == pytest.approx(0.5)

    def test_size_update_on_hit(self):
        c = GreedyDualSizeCache(100)
        c.access(1, 10)
        c.access(1, 60)
        assert c.used == 60


class TestSimulateWithGds:
    def test_factory_hook(self, small_model, small_params):
        trace = generate_trace(
            small_model, small_params, seed=2, requests_per_server=300
        )
        sim, stats = simulate_lru(
            trace,
            cache_bytes=3e7,
            perturbation=IDENTITY_PERTURBATION,
            seed=3,
            cache_factory=GreedyDualSizeCache,
        )
        assert sim.n_requests == trace.n_requests
        assert 0.0 < stats.hit_rate < 1.0

    def test_gds_competitive_with_lru_at_small_budgets(
        self, small_model, small_params
    ):
        """Under a tight byte budget, GDS's anti-hoarding bias should
        yield at least comparable response times to plain LRU."""
        trace = generate_trace(
            small_model, small_params, seed=2, requests_per_server=800
        )
        budget = 2e7
        lru_sim, _ = simulate_lru(
            trace, cache_bytes=budget, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        gds_sim, _ = simulate_lru(
            trace,
            cache_bytes=budget,
            perturbation=IDENTITY_PERTURBATION,
            seed=3,
            cache_factory=GreedyDualSizeCache,
        )
        assert gds_sim.mean_page_time <= lru_sim.mean_page_time * 1.10
