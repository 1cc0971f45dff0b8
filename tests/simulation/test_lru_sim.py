"""Tests for repro.simulation.lru_sim — the LRU baseline replay."""

import numpy as np
import pytest

from repro.baselines.local import LocalPolicy
from repro.simulation.engine import simulate_allocation
from repro.simulation.lru_sim import LruCache, simulate_lru
from repro.simulation.perturbation import IDENTITY_PERTURBATION
from repro.workload.trace import generate_trace


class TestLruCache:
    def test_miss_then_hit(self):
        c = LruCache(100)
        assert not c.access(1, 10)
        assert c.access(1, 10)
        assert c.hits == 1 and c.misses == 1

    def test_eviction_order(self):
        c = LruCache(30)
        c.access(1, 10)
        c.access(2, 10)
        c.access(3, 10)
        c.access(1, 10)  # refresh 1
        c.access(4, 10)  # evicts 2 (LRU)
        assert 2 not in c
        assert 1 in c and 3 in c and 4 in c
        assert c.evictions == 1

    def test_oversized_object_not_cached(self):
        c = LruCache(5)
        assert not c.access(1, 10)
        assert 1 not in c
        assert len(c) == 0

    def test_used_tracks_bytes(self):
        c = LruCache(100)
        c.access(1, 30)
        c.access(2, 40)
        assert c.used == 70

    def test_zero_capacity(self):
        c = LruCache(0)
        assert not c.access(1, 1)
        assert len(c) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LruCache(float("nan"))

    def test_hit_rate(self):
        c = LruCache(100)
        c.access(1, 10)
        c.access(1, 10)
        c.access(1, 10)
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(0)
        c = LruCache(100)
        for _ in range(500):
            c.access(int(rng.integers(0, 50)), float(rng.integers(1, 40)))
            assert c.used <= 100


class TestSimulateLru:
    def test_infinite_cache_converges_to_local(self, small_model, small_params):
        """With an unbounded cache every repeat access hits: after warmup
        the LRU times approach the Local policy's (first-access misses
        keep it slightly above)."""
        trace = generate_trace(small_model, small_params, seed=2)
        sim_lru, stats = simulate_lru(
            trace, cache_bytes=1e18, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        sim_local = simulate_allocation(
            LocalPolicy().allocate(small_model),
            trace,
            IDENTITY_PERTURBATION,
            seed=3,
        )
        assert stats.hit_rate > 0.9
        assert sim_lru.mean_page_time <= sim_local.mean_page_time * 1.15
        assert sim_lru.mean_page_time >= sim_local.mean_page_time * 0.95

    def test_zero_cache_equals_remote_for_mos(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        sim, stats = simulate_lru(
            trace, cache_bytes=0.0, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        assert stats.hits == 0
        # every MO travels remotely -> remote stream dominates everywhere
        assert sim.bottleneck_fraction_remote() > 0.99

    def test_bigger_cache_no_worse(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        small_c, _ = simulate_lru(
            trace, cache_bytes=5e6, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        big_c, _ = simulate_lru(
            trace, cache_bytes=5e8, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        assert big_c.mean_page_time <= small_c.mean_page_time * 1.02

    def test_hit_rate_monotone_in_cache(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        rates = []
        for budget in (1e6, 1e7, 1e8):
            _, stats = simulate_lru(trace, cache_bytes=budget, seed=3)
            rates.append(stats.hit_rate)
        assert rates == sorted(rates)

    def test_per_server_budgets(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        budgets = np.full(small_model.n_servers, 1e7)
        budgets[0] = 0.0
        _, stats = simulate_lru(trace, cache_bytes=budgets, seed=3)
        assert stats.final_bytes_by_server[0] == 0.0
        assert stats.final_bytes_by_server[1:].sum() > 0

    def test_local_service_prob_zero_all_remote(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        sim, _ = simulate_lru(
            trace,
            cache_bytes=1e18,
            perturbation=IDENTITY_PERTURBATION,
            seed=3,
            local_service_prob=0.0,
        )
        assert sim.bottleneck_fraction_remote() > 0.99

    def test_local_service_prob_validated(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        with pytest.raises(ValueError, match="local_service_prob"):
            simulate_lru(trace, cache_bytes=1.0, local_service_prob=1.5)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_bad_budget_rejected_naming_server(
        self, small_model, small_params, bad
    ):
        trace = generate_trace(
            small_model, small_params, seed=2, requests_per_server=10
        )
        budgets = np.full(small_model.n_servers, 1e7)
        budgets[2] = bad
        with pytest.raises(ValueError, match="server 2"):
            simulate_lru(trace, cache_bytes=budgets)
        with pytest.raises(ValueError, match="server 0"):
            simulate_lru(trace, cache_bytes=bad)

    def test_extra_redirect_overhead_hurts(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        ideal, _ = simulate_lru(
            trace, cache_bytes=1e7, perturbation=IDENTITY_PERTURBATION, seed=3
        )
        costly, _ = simulate_lru(
            trace,
            cache_bytes=1e7,
            perturbation=IDENTITY_PERTURBATION,
            seed=3,
            extra_remote_overhead=30.0,
        )
        assert costly.mean_page_time > ideal.mean_page_time

    def test_reproducible(self, small_model, small_params):
        trace = generate_trace(small_model, small_params, seed=2)
        a, _ = simulate_lru(trace, cache_bytes=1e7, seed=4)
        b, _ = simulate_lru(trace, cache_bytes=1e7, seed=4)
        assert np.array_equal(a.page_times, b.page_times)

    def test_optional_downloads_go_through_cache(self, small_model, small_params):
        trace = generate_trace(
            small_model,
            small_params.with_(optional_interest_prob=1.0),
            seed=2,
        )
        if trace.n_optional_downloads == 0:
            pytest.skip("no optional downloads sampled")
        _, stats = simulate_lru(trace, cache_bytes=1e18, seed=3)
        owner_entries = trace.opt_entries
        # total accesses include the optional ones
        comp_accesses = sum(
            len(small_model.pages[j].compulsory) for j in trace.page_of_request
        )
        assert stats.hits + stats.misses == comp_accesses + len(owner_entries)
