"""Differential tests: ``simulate_lru`` against the per-access replay loop.

The production replay builds each server's access stream with NumPy and
draws the ``local_service_prob`` coins in bulk; the reference
(:func:`tests.simulation.lru_reference.simulate_lru_reference`) walks
the requests one access at a time with one draw per hit.  Results,
cache statistics and the generator position afterwards must be equal.
"""

import numpy as np
import pytest

from repro.simulation.lru_sim import GreedyDualSizeCache, LruCache, simulate_lru
from repro.workload.trace import RequestTrace, generate_trace
from tests.simulation.lru_reference import ReferenceLruCache, simulate_lru_reference

FACTORIES = {
    "lru": (LruCache, ReferenceLruCache),
    "gds": (GreedyDualSizeCache, GreedyDualSizeCache),
}


def _assert_same(trace, budgets, factory, prob):
    cache, reference = FACTORIES[factory]
    rng_new = np.random.default_rng(11)
    rng_ref = np.random.default_rng(11)
    sim, stats = simulate_lru(
        trace, budgets, seed=rng_new, local_service_prob=prob, cache_factory=cache
    )
    ref_sim, ref_stats = simulate_lru_reference(
        trace, budgets, seed=rng_ref, local_service_prob=prob, cache_factory=reference
    )
    assert np.array_equal(sim.page_times, ref_sim.page_times)
    assert np.array_equal(sim.optional_times, ref_sim.optional_times)
    assert (stats.hits, stats.misses, stats.evictions) == (
        ref_stats.hits,
        ref_stats.misses,
        ref_stats.evictions,
    )
    assert np.array_equal(
        stats.final_bytes_by_server, ref_stats.final_bytes_by_server
    )
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return stats


def _hand_trace(model, servers, n_requests, seed):
    """Requests for pages of ``servers`` in shuffled (interleaved) server
    order; optional downloads listed in shuffled order."""
    rng = np.random.default_rng(seed)
    pages = np.flatnonzero(np.isin(model.page_server, servers))
    page_of_request = rng.choice(pages, size=n_requests)
    opt_entries, opt_owner = [], []
    for r, j in enumerate(page_of_request):
        sl = model.opt_slice(int(j))
        if sl.stop > sl.start and rng.random() < 0.5:
            take = rng.choice(
                np.arange(sl.start, sl.stop), size=min(3, sl.stop - sl.start),
                replace=False,
            )
            opt_entries.extend(take)
            opt_owner.extend([r] * len(take))
    shuffle = rng.permutation(len(opt_entries))
    trace = RequestTrace(
        model=model,
        page_of_request=page_of_request.astype(np.intp),
        server_of_request=model.page_server[page_of_request].astype(np.intp),
        opt_entries=np.asarray(opt_entries, dtype=np.intp)[shuffle],
        opt_owner=np.asarray(opt_owner, dtype=np.intp)[shuffle],
    )
    trace.validate()
    return trace


@pytest.mark.parametrize("prob", [1.0, 0.6])
@pytest.mark.parametrize("factory", ["lru", "gds"])
def test_generated_trace(small_model, small_params, factory, prob):
    trace = generate_trace(small_model, small_params, seed=2, requests_per_server=400)
    assert trace.n_optional_downloads > 0
    budgets = np.array([2e7, 4e7, 1e7, 3e7])[: small_model.n_servers]
    stats = _assert_same(trace, budgets, factory, prob)
    assert stats.evictions > 0 and 0 < stats.hits < stats.hits + stats.misses


@pytest.mark.parametrize("prob", [1.0, 0.6])
@pytest.mark.parametrize("factory", ["lru", "gds"])
def test_interleaved_trace_with_idle_server(small_model, factory, prob):
    servers = np.arange(1, small_model.n_servers)
    trace = _hand_trace(small_model, servers, n_requests=600, seed=5)
    assert not np.all(np.diff(trace.server_of_request) >= 0)
    assert not np.all(np.diff(trace.opt_owner) >= 0)
    stats = _assert_same(trace, 2e7, factory, prob)
    # server 0 had no requests: its cache stays empty
    assert stats.final_bytes_by_server[0] == 0.0
    assert stats.evictions > 0


@pytest.mark.parametrize("prob", [1.0, 0.6])
@pytest.mark.parametrize("factory", ["lru", "gds"])
def test_trace_without_optional_downloads(small_model, small_params, factory, prob):
    trace = generate_trace(
        small_model,
        small_params.with_(optional_interest_prob=0.0),
        seed=3,
        requests_per_server=300,
    )
    assert trace.n_optional_downloads == 0
    _assert_same(trace, 3e7, factory, prob)


def test_empty_trace(small_model):
    trace = _hand_trace(small_model, [], n_requests=0, seed=0)
    stats = _assert_same(trace, 1e7, "lru", 0.6)
    assert stats.hits == stats.misses == 0
