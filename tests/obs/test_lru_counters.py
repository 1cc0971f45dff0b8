"""The LRU replay's span and counters in the active registry."""

from repro.obs.registry import MetricsRegistry, use_registry
from repro.simulation.lru_sim import simulate_lru
from repro.workload.trace import generate_trace


def test_lru_span_and_counters(small_model, small_params):
    trace = generate_trace(small_model, small_params, seed=2, requests_per_server=200)
    registry = MetricsRegistry()
    with use_registry(registry):
        _, stats = simulate_lru(trace, cache_bytes=2e7, seed=3)
    c = registry.counters
    assert c["simulation.lru_accesses"] == stats.hits + stats.misses > 0
    assert c["simulation.lru_hits"] == stats.hits > 0
    assert c["simulation.lru_evictions"] == stats.evictions > 0
    assert registry.span_seconds("simulate-lru") > 0.0


class _DisabledRegistry(MetricsRegistry):
    """Records whatever it is given but reports itself disabled."""

    enabled = False


def test_counters_gated_on_enabled(small_model, small_params):
    trace = generate_trace(small_model, small_params, seed=2, requests_per_server=50)
    registry = _DisabledRegistry()
    with use_registry(registry):
        simulate_lru(trace, cache_bytes=2e7, seed=3)
    assert not any(name.startswith("simulation.lru") for name in registry.counters)
