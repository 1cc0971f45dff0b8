"""The L2-swap counters OFF_LOADING reports into the active registry."""

from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, offload_repository
from repro.obs.registry import MetricsRegistry, use_registry
from tests.oracles.scalar_greedy import offload_scalar


def test_swap_counters(l2_swap_world):
    model, base = l2_swap_world
    counters: dict = {}
    offload_scalar(base.copy(), CostModel(model), OffloadConfig(), counters=counters)
    attempts, swaps, rankings = (
        counters["swap_attempts"], counters["swaps"], counters["swap_rankings"]
    )
    assert 1 <= swaps <= attempts
    # the scalar reference ranks afresh on every attempt ...
    assert rankings == attempts
    # ... the engine attempts the same swaps but reuses one table until
    # it mutates the server
    registry = MetricsRegistry()
    with use_registry(registry):
        offload_repository(base.copy(), CostModel(model), OffloadConfig())
    c = registry.counters
    assert (c["offload.swap_attempts"], c["offload.swaps"]) == (attempts, swaps)
    assert 1 <= c["offload.swap_rankings"] < attempts
