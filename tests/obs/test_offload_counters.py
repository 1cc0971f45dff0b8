"""The L2-swap counters OFF_LOADING reports into the active registry."""

from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, offload_repository
from repro.obs.registry import MetricsRegistry, use_registry


def _swap_counters(world, kernel):
    model, base = world
    registry = MetricsRegistry()
    with use_registry(registry):
        offload_repository(
            base.copy(), CostModel(model), OffloadConfig(), kernel=kernel
        )
    c = registry.counters
    return c["offload.swap_attempts"], c["offload.swaps"], c["offload.swap_rankings"]


def test_swap_counters(l2_swap_world):
    attempts, swaps, rankings = _swap_counters(l2_swap_world, "scalar")
    assert 1 <= swaps <= attempts
    # the scalar reference ranks afresh on every attempt ...
    assert rankings == attempts
    # ... the batched kernel attempts the same swaps but reuses one
    # table until it mutates the server
    b_attempts, b_swaps, b_rankings = _swap_counters(l2_swap_world, "batched")
    assert (b_attempts, b_swaps) == (attempts, swaps)
    assert 1 <= b_rankings < b_attempts
