"""Property-based tests: cost-model invariants on random universes."""

import numpy as np
from hypothesis import given, settings

from repro.baselines.local import LocalPolicy
from repro.baselines.remote import RemotePolicy
from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from tests.properties.strategies import models_with_allocations, system_models


@given(models_with_allocations())
@settings(max_examples=60, deadline=None)
def test_times_nonnegative(mw):
    model, alloc = mw
    cost = CostModel(model)
    t = cost.page_times(alloc)
    assert np.all(t.local >= 0)
    assert np.all(t.remote >= 0)
    assert np.all(t.page >= 0)
    assert np.all(t.optional >= 0)


@given(models_with_allocations())
@settings(max_examples=60, deadline=None)
def test_page_time_is_max(mw):
    model, alloc = mw
    t = CostModel(model).page_times(alloc)
    assert np.allclose(t.page, np.maximum(t.local, t.remote))


@given(models_with_allocations())
@settings(max_examples=60, deadline=None)
def test_objective_decomposition(mw):
    model, alloc = mw
    cost = CostModel(model, alpha1=2.0, alpha2=1.0)
    assert np.isclose(
        cost.D(alloc), 2.0 * cost.D1(alloc) + 1.0 * cost.D2(alloc)
    )


@given(models_with_allocations())
@settings(max_examples=60, deadline=None)
def test_byte_conservation(mw):
    """Local + remote MO bytes per page equal the page's total MO bytes."""
    model, alloc = mw
    cost = CostModel(model)
    total = cost.local_mo_bytes(alloc) + sum(cost.remote_mo_bytes_by_stream(alloc))
    expected = np.zeros(model.n_pages)
    for j, p in enumerate(model.pages):
        expected[j] = sum(model.objects[k].size for k in p.compulsory)
    assert np.allclose(total, expected)


@given(system_models())
@settings(max_examples=50, deadline=None)
def test_partition_between_extremes(model):
    """PARTITION's D never exceeds the better of the two extremes."""
    cost = CostModel(model)
    ours = cost.D(partition_all(model, optional_policy="beneficial"))
    d_local = cost.D(LocalPolicy().allocate(model))
    d_remote = cost.D(RemotePolicy().allocate(model))
    assert ours <= min(d_local, d_remote) + 1e-6


@given(models_with_allocations())
@settings(max_examples=40, deadline=None)
def test_flipping_optional_to_faster_side_never_hurts(mw):
    """Greedily aligning every optional entry with its faster side can
    only decrease D2."""
    model, alloc = mw
    cost = CostModel(model)
    before = cost.D2(alloc)
    for e in range(len(model.opt_objects)):
        to_local = cost.opt_time_local[e] <= cost.opt_time_repo[e]
        if to_local != bool(alloc.opt_local[e]):
            if to_local:
                alloc.set_opt_local(e, True)
            else:
                alloc.set_opt_local(e, False)
    assert cost.D2(alloc) <= before + 1e-9
