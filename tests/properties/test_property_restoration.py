"""Property-based tests: restoration always terminates feasible."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    evaluate_constraints,
    html_request_load,
    local_processing_load,
    storage_used,
)
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import (
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.experiments.scaling import clone_with_capacities
from tests.properties.strategies import system_models


@given(system_models(), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_storage_restoration_feasible_and_consistent(model, frac):
    ref = partition_all(model)
    html = model.html_bytes_by_server()
    caps = html + frac * ref.stored_bytes_all() + 1.0
    m2 = clone_with_capacities(model, storage=caps)
    alloc = partition_all(m2)
    cost = CostModel(m2)
    restore_storage_capacity(alloc, cost)
    assert np.all(storage_used(alloc) <= caps + 1e-6)
    alloc.check_invariants()


@given(system_models(), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_processing_restoration_feasible_and_consistent(model, frac):
    ref = partition_all(model)
    html = html_request_load(model)
    load = local_processing_load(ref)
    caps = html + frac * np.maximum(load - html, 0.0) + 1e-9
    caps = np.maximum(caps, 1e-6)  # ServerSpec requires > 0
    m2 = clone_with_capacities(model, processing=caps)
    alloc = partition_all(m2)
    cost = CostModel(m2)
    restore_processing_capacity(alloc, cost)
    assert np.all(
        local_processing_load(alloc) <= caps + 1e-6 * np.maximum(caps, 1.0)
    )
    alloc.check_invariants()


@given(system_models())
@settings(max_examples=15, deadline=None)
def test_restoration_never_beats_true_optimum(model):
    """Constrained results can't beat the *unconstrained ILP optimum*.

    (They CAN occasionally beat the unconstrained greedy: evicting an
    object that trapped the sorted greedy can steer the restricted
    re-partition to a better split — greedy is not monotone.)
    """
    from repro.core.ilp import solve_optimal_allocation

    ref = partition_all(model)
    opt = solve_optimal_allocation(model).objective
    html = model.html_bytes_by_server()
    caps = html + 0.5 * ref.stored_bytes_all() + 1.0
    m2 = clone_with_capacities(model, storage=caps)
    alloc = partition_all(m2)
    cost2 = CostModel(m2)
    restore_storage_capacity(alloc, cost2)
    # tolerance covers the MILP solver's own optimality gap
    assert cost2.D(alloc) >= opt * (1.0 - 1e-5) - 1e-6
