"""Property-based tests: simulation engine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel
from repro.core.types import expand_rows
from repro.simulation.engine import simulate_allocation
from repro.simulation.perturbation import (
    IDENTITY_PERTURBATION,
    PAPER_PERTURBATION,
)
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace
from tests.properties.strategies import models_with_allocations


_trace_params = WorkloadParams.tiny().with_(requests_per_server=30)


@given(models_with_allocations(), st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_identity_matches_cost_model(mw, seed):
    """Identity perturbation reproduces Eq. 3-6 exactly (modulo the
    engine's no-connection-no-overhead refinement)."""
    model, alloc = mw
    trace = generate_trace(model, _trace_params, seed=seed, requests_per_server=20)
    sim = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=seed)
    cost = CostModel(model)
    times = cost.page_times(alloc)
    rb = sum(cost.remote_mo_bytes_by_stream(alloc))
    for r, j in enumerate(trace.page_of_request):
        expected = times.page[j] if rb[j] > 0 else times.local[j]
        assert np.isclose(sim.page_times[r], expected)


@given(models_with_allocations(), st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_perturbed_times_positive_and_finite(mw, seed):
    model, alloc = mw
    trace = generate_trace(model, _trace_params, seed=seed, requests_per_server=20)
    sim = simulate_allocation(alloc, trace, PAPER_PERTURBATION, seed=seed)
    assert np.all(np.isfinite(sim.page_times))
    assert np.all(sim.page_times >= 0)
    assert np.all(np.isfinite(sim.optional_times))


@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=30),
    st.lists(st.integers(0, 5), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_expand_ragged_structure(pages, counts):
    indptr = np.concatenate(([0], np.cumsum(counts)))
    pages_arr = np.asarray(pages, dtype=np.intp)
    owner, entries = expand_rows(indptr[pages_arr], np.diff(indptr)[pages_arr])
    assert len(owner) == len(entries)
    assert len(owner) == sum(counts[p] for p in pages)
    # each request contributes exactly its page's entry range, in order
    pos = 0
    for r, p in enumerate(pages):
        lo, hi = indptr[p], indptr[p + 1]
        n = hi - lo
        assert np.array_equal(owner[pos : pos + n], np.full(n, r))
        assert np.array_equal(entries[pos : pos + n], np.arange(lo, hi))
        pos += n
