"""Differential-oracle property tests for the batched restoration kernel.

The scalar greedy loops of :mod:`tests.oracles.scalar_greedy` are the
reference oracles; the production engine
(:mod:`repro.core.restoration` and :mod:`repro.core.offload`) must
reproduce their **decision sequences bit-exactly** — same evictions, same comp/opt switches, same
absorption rounds, in the same order.  Rather than instrumenting the
loops, the tests compare everything the decisions determine: final
``comp_local``/``opt_local`` masks, replica sets, and the phase
statistics dataclasses (whose counters and float deltas only coincide
when every step matched).

Each restoration phase runs on both loops on random
capacity-constrained models, with each loop building its own input
allocation via an identical ``partition_all`` (no shared state, no
deepcopy aliasing).  The brute-force argmin oracle of
``tests/properties/test_property_argmin_oracle.py`` checks the decision
sequences themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    html_request_load,
    local_processing_load,
    repository_load,
)
from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, offload_repository
from repro.core.partition import partition_all
from repro.core.restoration import (
    restore_processing_batched,
    restore_processing_capacity,
    restore_storage_batched,
    restore_storage_capacity,
)
from repro.experiments.scaling import clone_with_capacities
from tests.oracles.divergence import assert_same_log
from tests.oracles.scalar_greedy import (
    offload_scalar,
    restore_processing_scalar,
    restore_storage_scalar,
)
from tests.properties.strategies import system_models

# ----------------------------------------------------------------------
# engine level
# ----------------------------------------------------------------------
def _assert_same_decisions(m2, scalar, batched):
    """Run the ``scalar`` and ``batched`` forms of a phase on
    independently built inputs."""
    cost = CostModel(m2)
    out = {}
    for name, phase in (("scalar", scalar), ("batched", batched)):
        alloc = partition_all(m2)  # fresh build per loop — no aliasing
        stats = phase(alloc, cost)
        out[name] = (alloc, stats)
    a, b = out["scalar"][0], out["batched"][0]
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    for i in range(m2.n_servers):
        assert a.replicas[i] == b.replicas[i]
    assert out["scalar"][1] == out["batched"][1], "phase statistics diverged"
    b.check_invariants()


def _assert_same_logs(m2, scalar, engine):
    """Every server's decision log on the scalar loop and on the
    engine, server after server on independently built inputs: a
    mismatch names the first diverging decision."""
    cost = CostModel(m2)
    logs = []
    for run in (scalar, engine):
        alloc = partition_all(m2)
        logs.append({i: [] for i in range(m2.n_servers)})
        for i in range(m2.n_servers):
            run(alloc, cost, i, decisions=logs[-1][i])
    assert_same_log(*logs)


@given(system_models(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_storage_restoration_kernels_identical(model, frac):
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + frac * ref.stored_bytes_all() + 1.0
    m2 = clone_with_capacities(model, storage=caps)
    _assert_same_decisions(m2, restore_storage_scalar, restore_storage_capacity)
    _assert_same_logs(m2, restore_storage_scalar, restore_storage_batched)


@given(system_models(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_processing_restoration_kernels_identical(model, frac):
    ref = partition_all(model)
    html = html_request_load(model)
    load = local_processing_load(ref)
    caps = np.maximum(
        html + frac * np.maximum(load - html, 0.0) + 1e-9, 1e-6
    )
    m2 = clone_with_capacities(model, processing=caps)
    _assert_same_decisions(m2, restore_processing_scalar, restore_processing_capacity)
    _assert_same_logs(m2, restore_processing_scalar, restore_processing_batched)


@given(system_models(), st.floats(0.05, 1.0))
@settings(max_examples=50, deadline=None)
def test_offload_kernels_identical(model, frac):
    ref = partition_all(model)
    repo = max(frac * repository_load(ref), 1e-6)
    _assert_same_decisions(
        clone_with_capacities(model, repo_capacity=repo),
        lambda a, c: offload_scalar(a, c, OffloadConfig()),
        lambda a, c: offload_repository(a, c, OffloadConfig()),
    )


@given(
    system_models(max_pages=12, max_objects=20),
    st.floats(0.2, 0.9),
    st.floats(0.05, 0.95),
)
@settings(max_examples=80, deadline=None)
def test_offload_kernels_identical_through_swaps(model, storage_frac, frac):
    """OFF_LOADING after storage restoration, where full servers absorb
    only by swapping — the path the unconstrained arm above never
    reaches, and the one where the batched kernel reuses its ranked
    victim table across blocked candidates."""
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + storage_frac * ref.stored_bytes_all()

    def phase(restore, offload):
        def run(alloc, cost):
            restore(alloc, cost)
            repo = max(frac * repository_load(alloc), 1e-6)
            return offload(alloc, cost, OffloadConfig(), capacity=repo)

        return run

    _assert_same_decisions(
        clone_with_capacities(model, storage=caps),
        phase(restore_storage_scalar, offload_scalar),
        phase(restore_storage_capacity, offload_repository),
    )
