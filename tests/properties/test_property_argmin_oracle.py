"""The batched greedy engines against the brute-force argmin oracle.

For each Section 4.2 loop, the batched engine's decision log — one
``(key, score)`` per action — must equal the log of
:mod:`tests.oracles.argmin_greedy`, which rescores every live candidate
from scratch each step and takes ``min((score, key))``.  Equal logs
mean the engine picked the exact argmin at every step: its dirty sets
were complete and its ties went to the lowest key.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import transplant_allocation
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.offload import absorb_extra_workload
from repro.core.partition import partition_all
from repro.core.restoration import (
    restore_processing_batched,
    restore_storage_batched,
    restore_storage_capacity,
)
from repro.core.types import SystemModel
from repro.experiments.scaling import clone_with_capacities
from tests.oracles.argmin_greedy import (
    absorption_oracle,
    processing_oracle,
    storage_oracle,
)
from tests.oracles.divergence import assert_same_log
from tests.properties.strategies import mesh_models, system_models


def _assert_same_state(a, b):
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    assert np.array_equal(a.comp_stream, b.comp_stream)
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i]


#: k=2 models and k-stream replica meshes in about equal measure
_models = st.one_of(system_models(), mesh_models(min_streams=3))


@given(_models, st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=150, deadline=None)
def test_storage_engine_matches_oracle(model, frac, amortise):
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + frac * ref.stored_bytes_all() + 1.0
    m2 = clone_with_capacities(model, storage=caps)
    cost = CostModel(m2)
    engine, oracle = partition_all(m2), partition_all(m2)
    for i in range(m2.n_servers):
        got: list = []
        restore_storage_batched(
            engine, cost, i, amortise=amortise, decisions=got
        )
        want = storage_oracle(oracle, cost, i, amortise=amortise)
        assert_same_log({i: got}, {i: want})
    _assert_same_state(engine, oracle)


@given(_models, st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_processing_engine_matches_oracle(model, frac):
    ref = partition_all(model)
    html = np.array(
        [sum(p.frequency for p in model.pages if p.server == i)
         for i in range(model.n_servers)]
    )
    load = local_processing_load(ref)
    caps = np.maximum(html + frac * np.maximum(load - html, 0.0) + 1e-9, 1e-6)
    m2 = clone_with_capacities(model, processing=caps)
    cost = CostModel(m2)
    engine, oracle = partition_all(m2), partition_all(m2)
    for i in range(m2.n_servers):
        got: list = []
        restore_processing_batched(engine, cost, i, decisions=got)
        assert_same_log({i: got}, {i: processing_oracle(oracle, cost, i)})
    _assert_same_state(engine, oracle)


@st.composite
def _skewed_models(draw):
    """Small models whose page frequencies span two orders of magnitude
    (and include zero), so that a full server can swap a rarely-used
    replica for a hot candidate."""
    model = draw(system_models(max_pages=12, max_objects=20))
    pages = [
        dataclasses.replace(
            p, frequency=draw(st.sampled_from((0.0, 0.05, 0.5, 4.0, 9.0)))
        )
        for p in model.pages
    ]
    return SystemModel(model.servers, model.repository, pages, model.objects)


@given(
    _skewed_models(),
    st.sampled_from((1.0, 0.8, 0.5)),
    st.floats(0.0, 1.0),
    st.floats(0.05, 1.0),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_absorption_engine_matches_oracle(
    model, storage_frac, slack_frac, target_frac, allow_new
):
    """Full servers with finite CPU slack: absorption runs through
    swaps, slack retirement and re-admission."""
    ref = partition_all(model)
    storage = model.html_bytes_by_server() + storage_frac * ref.stored_bytes_all()
    m1 = clone_with_capacities(model, storage=storage)
    base = partition_all(m1)
    restore_storage_capacity(base, CostModel(m1))
    load = local_processing_load(base)
    remote_w = np.bincount(
        base.ctx.comp_server[~base.comp_local],
        weights=base.ctx.comp_freq[~base.comp_local],
        minlength=model.n_servers,
    )
    m2 = clone_with_capacities(
        model,
        storage=storage,
        processing=np.maximum(load + slack_frac * remote_w, 1e-6),
    )
    cost = CostModel(m2)
    engine = transplant_allocation(base, m2)
    oracle = transplant_allocation(base, m2)
    for i in range(m2.n_servers):
        target = target_frac * remote_w[i]
        got: list = []
        absorbed = absorb_extra_workload(
            engine, cost, i, target, allow_new_replicas=allow_new, decisions=got
        )
        want_absorbed, want = absorption_oracle(
            oracle, cost, i, target, allow_new_replicas=allow_new
        )
        assert_same_log({i: got}, {i: want})
        assert absorbed == want_absorbed
    _assert_same_state(engine, oracle)
