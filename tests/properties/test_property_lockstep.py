"""Lockstep restoration against the same engine one server at a time.

The storage and processing engines advance every violating server in
one step.  Servers share no page, replica or byte total, so running the
engine over all servers at once must equal running it on one server
after another, in ascending order: the same marks, streams and
replicas, the same per-server stats bit for bit (``evicted_objects``
order and ``objective_delta`` included), the same decision log and the
same rescored candidates.  Errors must name the server the ascending
sweep would name.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.restoration as fr
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import (
    InfeasibleError,
    restore_processing_batched,
    restore_storage_batched,
)
from repro.experiments.scaling import clone_with_capacities
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.oracles.divergence import assert_same_log, split_by_server
from tests.properties.strategies import mesh_models, system_models

#: k=2 models with up to five servers, and k=3/k=4 replica meshes
_models = st.one_of(
    system_models(max_servers=5, max_pages=10),
    mesh_models(min_streams=3, max_servers=4, max_pages=10),
)


def _bits(stats) -> dict:
    """Every stats field, floats as their exact hex spelling."""
    return {
        k: v.hex() if isinstance(v, float) else v for k, v in vars(stats).items()
    }


def _state(alloc) -> tuple:
    return (
        alloc.comp_local.tobytes(),
        alloc.opt_local.tobytes(),
        alloc.comp_stream.tobytes(),
        [sorted(r) for r in alloc.replicas],
    )


def _html_load(model) -> np.ndarray:
    return np.array(
        [sum(p.frequency for p in model.pages if p.server == i)
         for i in range(model.n_servers)]
    )


def _constrained(model, storage_frac, processing_frac):
    ref = partition_all(model)
    storage = model.html_bytes_by_server() + storage_frac * ref.stored_bytes_all() + 1.0
    html = _html_load(model)
    load = local_processing_load(ref)
    processing = np.maximum(
        html + processing_frac * np.maximum(load - html, 0.0) + 1e-9, 1e-6
    )
    return clone_with_capacities(model, storage=storage, processing=processing)


def _run(engine, alloc, cost, servers, **kw):
    """The engine over ``servers``; its stats, decision log and counters."""
    log: list = []
    counters: dict = {}
    stats = engine(alloc, cost, servers, counters=counters, decisions=log, **kw)
    return stats, log, counters.get("candidates", 0)


def _sweep(engine, alloc, cost, n, **kw):
    stats, log, rescored = {}, [], 0
    for i in range(n):
        s, lg, c = _run(engine, alloc, cost, i, **kw)
        stats.update(s)
        log += lg
        rescored += c
    return stats, log, rescored


def _assert_same(got, want):
    (g_stats, g_log, g_rescored), (w_stats, w_log, w_rescored) = got, want
    assert_same_log(split_by_server(g_log, g_stats), split_by_server(w_log, w_stats))
    assert list(g_stats) == list(w_stats)
    assert [_bits(s) for s in g_stats.values()] == [
        _bits(s) for s in w_stats.values()
    ]
    assert g_rescored == w_rescored


@given(_models, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=150, deadline=None)
def test_lockstep_equals_ascending_sweep(
    model, storage_frac, processing_frac, amortise
):
    """Storage then processing restoration, as the policy runs them."""
    m2 = _constrained(model, storage_frac, processing_frac)
    cost = CostModel(m2)
    lock, sweep = partition_all(m2), partition_all(m2)
    n = m2.n_servers
    _assert_same(
        _run(restore_storage_batched, lock, cost, range(n), amortise=amortise),
        _sweep(restore_storage_batched, sweep, cost, n, amortise=amortise),
    )
    assert _state(lock) == _state(sweep)
    _assert_same(
        _run(restore_processing_batched, lock, cost, range(n)),
        _sweep(restore_processing_batched, sweep, cost, n),
    )
    assert _state(lock) == _state(sweep)
    lock.check_invariants()


# ----------------------------------------------------------------------
# errors: the lowest failing server is named, as the sweep names it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def universe():
    """Four servers, every one with replicas and local downloads."""
    model = generate_workload(
        WorkloadParams.small().with_(storage_capacity=np.inf), seed=7
    )
    return model, partition_all(model)


def _sweep_error(engine, alloc, cost, n) -> str:
    with pytest.raises(InfeasibleError) as info:
        for i in range(n):
            engine(alloc, cost, i)
    return str(info.value)


def _lockstep_error(engine, alloc, cost, n) -> str:
    with pytest.raises(InfeasibleError) as info:
        engine(alloc, cost, range(n))
    return str(info.value)


def test_storage_html_check_names_lowest_server(universe):
    model, ref = universe
    html = model.html_bytes_by_server()
    # server 0 restorable, servers 1 and 2 below their own HTML
    storage = html + 0.5 * ref.stored_bytes_all()
    storage[1:3] = html[1:3] - 1.0
    m2 = clone_with_capacities(model, storage=storage)
    cost = CostModel(m2)
    msg = _lockstep_error(restore_storage_batched, partition_all(m2), cost, 4)
    assert msg.startswith("server 1: hosted HTML")
    assert msg == _sweep_error(restore_storage_batched, partition_all(m2), cost, 4)


def test_processing_html_check_names_lowest_server(universe):
    model, ref = universe
    html = _html_load(model)
    load = local_processing_load(ref)
    processing = html + 0.5 * (load - html)
    processing[1:3] = 0.5 * html[1:3]
    m2 = clone_with_capacities(model, processing=processing)
    cost = CostModel(m2)
    msg = _lockstep_error(restore_processing_batched, partition_all(m2), cost, 4)
    assert msg.startswith("server 1: HTML request load")
    assert msg == _sweep_error(restore_processing_batched, partition_all(m2), cost, 4)


def _pair(counts) -> tuple[int, int]:
    """Servers ``a < b`` where ``b`` has fewer candidates, so ``b`` runs
    dry first in lockstep while the sweep reaches ``a`` first."""
    for b in range(len(counts)):
        for a in range(b):
            if counts[b] < counts[a]:
                return a, b
    raise AssertionError(f"no server pair with falling candidate counts: {counts}")


def test_storage_unrestorable_names_lowest_server(universe, monkeypatch):
    """Over-reported stored bytes that no eviction can free make two
    servers unrestorable mid-loop."""
    model, ref = universe
    stored = ref.stored_bytes_all()
    a, b = _pair([len(r) for r in ref.replicas])
    m2 = clone_with_capacities(model, storage=model.html_bytes_by_server() + stored)
    cost = CostModel(m2)
    msgs = []
    for run in (_lockstep_error, _sweep_error):
        alloc = partition_all(m2)
        real = alloc.stored_bytes
        phantom = {a: 2 * stored[a] + 1.0, b: 2 * stored[b] + 1.0}
        monkeypatch.setattr(
            alloc, "stored_bytes", lambda i, real=real: real(i) + phantom.get(i, 0.0)
        )
        msgs.append(run(restore_storage_batched, alloc, cost, 4))
    assert msgs[0].startswith(f"server {a}: storage constraint unrestorable")
    assert msgs[0] == msgs[1]


def test_processing_unrestorable_names_lowest_server(universe, monkeypatch):
    """A phantom load that no switch can shed makes two servers
    unrestorable mid-loop."""
    model, ref = universe
    html = _html_load(model)
    load = local_processing_load(ref)
    local = np.bincount(
        ref.ctx.comp_server[ref.comp_local], minlength=model.n_servers
    ) + np.bincount(ref.ctx.opt_server[ref.opt_local], minlength=model.n_servers)
    a, b = _pair(local.tolist())
    m2 = clone_with_capacities(model, processing=html + 0.5 * (load - html))
    cost = CostModel(m2)
    phantom = np.zeros(model.n_servers)
    phantom[[a, b]] = load[[a, b]]
    monkeypatch.setattr(
        fr,
        "local_processing_load",
        lambda alloc: local_processing_load(alloc) + phantom,
    )
    msgs = [
        run(restore_processing_batched, partition_all(m2), cost, 4)
        for run in (_lockstep_error, _sweep_error)
    ]
    assert msgs[0].startswith(f"server {a}: processing constraint unrestorable")
    assert msgs[0] == msgs[1]
