"""Edge-case tests for the shard planner and the reconcile step.

The property harness (``tests/properties/test_property_sharded_policy.py``)
sweeps random universes; this file pins the *structural* corners the
sharded kernel must survive:

* a shard whose servers own **zero pages** (a structured no-op worker),
* one server **dominating** the work — the planner must isolate it and
  the merge must still replay the global greedy order,
* **exact-capacity boundaries** straddling shards (one server exactly at
  its Eq. 10 capacity, another just below, in different groups),
* invalid shard counts (``shards > n_servers``, non-positive) raising
  validated errors,
* **real subprocess** identity runs, so the ship → worker → merge path
  (each task pickles its shard's submodel) is covered outside the
  inline pool, for an empty shard too, and with OFF_LOADING running in
  the parent after the merge,
* **fan-out failure** cleanup: a dying shard must propagate its error
  and leave no ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import math
import os
import pathlib

import numpy as np
import pytest

from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.shard import (
    InlineShardPool,
    _run_shard,
    default_pool,
    plan_shards,
    resolve_shards,
    run_shard_fanout,
    shutdown_shard_pool,
)
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from repro.experiments.executor import persistent_pool, shutdown_pool
from repro.experiments.scaling import (
    clone_with_capacities,
    storage_capacities_for_fraction,
)
from repro.workload import WorkloadParams, generate_workload
from tests.conftest import build_micro_model


def _server(i, rate=10.0, storage=math.inf, processing=math.inf):
    return ServerSpec(
        server_id=i,
        storage_capacity=storage,
        processing_capacity=processing,
        rate=rate,
        overhead=1.0,
        repo_rate=2.0,
        repo_overhead=2.0,
    )


def _page(j, server, compulsory, optional=(), freq=1.0):
    return PageSpec(
        page_id=j,
        server=server,
        html_size=100,
        frequency=freq,
        compulsory=tuple(compulsory),
        optional=tuple(optional),
        optional_prob=0.5 if optional else 0.0,
    )


def _model_with_idle_server() -> SystemModel:
    """Three servers; server 1 owns no pages at all."""
    servers = [_server(0), _server(1), _server(2)]
    objects = [ObjectSpec(k, 100 * (k + 1)) for k in range(4)]
    pages = [
        _page(0, 0, (0, 1), optional=(3,)),
        _page(1, 2, (1, 2)),
        _page(2, 2, (0, 3)),
    ]
    return SystemModel(servers, RepositorySpec(), pages, objects)


def _assert_identical(sharded, batched):
    a, b = sharded.allocation, batched.allocation
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i]
    assert sharded.objective == batched.objective
    assert sharded.unconstrained_objective == batched.unconstrained_objective
    assert sharded.phases_run == batched.phases_run
    assert sharded.storage_stats == batched.storage_stats
    assert sharded.processing_stats == batched.processing_stats
    assert sharded.offload_outcome == batched.offload_outcome
    a.check_invariants()


class TestEmptyShard:
    def test_plan_gives_idle_server_its_own_group(self):
        model = _model_with_idle_server()
        groups = plan_shards(model, 3)
        assert sorted(i for g in groups for i in g) == [0, 1, 2]
        assert (1,) in groups  # zero-weight server isolated, not dropped

    def test_identity_with_pageless_server(self):
        model = _model_with_idle_server()
        batched = RepositoryReplicationPolicy().run(model)
        for shards in (1, 2, 3):
            sharded = RepositoryReplicationPolicy(
                kernel="sharded", shards=shards, pool=InlineShardPool()
            ).run(model)
            _assert_identical(sharded, batched)
            assert sharded.allocation.replicas[1] == set()

    def test_identity_with_pageless_server_real_pool(self):
        """The same identity through a real 2-worker pool: the idle
        server's group is an empty submodel (no pages, no entries) that
        must survive the pickle round trip and a context build in the
        worker."""
        model = _model_with_idle_server()
        assert (1,) in plan_shards(model, 3)
        batched = RepositoryReplicationPolicy().run(model)
        try:
            sharded = RepositoryReplicationPolicy(
                kernel="sharded", shards=3, pool=default_pool(2)
            ).run(model)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)
        assert sharded.allocation.replicas[1] == set()

    def test_identity_constrained_with_pageless_server(self):
        model = _model_with_idle_server()
        ref = partition_all(model)
        m2 = clone_with_capacities(
            model,
            storage=storage_capacities_for_fraction(model, ref, 0.4) + 1.0,
        )
        batched = RepositoryReplicationPolicy().run(m2)
        assert "storage-restoration" in batched.phases_run
        sharded = RepositoryReplicationPolicy(
            kernel="sharded", shards=3, pool=InlineShardPool()
        ).run(m2)
        _assert_identical(sharded, batched)


class TestDominantShard:
    def test_planner_isolates_the_heavy_server(self):
        """One server owning nearly all entries gets a group to itself;
        the light servers share the other group."""
        servers = [_server(0), _server(1), _server(2)]
        objects = [ObjectSpec(k, 50 + k) for k in range(8)]
        pages = [_page(j, 0, (j % 8, (j + 1) % 8, (j + 3) % 8)) for j in range(6)]
        pages.append(_page(6, 1, (0,)))
        pages.append(_page(7, 2, (1,)))
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        groups = plan_shards(model, 2)
        assert (0,) in groups
        assert (1, 2) in groups

    def test_identity_when_one_shard_does_all_restoration(self):
        """Tighten only server 0's storage: its shard runs the whole
        eviction greedy while the other shard skips the phase — the OR'd
        phase list and merged stats must equal the global run's."""
        model = build_micro_model(storage=(700.0, math.inf))
        batched = RepositoryReplicationPolicy().run(model)
        assert "storage-restoration" in batched.phases_run
        sharded = RepositoryReplicationPolicy(
            kernel="sharded", shards=2, pool=InlineShardPool()
        ).run(model)
        _assert_identical(sharded, batched)


class TestExactCapacityBoundary:
    def test_exact_fit_server_untouched_across_shards(self):
        """Server 0 sits *exactly* at its Eq. 10 capacity (not a
        violation), server 1 just below its own — in separate shards.
        Only server 1 may evict; server 0's replicas survive unchanged."""
        model = build_micro_model()
        ref = partition_all(model)
        full = model.html_bytes_by_server() + ref.stored_bytes_all()
        m2 = clone_with_capacities(
            model, storage=np.array([full[0], full[1] - 1.0])
        )
        batched = RepositoryReplicationPolicy().run(m2)
        assert batched.phases_run.count("storage-restoration") == 1
        sharded = RepositoryReplicationPolicy(
            kernel="sharded", shards=2, pool=InlineShardPool()
        ).run(m2)
        _assert_identical(sharded, batched)
        assert sharded.allocation.replicas[0] == ref.replicas[0]
        assert (
            model.html_bytes_by_server()[1]
            + sharded.allocation.stored_bytes(1)
            <= full[1] - 1.0
        )


class TestInvalidShardCounts:
    def test_more_shards_than_servers_rejected(self):
        model = build_micro_model()
        with pytest.raises(ValueError, match="server count"):
            plan_shards(model, 3)
        with pytest.raises(ValueError, match="server count"):
            resolve_shards(3, n_servers=2)
        with pytest.raises(ValueError, match="server count"):
            run_shard_fanout(model, shards=5, pool=InlineShardPool())

    def test_non_positive_rejected(self):
        model = build_micro_model()
        with pytest.raises(ValueError, match="shards"):
            plan_shards(model, 0)
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(0)
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(-2, n_servers=4)

    def test_unset_without_model_stays_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) is None

    def test_auto_capped_by_server_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None, n_servers=1) == 1


class TestPlannerDeterminism:
    def test_single_server_shards(self):
        """``shards == n_servers``: every group is a singleton, ids
        ascending, every server present exactly once."""
        model = _model_with_idle_server()
        groups = plan_shards(model, model.n_servers)
        assert sorted(groups) == [(0,), (1,), (2,)]

    def test_weight_ties_break_by_server_id(self):
        """Equal-weight servers distribute by ascending id, so the plan
        is a pure function of the model (no dict/hash order leaks)."""
        servers = [_server(i) for i in range(4)]
        objects = [ObjectSpec(k, 100) for k in range(2)]
        # every server owns one page with one compulsory entry: all tied
        pages = [_page(j, j, (0,)) for j in range(4)]
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        assert plan_shards(model, 2) == ((0, 2), (1, 3))

    def test_plan_stable_across_calls_and_equal_models(self):
        """Re-planning the same (or an equal) model yields the identical
        grouping — the property the golden regressions lean on."""
        model = generate_workload(WorkloadParams.tiny(), seed=3)
        clone = generate_workload(WorkloadParams.tiny(), seed=3)
        for shards in (1, 2):
            first = plan_shards(model, shards)
            assert first == plan_shards(model, shards)
            assert first == plan_shards(clone, shards)

    def test_zero_entry_servers_spread_over_groups(self):
        """Many pageless servers must not pile into one group (load ties
        break by member count before group index)."""
        servers = [_server(i) for i in range(5)]
        objects = [ObjectSpec(0, 100)]
        pages = [_page(0, 0, (0,))]  # only server 0 owns a page
        model = SystemModel(servers, RepositorySpec(), pages, objects)
        groups = plan_shards(model, 3)
        assert sorted(i for g in groups for i in g) == [0, 1, 2, 3, 4]
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 2, 2]  # idle servers spread, not stacked


def _offload_constrained_model():
    """A small model whose constrained clone runs all four phases."""
    from repro.experiments.scaling import (
        processing_capacities_for_fraction,
        repo_capacity_for_fraction,
    )

    model = generate_workload(WorkloadParams.small(), seed=11)
    ref = partition_all(model)
    return clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, 0.6),
        processing=processing_capacities_for_fraction(model, 0.7, ref),
        repo_capacity=repo_capacity_for_fraction(ref, 0.3),
    )


def _run_sharded(model, pool=None):
    return RepositoryReplicationPolicy(
        kernel="sharded", shards=2, pool=pool
    ).run(model)


class TestRealProcessPool:
    @pytest.mark.parametrize("injected", [True, False])
    def test_subprocess_identity_small_scale(self, injected):
        """One real fork round trip per pool source: on the experiment
        executor's injected pool and on the shard module's private
        default pool, the pickled shard submodels must merge to the
        batched kernel's exact result."""
        model = generate_workload(WorkloadParams.small(), seed=11)
        ref = partition_all(model)
        m2 = clone_with_capacities(
            model,
            storage=storage_capacities_for_fraction(model, ref, 0.5) + 1.0,
        )
        batched = RepositoryReplicationPolicy().run(m2)
        try:
            pool = persistent_pool(2) if injected else None
            sharded = _run_sharded(m2, pool=pool)
        finally:
            shutdown_pool()
            shutdown_shard_pool()
        _assert_identical(sharded, batched)

    def test_subprocess_offload_scatter_identity(self):
        """Constrain the repository so OFF_LOADING runs: the fan-out
        merges real worker frontiers, the parent negotiates Eq. 9 on
        the merged allocation, and the outcome must match the batched
        kernel bit for bit."""
        m2 = _offload_constrained_model()
        batched = RepositoryReplicationPolicy().run(m2)
        assert "off-loading" in batched.phases_run
        try:
            sharded = _run_sharded(m2)
        finally:
            shutdown_shard_pool()
        _assert_identical(sharded, batched)


# ----------------------------------------------------------------------
# fan-out failure: the error propagates, no stranded /dev/shm segments
# ----------------------------------------------------------------------
def _boom_run_shard(*_args, **_kwargs):
    raise RuntimeError("shard worker boom")


class _PoisonedFanoutPool:
    """Delegates to a real pool but fails the n-th shard's fan-out task."""

    def __init__(self, inner, poison_idx: int):
        self._inner = inner
        self._poison = poison_idx
        self._shards_seen = 0

    def submit(self, fn, /, *args, **kwargs):
        if fn is _run_shard:
            idx = self._shards_seen
            self._shards_seen += 1
            if idx == self._poison:
                return self._inner.submit(_boom_run_shard)
        return self._inner.submit(fn, *args, **kwargs)


class TestFanoutFailureCleanup:
    def test_fanout_failure_leaves_no_shm_segments(self):
        """End to end: kill one shard of a real-pool run mid-fan-out and
        diff ``/dev/shm`` — after the failure propagates and the pool
        shuts down, no segment created by the run may survive."""
        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("needs a /dev/shm directory to diff")
        m2 = _offload_constrained_model()
        before = set(os.listdir(shm_dir))
        pool = _PoisonedFanoutPool(default_pool(2), poison_idx=1)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                _run_sharded(m2, pool=pool)
        finally:
            shutdown_shard_pool()
        leaked = set(os.listdir(shm_dir)) - before
        assert leaked == set(), f"stranded shm segments: {sorted(leaked)}"
