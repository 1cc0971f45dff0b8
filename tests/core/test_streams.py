"""Tests for the k-stream engine surface: ``resolve_streams``, the
k>2 end-to-end pipeline, scalar/batched differential identity under
constraints, model clones and PARTITION callers on a mesh, and the
explicit k=2-only guards."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.popularity import PopularityPolicy
from repro.core.allocation import Allocation
from repro.core.constraints import (
    evaluate_constraints,
    local_processing_load,
    remote_stream_loads,
    storage_used,
)
from repro.core.context import is_frequency_clone
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.shard import run_shard_fanout
from repro.core.types import resolve_streams
from repro.dynamic.drift import replace_frequencies
from repro.dynamic.incremental import IncrementalReplanner
from repro.experiments.scaling import clone_with_capacities
from repro.network.bus import MessageBus
from repro.network.nodes import LocalServerNode
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.oracles.scalar_greedy import scalar_phases


class TestResolveStreams:
    """``REPRO_STREAMS`` resolution mirrors ``resolve_shards`` (same
    ``env_positive_int`` machinery and error style)."""

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAMS", "7")
        assert resolve_streams(3) == 3

    def test_env_value_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAMS", "4")
        assert resolve_streams(None) == 4

    def test_defaults_to_paper_model(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAMS", raising=False)
        assert resolve_streams(None) == 2

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "abc"])
    def test_env_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STREAMS", value)
        with pytest.raises(ValueError, match="REPRO_STREAMS"):
            resolve_streams(None)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "2"])
    def test_explicit_rejects_bad_values(self, value):
        with pytest.raises(ValueError, match="streams"):
            resolve_streams(value)

    def test_rejects_single_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAMS", "1")
        with pytest.raises(ValueError, match="at least 2"):
            resolve_streams(None)

    def test_rejects_more_streams_than_sources(self):
        with pytest.raises(ValueError, match="repository count"):
            resolve_streams(4, n_repositories=2)

    def test_params_reject_unsourced_streams(self):
        with pytest.raises(ValueError, match="repository count"):
            WorkloadParams.tiny().with_(n_streams=3)
        with pytest.raises(ValueError, match="n_repositories"):
            WorkloadParams.tiny().with_(n_repositories=0)


def _mesh_params(k: int = 3) -> WorkloadParams:
    return WorkloadParams.tiny().with_(n_streams=k, n_repositories=k - 1)


def _constrain(model, storage_frac=0.75, processing_frac=0.85):
    """Clone ``model`` with capacities tightened below the unconstrained
    policy's need, so both restoration phases must run."""
    probe = partition_all(model)
    used = storage_used(probe)
    load = local_processing_load(probe)
    servers = [
        dataclasses.replace(
            sv,
            storage_capacity=float(used[i] * storage_frac),
            processing_capacity=float(load[i] * processing_frac),
        )
        for i, sv in enumerate(model.servers)
    ]
    return type(model)(
        servers, model.repository, model.pages, model.objects, model.topology
    )


class TestMeshPipeline:
    def test_three_stream_policy_is_feasible(self):
        model = _constrain(generate_workload(_mesh_params(3), seed=5))
        result = RepositoryReplicationPolicy().run(model)
        assert result.feasible
        report = evaluate_constraints(result.allocation)
        assert report.storage_ok and report.local_ok and report.repo_ok
        # the mesh is actually used: both remote streams carry load
        loads = remote_stream_loads(result.allocation)
        assert loads.shape == (2,)
        assert (loads > 0).all()

    def test_scalar_batched_identical_under_constraints(self):
        model = _constrain(generate_workload(_mesh_params(3), seed=5))
        with scalar_phases():
            scalar = RepositoryReplicationPolicy().run(model)
        batched = RepositoryReplicationPolicy(kernel="batched").run(model)
        assert scalar.allocation == batched.allocation
        assert scalar.objective == batched.objective
        assert scalar.phases_run == batched.phases_run
        s_st, b_st = scalar.storage_stats, batched.storage_stats
        assert (s_st is None) == (b_st is None)
        if s_st is not None:
            assert s_st.evictions == b_st.evictions
            assert s_st.repartitioned_pages == b_st.repartitioned_pages
            assert s_st.evicted_objects == b_st.evicted_objects
        cost = CostModel(model)
        assert scalar.objective == pytest.approx(cost.D(scalar.allocation))

    def test_four_stream_partition_uses_every_stream(self):
        model = generate_workload(_mesh_params(4), seed=9)
        alloc = partition_all(model)
        remote = ~alloc.comp_local
        used = np.unique(alloc.comp_stream[remote])
        assert set(used.tolist()) == {1, 2, 3}


def _same_streams(model, got, ref):
    """``got`` and ``ref`` agree in compulsory marks and, where remote,
    in the stream each entry rides."""
    assert model.n_streams == 3
    assert np.array_equal(got.comp_local, ref.comp_local)
    remote = ~ref.comp_local
    assert np.array_equal(got.comp_stream[remote], ref.comp_stream[remote])


class TestClonesKeepTopology:
    def test_frequency_and_capacity_clones_keep_the_mesh(self):
        model = generate_workload(_mesh_params(3), seed=5)
        freq_clone = replace_frequencies(model, model.frequencies * 1.5)
        same_caps = clone_with_capacities(model)
        new_caps = clone_with_capacities(
            model, processing=model.server_capacity * 0.5
        )
        for clone in (freq_clone, same_caps, new_caps):
            assert clone.n_streams == 3
            assert np.array_equal(clone.stream_rates, model.stream_rates)
            assert np.array_equal(clone.stream_overheads, model.stream_overheads)
        assert is_frequency_clone(model, freq_clone)
        assert is_frequency_clone(model, same_caps)


class TestPartitionCallersOnMesh:
    """Every PARTITION caller agrees with ``partition_all`` on an
    unconstrained k=3 mesh, in marks and in streams."""

    @staticmethod
    def _model():
        params = _mesh_params(3).with_(processing_capacity=np.inf)
        return generate_workload(params, seed=0)

    def test_incremental_replan_matches_fresh_solve(self):
        model = self._model()
        policy = RepositoryReplicationPolicy()
        replanner = IncrementalReplanner(policy, model)
        freqs = model.frequencies.copy()
        freqs[0] *= 1.5
        drifted = replace_frequencies(model, freqs)
        stats = replanner.replan(drifted)
        assert stats.mode == "incremental"
        fresh = policy.run(drifted)
        _same_streams(drifted, replanner.allocation, fresh.allocation)
        assert replanner.allocation == fresh.allocation
        assert stats.objective == fresh.objective

    def test_popularity_and_server_nodes_match_partition_all(self):
        model = self._model()
        ref = partition_all(model)
        popular = PopularityPolicy(marking="balanced").allocate(model)
        _same_streams(model, popular, ref)
        alloc = Allocation(model)
        cost = CostModel(model)
        bus = MessageBus()
        for i in range(model.n_servers):
            LocalServerNode(i, alloc, cost, bus).run_local_allocation()
        _same_streams(model, alloc, ref)


class TestK2OnlyGuards:
    def test_sharded_kernel_rejects_mesh(self):
        model = generate_workload(_mesh_params(3), seed=5)
        with pytest.raises(NotImplementedError, match="k=2"):
            run_shard_fanout(model)

    def test_offload_absorption_rejects_mesh(self):
        from repro.core.offload import absorb_extra_workload

        model = generate_workload(_mesh_params(3), seed=5)
        alloc = partition_all(model)
        cost = CostModel(model)
        with pytest.raises(NotImplementedError, match="k=2"):
            absorb_extra_workload(alloc, cost, 0, 1.0)

    def test_uncapacitated_repository_skips_the_guard(self):
        # Table 1 leaves the repository uncapacitated, so the standard
        # mesh pipeline never reaches the OFF_LOADING guard
        model = generate_workload(_mesh_params(3), seed=5)
        result = RepositoryReplicationPolicy().run(model)
        assert "off-loading" not in result.phases_run
