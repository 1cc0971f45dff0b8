"""Tests for repro.network — the distributed policy run."""

import math

import numpy as np
import pytest

from repro.core.constraints import repository_load
from repro.core.cost_model import CostModel
from repro.core.offload import offload_repository
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.restoration import CAPACITY_TOL
from repro.network import run_distributed_policy
from repro.network.messages import (
    NewRequirementMessage,
    StatusMessage,
)
from tests.conftest import build_micro_model
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams


def _assert_same_allocation(a, b):
    assert np.array_equal(a.comp_local, b.comp_local)
    assert np.array_equal(a.opt_local, b.opt_local)
    assert a.replicas == b.replicas


class TestEquivalenceWithCentralised:
    def test_unconstrained(self, micro_model):
        cen = RepositoryReplicationPolicy().run(micro_model)
        dist = run_distributed_policy(micro_model)
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.objective == pytest.approx(cen.objective)

    def test_storage_constrained(self):
        m = build_micro_model(storage=(700.0, 900.0))
        cen = RepositoryReplicationPolicy().run(m)
        dist = run_distributed_policy(m)
        _assert_same_allocation(cen.allocation, dist.allocation)

    def test_offload_constrained(self):
        m = build_micro_model(repo_capacity=1.0)
        cen = RepositoryReplicationPolicy(optional_policy="none").run(m)
        dist = run_distributed_policy(m, optional_policy="none")
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.offload_restored == cen.offload_outcome.restored

    def test_generated_workload_constrained(self):
        params = WorkloadParams.tiny().with_(
            repository_capacity=3.0, storage_capacity=5e7
        )
        m = generate_workload(params, seed=13)
        cen = RepositoryReplicationPolicy().run(m)
        dist = run_distributed_policy(m)
        _assert_same_allocation(cen.allocation, dist.allocation)
        assert dist.feasible == cen.feasible


class TestProtocolBehaviour:
    def test_message_counts_unconstrained(self, micro_model):
        dist = run_distributed_policy(micro_model)
        # 2 statuses + 2 END broadcasts, no rounds
        assert dist.offload_rounds == 0
        assert dist.bus_stats.by_kind["StatusMessage"] == 2
        assert dist.bus_stats.by_kind["OffloadEndMessage"] == 2
        assert "NewRequirementMessage" not in dist.bus_stats.by_kind

    def test_rounds_and_answers_match(self):
        m = build_micro_model(repo_capacity=1.0)
        dist = run_distributed_policy(m, optional_policy="none")
        assert dist.offload_rounds >= 1
        assert (
            dist.bus_stats.by_kind["NewRequirementMessage"]
            == dist.bus_stats.by_kind["WorkloadAnswerMessage"]
        )

    def test_unrestorable_flagged(self):
        m = build_micro_model(processing=(3.0, 1.5), repo_capacity=0.1)
        dist = run_distributed_policy(m, optional_policy="none")
        assert not dist.offload_restored
        assert not dist.feasible

    def test_summary_mentions_traffic(self, micro_model):
        s = run_distributed_policy(micro_model).summary()
        assert "messages" in s
        assert "off-loading rounds" in s

    def test_absorbed_by_server_recorded(self):
        m = build_micro_model(repo_capacity=1.0)
        dist = run_distributed_policy(m, optional_policy="none")
        assert dist.absorbed_by_server
        assert sum(dist.absorbed_by_server.values()) > 0

    def test_excess_within_tolerance_needs_no_round(self):
        """A repository load above C(R) by less than CAPACITY_TOL counts
        as met: OFF_LOADING and the repository actor both end restored
        without a round."""
        storage = (700.0, 900.0)
        load = repository_load(
            RepositoryReplicationPolicy()
            .run(build_micro_model(storage=storage))
            .allocation
        )
        m = build_micro_model(storage=storage, repo_capacity=load - CAPACITY_TOL / 2)
        assert m.repository.processing_capacity < load

        result = RepositoryReplicationPolicy().run(m)
        assert result.phases_run == ["partition", "storage-restoration"]
        alloc = result.allocation
        assert repository_load(alloc) == load
        before = alloc.copy()
        outcome = offload_repository(alloc, CostModel(m))
        assert outcome.restored
        assert outcome.rounds == 0
        _assert_same_allocation(alloc, before)

        dist = run_distributed_policy(m)
        assert dist.offload_restored
        assert dist.offload_rounds == 0
        _assert_same_allocation(dist.allocation, before)
