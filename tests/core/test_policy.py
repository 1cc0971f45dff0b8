"""Tests for repro.core.policy — the end-to-end pipeline."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.shard import InlineShardPool, run_shard_fanout
from tests.conftest import build_micro_model


class TestUnconstrained:
    def test_reduces_to_partition(self, micro_model):
        result = RepositoryReplicationPolicy().run(micro_model)
        assert result.phases_run == ["partition"]
        expected = partition_all(micro_model)
        assert result.allocation == expected
        assert result.objective == pytest.approx(result.unconstrained_objective)

    def test_feasible(self, micro_model):
        assert RepositoryReplicationPolicy().run(micro_model).feasible

    def test_objective_matches_cost_model(self, micro_model):
        result = RepositoryReplicationPolicy().run(micro_model)
        cost = CostModel(micro_model)
        assert result.objective == pytest.approx(cost.D(result.allocation))


class TestConstrainedPhases:
    def test_storage_phase_triggered(self):
        m = build_micro_model(storage=(700.0, 900.0))
        result = RepositoryReplicationPolicy().run(m)
        assert "storage-restoration" in result.phases_run
        assert result.constraints.storage_ok
        assert result.storage_stats.evictions > 0

    def test_processing_phase_triggered(self):
        m = build_micro_model(processing=(5.0, 4.0))
        result = RepositoryReplicationPolicy().run(m)
        assert "processing-restoration" in result.phases_run
        assert result.constraints.local_ok

    def test_offload_phase_triggered(self):
        m = build_micro_model(repo_capacity=1.0)
        result = RepositoryReplicationPolicy(optional_policy="none").run(m)
        assert "off-loading" in result.phases_run
        assert result.offload_outcome is not None
        assert result.constraints.repo_ok

    def test_all_phases(self):
        # partition (optional "none") stores 900 B at S0 (load 7) and
        # 900+400 html B at S1 (load 4.5); tighten all three families
        m = build_micro_model(
            storage=(800.0, 1200.0), processing=(4.0, 2.5), repo_capacity=2.0
        )
        result = RepositoryReplicationPolicy(optional_policy="none").run(m)
        assert result.phases_run[0] == "partition"
        assert "storage-restoration" in result.phases_run
        assert "processing-restoration" in result.phases_run
        assert result.constraints.storage_ok and result.constraints.local_ok

    def test_objective_ordering(self):
        m = build_micro_model(storage=(800.0, 1000.0))
        result = RepositoryReplicationPolicy().run(m)
        assert result.objective >= result.unconstrained_objective - 1e-9


class TestConfiguration:
    def test_optional_policy_none(self, micro_model):
        result = RepositoryReplicationPolicy(optional_policy="none").run(
            micro_model
        )
        assert not result.allocation.opt_local.any()

    def test_alpha_weights_change_objective(self, micro_model):
        r1 = RepositoryReplicationPolicy(alpha1=1.0, alpha2=1.0).run(micro_model)
        r2 = RepositoryReplicationPolicy(alpha1=5.0, alpha2=1.0).run(micro_model)
        assert r2.objective > r1.objective  # D1 weighted heavier

    def test_summary_string(self):
        m = build_micro_model(storage=(700.0, 900.0))
        s = RepositoryReplicationPolicy().run(m).summary()
        assert "D =" in s
        assert "evictions" in s

    def test_cost_model_accessor(self, micro_model):
        policy = RepositoryReplicationPolicy(alpha1=3.0, alpha2=2.0)
        cost = policy.cost_model(micro_model)
        assert cost.alpha1 == 3.0 and cost.alpha2 == 2.0


class TestKernelValidation:
    """The policy normalises its kernel on construction, like the phases."""

    @pytest.mark.parametrize("name", ["Sharded", " sharded"])
    def test_spelling_variants_dispatch_sharded(self, micro_model, name):
        policy = RepositoryReplicationPolicy(kernel=name, pool=InlineShardPool())
        assert policy.kernel == "sharded"
        with mock.patch(
            "repro.core.shard.run_shard_fanout", wraps=run_shard_fanout
        ) as fanout:
            result = policy.run(micro_model)
        fanout.assert_called_once()
        assert result.objective == RepositoryReplicationPolicy().run(
            micro_model
        ).objective

    @pytest.mark.parametrize("name", ["bogus", "scalar"])
    def test_unknown_kernel_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match=r"batched\|sharded"):
            RepositoryReplicationPolicy(kernel=name)


class TestShardValidation:
    """An explicit shard count is checked on construction, whatever the
    kernel; the bound against the model's server count waits for run."""

    @pytest.mark.parametrize("kernel", ["batched", "sharded"])
    @pytest.mark.parametrize("shards", [0, -1, -3, 2.5, True, "2"])
    def test_invalid_shards_rejected_at_construction(self, kernel, shards):
        with pytest.raises(ValueError, match="shards"):
            RepositoryReplicationPolicy(kernel=kernel, shards=shards)

    def test_valid_shards_kept_as_given(self):
        assert RepositoryReplicationPolicy(shards=3).shards == 3
        assert RepositoryReplicationPolicy().shards is None

    def test_more_shards_than_servers_rejected_at_run(self, micro_model):
        policy = RepositoryReplicationPolicy(
            kernel="sharded", shards=5, pool=InlineShardPool()
        )
        with pytest.raises(ValueError, match="server count"):
            policy.run(micro_model)


class TestOnGenerated:
    def test_small_constrained_run_feasible(self, small_model):
        from repro.experiments.scaling import (
            clone_with_capacities,
            processing_capacities_for_fraction,
            storage_capacities_for_fraction,
        )

        ref = partition_all(small_model)
        clone = clone_with_capacities(
            small_model,
            storage=storage_capacities_for_fraction(small_model, ref, 0.6),
            processing=processing_capacities_for_fraction(small_model, 0.7),
        )
        result = RepositoryReplicationPolicy().run(clone)
        assert result.feasible
        result.allocation.check_invariants()

    def test_deterministic(self, tiny_model):
        a = RepositoryReplicationPolicy().run(tiny_model)
        b = RepositoryReplicationPolicy().run(tiny_model)
        assert a.allocation == b.allocation
        assert a.objective == b.objective
