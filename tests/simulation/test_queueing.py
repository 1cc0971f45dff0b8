"""Tests for repro.simulation.queueing — utilisation slowdowns."""

import math

import numpy as np
import pytest

from repro.baselines.local import LocalPolicy
from repro.core.partition import partition_all
from repro.simulation.perturbation import IDENTITY_PERTURBATION
from repro.simulation.queueing import (
    simulate_with_queueing,
    utilisation_slowdowns,
)
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace
from tests.conftest import build_micro_model


class TestUtilisationSlowdowns:
    def test_infinite_capacity_factor_one(self, micro_model):
        local, repo = utilisation_slowdowns(LocalPolicy().allocate(micro_model))
        assert np.allclose(local, 1.0)
        assert repo == 1.0

    def test_known_utilisation(self):
        # all-local loads are 7.1 / 5.6 req/s
        m = build_micro_model(processing=(14.2, 11.2))
        local, _ = utilisation_slowdowns(LocalPolicy().allocate(m))
        # rho = 0.5 on both -> factor 2
        assert np.allclose(local, 2.0)

    def test_overload_capped(self):
        m = build_micro_model(processing=(1.0, 1.0))
        local, _ = utilisation_slowdowns(LocalPolicy().allocate(m))
        assert np.all(np.isfinite(local))
        assert np.all(local <= 1.0 / (1.0 - 0.98) + 1e-9)

    def test_repo_factor(self):
        m = build_micro_model(repo_capacity=16.4)
        from repro.baselines.remote import RemotePolicy

        # remote load is 8.2 -> rho 0.5 -> factor 2
        _, repo = utilisation_slowdowns(RemotePolicy().allocate(m))
        assert repo == pytest.approx(2.0)

    def test_repo_capacity_override(self, micro_model):
        from repro.baselines.remote import RemotePolicy

        _, repo = utilisation_slowdowns(
            RemotePolicy().allocate(micro_model), repo_capacity=16.4
        )
        assert repo == pytest.approx(2.0)

    def test_bad_max_utilisation(self, micro_model):
        with pytest.raises(ValueError, match="max_utilisation"):
            utilisation_slowdowns(
                LocalPolicy().allocate(micro_model), max_utilisation=1.0
            )


class TestSimulateWithQueueing:
    def test_scales_only_overheads(self):
        """With identity perturbation, the queued time differs from the
        constant-time run by exactly (factor-1) x overhead on local-bound
        pages."""
        from repro.simulation.engine import simulate_allocation

        m = build_micro_model(processing=(14.2, 11.2))  # factors = 2.0
        alloc = LocalPolicy().allocate(m)
        trace = generate_trace(
            m, WorkloadParams.tiny(), seed=1, requests_per_server=30
        )
        base = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        queued = simulate_with_queueing(
            alloc, trace, IDENTITY_PERTURBATION, seed=2
        )
        srv = trace.server_of_request
        expected = base.page_times + m.server_overhead[srv]  # +1x overhead
        assert np.allclose(queued.page_times, expected)

    def test_noop_when_unconstrained(self, micro_model):
        from repro.simulation.engine import simulate_allocation

        alloc = partition_all(micro_model)
        trace = generate_trace(
            micro_model, WorkloadParams.tiny(), seed=1, requests_per_server=30
        )
        a = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        b = simulate_with_queueing(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        assert np.allclose(a.page_times, b.page_times)

    def test_engine_validates_scale_shape(self, micro_model):
        from repro.simulation.engine import simulate_partition_masks

        trace = generate_trace(
            micro_model, WorkloadParams.tiny(), seed=1, requests_per_server=10
        )
        _, entries = trace.comp_expansion(micro_model.comp_indptr)
        with pytest.raises(ValueError, match="local_overhead_scale"):
            simulate_partition_masks(
                trace,
                np.zeros(len(entries), dtype=bool),
                np.zeros(trace.n_optional_downloads, dtype=bool),
                local_overhead_scale=np.ones(5),
            )

    def test_engine_rejects_sub_one_scale(self, micro_model):
        from repro.simulation.engine import simulate_partition_masks

        trace = generate_trace(
            micro_model, WorkloadParams.tiny(), seed=1, requests_per_server=10
        )
        _, entries = trace.comp_expansion(micro_model.comp_indptr)
        with pytest.raises(ValueError, match=">= 1"):
            simulate_partition_masks(
                trace,
                np.zeros(len(entries), dtype=bool),
                np.zeros(trace.n_optional_downloads, dtype=bool),
                local_overhead_scale=np.full(micro_model.n_servers, 0.5),
            )
