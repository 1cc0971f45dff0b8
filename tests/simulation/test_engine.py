"""Tests for repro.simulation.engine — the vectorised replay."""

import numpy as np
import pytest

from repro.baselines.local import LocalPolicy
from repro.baselines.remote import RemotePolicy
from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.types import expand_rows
from repro.simulation.engine import simulate_allocation, simulate_partition_masks
from repro.simulation.perturbation import IDENTITY_PERTURBATION, PAPER_PERTURBATION
from repro.workload.trace import generate_trace
from repro.workload.params import WorkloadParams


class TestExpandRagged:
    def test_basic(self):
        indptr = np.array([0, 2, 3, 6])
        pages = np.array([1, 0, 2])
        owner, entries = expand_rows(indptr[pages], np.diff(indptr)[pages])
        assert owner.tolist() == [0, 1, 1, 2, 2, 2]
        assert entries.tolist() == [2, 0, 1, 3, 4, 5]

    def test_repeated_pages(self):
        indptr = np.array([0, 2])
        pages = np.array([0, 0])
        owner, entries = expand_rows(indptr[pages], np.diff(indptr)[pages])
        assert owner.tolist() == [0, 0, 1, 1]
        assert entries.tolist() == [0, 1, 0, 1]

    def test_empty_requests(self):
        owner, entries = expand_rows(np.array([], dtype=np.intp), [])
        assert len(owner) == 0 and len(entries) == 0

    def test_pages_with_no_entries(self):
        indptr = np.array([0, 0, 3])
        pages = np.array([0, 1, 0])
        owner, entries = expand_rows(indptr[pages], np.diff(indptr)[pages])
        assert owner.tolist() == [1, 1, 1]
        assert entries.tolist() == [0, 1, 2]


class TestIdentityMatchesCostModel:
    """With the identity perturbation the simulated page time must equal
    the cost model's Eq. 5 — except that the engine drops the repository
    connection overhead when no object travels remotely."""

    def test_remote_policy(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=40)
        alloc = RemotePolicy().allocate(micro_model)
        sim = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        cost = CostModel(micro_model)
        times = cost.page_times(alloc)
        expected = times.page[trace.page_of_request]
        assert np.allclose(sim.page_times, expected)

    def test_partition_policy(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=40)
        alloc = partition_all(micro_model)
        sim = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        cost = CostModel(micro_model)
        times = cost.page_times(alloc)
        # every micro page keeps at least one remote object under
        # PARTITION? No: pages 0-2 go fully local, so their simulated
        # remote stream is 0 rather than Ovhd(R).
        lb = cost.local_mo_bytes(alloc)
        (rb,) = cost.remote_mo_bytes_by_stream(alloc)
        for r, j in enumerate(trace.page_of_request):
            if rb[j] > 0:
                assert sim.page_times[r] == pytest.approx(times.page[j])
            else:
                assert sim.page_times[r] == pytest.approx(times.local[j])

    def test_local_policy_no_remote_stream(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=20)
        alloc = LocalPolicy().allocate(micro_model)
        sim = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        assert np.all(sim.remote_stream_times == 0.0)

    def test_optional_times_identity(self, micro_model, small_params):
        trace = generate_trace(
            micro_model,
            small_params.with_(optional_interest_prob=1.0),
            seed=1,
            requests_per_server=50,
        )
        if trace.n_optional_downloads == 0:
            pytest.skip("no optional downloads")
        alloc = RemotePolicy().allocate(micro_model)
        sim = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        m = micro_model
        e = trace.opt_entries
        srv = m.page_server[m.opt_pages[e]]
        expected = (
            m.server_repo_overhead[srv]
            + m.sizes[m.opt_objects[e]] / m.server_repo_rate[srv]
        )
        assert np.allclose(sim.optional_times, expected)


class TestPerturbedBehaviour:
    def test_perturbation_changes_times(self, small_model, small_trace):
        alloc = partition_all(small_model)
        a = simulate_allocation(alloc, small_trace, IDENTITY_PERTURBATION, seed=3)
        b = simulate_allocation(alloc, small_trace, PAPER_PERTURBATION, seed=3)
        assert not np.allclose(a.page_times, b.page_times)
        # the paper's mixture degrades local rates, so times grow on average
        assert b.mean_page_time > a.mean_page_time

    def test_seed_reproducible(self, small_model, small_trace):
        alloc = partition_all(small_model)
        a = simulate_allocation(alloc, small_trace, seed=5)
        b = simulate_allocation(alloc, small_trace, seed=5)
        assert np.array_equal(a.page_times, b.page_times)

    def test_different_seeds_differ(self, small_model, small_trace):
        alloc = partition_all(small_model)
        a = simulate_allocation(alloc, small_trace, seed=5)
        b = simulate_allocation(alloc, small_trace, seed=6)
        assert not np.array_equal(a.page_times, b.page_times)

    def test_model_mismatch_rejected(self, small_model, small_trace, micro_model):
        alloc = Allocation(micro_model)
        with pytest.raises(ValueError, match="same SystemModel"):
            simulate_allocation(alloc, small_trace)

    def test_page_time_is_max_of_streams(self, small_model, small_trace):
        alloc = partition_all(small_model)
        sim = simulate_allocation(alloc, small_trace, seed=3)
        assert np.array_equal(
            sim.page_times,
            np.maximum(sim.local_stream_times, sim.remote_stream_times),
        )


class TestRepoSlowdown:
    def test_slowdown_scales_remote(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=30)
        alloc = RemotePolicy().allocate(micro_model)
        base = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        slow = simulate_allocation(
            alloc, trace, IDENTITY_PERTURBATION, seed=2, repo_slowdown=2.0
        )
        assert np.allclose(slow.remote_stream_times, 2 * base.remote_stream_times)

    def test_slowdown_leaves_local_alone(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=30)
        alloc = LocalPolicy().allocate(micro_model)
        base = simulate_allocation(alloc, trace, IDENTITY_PERTURBATION, seed=2)
        slow = simulate_allocation(
            alloc, trace, IDENTITY_PERTURBATION, seed=2, repo_slowdown=3.0
        )
        assert np.allclose(slow.page_times, base.page_times)

    def test_invalid_slowdown(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=5)
        alloc = Allocation(micro_model)
        with pytest.raises(ValueError, match="repo_slowdown"):
            simulate_allocation(alloc, trace, repo_slowdown=0.5)


class TestMaskInterface:
    def test_wrong_mask_shapes_rejected(self, small_model, small_trace):
        with pytest.raises(ValueError, match="pair_local"):
            simulate_partition_masks(
                small_trace,
                np.zeros(3, dtype=bool),
                np.zeros(small_trace.n_optional_downloads, dtype=bool),
            )

    def test_extra_remote_overhead_applied(self, micro_model, small_params):
        trace = generate_trace(micro_model, small_params, seed=1, requests_per_server=30)
        _, entries = trace.comp_expansion(micro_model.comp_indptr)
        masks = np.zeros(len(entries), dtype=bool)
        opt = np.zeros(trace.n_optional_downloads, dtype=bool)
        base = simulate_partition_masks(
            trace, masks, opt, IDENTITY_PERTURBATION, seed=2
        )
        shifted = simulate_partition_masks(
            trace, masks, opt, IDENTITY_PERTURBATION, seed=2,
            extra_remote_overhead=10.0,
        )
        assert np.allclose(
            shifted.remote_stream_times, base.remote_stream_times + 10.0
        )
