"""Tests for repro.io — model/trace persistence."""

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.io import load_model, load_trace, save_model, save_trace
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace


class TestModelRoundTrip:
    def test_micro(self, micro_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(micro_model, path)
        back = load_model(path)
        assert back.n_pages == micro_model.n_pages
        assert np.array_equal(back.sizes, micro_model.sizes)
        assert np.array_equal(back.frequencies, micro_model.frequencies)
        assert np.array_equal(back.comp_objects, micro_model.comp_objects)
        assert np.array_equal(back.server_rate, micro_model.server_rate)

    def test_infinite_capacities_survive(self, micro_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(micro_model, path)
        back = load_model(path)
        assert np.all(np.isinf(back.server_storage))
        assert np.isinf(back.repository.processing_capacity)

    def test_generated_round_trip_same_allocation(self, tmp_path):
        model = generate_workload(WorkloadParams.tiny(), seed=3)
        path = tmp_path / "gen.json"
        save_model(model, path)
        back = load_model(path)
        a = partition_all(model)
        b = partition_all(back)
        assert np.array_equal(a.comp_local, b.comp_local)
        assert CostModel(model).D(a) == pytest.approx(CostModel(back).D(b))

    def test_mesh_topology_round_trip(self, tmp_path):
        """A k=3 replica mesh keeps its remote streams through a file and
        re-plans to the same allocation."""
        model = generate_workload(
            WorkloadParams.tiny().with_(n_streams=3, n_repositories=2), seed=3
        )
        path = tmp_path / "mesh.json"
        save_model(model, path)
        back = load_model(path)
        assert back.n_streams == 3
        assert np.array_equal(back.stream_rates, model.stream_rates)
        assert np.array_equal(back.stream_overheads, model.stream_overheads)
        a = partition_all(model)
        b = partition_all(back)
        assert np.array_equal(a.comp_local, b.comp_local)
        assert np.array_equal(a.comp_stream, b.comp_stream)
        assert CostModel(model).D(a) == CostModel(back).D(b)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_model(path)

    def test_names_preserved(self, micro_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(micro_model, path)
        back = load_model(path)
        assert back.servers[0].name == "s0"


class TestTraceRoundTrip:
    def test_round_trip(self, micro_model, tmp_path):
        params = WorkloadParams.tiny()
        trace = generate_trace(micro_model, params, seed=1, requests_per_server=50)
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        back = load_trace(path, micro_model)
        assert np.array_equal(back.page_of_request, trace.page_of_request)
        assert np.array_equal(back.opt_entries, trace.opt_entries)
        assert np.array_equal(back.opt_owner, trace.opt_owner)

    def test_wrong_model_rejected(self, micro_model, tiny_model, tmp_path):
        params = WorkloadParams.tiny()
        trace = generate_trace(micro_model, params, seed=1, requests_per_server=20)
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        with pytest.raises(ValueError, match="different model"):
            load_trace(path, tiny_model)

    def test_saved_model_plus_trace_pipeline(self, tmp_path):
        """Full reproducibility loop: save, reload, simulate — identical."""
        from repro.simulation.engine import simulate_allocation

        params = WorkloadParams.tiny()
        model = generate_workload(params, seed=6)
        trace = generate_trace(model, params, seed=7, requests_per_server=100)
        save_model(model, tmp_path / "m.json")
        save_trace(trace, tmp_path / "t.npz")

        model2 = load_model(tmp_path / "m.json")
        trace2 = load_trace(tmp_path / "t.npz", model2)
        a = simulate_allocation(partition_all(model), trace, seed=8)
        b = simulate_allocation(partition_all(model2), trace2, seed=8)
        assert np.allclose(a.page_times, b.page_times)
