"""Kernel bench — batched vs scalar greedy restoration / OFF_LOADING.

Times the three Section 4.2 greedy loops (storage restoration,
processing restoration, repository off-loading) under both kernels on
two seeded paper-shaped workloads and asserts the acceptance floor for
:mod:`repro.core.fast_restoration`: **the batched restoration/offload
path is ≥5× scalar on the dense paper-scale workload**, with
bit-identical decision sequences verified in the same run (final
allocations and phase statistics are compared before any timing).

Workloads
---------
``table1``
    The verbatim Table 1 shape.  Its pages reference only 5-45
    compulsory objects, so each greedy event rescores a handful of
    candidates and the batched kernel's bulk scoring has little to
    amortise — the floor here is only "not slower".
``table1-dense``
    Table 1 volume at 10× page density (tenfold objects per page, a
    tenth the pages — the same total entry count).  Restoration cost
    concentrates in candidate rescoring exactly as at table1 scale, but
    per-event batches are wide enough for the vectorised Eq. 3-5
    pipeline to dominate the Python-loop scalar path.  This mirrors
    ``bench_partition_kernel.py``, which pins its ≥5× floor on the 10×
    page-count workload.

Each phase restores against capacities cut to ``FRAC`` of the
unconstrained policy's need (storage bytes, processing load and
repository load respectively) — the mid-range operating point of the
paper's Figure 1/2 sweeps.

Scale note: ``REPRO_BENCH_SCALE`` does not apply here — the bench always
measures the paper shapes (that is what the acceptance criterion pins);
use ``REPRO_BENCH_KERNEL_REPEATS`` (default 2) to change the timing
repeats.  One repeat already implies a full scalar dense run (~2 min).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.core.constraints import (
    html_request_load,
    local_processing_load,
    repository_load,
)
from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, offload_repository
from repro.core.partition import partition_all
from repro.core.restoration import (
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.types import (
    RepositorySpec,
    ServerSpec,
    StreamTopology,
    SystemModel,
)
from repro.util.tables import format_table
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams

SEED = 123
REPEATS = int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", "2"))
FRAC = 0.5

WORKLOADS = {
    "table1": WorkloadParams.paper(),
    "table1-dense": WorkloadParams.paper().with_(
        pages_per_server=(40, 80),
        compulsory_per_page=(50, 450),
        optional_per_page=(100, 850),
    ),
    # the k-stream arm: Table 1 volume over a 4-stream replica mesh.
    # Mesh scenarios keep the repository uncapacitated (OFF_LOADING is
    # k=2-only), so this arm times the storage/processing loops; the
    # ≥5x floor stays pinned to the k=2 dense arm above.
    "table1-k4": WorkloadParams.paper().with_(n_streams=4, n_repositories=3),
}

PHASES = ("storage", "processing", "offload")


def _with_capacities(
    model: SystemModel, storage=None, processing=None, repo=None
) -> SystemModel:
    """Clone ``model`` with per-server capacity overrides."""
    servers = [
        ServerSpec(
            server_id=s.server_id,
            storage_capacity=(
                s.storage_capacity if storage is None else float(storage[i])
            ),
            processing_capacity=(
                s.processing_capacity
                if processing is None
                else float(processing[i])
            ),
            rate=s.rate,
            overhead=s.overhead,
            repo_rate=s.repo_rate,
            repo_overhead=s.repo_overhead,
        )
        for i, s in enumerate(model.servers)
    ]
    repo_spec = model.repository
    if repo is not None:
        repo_spec = RepositorySpec(processing_capacity=float(repo))
    topology = None
    if model.n_streams > 2:
        topology = StreamTopology(
            rates=model.stream_rates, overheads=model.stream_overheads
        )
    return SystemModel(
        servers, repo_spec, model.pages, model.objects, topology=topology
    )


def _scenarios(model: SystemModel) -> dict:
    """One constrained model + phase callable per greedy loop."""
    ref = partition_all(model)
    html = model.html_bytes_by_server()
    caps = html + FRAC * ref.stored_bytes_all() + 1.0
    hl = html_request_load(model)
    load = local_processing_load(ref)
    pcaps = np.maximum(hl + FRAC * np.maximum(load - hl, 0.0) + 1e-9, 1e-6)
    scenarios = {
        "storage": (
            _with_capacities(model, storage=caps),
            lambda a, c, k: restore_storage_capacity(a, c, kernel=k),
        ),
        "processing": (
            _with_capacities(model, processing=pcaps),
            lambda a, c, k: restore_processing_capacity(a, c, kernel=k),
        ),
    }
    if model.n_streams == 2:
        # OFF_LOADING is k=2-only; mesh arms keep the repository
        # uncapacitated, matching the replica-mesh scenario convention
        rload = repository_load(ref)
        scenarios["offload"] = (
            _with_capacities(model, repo=max(FRAC * rload, 1e-6)),
            lambda a, c, k: offload_repository(a, c, OffloadConfig(), kernel=k),
        )
    return scenarios


def _assert_identical(a, b, tag: str) -> None:
    assert np.array_equal(a.comp_local, b.comp_local), f"{tag}: comp_local"
    assert np.array_equal(a.opt_local, b.opt_local), f"{tag}: opt_local"
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i], f"{tag}: replicas[{i}]"


@pytest.fixture(scope="module")
def kernel_results(save_artifact, save_timings):
    rows = []
    results: dict[str, dict] = {}
    for wname, params in WORKLOADS.items():
        model = generate_workload(
            params.with_(
                storage_capacity=float("inf"), processing_capacity=float("inf")
            ),
            seed=SEED,
        )
        results[wname] = {"phases": {}, "streams": model.n_streams}
        totals = {"scalar": 0.0, "batched": 0.0}
        for phase, (m2, fn) in _scenarios(model).items():
            cost = CostModel(m2)
            best: dict[str, float] = {}
            first: dict[str, tuple] = {}
            for kern in ("scalar", "batched"):
                t_best = float("inf")
                for rep in range(REPEATS):
                    alloc = partition_all(m2)
                    t0 = time.perf_counter()
                    stats = fn(alloc, cost, kern)
                    t_best = min(t_best, time.perf_counter() - t0)
                    if rep == 0:
                        first[kern] = (alloc, stats)
                best[kern] = t_best
            # decision identity, verified on the same runs just timed
            tag = f"{wname}/{phase}"
            _assert_identical(first["scalar"][0], first["batched"][0], tag)
            assert first["scalar"][1] == first["batched"][1], (
                f"{tag}: phase statistics diverged"
            )
            speedup = best["scalar"] / best["batched"]
            results[wname]["phases"][phase] = {
                "scalar_seconds": best["scalar"],
                "batched_seconds": best["batched"],
                "speedup": speedup,
            }
            if phase == "offload":
                # Negotiation depth next to the timings: the serial
                # default runs through offload_repository's scatter
                # seam (lifecycle hooks are a no-op without a sharded
                # scatter), so rounds/messages drifting here would
                # flag a protocol change before any golden does.
                outcome = first["batched"][1]
                results[wname]["offload_rounds"] = outcome.rounds
                results[wname]["offload_messages"] = outcome.messages
                # L2-swap activity of one more (untimed) batched run:
                # swaps tried, swaps made, victim tables built
                swap_reg = obs.MetricsRegistry()
                with obs.use_registry(swap_reg):
                    fn(partition_all(m2), cost, "batched")
                for key in ("swap_attempts", "swaps", "swap_rankings"):
                    results[wname][f"offload_{key}"] = int(
                        swap_reg.counters.get(f"offload.{key}", 0)
                    )
            totals["scalar"] += best["scalar"]
            totals["batched"] += best["batched"]
            rows.append(
                (
                    wname,
                    phase,
                    f"{best['scalar']:.2f}",
                    f"{best['batched']:.2f}",
                    f"{speedup:.1f}x",
                )
            )
        combined = totals["scalar"] / totals["batched"]
        results[wname]["scalar_seconds"] = totals["scalar"]
        results[wname]["batched_seconds"] = totals["batched"]
        results[wname]["combined_speedup"] = combined
        rows.append(
            (
                wname,
                "combined",
                f"{totals['scalar']:.2f}",
                f"{totals['batched']:.2f}",
                f"{combined:.1f}x",
            )
        )
    table = format_table(
        ["workload", "phase", "scalar s", "batched s", "speedup"],
        rows,
        title="restoration/OFF_LOADING kernel wall-clock (best of "
        f"{REPEATS}, bit-identical decisions)",
    )
    save_artifact("restoration_kernel", table)
    save_timings(
        "restoration_kernel",
        {"seed": SEED, "repeats": REPEATS, "frac": FRAC, "workloads": results},
    )
    return results


def test_bench_batched_at_least_5x_on_dense_workload(kernel_results):
    """The ISSUE 4 acceptance floor: ≥5× on the dense paper workload."""
    assert kernel_results["table1-dense"]["combined_speedup"] >= 5.0


def test_bench_batched_not_slower_at_table1_scale(kernel_results):
    """Table 1's 5-45 objects/page leave little to vectorise per event;
    the batched path must still win overall at that scale."""
    assert kernel_results["table1"]["combined_speedup"] > 1.0


def test_bench_multipath_batched_not_slower_at_k4(kernel_results):
    """The k-stream restoration arm: batched must win at k=4 too, and
    the arm only exercises the k-supporting phases (no OFF_LOADING)."""
    k4 = kernel_results["table1-k4"]
    assert k4["streams"] == 4
    assert sorted(k4["phases"]) == ["processing", "storage"]
    assert k4["combined_speedup"] > 1.0


def test_bench_batched_kernel_timing(benchmark):
    """pytest-benchmark probe: one batched storage restoration."""
    model = generate_workload(
        WorkloadParams.small().with_(storage_capacity=float("inf")),
        seed=SEED,
    )
    ref = partition_all(model)
    caps = model.html_bytes_by_server() + FRAC * ref.stored_bytes_all() + 1.0
    m2 = _with_capacities(model, storage=caps)
    cost = CostModel(m2)

    def run():
        alloc = partition_all(m2)
        restore_storage_capacity(alloc, cost, kernel="batched")

    benchmark(run)
