"""Kernel bench — batched vs scalar PARTITION throughput.

Times :func:`repro.core.partition.partition_all` (the batched kernel,
:func:`~repro.core.partition.partition_pages_batched`, over every page)
against the page-by-page reference
:func:`tests.oracles.scalar_greedy.partition_all_scalar` on the seeded
Table 1 workload and a 10× variant (pages_per_server scaled
tenfold), reporting pages/second and the speedup.  The acceptance floor
for the batched kernel is **≥5× scalar throughput on the 10× workload**;
the differential property suite
(``tests/properties/test_property_fast_partition.py``) separately proves
the two produce bit-identical allocations, so the speedup is
free of result drift by construction.

Scale note: ``REPRO_BENCH_SCALE`` does not apply here — the bench always
measures the Table 1 shape (that is what the acceptance criterion pins);
use ``REPRO_BENCH_KERNEL_REPEATS`` to change the timing repeats.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.partition import partition_all
from repro.util.tables import format_table
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.oracles.scalar_greedy import partition_all_scalar

SEED = 123
REPEATS = int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", "3"))

WORKLOADS = {
    "table1": WorkloadParams.paper(),
    "table1-10x": WorkloadParams.paper().with_(pages_per_server=(4000, 8000)),
    # the k-stream arm: same Table 1 volume over a 4-stream replica
    # mesh, so the argmin-over-k batched kernel is timed against the
    # scalar k-way reference (the ≥5x floor stays pinned to the k=2
    # arms above — this arm guards the multipath path's own speedup)
    "table1-k4": WorkloadParams.paper().with_(n_streams=4, n_repositories=3),
}


def _best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def kernel_results(save_artifact, save_timings):
    rows = []
    results = {}
    for name, params in WORKLOADS.items():
        model = generate_workload(
            params.with_(
                storage_capacity=float("inf"), processing_capacity=float("inf")
            ),
            seed=SEED,
        )
        model.fast_comp  # warm the scalar path's list cache before timing
        scalar_alloc = partition_all_scalar(model)
        batched_alloc = partition_all(model)
        assert scalar_alloc == batched_alloc, "kernels diverged"
        t_scalar = _best_time(lambda: partition_all_scalar(model))
        t_batched = _best_time(lambda: partition_all(model))
        results[name] = {
            "pages": model.n_pages,
            "streams": model.n_streams,
            "scalar_seconds": t_scalar,
            "batched_seconds": t_batched,
            "scalar_pps": model.n_pages / t_scalar,
            "batched_pps": model.n_pages / t_batched,
            "speedup": t_scalar / t_batched,
        }
        rows.append(
            (
                name,
                f"{model.n_pages}",
                f"{results[name]['scalar_pps']:.0f}",
                f"{results[name]['batched_pps']:.0f}",
                f"{results[name]['speedup']:.1f}x",
            )
        )
    table = format_table(
        ["workload", "pages", "scalar pages/s", "batched pages/s", "speedup"],
        rows,
        title="PARTITION kernel throughput (best of "
        f"{REPEATS}, bit-identical outputs)",
    )
    save_artifact("partition_kernel", table)
    save_timings(
        "partition_kernel",
        {"seed": SEED, "repeats": REPEATS, "workloads": results},
    )
    return results


def test_bench_batched_at_least_5x_on_10x_workload(kernel_results):
    assert kernel_results["table1-10x"]["speedup"] >= 5.0


def test_bench_batched_faster_at_table1_scale(kernel_results):
    assert kernel_results["table1"]["speedup"] > 1.0


def test_bench_multipath_batched_faster_at_k4(kernel_results):
    assert kernel_results["table1-k4"]["streams"] == 4
    assert kernel_results["table1-k4"]["speedup"] > 1.0


def test_bench_batched_kernel_timing(benchmark):
    model = generate_workload(
        WorkloadParams.paper().with_(
            storage_capacity=float("inf"), processing_capacity=float("inf")
        ),
        seed=SEED,
    )
    benchmark(partition_all, model)
