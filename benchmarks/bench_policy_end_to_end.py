"""End-to-end policy bench — shared EvalContext vs per-consumer rebuilds.

Times the full four-phase :meth:`RepositoryReplicationPolicy.run`
(PARTITION → storage restoration → processing restoration →
OFF_LOADING) on a capacity-constrained workload, comparing two arms:

* **shared** — the production configuration: one
  :class:`~repro.core.context.EvalContext` per model, built once and
  reused by every consumer (cost model, allocation, kernels,
  constraints);
* **rebuild** — the same run inside
  :func:`~repro.core.context.rebuild_contexts`, which disables the
  per-model cache so every consumer re-derives its own columns — the
  pre-consolidation behaviour, where ``CostModel``, ``Allocation``,
  the fast kernels and the constraint evaluators each rebuilt the
  derived state they needed.

Both arms produce bit-identical objectives (asserted) — the context is
a pure function of the model — so the ratio isolates exactly the
derived-state consolidation.  The two arms are timed in alternating
pairs (each pair on its own fresh clone per arm, the arm that goes first
switching from pair to pair), and the speedup is the median of the
per-pair rebuild/shared ratios: a slow stretch of a shared box then
slows both runs of a pair instead of one whole arm.  The acceptance
floor is **≥1.15× at paper scale** (``REPRO_BENCH_SCALE=paper``;
measured ≈1.4× there on a 2-vCPU box, where the rebuild arm builds one
context per consumer); smaller scales assert a looser sanity floor
because a sub-second run's ratio is dominated by fixed costs, and time
more pairs for the same reason.

A third arm times the **sharded** process-parallel kernel
(:mod:`repro.core.shard`): the same constrained run split into
``SHARD_COUNT`` per-server shards on a persistent worker pool, with the
reconciled result asserted **bit-identical** to the shared arm's
(allocation marks, replica sets, objective and phase list).  The
acceptance floor there is **≥4× at paper scale with ≥4 cores**
(skipped on smaller machines — a 1-core box serialises the shards and
only measures dispatch overhead).

Every record says whether the warm run ends feasible: ``feasible`` and
the Eq. 9 ``repo_load`` / ``repo_capacity`` / ``repo_slack`` from its
constraint report, so a number timed on an instance OFF_LOADING cannot
restore is labelled as such.  Every record also carries a per-layer
ledger from one more (untimed)
shared run under a recording registry: each phase's span seconds, the
greedy actions taken (evictions, switches, absorptions, and OFF_LOADING's
swap attempts, swaps and victim rankings), the candidates each
restoration loop rescored and the lockstep steps it took
(``storage_steps``, ``processing_steps``), microseconds per action, and
``os.cpu_count()`` of the machine that produced it.

Capacities are set to the fractions (storage 0.6, processing 0.6,
repository 0.7 of the unconstrained footprint) that force all four
phases to run — an unconstrained model is partition-only and would not
exercise the restoration/off-loading loops where sharing pays.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.core.context import rebuild_contexts
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.shard import default_pool, shutdown_shard_pool
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from repro.workload.generator import generate_workload

SEED = 0
STORAGE_FRACTION = 0.6
PROCESSING_FRACTION = 0.6
REPO_FRACTION = 0.7

#: Hard acceptance floor at paper scale; smaller scales only sanity-check
#: that sharing is not a regression (their runs are too short for the
#: ratio to be stable).
PAPER_FLOOR = 1.15
SANITY_FLOOR = 1.0

#: Sharded-kernel arm: shard count (capped at the model's server count)
#: and the speedup floor asserted at paper scale on a ≥4-core machine.
#: Only PARTITION and the two restorations fan out; OFF_LOADING runs in
#: the parent.  No committed record comes from a ≥4-core machine, so the
#: 4x floor is unverified: on 2 cores the test skips.
SHARD_COUNT = 4
SHARD_FLOOR = 4.0
SHARD_MIN_CORES = 4

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
#: Shared/rebuild pairs, and sharded runs.  A small-scale run takes about
#: 0.15 s, so its ratio needs many pairs to hold still.
REPEATS = int(
    os.environ.get("REPRO_BENCH_E2E_REPEATS", "2" if SCALE == "paper" else "11")
)


def _median(times: list[float]) -> float:
    return float(np.median(times))


#: Policy phase span -> ledger key prefix.
_PHASES = {
    "partition": "partition",
    "storage-restoration": "storage",
    "processing-restoration": "processing",
    "off-loading": "offload",
}

#: Ledger action counts: key -> registry counter.
_ACTIONS = {
    "storage_evictions": "restoration.storage.evictions",
    "processing_switches": "restoration.processing.switches",
    "offload_absorptions": "offload.absorptions",
}


def _phase_ledger(policy, model) -> dict:
    """Where one (untimed) shared run spends its time, layer by layer.

    A recording registry supplies each policy phase's span seconds, the
    greedy actions taken (evictions, switches, absorptions), OFF_LOADING's
    swap attempts, swaps and victim rankings, the candidates each
    restoration phase rescored, the lockstep steps each restoration took,
    and microseconds per action.  Keys end in ``_s``/``_us``/counts, never ``_seconds``, so
    the trajectory headline keeps them.
    """
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        policy.run(model)
    spans = registry.phase_seconds()
    counters = registry.counters
    out: dict = {"policy_s": spans.get("policy", 0.0)}
    for span, key in _PHASES.items():
        out[f"{key}_s"] = spans.get(f"policy/{span}", 0.0)
    for key, counter in _ACTIONS.items():
        n = int(counters.get(counter, 0))
        out[key] = n
        phase = key.split("_")[0]
        out[f"{phase}_us_per_action"] = 1e6 * out[f"{phase}_s"] / n if n else 0.0
    # OFF_LOADING's L2 swap work, as plain counts: an _ACTIONS entry
    # would overwrite offload_us_per_action with its own rate
    for name in ("swap_attempts", "swaps", "swap_rankings"):
        out[f"offload_{name}"] = int(counters.get(f"offload.{name}", 0))
    for phase, prefix in (
        ("storage", "restoration.storage"),
        ("processing", "restoration.processing"),
        ("offload", "offload"),
    ):
        out[f"{phase}_rescored"] = int(
            counters.get(f"{prefix}.rescored_candidates", 0)
        )
    for phase in ("storage", "processing"):
        out[f"{phase}_steps"] = int(counters.get(f"restoration.{phase}.steps", 0))
    return out


@pytest.fixture(scope="module")
def e2e_results(bench_config, save_timings):
    params = bench_config.params
    model = generate_workload(params.with_(storage_capacity=np.inf), seed=SEED)
    reference = partition_all(model)
    storage = storage_capacities_for_fraction(model, reference, STORAGE_FRACTION)
    processing = processing_capacities_for_fraction(
        model, PROCESSING_FRACTION, reference
    )
    repo_capacity = repo_capacity_for_fraction(reference, REPO_FRACTION)
    policy = RepositoryReplicationPolicy(
        alpha1=params.alpha1, alpha2=params.alpha2
    )

    def fresh():
        # Each timed run gets a fresh clone so the shared arm pays its
        # one context build inside the measurement (an honest end-to-end
        # cold start, not a warm-cache flatter).
        return clone_with_capacities(
            model,
            storage=storage,
            processing=processing,
            repo_capacity=repo_capacity,
        )

    warm = policy.run(fresh())
    assert warm.phases_run == [
        "partition",
        "storage-restoration",
        "processing-restoration",
        "off-loading",
    ], f"constrained run must exercise all phases, got {warm.phases_run}"

    def timed(rebuild: bool) -> float:
        m = fresh()
        with rebuild_contexts() if rebuild else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = policy.run(m)
            seconds = time.perf_counter() - t0
        assert result.objective == warm.objective, (
            "shared/rebuild arms must be bit-identical: "
            f"{result.objective!r} != {warm.objective!r}"
        )
        return seconds

    shared: list[float] = []
    rebuild: list[float] = []
    for pair in range(REPEATS):
        if pair % 2:
            rebuild.append(timed(rebuild=True))
            shared.append(timed(rebuild=False))
        else:
            shared.append(timed(rebuild=False))
            rebuild.append(timed(rebuild=True))
    pair_speedups = [r / s for r, s in zip(rebuild, shared)]
    ledger = _phase_ledger(policy, fresh())

    # --- sharded arm: same run, per-server shards on a process pool ---
    shards = min(SHARD_COUNT, model.n_servers)
    workers = min(shards, os.cpu_count() or 1)
    sharded_policy = RepositoryReplicationPolicy(
        alpha1=params.alpha1,
        alpha2=params.alpha2,
        kernel="sharded",
        shards=shards,
        pool=default_pool(workers),
    )
    sharded: list[float] = []
    try:
        # Warm-up outside the timings: pool spin-up and worker imports.
        # Nothing else carries over: each timed run restricts its
        # shards, pickles their submodels to the workers and builds
        # their contexts there, as the shared arm builds its context.
        sharded_warm = sharded_policy.run(fresh())
        for _ in range(REPEATS):
            m = fresh()
            t0 = time.perf_counter()
            result = sharded_policy.run(m)
            sharded.append(time.perf_counter() - t0)
            assert result.objective == warm.objective
    finally:
        shutdown_shard_pool()
    # Bit-identity of the reconciled run against the unsharded kernel —
    # not approximate equality: same marks, replicas, phases, objectives.
    assert np.array_equal(
        sharded_warm.allocation.comp_local, warm.allocation.comp_local
    )
    assert np.array_equal(
        sharded_warm.allocation.opt_local, warm.allocation.opt_local
    )
    assert all(
        sharded_warm.allocation.replicas[i] == warm.allocation.replicas[i]
        for i in range(model.n_servers)
    )
    assert sharded_warm.phases_run == warm.phases_run
    assert sharded_warm.objective == warm.objective
    assert sharded_warm.unconstrained_objective == warm.unconstrained_objective
    assert sharded_warm.offload_outcome == warm.offload_outcome

    results = {
        "seed": SEED,
        "scale": SCALE,
        "cpu_count": os.cpu_count(),
        **ledger,
        "repeats": REPEATS,
        "fractions": {
            "storage": STORAGE_FRACTION,
            "processing": PROCESSING_FRACTION,
            "repository": REPO_FRACTION,
        },
        "objective": warm.objective,
        "phases_run": warm.phases_run,
        "feasible": warm.feasible,
        "repo_load": warm.constraints.repo_load,
        "repo_capacity": warm.constraints.repo_capacity,
        "repo_slack": warm.constraints.repo_slack,
        "shared_seconds": shared,
        "rebuild_seconds": rebuild,
        "shared_median": _median(shared),
        "rebuild_median": _median(rebuild),
        "pair_speedups": pair_speedups,
        "speedup": _median(pair_speedups),
        "shards": shards,
        "shard_workers": workers,
        "sharded_seconds": sharded,
        "sharded_median": _median(sharded),
        "sharded_speedup": _median(shared) / _median(sharded),
    }
    save_timings("policy_end_to_end", results)
    return results


def test_bench_policy_end_to_end_floor(e2e_results):
    """Shared-context runs beat per-consumer rebuilds (≥1.15x at paper)."""
    floor = PAPER_FLOOR if SCALE == "paper" else SANITY_FLOOR
    assert e2e_results["speedup"] >= floor, (
        f"end-to-end speedup {e2e_results['speedup']:.2f}x below the "
        f"{floor}x floor at scale {SCALE!r}"
    )


def test_bench_policy_end_to_end_all_phases(e2e_results):
    assert len(e2e_results["phases_run"]) == 4


def test_bench_sharded_kernel_floor(e2e_results):
    """The sharded kernel beats the single-process run ≥4x at paper
    scale with 4 workers; elsewhere the arm only pins bit-identity
    (asserted inside the fixture) and records its timings."""
    cores = os.cpu_count() or 1
    if SCALE != "paper" or cores < SHARD_MIN_CORES:
        pytest.skip(
            f"sharded floor needs paper scale and >={SHARD_MIN_CORES} cores "
            f"(scale={SCALE!r}, cores={cores})"
        )
    assert e2e_results["sharded_speedup"] >= SHARD_FLOOR, (
        f"sharded speedup {e2e_results['sharded_speedup']:.2f}x below the "
        f"{SHARD_FLOOR}x floor with {e2e_results['shard_workers']} workers"
    )
