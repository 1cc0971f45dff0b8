"""Content-addressed cache for per-run experiment artifacts.

Every figure/ablation experiment follows the paper's paired protocol:
run ``r`` needs the *same* synthetic workload, request trace, and
unconstrained-PARTITION baseline no matter which sweep is being
measured.  Before this cache existed each experiment regenerated all
three, so a benchmark session recomputed identical artifacts once per
benchmark file.

:class:`ArtifactCache` stores one :class:`RunArtifacts` bundle per
**content address** — the SHA-256 digest of the (already relaxed)
:class:`~repro.workload.params.WorkloadParams`, the kernel name, the
perturbation model, and the run's derived ``(model, trace, sim)`` seeds.
Two configurations that would generate bit-identical artifacts therefore
share one cache entry, across sweep points, experiments, and benchmark
files alike.  The cache is **per-process**: the parallel executor's
worker processes each hold their own (warming it on first touch and
keeping it warm across chunks because the worker pool is persistent).

Determinism contract
--------------------
A cache hit returns *exactly* what regeneration would have produced —
artifacts are pure functions of the key — so caching can never change
experiment output.  Generation records into a **throwaway registry**:
whether an artifact is rebuilt depends on process history and
worker placement, and letting it emit counters would make run manifests
depend on the execution mode.  Instead the cache

* records the wall-clock of each rebuild as an ``experiment-prepare``
  span in the caller's active registry, and
* publishes its cumulative hit/miss totals as ``executor.cache.hits`` /
  ``executor.cache.misses`` **gauges** (environment-describing, unlike
  counters which stay mode-invariant; suppressed inside executor
  workers, whose totals the parent re-publishes as
  ``executor.cache.worker_hits`` / ``worker_misses``).

Callers share the artifacts: treat the cached model/trace/reference as
read-only (experiments already do — sweep points clone the model and
copy allocations before mutating).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.cost_model import CostModel
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.types import SystemModel
from repro.obs.manifest import WORKER_ENV_VAR
from repro.obs.registry import MetricsRegistry, get_registry, use_registry
from repro.simulation.engine import simulate_allocation
from repro.simulation.metrics import SimulationResult
from repro.simulation.perturbation import PerturbationModel
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from repro.workload.trace import RequestTrace, generate_trace

__all__ = [
    "ArtifactCache",
    "RunArtifacts",
    "params_digest",
    "artifact_cache",
    "clear_artifact_cache",
]

#: Default number of run bundles kept per process (LRU eviction).  A
#: paper-scale bundle is a few tens of MB; 64 comfortably covers a full
#: benchmark session (20 runs x a handful of configurations).
DEFAULT_CAPACITY = 64


def _digest(obj: Any) -> str:
    """SHA-256 of a dataclass's canonical JSON form."""
    payload = json.dumps(
        asdict(obj), sort_keys=True, default=repr, allow_nan=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def params_digest(params: WorkloadParams) -> str:
    """Content address of a workload configuration.

    Stable across processes and sessions: the digest covers every field
    of the frozen dataclass (nested size mixtures included), so any
    parameter change — and nothing else — changes the address.
    """
    return _digest(params)


@dataclass(frozen=True)
class RunArtifacts:
    """The shareable per-run bundle: workload, trace, baseline."""

    model: SystemModel
    """The generated (relaxed or constrained) system model."""
    trace: RequestTrace
    """The evaluation trace over ``model``."""
    cost: CostModel
    """The proposed policy's cost model for ``model``."""
    context: EvalContext
    """The shared columnar evaluation context of ``model``.

    Cached here as part of the content-addressed bundle: every sweep
    point, baseline, and simulation replay touching this model reuses
    these columns (the per-model cache keys off the model object, which
    the bundle pins alive), so derived state is built exactly once per
    cache entry."""
    reference: Allocation
    """Unconstrained proposed-policy allocation (pure PARTITION)."""
    reference_sim: SimulationResult
    """Its simulated response times — the normalisation baseline."""
    model_seed: int
    trace_seed: int
    sim_seed: int


class ArtifactCache:
    """Per-process LRU cache of :class:`RunArtifacts` (see module doc)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._store: "OrderedDict[tuple, RunArtifacts]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every cached bundle (hit/miss totals survive)."""
        self._store.clear()

    def stats(self) -> tuple[int, int]:
        """Cumulative ``(hits, misses)`` of this process's cache."""
        return self.hits, self.misses

    def get(
        self,
        params: WorkloadParams,
        kernel: str,
        perturbation: PerturbationModel,
        model_seed: int,
        trace_seed: int,
        sim_seed: int,
    ) -> RunArtifacts:
        """Fetch (or build and remember) one run's artifact bundle.

        ``params`` must already carry the capacities the model should be
        generated with — the relaxed/constrained decision is part of the
        content address.
        """
        key = (
            params_digest(params),
            str(kernel),
            _digest(perturbation),
            int(model_seed),
            int(trace_seed),
            int(sim_seed),
        )
        bundle = self._store.get(key)
        if bundle is not None:
            self._store.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            reg = get_registry()
            with reg.span("experiment-prepare"):
                # A throwaway *recording* registry: generation metrics
                # are discarded (they would make manifests depend on
                # cache state), and Policy.run sees metrics as enabled
                # so it never writes its own per-run manifest here.
                with use_registry(MetricsRegistry()):
                    bundle = self._build(
                        params, kernel, perturbation,
                        model_seed, trace_seed, sim_seed,
                    )
            self._store[key] = bundle
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
        self._publish()
        return bundle

    @staticmethod
    def _build(
        params: WorkloadParams,
        kernel: str,
        perturbation: PerturbationModel,
        model_seed: int,
        trace_seed: int,
        sim_seed: int,
    ) -> RunArtifacts:
        model = generate_workload(params, seed=model_seed)
        trace = generate_trace(model, params, seed=trace_seed)
        policy = RepositoryReplicationPolicy(
            alpha1=params.alpha1, alpha2=params.alpha2, kernel=kernel
        )
        result = policy.run(model)
        cost = policy.cost_model(model)
        reference_sim = simulate_allocation(
            result.allocation,
            trace,
            perturbation=perturbation,
            seed=sim_seed,
        )
        return RunArtifacts(
            model=model,
            trace=trace,
            cost=cost,
            context=EvalContext.for_model(model),
            reference=result.allocation,
            reference_sim=reference_sim,
            model_seed=model_seed,
            trace_seed=trace_seed,
            sim_seed=sim_seed,
        )

    def _publish(self) -> None:
        """Gauge the cumulative totals (parent process only)."""
        if os.environ.get(WORKER_ENV_VAR):
            return
        reg = get_registry()
        if reg.enabled:
            reg.gauge("executor.cache.hits", self.hits)
            reg.gauge("executor.cache.misses", self.misses)


_CACHE = ArtifactCache()


def artifact_cache() -> ArtifactCache:
    """This process's shared artifact cache."""
    return _CACHE


def clear_artifact_cache() -> None:
    """Drop every bundle from this process's cache (cold-start helper
    for fair benchmark timings; worker caches are cleared by recycling
    the pool — see :func:`repro.experiments.executor.shutdown_pool`)."""
    _CACHE.clear()
