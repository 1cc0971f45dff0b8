"""Shared experiment infrastructure: paired multi-run orchestration.

Every figure experiment follows the paper's protocol:

1. generate a fresh synthetic workload per run (20 runs in the paper),
2. compute the **unconstrained** proposed policy (pure PARTITION — the
   normalisation baseline: figures report "% increase in response time"
   over it),
3. replay the *same* trace with the same perturbation seed under every
   policy/configuration of the sweep (paired comparison),
4. average relative increases across runs.

:class:`ExperimentConfig` carries the knobs; :func:`prepare_run` builds
(or fetches from the cross-sweep artifact cache) one fully-prepared
:class:`RunContext`, and :func:`iter_runs` yields one per run with the
baseline already measured.  Experiments fan the per-run sweep work out
through :mod:`repro.experiments.executor`.

Environment overrides honoured by the benchmark suite:

* ``REPRO_BENCH_RUNS``  — number of runs per experiment,
* ``REPRO_BENCH_SCALE`` — ``paper`` | ``small`` | ``tiny`` workload size,
* ``REPRO_BENCH_REQUESTS`` — trace length per server,
* ``REPRO_JOBS`` — parallel experiment workers (default 1 = serial),
* ``REPRO_KERNEL`` — ``batched`` | ``sharded`` policy kernel,
* ``REPRO_SHARDS`` — shard count for the ``sharded`` kernel,
* ``REPRO_METRICS`` — run-manifest output path (see :mod:`repro.obs`).

The integer overrides are validated on read: a non-positive or
non-integer value raises :class:`ValueError` naming the variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.partition import resolve_kernel
from repro.core.types import SystemModel
from repro.experiments.cache import artifact_cache
from repro.obs.registry import get_registry
from repro.simulation.engine import simulate_allocation
from repro.simulation.metrics import SimulationResult
from repro.simulation.perturbation import PAPER_PERTURBATION, PerturbationModel
from repro.util.rng import RngFactory
from repro.util.tables import format_series
from repro.util.validation import env_positive_int
from repro.workload.params import WorkloadParams
from repro.workload.trace import RequestTrace, generate_trace

__all__ = [
    "ExperimentConfig",
    "RunContext",
    "prepare_run",
    "iter_runs",
    "SweepResult",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all figure experiments."""

    params: WorkloadParams = field(default_factory=WorkloadParams.paper)
    """Workload shape (Table 1 by default)."""
    n_runs: int = 20
    """Independent workload generations averaged (the paper uses 20)."""
    base_seed: int = 2000
    """Root seed; run ``r`` derives workload/trace/simulation streams."""
    perturbation: PerturbationModel = PAPER_PERTURBATION
    """Actual-vs-estimated deviation model."""
    kernel: str = "batched"
    """Policy kernel (``"batched"`` | ``"sharded"``); both bit-identical —
    the sharded path fans PARTITION and both restorations out as
    per-server shards over worker processes (shard count from
    ``REPRO_SHARDS``, see :mod:`repro.core.shard`) running the batched
    engines, then runs OFF_LOADING in the parent."""
    jobs: int = 1
    """Worker processes for the sweep executor (1 = serial; results are
    bit-identical either way — see :mod:`repro.experiments.executor`)."""

    @classmethod
    def quick(cls, n_runs: int = 3) -> "ExperimentConfig":
        """Small-workload configuration for tests and fast iteration."""
        return cls(params=WorkloadParams.small(), n_runs=n_runs)

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Honour the ``REPRO_BENCH_*`` / ``REPRO_JOBS`` environment
        overrides.

        Defaults (no environment set) are sized so the full benchmark
        suite completes in minutes: a ``small``-scale workload with 5
        runs, executed serially.  Set ``REPRO_BENCH_SCALE=paper`` and
        ``REPRO_BENCH_RUNS=20`` to reproduce the paper-scale numbers
        recorded in EXPERIMENTS.md, and ``REPRO_JOBS=<n>`` to fan the
        sweeps out over ``n`` worker processes.
        """
        scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
        presets = {
            "paper": WorkloadParams.paper,
            "small": WorkloadParams.small,
            "tiny": WorkloadParams.tiny,
        }
        if scale not in presets:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(presets)}, got "
                f"{scale!r}"
            )
        params = presets[scale]()
        requests = env_positive_int("REPRO_BENCH_REQUESTS")
        if requests is not None:
            params = params.with_(requests_per_server=requests)
        n_runs = env_positive_int("REPRO_BENCH_RUNS", default=5)
        jobs = env_positive_int("REPRO_JOBS", default=1)
        try:
            kernel = resolve_kernel(os.environ.get("REPRO_KERNEL"))
        except ValueError as exc:
            raise ValueError(f"REPRO_KERNEL: {exc}") from None
        return cls(params=params, n_runs=n_runs, kernel=kernel, jobs=jobs)


@dataclass
class RunContext:
    """One experiment run: a workload, its trace, and the baseline."""

    run_index: int
    config: ExperimentConfig
    model: SystemModel
    """The *relaxed* model (all capacities unconstrained)."""
    trace: RequestTrace
    cost: CostModel
    reference: Allocation
    """Unconstrained proposed-policy allocation (pure PARTITION)."""
    reference_sim: SimulationResult
    """Its simulated response times — the normalisation baseline."""
    sim_seed: int
    trace_seed: int

    @property
    def reference_mean(self) -> float:
        """Baseline mean page response time."""
        return self.reference_sim.mean_page_time

    def relative_increase(self, sim: SimulationResult) -> float:
        """``(mean - baseline) / baseline`` for a simulated result."""
        return sim.mean_page_time / self.reference_mean - 1.0

    def retrace(self, clone: SystemModel) -> RequestTrace:
        """Regenerate this run's trace over a capacity-clone of the model.

        The clone shares pages and frequencies, so with the same seed the
        trace is identical — only the ``model`` back-reference differs
        (traces and allocations are pinned to their model instance).
        """
        return generate_trace(
            clone, self.config.params, seed=self.trace_seed
        )

    def simulate(
        self,
        alloc: Allocation,
        trace: RequestTrace | None = None,
        repo_slowdown: float = 1.0,
    ) -> SimulationResult:
        """Paired simulation: same trace, same perturbation stream."""
        return simulate_allocation(
            alloc,
            trace if trace is not None else self.trace,
            perturbation=self.config.perturbation,
            seed=self.sim_seed,
            repo_slowdown=repo_slowdown,
        )


def prepare_run(
    config: ExperimentConfig,
    run_index: int,
    relaxed: bool = True,
) -> RunContext:
    """Build (or fetch from the artifact cache) one run's context.

    ``relaxed=True`` (all figures) builds the model with unconstrained
    storage/processing/repository so the reference policy reduces to
    pure PARTITION; per-figure code then clones constrained variants.

    Seeds derive exactly as they always have — run ``r`` draws its
    ``(model, trace, sim)`` streams from ``RngFactory(base_seed)`` under
    the label ``run/r`` — so contexts are bit-identical no matter which
    process prepares them, in what order, or whether the cache hits.
    The workload, trace, and unconstrained baseline are shared through
    :mod:`repro.experiments.cache` across every sweep point and
    experiment that asks for the same content address; treat them as
    read-only (clone/copy before mutating, as the sweeps already do).
    """
    params = config.params
    if relaxed:
        params = params.with_(
            storage_capacity=np.inf,
            processing_capacity=np.inf,
            repository_capacity=np.inf,
        )
    seeds = (
        RngFactory(config.base_seed)
        .generator(f"run/{run_index}")
        .integers(0, 2**31 - 1, size=3)
    )
    model_seed, trace_seed, sim_seed = (int(s) for s in seeds)
    art = artifact_cache().get(
        params=params,
        kernel=config.kernel,
        perturbation=config.perturbation,
        model_seed=model_seed,
        trace_seed=trace_seed,
        sim_seed=sim_seed,
    )
    return RunContext(
        run_index=run_index,
        config=config,
        model=art.model,
        trace=art.trace,
        cost=art.cost,
        reference=art.reference,
        reference_sim=art.reference_sim,
        sim_seed=sim_seed,
        trace_seed=trace_seed,
    )


def iter_runs(
    config: ExperimentConfig,
    relaxed: bool = True,
) -> Iterator[RunContext]:
    """Yield one fully-prepared :class:`RunContext` per run (serially).

    The historical entry point, kept for callers that drive their own
    per-run loops; sweep-style experiments go through
    :func:`repro.experiments.executor.map_run_points` instead, which
    prepares the same contexts (same cache, same seeds) in parallel.
    """
    reg = get_registry()
    for r in range(config.n_runs):
        ctx = prepare_run(config, r, relaxed=relaxed)
        if reg.enabled:
            reg.count("experiment.runs")
            reg.count("experiment.trace_requests", ctx.trace.n_requests)
        yield ctx


@dataclass
class SweepResult:
    """A figure-style result: series of relative increases over an x-axis."""

    title: str
    x_label: str
    x_values: list[float]
    series: dict[str, list[float]]
    """Mean relative increase per x tick, per curve."""
    per_run: dict[str, list[list[float]]] = field(default_factory=dict)
    """Raw per-run values (curve -> run -> x tick)."""
    scalars: dict[str, float] = field(default_factory=dict)
    """Sweep-independent reference values (e.g. Remote/Local increases)."""
    n_runs: int = 0

    def render(self) -> str:
        """ASCII rendering of the figure."""
        lines = [
            format_series(
                self.x_label,
                [f"{x:.0%}" for x in self.x_values],
                self.series,
                title=self.title,
            )
        ]
        for name, value in self.scalars.items():
            lines.append(f"{name}: {value:+.1%}")
        lines.append(f"(averaged over {self.n_runs} runs)")
        return "\n".join(lines)

    @staticmethod
    def aggregate(per_run: list[list[float]]) -> list[float]:
        """Mean across runs for each x tick."""
        arr = np.asarray(per_run, dtype=float)
        return arr.mean(axis=0).tolist()
