"""End-to-end replication policy: the paper's full Section 4 pipeline.

:class:`RepositoryReplicationPolicy` chains

1. **PARTITION** over every page (unconstrained stream balancing),
2. **storage restoration** (Eq. 10) per server,
3. **local processing restoration** (Eq. 8) per server,
4. **OFF_LOADING_REPOSITORY** (Eq. 9) between repository and servers,

and returns the final :class:`~repro.core.allocation.Allocation` together
with full accounting (:class:`PolicyResult`).  Steps 2-4 are skipped
automatically when the respective constraint already holds, so running
the policy on an unconstrained model reduces to pure PARTITION — the
paper's "optimised" reference point in Figure 1.

Steps 1-3 are per server, so ``kernel="sharded"`` may fan them out to
worker processes (:func:`repro.core.shard.run_shard_fanout`).  Step 4,
the constraint report, the objective and the result are one code path
for both kernels.

Observability: each phase runs inside a :mod:`repro.obs` span and the
result feeds phase-level counters/gauges into the active registry.  With
observability disabled (the default) every hook is a no-op and results
are bit-identical to the uninstrumented pipeline; with ``REPRO_METRICS``
set (and no registry already collecting), each ``run`` writes its own
JSON run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.allocation import Allocation
from repro.core.constraints import ConstraintReport, evaluate_constraints
from repro.core.cost_model import CostModel
from repro.core.offload import OffloadConfig, OffloadOutcome, offload_repository
from repro.core.partition import Kernel, OptionalPolicy, partition_all, resolve_kernel
from repro.core.restoration import (
    ProcessingRestorationStats,
    StorageRestorationStats,
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.types import SystemModel

__all__ = ["RepositoryReplicationPolicy", "PolicyResult"]


@dataclass
class PolicyResult:
    """Outcome of one policy run."""

    allocation: Allocation
    objective: float
    """Final composite objective ``D`` (Eq. 7)."""
    constraints: ConstraintReport
    storage_stats: StorageRestorationStats
    processing_stats: ProcessingRestorationStats
    offload_outcome: OffloadOutcome | None
    unconstrained_objective: float = 0.0
    """``D`` right after PARTITION, before any restoration."""
    phases_run: list[str] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per executed phase.  Populated only when a
    recording :mod:`repro.obs` registry was active during the run."""

    @property
    def feasible(self) -> bool:
        """Whether all constraints hold at exit (offload may fail to
        restore Eq. 9, mirroring the paper's BREAK branch)."""
        return self.constraints.ok

    def summary(self) -> str:
        """Human-readable one-paragraph account of the run."""
        parts = [
            f"D = {self.objective:.4g} (post-PARTITION "
            f"{self.unconstrained_objective:.4g})",
            f"phases: {', '.join(self.phases_run) or 'partition only'}",
            self.constraints.summary(),
        ]
        if self.storage_stats.evictions:
            parts.append(
                f"storage: {self.storage_stats.evictions} evictions, "
                f"{self.storage_stats.bytes_freed / 2**20:.1f} MiB freed"
            )
        if self.processing_stats.switches:
            parts.append(
                f"processing: {self.processing_stats.switches} downloads "
                "switched to repository"
            )
        if self.offload_outcome and self.offload_outcome.rounds:
            o = self.offload_outcome
            parts.append(
                f"off-loading: {o.rounds} rounds, {o.messages} messages, "
                f"{o.total_absorbed:.2f} req/s absorbed, "
                f"{'restored' if o.restored else 'NOT restored'}"
            )
        return "; ".join(parts)


class RepositoryReplicationPolicy:
    """The proposed replication policy (the paper's "our policy").

    Parameters
    ----------
    alpha1, alpha2:
        Objective weights of Eq. 7 (Table 1 uses ``(2, 1)``).
    optional_policy:
        How optional objects are initially marked; see
        :mod:`repro.core.partition`.
    offload_config:
        Tunables for the Eq. 9 negotiation.
    kernel:
        Policy kernel: ``"batched"`` (default, the vectorized engine of
        every phase) or ``"sharded"`` (PARTITION and both restorations
        fan out as per-server shards on a process pool running that
        engine, see :mod:`repro.core.shard`; OFF_LOADING and the rest
        run in this process as for ``"batched"``).  Both produce
        bit-identical results.  Validated on construction
        (surrounding whitespace and case are ignored); an unknown name
        raises :class:`ValueError`.
    shards:
        Shard count for ``kernel="sharded"`` (default: ``REPRO_SHARDS``
        if set, else ``min(n_servers, cpu_count)``).  An explicit value
        must be a positive integer under either kernel (checked on
        construction); one above the model's server count is rejected
        when :meth:`run` meets the model.  Unused by the
        single-process kernel.
    pool:
        Worker pool for ``kernel="sharded"`` — anything with a
        ``submit()`` method (e.g.
        ``repro.experiments.executor.persistent_pool(n)`` or
        :class:`repro.core.shard.InlineShardPool`).  ``None`` uses the
        shard module's private persistent pool.

    Examples
    --------
    >>> from repro.workload import WorkloadParams, generate_workload
    >>> model = generate_workload(WorkloadParams.small(), seed=7)
    >>> result = RepositoryReplicationPolicy().run(model)
    >>> result.feasible
    True
    """

    name = "repository-replication"

    def __init__(
        self,
        alpha1: float = 2.0,
        alpha2: float = 1.0,
        optional_policy: OptionalPolicy = "all",
        offload_config: OffloadConfig | None = None,
        kernel: Kernel = "batched",
        shards: int | None = None,
        pool=None,
    ):
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.optional_policy: OptionalPolicy = optional_policy
        self.offload_config = offload_config or OffloadConfig()
        self.kernel: Kernel = resolve_kernel(kernel)
        if shards is not None:
            from repro.core.shard import resolve_shards

            # type and sign now; the server-count bound needs the model
            resolve_shards(shards)
        self.shards = shards
        self.pool = pool

    def cost_model(self, model: SystemModel) -> CostModel:
        """The cost model this policy optimises against."""
        return CostModel(model, self.alpha1, self.alpha2)

    def run(self, model: SystemModel) -> PolicyResult:
        """Execute the full pipeline on ``model``.

        When ``REPRO_METRICS`` is set and no registry is already
        collecting (e.g. a bare library call outside the CLI or the
        benchmark suite), the run collects its own metrics and writes a
        manifest to the path the variable names.
        """
        out = obs.env_metrics_path()
        if out is None or obs.metrics_enabled():
            return self._run(model)
        run_info = {
            "entry": "RepositoryReplicationPolicy.run",
            "kernel": self.kernel,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "optional_policy": self.optional_policy,
            "n_servers": model.n_servers,
            "n_pages": model.n_pages,
            "n_objects": model.n_objects,
        }
        holder: dict = {}
        with obs.collect(run=run_info, out=out, name="policy", policy=holder):
            holder["result"] = self._run(model)
        return holder["result"]

    def _run(self, model: SystemModel) -> PolicyResult:
        reg = obs.get_registry()
        cost = self.cost_model(model)
        spans: dict[str, obs.SpanRecord] = {}
        fanout_seconds: dict[str, float] = {}
        with reg.span("policy"):
            if self.kernel == "sharded":
                # PARTITION and both restorations are per server: worker
                # shards run them and the parent merges their frontiers,
                # bit-identical to the inline phases below.  Imported
                # here so batched runs never load the process-pool code.
                from repro.core.shard import run_shard_fanout

                fan = run_shard_fanout(
                    model,
                    alpha1=self.alpha1,
                    alpha2=self.alpha2,
                    optional_policy=self.optional_policy,
                    shards=self.shards,
                    pool=self.pool,
                )
                alloc = fan.allocation
                unconstrained_d = cost.D(
                    Allocation(model, fan.comp_partition, fan.opt_partition)
                )
                storage_stats = fan.storage_stats
                processing_stats = fan.processing_stats
                phases = fan.phases
                fanout_seconds = fan.phase_seconds
                report = evaluate_constraints(alloc)
            else:
                with reg.span("partition") as sp:
                    spans["partition"] = sp
                    alloc = partition_all(
                        model,
                        optional_policy=self.optional_policy,
                        kernel=self.kernel,
                    )
                unconstrained_d = cost.D(alloc)
                phases = ["partition"]

                report = evaluate_constraints(alloc)
                storage_stats = StorageRestorationStats()
                if not report.storage_ok:
                    with reg.span("storage-restoration") as sp:
                        spans["storage-restoration"] = sp
                        storage_stats = restore_storage_capacity(
                            alloc, cost, kernel=self.kernel
                        )
                    phases.append("storage-restoration")
                    report = evaluate_constraints(alloc)

                processing_stats = ProcessingRestorationStats()
                if not report.local_ok:
                    with reg.span("processing-restoration") as sp:
                        spans["processing-restoration"] = sp
                        processing_stats = restore_processing_capacity(
                            alloc, cost, kernel=self.kernel
                        )
                    phases.append("processing-restoration")
                    report = evaluate_constraints(alloc)

            offload_outcome: OffloadOutcome | None = None
            if not report.repo_ok:
                with reg.span("off-loading") as sp:
                    spans["off-loading"] = sp
                    offload_outcome = offload_repository(
                        alloc, cost, self.offload_config, kernel=self.kernel
                    )
                phases.append("off-loading")
                report = evaluate_constraints(alloc)

            objective = cost.D(alloc)

        phase_seconds: dict[str, float] = {}
        if reg.enabled:
            phase_seconds = {
                **fanout_seconds,
                **{name: sp.seconds for name, sp in spans.items()},
            }
            reg.count("policy.runs")
            reg.gauge("policy.objective", objective)
            reg.gauge("policy.unconstrained_objective", unconstrained_d)
            reg.gauge("policy.feasible", float(report.ok))
            reg.gauge("policy.phases_run", float(len(phases)))

        return PolicyResult(
            allocation=alloc,
            objective=objective,
            constraints=report,
            storage_stats=storage_stats,
            processing_stats=processing_stats,
            offload_outcome=offload_outcome,
            unconstrained_objective=unconstrained_d,
            phases_run=phases,
            phase_seconds=phase_seconds,
        )
