"""Sharded process-parallel fan-out (``kernel="sharded"``).

The paper's pipeline pins every page to exactly one server, so its
restoring phases are *per-server decomposable*:

* **PARTITION** (Section 4.2) is per page — a page's greedy depends only
  on its own server's link parameters and its own objects;
* **storage restoration** (Eq. 10) and **processing restoration**
  (Eq. 8) are per server — every candidate score, eviction,
  re-partition and switch reads and writes only the target server's
  pages, entries and replica set.

The sharded kernel fans exactly these phases out:

1. it splits the servers into ``shards`` groups (deterministic balanced
   LPT over per-server entry counts, :func:`plan_shards`);
2. the parent cuts each group's submodel out of the model with
   :func:`~repro.core.types.restrict_to_servers` and ships it, with its
   local→global index maps, as the shard's task; the worker builds the
   submodel's :class:`~repro.core.context.EvalContext` — columns, CSR
   groups and page streams for exactly its servers' pages, so worker
   setup is O(shard) instead of O(model) — and runs PARTITION + both
   restorations on it (:func:`_run_shard`);
3. the parent merges the per-shard mark/replica frontiers (shipped as
   *global* entry indices) into one global
   :class:`~repro.core.allocation.Allocation` (:func:`run_shard_fanout`).

Everything after the merge — OFF_LOADING (one repository-side
negotiation over the global Eq. 9 frontier), the constraint report, the
objectives and the :class:`~repro.core.policy.PolicyResult` — runs once,
in :meth:`RepositoryReplicationPolicy._run
<repro.core.policy.RepositoryReplicationPolicy._run>`'s tail, the same
code the ``"batched"`` kernel runs.

Bit-identity is the contract, not an aspiration: the merged allocation,
stats and phase list equal the ``"batched"`` kernel's exactly
(property-tested in ``tests/properties/test_property_sharded_policy.py``
and pinned by the golden regressions).  Two details make that hold:

* restoration stats are merged in **global server order**, reproducing
  the reference loop's accumulation sequence;
* the restricted model preserves *order*: objects keep their global
  ids, pages/entries are renumbered by a strictly increasing map, so
  every score, float partial sum and index tie-break inside a shard
  matches the full-model run restricted to that shard (DESIGN.md
  Appendix F).

Objectives are never summed per shard: the policy evaluates them over
the merged marks, so float summation order matches the batched run.

Transport: each task pickles its own submodel
(a :class:`~repro.core.types.ColumnarModel` of flat columns, no spec
tuples, O(shard) bytes) and its index maps; shard results (index
arrays, O(shard frontier)) come back pickled.  Nothing is cached
across runs and nothing outlives a task.

Worker processes come from an *injected* pool: anything with a
``submit(fn, *args) -> future`` method (the layering lint enforces that
this module never imports ``repro.experiments`` — pass
``repro.experiments.executor.persistent_pool(n)`` in from above, or let
:func:`default_pool` build a private stdlib pool).
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro import obs
from repro.core.allocation import Allocation
from repro.core.constraints import evaluate_constraints
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import (
    ProcessingRestorationStats,
    StorageRestorationStats,
    _restore_processing,
    _restore_storage,
)
from repro.core.types import ColumnarModel, SystemModel, restrict_to_servers
from repro.obs.manifest import WORKER_ENV_VAR
from repro.obs.registry import MetricsRegistry, use_registry
from repro.util.validation import env_positive_int

__all__ = [
    "ShardPool",
    "InlineShardPool",
    "ShardFanout",
    "default_pool",
    "shutdown_shard_pool",
    "resolve_shards",
    "plan_shards",
    "run_shard_fanout",
]


# ----------------------------------------------------------------------
# pool injection
# ----------------------------------------------------------------------
class ShardPool(Protocol):
    """What the sharded fan-out needs from a worker pool.

    :class:`concurrent.futures.ProcessPoolExecutor` satisfies it, as
    does the persistent pool in ``repro.experiments.executor`` — which
    must be *passed in* by an upper layer, never imported from here.
    """

    def submit(self, fn, /, *args, **kwargs) -> Any:  # pragma: no cover
        """Schedule ``fn(*args, **kwargs)``; return a future with ``result()``."""
        ...


class InlineShardPool:
    """Serial in-process pool: ``submit`` runs the task immediately.

    The deterministic no-subprocess harness for the differential tests
    (Hypothesis drives hundreds of examples; forking per example would
    dominate) and a zero-dependency fallback anywhere process pools are
    unavailable.  Tasks receive the fan-out's submodels and maps as
    they are, without a pickle round trip.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirror executor semantics
            future.set_exception(exc)
        return future


_POOL: ProcessPoolExecutor | None = None
_POOL_SIZE = 0


def _shard_worker_init() -> None:
    """Tag the process as a worker so run manifests get per-worker paths."""
    os.environ[WORKER_ENV_VAR] = str(os.getpid())


def default_pool(workers: int) -> ProcessPoolExecutor:
    """A persistent private pool of at least ``workers`` processes.

    Used when no pool is injected.  Persistent for the same reason the
    experiment executor's pool is: back-to-back runs (benchmark repeats,
    golden tests) skip the process start-up and worker imports.
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_shard_worker_init
        )
        _POOL_SIZE = workers
    return _POOL


def shutdown_shard_pool() -> None:
    """Tear down the private default pool."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0


atexit.register(shutdown_shard_pool)


# ----------------------------------------------------------------------
# shard-count resolution and planning
# ----------------------------------------------------------------------
def resolve_shards(
    shards: int | None = None, n_servers: int | None = None
) -> int | None:
    """Resolve the shard count: explicit value, else ``REPRO_SHARDS``, else auto.

    Mirrors ``repro.experiments.executor.resolve_jobs``: explicit
    non-positive / non-integer values and malformed environment values
    raise :class:`ValueError` naming the offending source.  With
    ``n_servers`` known, auto resolves to
    ``min(n_servers, cpu_count)`` and any request exceeding the server
    count is rejected — a shard owns whole servers, so there is nothing
    for an extra shard to do.  Without ``n_servers`` (e.g. CLI argument
    validation before a model exists) an unset value stays ``None``.
    """
    if shards is None:
        shards = env_positive_int("REPRO_SHARDS", default=None)
    elif isinstance(shards, bool) or not isinstance(shards, int):
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    elif shards <= 0:
        raise ValueError(f"shards must be a positive integer, got {shards}")
    if shards is None:
        if n_servers is None:
            return None
        shards = max(1, min(n_servers, os.cpu_count() or 1))
    if n_servers is not None and shards > n_servers:
        raise ValueError(
            f"shards must not exceed the model's server count "
            f"({n_servers}), got {shards}"
        )
    return shards


def _server_weights(model: SystemModel) -> np.ndarray:
    """Per-server work proxy: compulsory + optional entry counts.

    The restoration loops' cost scales with the number of matrix entries
    a server owns, so balancing entry counts balances shard wall-clock.
    Computed from the flat model arrays — no context build needed.
    """
    comp_per_page = np.diff(model.comp_indptr)
    opt_per_page = np.diff(model.opt_indptr)
    return np.bincount(
        model.page_server,
        weights=(comp_per_page + opt_per_page).astype(float),
        minlength=model.n_servers,
    )


def plan_shards(model: SystemModel, shards: int) -> tuple[tuple[int, ...], ...]:
    """Deterministically split the servers into ``shards`` balanced groups.

    Longest-processing-time greedy over :func:`_server_weights`: servers
    in decreasing weight order (ties by ascending id) each go to the
    currently lightest group (load ties broken by fewest members, then
    lowest group index — so zero-weight servers spread out instead of
    piling into group 0).  With ``shards <= n_servers`` every group
    therefore receives at least one server; a group holding only
    zero-weight servers (servers with no pages) is a valid *empty
    shard* — its worker is a structured no-op.

    Returns the groups with each group's server ids ascending.  Group
    composition is a pure function of the model, so two runs over equal
    models shard identically.
    """
    n_servers = model.n_servers
    if shards < 1 or shards > n_servers:
        raise ValueError(
            f"shards must be between 1 and the model's server count "
            f"({n_servers}), got {shards}"
        )
    weights = _server_weights(model)
    order = sorted(range(n_servers), key=lambda i: (-weights[i], i))
    loads = [0.0] * shards
    groups: list[list[int]] = [[] for _ in range(shards)]
    for i in order:
        g = min(range(shards), key=lambda s: (loads[s], len(groups[s]), s))
        groups[g].append(i)
        loads[g] += float(weights[i])
    return tuple(tuple(sorted(g)) for g in groups)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardOptions:
    """Per-run knobs shipped to every shard worker."""

    alpha1: float
    alpha2: float
    optional_policy: str
    record: bool


@dataclass
class _ShardResult:
    """One shard's candidate frontier, shipped back for the merge.

    Marks travel as **global entry indices** (only the set positions)
    rather than full-length booleans: a shard can only set entries it
    owns, so the parent merge is a plain index assignment, and the
    payload shrinks from O(model) to O(shard frontier).  Replicas are a
    CSR pair (``replica_objects`` concatenated per server in
    ``server_ids`` order, ``replica_indptr`` bounds).
    """

    server_ids: tuple[int, ...]
    n_pages: int
    n_entries: int
    comp_partition_idx: np.ndarray
    opt_partition_idx: np.ndarray
    comp_final_idx: np.ndarray
    opt_final_idx: np.ndarray
    replica_objects: np.ndarray
    replica_indptr: np.ndarray
    storage_ran: bool
    processing_ran: bool
    storage_stats: list[tuple[int, StorageRestorationStats]]
    processing_stats: list[tuple[int, ProcessingRestorationStats]]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    snapshot: dict | None = None


def _shard_pipeline(
    sub: ColumnarModel, maps: dict[str, np.ndarray], opts: _ShardOptions
) -> _ShardResult:
    """PARTITION + both restorations for one group of servers.

    Each restoration runs once, in lockstep over all of the group's
    servers; its per-server stats are kept apart so the parent can
    merge them across shards in global server order.

    Runs on the group's **submodel** (``restrict_to_servers``): its
    context holds columns, streams and CSR groups for exactly this
    group's pages, so the worker never touches (or pays for) the other
    shards' entries.  Identity with the full-model run holds because
    the restriction is order-preserving (module docstring); results are
    mapped back to global ids through ``maps``.

    Phase gating matches the reference pipeline exactly: the reference
    gates each restoration on the *global* constraint report, but both
    constraints are per-server decomposable and restoring a
    non-violating server is a no-op, so gating on the local report
    yields the same allocation — and the parent ORs the per-shard flags
    to reconstruct the global phase list.
    """
    t0 = time.perf_counter()
    server_ids = maps["servers"]
    cost = CostModel(sub, opts.alpha1, opts.alpha2)
    phase_seconds: dict[str, float] = {}

    t = time.perf_counter()
    alloc = partition_all(sub, optional_policy=opts.optional_policy)
    phase_seconds["partition"] = time.perf_counter() - t
    comp_partition = alloc.comp_local.copy()
    opt_partition = alloc.opt_local.copy()

    report = evaluate_constraints(alloc)
    n_local = len(server_ids)
    local = list(range(n_local))
    storage_stats: list[tuple[int, StorageRestorationStats]] = []
    storage_ran = bool(report.violated_servers_storage())
    if storage_ran:
        t = time.perf_counter()
        for li, stats in _restore_storage(alloc, cost, local).items():
            # eviction records carry server ids — map back to global
            # (object ids are already global in the restricted model)
            stats.evicted_objects = [
                (int(server_ids[s]), k) for s, k in stats.evicted_objects
            ]
            storage_stats.append((int(server_ids[li]), stats))
        phase_seconds["storage-restoration"] = time.perf_counter() - t
        report = evaluate_constraints(alloc)

    processing_stats: list[tuple[int, ProcessingRestorationStats]] = []
    processing_ran = bool(report.violated_servers_processing())
    if processing_ran:
        t = time.perf_counter()
        processing_stats = [
            (int(server_ids[li]), stats)
            for li, stats in _restore_processing(alloc, cost, local).items()
        ]
        phase_seconds["processing-restoration"] = time.perf_counter() - t

    replica_indptr = np.zeros(n_local + 1, dtype=np.int64)
    for li in range(n_local):
        replica_indptr[li + 1] = replica_indptr[li] + len(alloc.replicas[li])
    replica_objects = np.zeros(int(replica_indptr[-1]), dtype=np.int64)
    for li in range(n_local):
        replica_objects[replica_indptr[li] : replica_indptr[li + 1]] = sorted(
            alloc.replicas[li]
        )

    ge_c = maps["comp_entries"]
    ge_o = maps["opt_entries"]
    return _ShardResult(
        server_ids=tuple(int(i) for i in server_ids),
        n_pages=int(sub.n_pages),
        n_entries=int(len(sub.comp_objects) + len(sub.opt_objects)),
        comp_partition_idx=ge_c[comp_partition],
        opt_partition_idx=ge_o[opt_partition],
        comp_final_idx=ge_c[alloc.comp_local],
        opt_final_idx=ge_o[alloc.opt_local],
        replica_objects=replica_objects,
        replica_indptr=replica_indptr,
        storage_ran=storage_ran,
        processing_ran=processing_ran,
        storage_stats=storage_stats,
        processing_stats=processing_stats,
        phase_seconds=phase_seconds,
        seconds=time.perf_counter() - t0,
    )


def _run_shard(
    sub: ColumnarModel, maps: dict[str, np.ndarray], opts: _ShardOptions
) -> _ShardResult:
    """Worker entry point: run the shard pipeline on the shipped
    submodel, recording into a private registry when the parent is
    collecting, and return the shard frontier."""
    registry = MetricsRegistry() if opts.record else None
    with use_registry(registry):
        result = _shard_pipeline(sub, maps, opts)
    if registry is not None:
        result.snapshot = registry.snapshot()
    return result


# ----------------------------------------------------------------------
# parent side: fan out and merge
# ----------------------------------------------------------------------
@dataclass
class ShardFanout:
    """The merged frontier of one sharded PARTITION + restoration pass.

    What :meth:`RepositoryReplicationPolicy._run
    <repro.core.policy.RepositoryReplicationPolicy._run>` needs to carry
    on exactly where the batched kernel's restorations leave off.
    """

    allocation: Allocation
    """The merged post-restoration allocation."""
    comp_partition: np.ndarray
    """Compulsory marks right after PARTITION (global entry order)."""
    opt_partition: np.ndarray
    """Optional marks right after PARTITION (global entry order)."""
    storage_stats: StorageRestorationStats
    processing_stats: ProcessingRestorationStats
    phases: list[str]
    """Phases run so far: ``"partition"`` plus each restoration that
    ran in any shard."""
    phase_seconds: dict[str, float] = field(default_factory=dict)
    """Per-phase wall clock (slowest shard) and the whole fan-out;
    populated only when a recording registry was active."""


def run_shard_fanout(
    model: SystemModel,
    alpha1: float = 2.0,
    alpha2: float = 1.0,
    optional_policy: str = "all",
    shards: int | None = None,
    pool: ShardPool | None = None,
) -> ShardFanout:
    """PARTITION + both restorations, sharded over a worker pool.

    Bit-identical to the batched kernel's first three phases on the
    allocation, the post-PARTITION marks, the stats and the phase list —
    see the module docstring for why.

    Parameters
    ----------
    shards:
        Group count; resolved via :func:`resolve_shards` (explicit →
        ``REPRO_SHARDS`` → ``min(n_servers, cpu_count)``).
    pool:
        Injected :class:`ShardPool`; defaults to this module's private
        persistent :func:`default_pool`.  Pass
        :class:`InlineShardPool` to run serially in-process.
    """
    if getattr(model, "n_streams", 2) > 2:
        raise NotImplementedError(
            "the sharded kernel supports the k=2 topology only; run "
            'kernel="batched" for k-stream replica meshes '
            "(sharded k>2 is a planned follow-up)"
        )
    reg = obs.get_registry()
    n_shards = resolve_shards(shards, n_servers=model.n_servers)
    groups = plan_shards(model, n_shards)
    if pool is None:
        pool = default_pool(len(groups))
    opts = _ShardOptions(
        alpha1=alpha1,
        alpha2=alpha2,
        optional_policy=optional_policy,
        record=reg.enabled,
    )

    with reg.span("shard-fanout") as fan:
        futures = [
            pool.submit(_run_shard, *restrict_to_servers(model, g), opts)
            for g in groups
        ]
        results: list[_ShardResult] = [f.result() for f in futures]

    ne_c = len(model.comp_objects)
    ne_o = len(model.opt_objects)
    comp_part = np.zeros(ne_c, dtype=bool)
    opt_part = np.zeros(ne_o, dtype=bool)
    comp_fin = np.zeros(ne_c, dtype=bool)
    opt_fin = np.zeros(ne_o, dtype=bool)
    replicas: list[set[int] | None] = [None] * model.n_servers
    for r in results:
        comp_part[r.comp_partition_idx] = True
        opt_part[r.opt_partition_idx] = True
        comp_fin[r.comp_final_idx] = True
        opt_fin[r.opt_final_idx] = True
        indptr = r.replica_indptr
        objs = r.replica_objects
        for li, gi in enumerate(r.server_ids):
            replicas[gi] = set(objs[int(indptr[li]) : int(indptr[li + 1])].tolist())
    assert all(r is not None for r in replicas), "shard plan missed a server"

    phases: list[str] = ["partition"]
    # Stats merge in global server order — the reference loop's
    # accumulation sequence, so float partial sums match bitwise.
    storage_stats = StorageRestorationStats()
    if any(r.storage_ran for r in results):
        phases.append("storage-restoration")
        by_server = {i: s for r in results for i, s in r.storage_stats}
        for i in sorted(by_server):
            storage_stats.merge(by_server[i])

    processing_stats = ProcessingRestorationStats()
    if any(r.processing_ran for r in results):
        phases.append("processing-restoration")
        by_server = {i: s for r in results for i, s in r.processing_stats}
        for i in sorted(by_server):
            processing_stats.merge(by_server[i])

    phase_seconds: dict[str, float] = {}
    if reg.enabled:
        for idx, r in enumerate(results):
            reg.gauge(f"shard.{idx}.servers", float(len(r.server_ids)))
            reg.gauge(f"shard.{idx}.pages", float(r.n_pages))
            reg.gauge(f"shard.{idx}.entries", float(r.n_entries))
            reg.gauge(f"shard.{idx}.seconds", r.seconds)
            if r.snapshot is not None:
                reg.merge_snapshot(r.snapshot)
        reg.gauge("shard.count", float(len(groups)))
        reg.gauge("policy.context_entries_full", float(ne_c + ne_o))
        # The slowest shard bounds each fanned-out phase.
        for name in phases:
            phase_seconds[name] = max(
                r.phase_seconds.get(name, 0.0) for r in results
            )
        phase_seconds["shard-fanout"] = fan.seconds

    return ShardFanout(
        allocation=Allocation(model, comp_fin, opt_fin, replicas=replicas),
        comp_partition=comp_part,
        opt_partition=opt_part,
        storage_stats=storage_stats,
        processing_stats=processing_stats,
        phases=phases,
        phase_seconds=phase_seconds,
    )
