"""Sharded process-parallel policy kernel (``kernel="sharded"``).

The paper's pipeline pins every page to exactly one server, which makes
the hot phases *per-server decomposable*:

* **PARTITION** (Section 4.2) is per page — a page's greedy depends only
  on its own server's link parameters and its own objects;
* **storage restoration** (Eq. 10) and **processing restoration**
  (Eq. 8) are per server — every candidate score, eviction,
  re-partition and switch reads and writes only the target server's
  pages, entries and replica set;
* even **OFF_LOADING**'s server-side *absorption* (the inner loop of
  Eq. 9's negotiation) only touches the absorbing server — only the
  repository-side round bookkeeping (``NewReq`` shares, ``L3``
  demotion, message counts) is order-sensitive.

The sharded kernel exploits all three:

1. it splits the servers into ``shards`` groups (deterministic balanced
   LPT over per-server entry counts, :func:`plan_shards`);
2. each worker process builds a **shard-local**
   :class:`~repro.core.context.EvalContext` via
   :meth:`~repro.core.context.EvalContext.for_servers` — columns, CSR
   groups and page streams for exactly its servers' pages, so worker
   setup is O(shard) instead of O(model) — and runs PARTITION + both
   restorations on the restricted model (:func:`_run_shard`);
3. the parent reconciles: scatters the per-shard mark/replica frontiers
   (shipped as *global* entry indices) back into one global
   :class:`~repro.core.allocation.Allocation`, recomputes objectives
   and constraints over the merged state, and replays the
   OFF_LOADING rounds with the repository-side bookkeeping in-process
   while each round's per-server absorptions scatter to the pool
   (:class:`_ShardedScatter` → :func:`_absorb_shard_batch`).

OFF_LOADING rounds are **delta rounds** (DESIGN.md Appendix I): each
worker keeps its shard's ``Allocation`` + shard-local ``EvalContext``
*resident* between submissions, keyed by ``(session, shard)`` and
validated by an exact-match round epoch.  The fan-out seeds the
resident state for free (a shard's post-restoration allocation *is*
the merged allocation restricted to that shard), so in steady state a
round ships only the round's absorption requests down and the flipped
``(server, object)`` marks back — O(round delta), not O(model).  All
of a round's absorptions addressed to the same shard travel in **one
batched submission**, routed to a pinned worker process by
:class:`_AffinityPool.submit_to`.  An epoch mismatch (different pool,
evicted state, forced ``REPRO_OFFLOAD_RESYNC_EVERY``) degrades to a
full resync: the parent re-ships the shard's mark/replica state —
through the parent-owned shared-memory **mark frontier** the workers
attach read-only when shm is on, or as pickled arrays otherwise —
and the round proceeds identically (bit-identity never depends on the
fast path being taken).

Bit-identity is the contract, not an aspiration: the merged allocation,
objective, stats and phase list equal the ``"batched"`` kernel's exactly
(property-tested in ``tests/properties/test_property_sharded_policy.py``
and pinned by the golden regressions).  Three details make that hold:

* objectives are evaluated in the **parent** over merged marks — a
  per-shard partial ``np.dot`` would change float summation order;
* restoration stats are merged in **global server order**, reproducing
  the reference loop's accumulation sequence;
* the restricted model preserves *order*: objects keep their global
  ids, pages/entries are renumbered by a strictly increasing map, so
  every score, float partial sum and index tie-break inside a shard
  matches the full-model run restricted to that shard (DESIGN.md
  Appendix H).

Transport: models ship to workers through a
:class:`~repro.core.shm.ShmArena` (one shared-memory segment holding
the immutable flat columns; workers rebuild a
:class:`~repro.core.types.ColumnarModel` over zero-copy views) when
shared memory is available, falling back to a content-addressed pickle
blob otherwise (``REPRO_SHM`` / the ``shm`` parameter override, see
:func:`repro.core.shm.resolve_shm`).  Shard results ride back the same
way.  Both sides cache by content digest in small LRUs that release
their shm handles on eviction.

Worker processes come from an *injected* pool: anything with a
``submit(fn, *args) -> future`` method (the layering lint enforces that
this module never imports ``repro.experiments`` — pass
``repro.experiments.executor.persistent_pool(n)`` in from above, or let
:func:`default_pool` build a private stdlib pool).
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

import numpy as np

from repro import obs
from repro.core.allocation import Allocation
from repro.core.constraints import evaluate_constraints
from repro.core.context import EvalContext
from repro.core.cost_model import CostModel
from repro.core.fast_partition import optional_marks_batched, partition_pages_batched
from repro.core.offload import (
    OffloadConfig,
    OffloadOutcome,
    absorb_extra_workload,
    offload_repository,
)
from repro.core.restoration import (
    ProcessingRestorationStats,
    StorageRestorationStats,
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.shm import ShmArena, resolve_shm
from repro.core.types import (
    MODEL_COLUMN_FIELDS,
    ColumnarModel,
    SystemModel,
    pack_replicas,
    unpack_replicas,
)
from repro.obs.manifest import WORKER_ENV_VAR
from repro.obs.registry import MetricsRegistry, use_registry
from repro.util.validation import env_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import PolicyResult

__all__ = [
    "ShardPool",
    "InlineShardPool",
    "default_pool",
    "shutdown_shard_pool",
    "resolve_shards",
    "plan_shards",
    "run_sharded_policy",
]


# ----------------------------------------------------------------------
# pool injection
# ----------------------------------------------------------------------
class ShardPool(Protocol):
    """What the sharded driver needs from a worker pool.

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
    unavailable.  Because it runs in-process, the driver skips both the
    pickle round-trip and the shared-memory transport (``inline =
    True``).
    """

    inline = True

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirror executor semantics
            future.set_exception(exc)
        return future


_POOL: "_AffinityPool | None" = None
_POOL_SIZE = 0


def _shard_worker_init() -> None:
    """Tag the process as a worker so run manifests get per-worker paths."""
    os.environ[WORKER_ENV_VAR] = str(os.getpid())


class _AffinityPool:
    """``workers`` single-process executors with stable index routing.

    Worker-resident shard state (DESIGN.md Appendix I) only pays off if
    shard ``g``'s submissions keep landing on the same OS process — a
    shared :class:`~concurrent.futures.ProcessPoolExecutor` routes to
    whichever worker is free, which would turn every delta round into
    an epoch-mismatch resync.  This pool pins routing instead:
    :meth:`submit_to` sends a task to executor ``idx % workers``, so
    the sharded driver maps shard → worker one-to-one.  Plain
    :meth:`submit` (the :class:`ShardPool` protocol) round-robins.

    Pools without ``submit_to`` still work everywhere it is used — the
    driver falls back to ``submit`` and the epoch validation downgrades
    misrouted batches to resyncs (correct, just slower).
    """

    def __init__(self, workers: int):
        self._execs = tuple(
            ProcessPoolExecutor(max_workers=1, initializer=_shard_worker_init)
            for _ in range(workers)
        )
        self._rr = itertools.count()

    def __len__(self) -> int:
        return len(self._execs)

    def submit(self, fn, /, *args, **kwargs) -> Any:
        return self.submit_to(next(self._rr), fn, *args, **kwargs)

    def submit_to(self, idx: int, fn, /, *args, **kwargs) -> Any:
        """Schedule ``fn`` on the executor pinned to ``idx`` (mod size)."""
        return self._execs[idx % len(self._execs)].submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        for ex in self._execs:
            ex.shutdown(wait=wait, cancel_futures=cancel_futures)


def default_pool(workers: int) -> _AffinityPool:
    """A persistent private pool of at least ``workers`` processes.

    Used when no pool is injected.  Persistent for the same reason the
    experiment executor's pool is: workers cache unpickled models by
    content digest, so back-to-back runs (benchmark repeats, golden
    tests) skip the per-run model transfer cost — and, since PR 9,
    worker-resident shard state survives across a run's off-loading
    rounds.  The pool is an :class:`_AffinityPool`, so shard → process
    routing is stable.
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = _AffinityPool(workers)
        _POOL_SIZE = workers
    return _POOL


def shutdown_shard_pool() -> None:
    """Tear down the private default pool and release parent shm arenas."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0
    _PARENT_ARENAS.clear()


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
# content-addressed model transport
# ----------------------------------------------------------------------
class _Lru:
    """Tiny ordered LRU with an eviction callback.

    Both model caches (worker-side unpickled/attached models, parent-side
    model arenas) hold shared-memory resources that must be released the
    moment an entry falls out — a plain dict would leak segments until
    process exit.
    """

    def __init__(
        self, cap: int, on_evict: Callable[[str, Any], None] | None = None
    ):
        self._cap = cap
        self._on_evict = on_evict
        self._data: OrderedDict[str, Any] = OrderedDict()

    def get(self, key: str) -> Any | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self._cap:
            k, v = self._data.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(k, v)

    def values(self):
        return self._data.values()

    def clear(self) -> None:
        while self._data:
            k, v = self._data.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(k, v)

    def __len__(self) -> int:
        return len(self._data)


def _model_digest(model: SystemModel) -> str:
    """Content digest of the model's flat columns (cached on the model).

    Hashes the raw column buffers plus the repository spec and shape
    header — no full-model pickle, so the shm fast path never serialises
    the arrays at all.  Cached under an underscore attribute, which the
    model's ``__getstate__`` strips, so the digest never travels.
    """
    cached = getattr(model, "_repro_model_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(
        pickle.dumps(
            (model.repository, model.n_servers, model.n_pages, model.n_objects),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    for name in MODEL_COLUMN_FIELDS:
        a = np.ascontiguousarray(getattr(model, name))
        h.update(name.encode())
        h.update(memoryview(a).cast("B"))
    digest = h.hexdigest()
    model._repro_model_digest = digest
    return digest


#: Parent-side arenas holding each model's columns in shared memory,
#: keyed by content digest.  Two entries cover the common interleavings
#: (e.g. a benchmark alternating between a constrained and an
#: unconstrained clone); eviction destroys the segment — safe because
#: every payload referencing an arena is consumed within its own
#: ``run_sharded_policy`` call, before any other model can evict it.
_PARENT_ARENAS = _Lru(2, lambda _digest, arena: arena.destroy())


def _model_arena(model: SystemModel) -> tuple[str, ShmArena]:
    """The (digest, arena) pair for ``model``, creating the arena once."""
    digest = _model_digest(model)
    arena = _PARENT_ARENAS.get(digest)
    if arena is None:
        arena = ShmArena.create(
            {name: getattr(model, name) for name in MODEL_COLUMN_FIELDS},
            owner=True,
        )
        _PARENT_ARENAS.put(digest, arena)
    return digest, arena


def _evict_worker_model(_digest: str, value: tuple) -> None:
    """Release an evicted worker model's shm mapping.

    Safe even though the evicted model's columns are views into the
    arena: the LRU held the only strong reference, so by the time the
    callback runs nothing can read those views again (closing with live
    views dangles them on Linux — see :meth:`ShmArena.close`).  The
    segment itself is owned (and unlinked) by the parent.
    """
    _model, arena = value
    if arena is not None:
        arena.close()


#: Worker-side cache of materialised models, keyed by payload digest —
#: ``(model, arena-or-None)`` values, arena present for shm payloads.
_WORKER_MODELS = _Lru(2, _evict_worker_model)


def _model_from_payload(payload: tuple) -> SystemModel:
    """Materialise the run's model inside a worker (or inline).

    Three payload kinds: ``("model", m)`` passes the object through
    (inline pool — same process); ``("blob", digest, blob)`` unpickles a
    full model; ``("shm", digest, handle, repo_blob)`` attaches the
    parent's column arena and rebuilds a zero-copy
    :class:`~repro.core.types.ColumnarModel` over its views.  The two
    shipped kinds cache by digest so repeated runs over the same model
    pay materialisation once per worker.
    """
    kind = payload[0]
    if kind == "model":
        return payload[1]
    digest = payload[1]
    cached = _WORKER_MODELS.get(digest)
    if cached is not None:
        return cached[0]
    if kind == "shm":
        _, _, handle, repo_blob = payload
        arena = ShmArena.attach(handle, owner=False)
        model: SystemModel = ColumnarModel.from_columns(
            arena.arrays(), pickle.loads(repo_blob)
        )
    else:
        _, _, blob = payload
        arena = None
        model = pickle.loads(blob)
    _WORKER_MODELS.put(digest, (model, arena))
    return model


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
    use_shm: bool = False
    session: str | None = None
    """Run-unique token keying worker-resident shard state.  ``None``
    disables residency seeding (the state is then built lazily by the
    first off-loading batch's resync)."""


#: Result arrays eligible for the shared-memory return path.
_RESULT_ARRAY_FIELDS = (
    "comp_partition_idx",
    "opt_partition_idx",
    "comp_final_idx",
    "opt_final_idx",
    "replica_objects",
    "replica_indptr",
)


@dataclass
class _ShardResult:
    """One shard's candidate frontier, shipped back for reconciliation.

    Marks travel as **global entry indices** (only the set positions)
    rather than full-length booleans: a shard can only set entries it
    owns, so the parent reconcile is a plain index assignment, and the
    payload shrinks from O(model) to O(shard frontier).  Replicas are a
    CSR pair (``replica_objects`` concatenated per server in
    ``server_ids`` order, ``replica_indptr`` bounds).  When the run uses
    shared memory the arrays ride a worker-created
    :class:`~repro.core.shm.ShmArena` whose ownership transfers to the
    parent (:meth:`ship_shm` / :meth:`load_shm`).
    """

    server_ids: tuple[int, ...]
    n_pages: int
    n_entries: int
    comp_partition_idx: np.ndarray | None
    opt_partition_idx: np.ndarray | None
    comp_final_idx: np.ndarray | None
    opt_final_idx: np.ndarray | None
    replica_objects: np.ndarray | None
    replica_indptr: np.ndarray | None
    storage_ran: bool
    processing_ran: bool
    storage_stats: list[tuple[int, StorageRestorationStats]]
    processing_stats: list[tuple[int, ProcessingRestorationStats]]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    snapshot: dict | None = None
    shm_handle: dict | None = None
    shm_bytes: int = 0

    def ship_shm(self) -> None:
        """Move the result arrays into a shm segment (worker side).

        The worker creates the segment as a *non-owner* — the parent,
        the only reader, adopts ownership on :meth:`load_shm` and
        unlinks after reconcile, so a worker crash between the two never
        strands anonymous segments beyond the run's pool lifetime.
        """
        arena = ShmArena.create(
            {f: getattr(self, f) for f in _RESULT_ARRAY_FIELDS}, owner=False
        )
        self.shm_bytes = arena.nbytes
        self.shm_handle = arena.handle
        for f in _RESULT_ARRAY_FIELDS:
            setattr(self, f, None)
        arena.close()

    def load_shm(self) -> ShmArena | None:
        """Re-point the result arrays at the shm views (parent side)."""
        if self.shm_handle is None:
            return None
        arena = ShmArena.attach(self.shm_handle, owner=True)
        for f in _RESULT_ARRAY_FIELDS:
            setattr(self, f, arena.get(f))
        self.shm_handle = None
        return arena

    def release_arrays(self) -> None:
        """Drop the array references so a backing arena can close cleanly."""
        for f in _RESULT_ARRAY_FIELDS:
            setattr(self, f, None)


def _shard_pipeline(
    model: SystemModel, server_ids: Sequence[int], opts: _ShardOptions
) -> tuple[_ShardResult, EvalContext, CostModel, Allocation]:
    """PARTITION + per-server restorations for one group of servers.

    Runs on the **restricted model**: ``EvalContext.for_servers`` builds
    columns, streams and CSR groups for exactly this group's pages, so
    the worker never touches (or pays for) the other shards' entries.
    Identity with the full-model run holds because the restriction is
    order-preserving (module docstring); results are mapped back to
    global entry ids through the context's ``global_*`` index columns.

    Phase gating matches the reference pipeline exactly: the reference
    gates each restoration on the *global* constraint report, but both
    constraints are per-server decomposable and restoring a
    non-violating server is a no-op, so gating on the local report
    yields the same allocation — and the parent ORs the per-shard flags
    to reconstruct the global phase list.

    Returns the shippable :class:`_ShardResult` plus the live
    ``(ctx, cost, alloc)`` triple so :func:`_run_shard` can seed the
    worker-resident shard state: the final shard-restricted allocation
    *is* the parent's merged allocation restricted to this shard at
    off-loading start, so residency costs zero extra shipping.
    """
    t0 = time.perf_counter()
    ctx = EvalContext.for_servers(model, server_ids)
    sub = ctx.model
    cost = CostModel(sub, opts.alpha1, opts.alpha2)
    phase_seconds: dict[str, float] = {}

    t = time.perf_counter()
    alloc = Allocation(sub)
    if sub.n_pages:
        comp_marks, _, _, _ = partition_pages_batched(sub)
        alloc.set_comp_local_bulk(np.flatnonzero(comp_marks), True)
    opt_marks = optional_marks_batched(sub, opts.optional_policy)
    alloc.set_opt_local_bulk(np.flatnonzero(opt_marks), True)
    phase_seconds["partition"] = time.perf_counter() - t
    comp_partition = alloc.comp_local.copy()
    opt_partition = alloc.opt_local.copy()

    report = evaluate_constraints(alloc)
    n_local = len(server_ids)
    storage_stats: list[tuple[int, StorageRestorationStats]] = []
    storage_ran = bool(report.violated_servers_storage())
    if storage_ran:
        t = time.perf_counter()
        for li in range(n_local):
            stats = restore_storage_capacity(alloc, cost, server_id=li)
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
        for li in range(n_local):
            processing_stats.append(
                (
                    int(server_ids[li]),
                    restore_processing_capacity(alloc, cost, server_id=li),
                )
            )
        phase_seconds["processing-restoration"] = time.perf_counter() - t

    replica_indptr = np.zeros(n_local + 1, dtype=np.int64)
    for li in range(n_local):
        replica_indptr[li + 1] = replica_indptr[li] + len(alloc.replicas[li])
    replica_objects = np.zeros(int(replica_indptr[-1]), dtype=np.int64)
    for li in range(n_local):
        replica_objects[replica_indptr[li] : replica_indptr[li + 1]] = sorted(
            alloc.replicas[li]
        )

    ge_c = ctx.global_comp_entries
    ge_o = ctx.global_opt_entries
    result = _ShardResult(
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
    return result, ctx, cost, alloc


def _run_shard(
    payload: tuple,
    server_ids: tuple[int, ...],
    opts: _ShardOptions,
    shard_id: int = -1,
) -> _ShardResult:
    """Worker entry point: resolve the model, record into a private
    registry when the parent is collecting, return the shard frontier.

    When the run carries a residency ``session`` (and a real
    ``shard_id``), the pipeline's final context/cost/allocation are
    parked in :data:`_RESIDENT_SHARDS` at epoch 0 so the off-loading
    scatter's delta rounds start hot."""
    model = _model_from_payload(payload)
    registry = MetricsRegistry() if opts.record else None
    with use_registry(registry):
        result, ctx, cost, alloc = _shard_pipeline(model, server_ids, opts)
    if registry is not None:
        result.snapshot = registry.snapshot()
    if opts.session is not None and shard_id >= 0:
        _RESIDENT_SHARDS.put(
            (opts.session, int(shard_id)),
            _ResidentShard(ctx=ctx, cost=cost, alloc=alloc, epoch=0),
        )
    if opts.use_shm:
        result.ship_shm()
    return result


# ----------------------------------------------------------------------
# parallel off-loading scatter: worker-resident delta rounds
# ----------------------------------------------------------------------
@dataclass
class _ResidentShard:
    """One shard's live state parked in a worker between round batches.

    ``alloc`` mirrors the parent's merged allocation restricted to this
    shard — exactly current as long as every batch the parent sent for
    the shard was processed here, which the exact-match ``epoch``
    validates (per-server absorptions only touch the absorbing server,
    so nothing outside the shard can invalidate the mirror)."""

    ctx: EvalContext
    cost: CostModel
    alloc: Allocation
    epoch: int


#: Worker-side resident shard states, keyed by ``(session, shard id)``.
#: Bounded so abandoned sessions (benchmark repeats, failed runs) age
#: out; an evicted entry just means the next batch for that shard
#: resyncs.  No eviction callback — the values are plain heap state.
_RESIDENT_SHARDS: _Lru = _Lru(16)

_SESSION_SEQ = itertools.count()


def _absorb_shard_batch(
    payload: tuple,
    opts: _ShardOptions,
    session: str,
    shard_id: int,
    server_ids: tuple[int, ...],
    epoch: int,
    requests: list[tuple[int, float, bool]],
    allow_swap: bool,
    kernel: str,
    sync: tuple | None,
) -> dict:
    """Absorb one round's requests for one shard on its resident state.

    The delta-round worker half (DESIGN.md Appendix I).  ``requests``
    holds every ``(global_server_id, target, allow_new)`` of this
    round addressed to servers in ``server_ids``; all of them replay
    :func:`~repro.core.offload.absorb_extra_workload` on the shard's
    resident allocation in one submission — one pickle/shm hop, one
    context lookup.  Per-server decomposability (the
    ``absorb_round_serial`` contract) makes any batch grouping
    bit-identical to the serial reference.

    Epoch protocol: the fast path (``sync is None``) requires the
    resident state to exist **and** match ``epoch`` exactly — anything
    else returns ``{"resync": True}`` and the parent resubmits with a
    ``sync`` payload.  ``sync`` is either ``("state", comp_marks,
    opt_marks, replica_objects, replica_indptr)`` — the shard's mark
    slices in ascending global entry order plus its replica CSR — or
    ``("frontier", handle, replica_objects, replica_indptr)``, where
    marks are read in place from the parent-owned shared-memory mark
    frontier instead of travelling in the submission.  Either way the
    rebuilt state is bit-identical to the lost mirror, so a resync
    changes transport cost only, never results.

    Returns per-request mark/replica deltas in global ids, concatenated
    in request order, plus the advanced epoch.
    """
    key = (session, int(shard_id))
    res: _ResidentShard | None = _RESIDENT_SHARDS.get(key)
    frontier_read = False
    if sync is None:
        if res is None or res.epoch != int(epoch):
            return {"resync": True}
    else:
        model = _model_from_payload(payload)
        ctx = EvalContext.for_servers(model, server_ids)
        sub = ctx.model
        if sync[0] == "frontier":
            _, handle, rep_objs, rep_indptr = sync
            arena = ShmArena.attach(handle, owner=False)
            # fancy indexing copies, so no view survives the close
            comp0 = arena.get("comp_local")[ctx.global_comp_entries]
            opt0 = arena.get("opt_local")[ctx.global_opt_entries]
            arena.close()
            frontier_read = True
        else:
            _, comp_state, opt_state, rep_objs, rep_indptr = sync
            comp0 = np.array(comp_state, dtype=bool)
            opt0 = np.array(opt_state, dtype=bool)
        res = _ResidentShard(
            ctx=ctx,
            cost=CostModel(sub, opts.alpha1, opts.alpha2),
            alloc=Allocation(
                sub, comp0, opt0,
                replicas=unpack_replicas(rep_objs, rep_indptr),
            ),
            epoch=int(epoch),
        )
        _RESIDENT_SHARDS.put(key, res)

    ctx, cost, alloc = res.ctx, res.cost, res.alloc
    local_of = {int(g): li for li, g in enumerate(server_ids)}
    ge_c = ctx.global_comp_entries
    ge_o = ctx.global_opt_entries
    registry = MetricsRegistry() if opts.record else None
    out: list[dict] = []
    with use_registry(registry):
        for gi, target, allow_new in requests:
            li = local_of[int(gi)]
            comp_e = ctx.comp_entries_of(li)
            opt_e = ctx.opt_entries_of(li)
            comp_before = alloc.comp_local[comp_e]  # fancy-index copies
            opt_before = alloc.opt_local[opt_e]
            reps_before = set(alloc.replicas[li])
            achieved = absorb_extra_workload(
                alloc,
                cost,
                li,
                float(target),
                allow_new_replicas=bool(allow_new),
                allow_swap=bool(allow_swap),
                kernel=kernel,
            )
            comp_after = alloc.comp_local[comp_e]
            opt_after = alloc.opt_local[opt_e]
            added = sorted(alloc.replicas[li] - reps_before)
            removed = sorted(reps_before - alloc.replicas[li])
            out.append(
                {
                    "server": int(gi),
                    "achieved": float(achieved),
                    "comp_set": ge_c[comp_e[comp_after & ~comp_before]],
                    "comp_clear": ge_c[comp_e[comp_before & ~comp_after]],
                    "opt_set": ge_o[opt_e[opt_after & ~opt_before]],
                    "opt_clear": ge_o[opt_e[opt_before & ~opt_after]],
                    "replica_add": np.fromiter(
                        added, dtype=np.int64, count=len(added)
                    ),
                    "replica_remove": np.fromiter(
                        removed, dtype=np.int64, count=len(removed)
                    ),
                }
            )
    res.epoch = int(epoch) + 1
    return {
        "epoch": res.epoch,
        "frontier_read": frontier_read,
        "results": out,
        "snapshot": registry.snapshot() if registry is not None else None,
    }


def _entries_by_group(
    entry_group: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable ``(order, bounds)`` grouping entry ids by owning group.

    ``order[bounds[g]:bounds[g+1]]`` is group ``g``'s flat entry ids in
    ascending order — the same order ``restrict_to_servers`` selects
    them, which is what keeps a sync payload's mark slices aligned with
    the worker's shard-restricted context."""
    order = np.argsort(entry_group, kind="stable")
    bounds = np.searchsorted(entry_group[order], np.arange(n_groups + 1))
    return order, bounds


def _delta_nbytes(r: dict) -> float:
    """Actual array bytes one request's result delta ships upward."""
    return float(
        r["comp_set"].nbytes
        + r["comp_clear"].nbytes
        + r["opt_set"].nbytes
        + r["opt_clear"].nbytes
        + r["replica_add"].nbytes
        + r["replica_remove"].nbytes
    )


class _ShardedScatter:
    """Process-parallel absorption scatter for ``offload_repository``.

    Satisfies the :func:`~repro.core.offload.absorb_round_serial`
    contract — and its ``begin``/``finish`` lifecycle hooks — while
    running each round as **delta rounds over worker-resident shard
    state**: requests group per shard into one
    :func:`_absorb_shard_batch` submission (routed to the shard's
    pinned worker via ``pool.submit_to`` when the pool has it), workers
    validate the round epoch and ship back only the flipped marks, and
    the parent applies the returned deltas in **plan order**, so the
    mutation sequence the order-sensitive gather observes matches the
    serial reference exactly.

    Parameters
    ----------
    groups:
        The shard plan (ascending server ids per group, together
        covering every server).  Defaults to one server per shard —
        the standalone configuration the property harness drives.
    sync_mode:
        ``"delta"`` (resident fast path, the default) or ``"full"``
        (ship the full shard state with every batch — the PR-8-shaped
        baseline the delta/full byte accounting is measured against).
    resync_every:
        Force a full sync on every Nth batch per shard (defaults from
        ``REPRO_OFFLOAD_RESYNC_EVERY``); exercises the epoch-mismatch
        recovery path deterministically.

    Transport accounting: :attr:`rounds_bytes` records, per round,
    the actual bytes shipped (``delta_bytes``) next to what the
    per-request full-state protocol would have shipped
    (``full_bytes``), and ``finish`` publishes the
    ``shard.N.delta_bytes`` / ``shard.N.resyncs`` /
    ``offload.batched_submissions`` / ``shm.frontier_reads`` gauges.
    """

    def __init__(
        self,
        pool: ShardPool,
        payload: tuple,
        model: SystemModel,
        opts: _ShardOptions,
        *,
        groups: tuple[tuple[int, ...], ...] | None = None,
        sync_mode: str = "delta",
        resync_every: int | None = None,
    ):
        if sync_mode not in ("delta", "full"):
            raise ValueError(
                f'sync_mode must be "delta" or "full", got {sync_mode!r}'
            )
        self._pool = pool
        self._payload = payload
        self._opts = opts
        if groups is None:
            groups = tuple((i,) for i in range(model.n_servers))
        self._groups = tuple(tuple(int(i) for i in g) for g in groups)
        self._sync_mode = sync_mode
        if resync_every is None:
            resync_every = env_positive_int(
                "REPRO_OFFLOAD_RESYNC_EVERY", default=None
            )
        self._resync_every = resync_every
        #: session keying worker-resident state; when the driver seeded
        #: residency through the fan-out this matches ``opts.session``
        #: and shards start synced at epoch 0.
        self._session = (
            opts.session
            if opts.session is not None
            else f"scatter-{os.getpid()}-{next(_SESSION_SEQ)}"
        )
        self._ctx = EvalContext.for_model(model)
        shard_of = np.full(model.n_servers, -1, dtype=np.intp)
        for g, grp in enumerate(self._groups):
            shard_of[list(grp)] = g
        self._shard_of = shard_of
        self._comp_order, self._comp_bounds = _entries_by_group(
            shard_of[self._ctx.comp_server], len(self._groups)
        )
        self._opt_order, self._opt_bounds = _entries_by_group(
            shard_of[self._ctx.opt_server], len(self._groups)
        )
        n = len(self._groups)
        self._epochs = [0] * n
        self._synced = [opts.session is not None] * n
        self._batches = [0] * n
        self._delta_bytes = [0.0] * n
        self._resyncs = [0] * n
        self._submissions = 0
        self._frontier_reads = 0
        self._total_delta = 0.0
        self._total_full = 0.0
        #: per-round ``{"delta_bytes", "full_bytes"}`` records (the
        #: end-to-end bench persists these into BENCH json).
        self.rounds_bytes: list[dict[str, float]] = []
        self._frontier: ShmArena | None = None
        self._f_comp: np.ndarray | None = None
        self._f_opt: np.ndarray | None = None
        self._began = False
        self._finished = False

    # -- lifecycle (driven by ``offload_repository``) -------------------
    def begin(self, alloc: Allocation) -> None:
        """Create the shm mark frontier over the negotiation's marks."""
        if self._began:
            return
        self._began = True
        if self._opts.use_shm:
            self._frontier = ShmArena.create(
                {"comp_local": alloc.comp_local, "opt_local": alloc.opt_local},
                owner=True,
            )
            self._f_comp = self._frontier.get("comp_local", writeable=True)
            self._f_opt = self._frontier.get("opt_local", writeable=True)

    def finish(self) -> None:
        """Destroy the frontier and publish gauges (idempotent; runs on
        every ``offload_repository`` exit path, exceptions included)."""
        if self._finished:
            return
        self._finished = True
        self._f_comp = None
        self._f_opt = None
        if self._frontier is not None:
            self._frontier.destroy()
            self._frontier = None
        reg = obs.get_registry()
        if reg.enabled:
            for g in range(len(self._groups)):
                reg.gauge(f"shard.{g}.delta_bytes", self._delta_bytes[g])
                reg.gauge(f"shard.{g}.resyncs", float(self._resyncs[g]))
            reg.gauge("offload.batched_submissions", float(self._submissions))
            reg.gauge("shm.frontier_reads", float(self._frontier_reads))
            reg.gauge("offload.delta_bytes", self._total_delta)
            reg.gauge("offload.full_bytes", self._total_full)

    # -- wire helpers ---------------------------------------------------
    def _needs_sync(self, g: int) -> bool:
        if self._sync_mode == "full" or not self._synced[g]:
            return True
        every = self._resync_every
        return every is not None and self._batches[g] % every == 0

    def _sync_payload(self, g: int, alloc: Allocation) -> tuple[tuple, float]:
        """The shard's full current state, plus its shipped byte count."""
        grp = self._groups[g]
        rep_objs, rep_indptr = pack_replicas([alloc.replicas[i] for i in grp])
        if self._frontier is not None:
            # marks ride the shared frontier — only the CSR travels
            payload = ("frontier", self._frontier.handle, rep_objs, rep_indptr)
            nbytes = float(rep_objs.nbytes + rep_indptr.nbytes)
        else:
            comp_idx = self._comp_order[
                self._comp_bounds[g] : self._comp_bounds[g + 1]
            ]
            opt_idx = self._opt_order[
                self._opt_bounds[g] : self._opt_bounds[g + 1]
            ]
            comp_state = alloc.comp_local[comp_idx]
            opt_state = alloc.opt_local[opt_idx]
            payload = ("state", comp_state, opt_state, rep_objs, rep_indptr)
            nbytes = float(
                comp_state.nbytes
                + opt_state.nbytes
                + rep_objs.nbytes
                + rep_indptr.nbytes
            )
        return payload, nbytes

    def _submit(
        self,
        g: int,
        reqs: list[tuple[int, float, bool]],
        allow_swap: bool,
        kernel: str,
        sync: tuple | None,
    ):
        self._submissions += 1
        args = (
            self._payload,
            self._opts,
            self._session,
            int(g),
            self._groups[g],
            int(self._epochs[g]),
            reqs,
            bool(allow_swap),
            str(kernel),
            sync,
        )
        submit_to = getattr(self._pool, "submit_to", None)
        if submit_to is not None:
            return submit_to(g, _absorb_shard_batch, *args)
        return self._pool.submit(_absorb_shard_batch, *args)

    # -- the round ------------------------------------------------------
    def __call__(
        self,
        alloc: Allocation,
        cost: CostModel,
        requests: list[tuple[int, float, bool]],
        *,
        allow_swap: bool = True,
        kernel: str = "batched",
    ) -> dict[int, float]:
        self.begin(alloc)  # no-op when offload_repository already did
        by_shard: dict[int, list[tuple[int, float, bool]]] = {}
        for i, req, allow_new in requests:
            g = int(self._shard_of[i])
            by_shard.setdefault(g, []).append(
                (int(i), float(req), bool(allow_new))
            )
        round_delta = 0.0
        round_full = 0.0
        jobs = []
        for g, reqs in sorted(by_shard.items()):
            sync = None
            if self._needs_sync(g):
                sync, sent = self._sync_payload(g, alloc)
                self._resyncs[g] += 1
                self._delta_bytes[g] += sent
                round_delta += sent
            jobs.append((g, self._submit(g, reqs, allow_swap, kernel, sync)))

        reg = obs.get_registry()
        by_server: dict[int, dict] = {}
        for g, future in jobs:
            res = future.result()
            if res.get("resync"):
                # stale/missing resident state — re-ship the shard
                sync, sent = self._sync_payload(g, alloc)
                self._resyncs[g] += 1
                self._delta_bytes[g] += sent
                round_delta += sent
                res = self._submit(
                    g, by_shard[g], allow_swap, kernel, sync
                ).result()
                if res.get("resync"):  # pragma: no cover - protocol bug
                    raise RuntimeError(
                        f"shard {g} refused a sync payload (epoch "
                        f"{self._epochs[g]})"
                    )
            self._epochs[g] = int(res["epoch"])
            self._synced[g] = True
            self._batches[g] += 1
            self._frontier_reads += int(bool(res["frontier_read"]))
            for r in res["results"]:
                by_server[r["server"]] = r
                nb = _delta_nbytes(r)
                self._delta_bytes[g] += nb
                round_delta += nb
            if res["snapshot"] is not None and reg.enabled:
                reg.merge_snapshot(res["snapshot"])

        # Apply in plan order — the serial reference's mutation sequence.
        achieved: dict[int, float] = {}
        for i, req, allow_new in requests:
            r = by_server[i]
            reps_before = len(alloc.replicas[i])
            alloc.apply_server_delta(
                i,
                r["comp_set"],
                r["comp_clear"],
                r["opt_set"],
                r["opt_clear"],
                r["replica_add"],
                r["replica_remove"],
            )
            if self._f_comp is not None:
                self._f_comp[r["comp_set"]] = True
                self._f_comp[r["comp_clear"]] = False
                self._f_opt[r["opt_set"]] = True
                self._f_opt[r["opt_clear"]] = False
            achieved[i] = r["achieved"]
            # What the pre-resident protocol would have shipped for this
            # request: full mark slices + replicas down, mark deltas +
            # full replicas back.
            mark_delta = (
                _delta_nbytes(r)
                - r["replica_add"].nbytes
                - r["replica_remove"].nbytes
            )
            round_full += float(
                len(self._ctx.comp_entries_of(i))
                + len(self._ctx.opt_entries_of(i))
                + 8 * reps_before
                + mark_delta
                + 8 * len(alloc.replicas[i])
            )
        self._total_delta += round_delta
        self._total_full += round_full
        self.rounds_bytes.append(
            {"delta_bytes": round_delta, "full_bytes": round_full}
        )
        return achieved


# ----------------------------------------------------------------------
# parent side: fan out, reconcile, replay the global phases
# ----------------------------------------------------------------------
def _gather_shard_results(futures: list) -> list[_ShardResult]:
    """Collect every fan-out result, releasing arenas if any shard failed.

    Waits on *all* futures even after a failure: a successful shard may
    have created a worker-side result arena whose ownership only
    transfers to the parent on load, so bailing out at the first
    exception would strand ``/dev/shm`` segments for the pool's
    lifetime.  On failure, every successfully returned result is
    adopted-and-destroyed before the first exception re-raises.
    """
    results: list[_ShardResult] = []
    first_exc: BaseException | None = None
    for f in futures:
        try:
            results.append(f.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_exc is None:
                first_exc = exc
    if first_exc is not None:
        for r in results:
            arena = r.load_shm()
            r.release_arrays()
            if arena is not None:
                arena.destroy()
        raise first_exc
    return results


def run_sharded_policy(
    model: SystemModel,
    alpha1: float = 2.0,
    alpha2: float = 1.0,
    optional_policy: str = "all",
    offload_config: OffloadConfig | None = None,
    shards: int | None = None,
    pool: ShardPool | None = None,
    shm: bool | None = None,
) -> "PolicyResult":
    """The full policy pipeline, sharded over a worker pool.

    Bit-identical to ``RepositoryReplicationPolicy(kernel="batched")``
    on allocation, objectives, stats, constraint report and phase list
    — see the module docstring for why.

    Parameters
    ----------
    shards:
        Group count; resolved via :func:`resolve_shards` (explicit →
        ``REPRO_SHARDS`` → ``min(n_servers, cpu_count)``).
    pool:
        Injected :class:`ShardPool`; defaults to this module's private
        persistent :func:`default_pool`.  Pass
        :class:`InlineShardPool` to run serially in-process.
    shm:
        Shared-memory transport override, resolved via
        :func:`repro.core.shm.resolve_shm` (explicit → ``REPRO_SHM`` →
        available).  Ignored (off) for inline pools — there is no
        process boundary to cross.
    """
    from repro.core.policy import PolicyResult

    if getattr(model, "n_streams", 2) > 2:
        raise NotImplementedError(
            "the sharded kernel supports the k=2 topology only; run "
            'kernel="batched" for k-stream replica meshes '
            "(sharded k>2 is a planned follow-up)"
        )
    reg = obs.get_registry()
    cost = CostModel(model, alpha1, alpha2)
    n_shards = resolve_shards(shards, n_servers=model.n_servers)
    groups = plan_shards(model, n_shards)
    if pool is None:
        pool = default_pool(len(groups))
    inline = bool(getattr(pool, "inline", False))
    use_shm = False if inline else resolve_shm(shm)
    pickle_bytes_avoided = 0.0
    if inline:
        payload: tuple = ("model", model)
    elif use_shm:
        digest, arena = _model_arena(model)
        payload = (
            "shm",
            "shm:" + digest,
            arena.handle,
            pickle.dumps(model.repository, protocol=pickle.HIGHEST_PROTOCOL),
        )
        pickle_bytes_avoided += float(arena.nbytes)
    else:
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        payload = ("blob", "blob:" + hashlib.sha256(blob).hexdigest(), blob)
    opts = _ShardOptions(
        alpha1=alpha1,
        alpha2=alpha2,
        optional_policy=optional_policy,
        record=reg.enabled,
        use_shm=use_shm,
        session=f"run-{os.getpid()}-{next(_SESSION_SEQ)}",
    )

    submit_to = getattr(pool, "submit_to", None)
    spans: dict[str, obs.SpanRecord] = {}
    with reg.span("policy"):
        with reg.span("shard-fanout") as fan:
            spans["shard-fanout"] = fan
            # Pin shard g to worker g when the pool supports routing, so
            # the residency each fan-out task seeds is the same state
            # the off-loading delta rounds will find.
            if submit_to is not None:
                futures = [
                    submit_to(g, _run_shard, payload, group, opts, g)
                    for g, group in enumerate(groups)
                ]
            else:
                futures = [
                    pool.submit(_run_shard, payload, group, opts, g)
                    for g, group in enumerate(groups)
                ]
            results = _gather_shard_results(futures)

        ne_c = len(model.comp_objects)
        ne_o = len(model.opt_objects)
        comp_part = np.zeros(ne_c, dtype=bool)
        opt_part = np.zeros(ne_o, dtype=bool)
        comp_fin = np.zeros(ne_c, dtype=bool)
        opt_fin = np.zeros(ne_o, dtype=bool)
        replicas: list[set[int] | None] = [None] * model.n_servers
        result_arenas: list[ShmArena] = []
        for r in results:
            arena = r.load_shm()
            if arena is not None:
                arena.unlink()  # name gone now; memory lives until close
                result_arenas.append(arena)
                pickle_bytes_avoided += float(arena.nbytes)
            comp_part[r.comp_partition_idx] = True
            opt_part[r.opt_partition_idx] = True
            comp_fin[r.comp_final_idx] = True
            opt_fin[r.opt_final_idx] = True
            indptr = r.replica_indptr
            objs = r.replica_objects
            for li, gi in enumerate(r.server_ids):
                replicas[gi] = set(
                    objs[int(indptr[li]) : int(indptr[li + 1])].tolist()
                )
            r.release_arrays()
        for arena in result_arenas:
            arena.close()
        assert all(r is not None for r in replicas), "shard plan missed a server"

        unconstrained_d = cost.D(Allocation(model, comp_part, opt_part))
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

        alloc = Allocation(model, comp_fin, opt_fin, replicas=replicas)
        report = evaluate_constraints(alloc)

        # OFF_LOADING's repository-side bookkeeping (NewReq shares, L3
        # demotion, message counts) negotiates against the *global*
        # Eq. 9 frontier, so it replays in the parent — but each round's
        # per-server absorptions are independent, so they scatter back
        # to the pool.
        offload_outcome: OffloadOutcome | None = None
        if not report.repo_ok:
            scatter = _ShardedScatter(
                pool, payload, model, opts, groups=groups
            )
            with reg.span("off-loading") as sp:
                spans["off-loading"] = sp
                offload_outcome = offload_repository(
                    alloc,
                    cost,
                    offload_config or OffloadConfig(),
                    scatter=scatter,
                )
            offload_outcome.round_bytes = list(scatter.rounds_bytes)
            phases.append("off-loading")
            report = evaluate_constraints(alloc)

        objective = cost.D(alloc)

    phase_seconds: dict[str, float] = {}
    if reg.enabled:
        for idx, r in enumerate(results):
            reg.gauge(f"shard.{idx}.servers", float(len(r.server_ids)))
            reg.gauge(f"shard.{idx}.pages", float(r.n_pages))
            reg.gauge(f"shard.{idx}.entries", float(r.n_entries))
            reg.gauge(f"shard.{idx}.context_entries", float(r.n_entries))
            reg.gauge(f"shard.{idx}.seconds", r.seconds)
            if r.snapshot is not None:
                reg.merge_snapshot(r.snapshot)
        reg.gauge("shard.count", float(len(groups)))
        reg.gauge("policy.context_entries_full", float(ne_c + ne_o))
        reg.gauge(
            "shm.bytes_shared",
            float(sum(a.nbytes for a in _PARENT_ARENAS.values())),
        )
        reg.gauge("shard.pickle_bytes_avoided", pickle_bytes_avoided)
        # Per-phase wall clock: the slowest shard bounds each fanned-out
        # phase; the reconcile-side phases time their own spans.
        for name in ("partition", "storage-restoration", "processing-restoration"):
            worst = max(
                (r.phase_seconds.get(name, 0.0) for r in results), default=0.0
            )
            if name in phases or name == "partition":
                phase_seconds[name] = worst
        phase_seconds["shard-fanout"] = spans["shard-fanout"].seconds
        if "off-loading" in spans:
            phase_seconds["off-loading"] = spans["off-loading"].seconds
        reg.count("policy.runs")
        reg.count("policy.kernel.sharded")
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
