"""The scalar reference loops of the Section 4.2 greedy phases.

Production runs one engine per phase: the vectorised PARTITION of
:mod:`repro.core.partition` and the batched argmin loops of
:mod:`repro.core.restoration` and :mod:`repro.core.offload`.  This module
keeps the per-candidate Python loops those engines were written against,
as the oracle of the differential suites, the goldens' ``"scalar"`` arms
and the kernel benches:

* :func:`partition_all_scalar` — PARTITION page by page through
  :func:`repro.core.partition.partition_page`;
* :func:`restore_storage_scalar` / :func:`restore_processing_scalar` —
  the Eq. 10 / Eq. 8 restoration loops;
* :func:`absorb_scalar` and :func:`offload_scalar` — OFF_LOADING's
  server-side absorption, and the negotiation driven through it.

Every loop is an **exact argmin**: each step takes the live candidate
with the lowest ``(fresh score, key)``.  The scores sit in a plain
``heapq`` of ``(score, key)``; every rescore pushes a fresh entry, and a
popped entry whose key is dead or whose score is no longer current is
discarded.  An action only moves the byte totals of the pages it
touches, so after each step exactly the candidates with a term on those
pages (the *dirty set*) are pushed again.  The engines make the same
decisions bit for bit.

:func:`scalar_phases` routes the whole pipeline to these loops, so a
golden can be recomputed end to end on the reference.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Iterable, Iterator
from unittest import mock

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, storage_used
from repro.core.context import EvalContext
from repro.core.cost_model import CostModel
from repro.core.offload import (
    OffloadConfig,
    OffloadOutcome,
    _rank_victims,
    _try_make_room,
    offload_repository,
)
from repro.core.partition import OptionalPolicy, SortOrder, partition_page
from repro.core.restoration import (
    InfeasibleError,
    ProcessingRestorationStats,
    StorageRestorationStats,
    _server_ids,
    _tally,
)
from repro.core.types import SystemModel
from tests.oracles.optional_marks import optional_marks

__all__ = [
    "ReverseIndex",
    "page_time_from_stream_bytes",
    "optional_entry_delta",
    "partition_all_scalar",
    "restore_storage_scalar",
    "restore_processing_scalar",
    "absorb_scalar",
    "offload_scalar",
    "scalar_phases",
]

_TOL = 1e-9


class ReverseIndex:
    """Static ``(server, object) → entries`` dict maps of one model.

    ``comp_entries[i][k]`` is the tuple of compulsory entries of pages
    hosted on server ``i`` that reference object ``k`` (ascending);
    ``opt_entries`` is the optional analog.  Built from the context's
    per-server groups once per model and cached on it.
    """

    _CACHE_ATTR = "_oracle_reverse_index_cache"

    def __init__(self, model: SystemModel):
        self.model = model
        ctx = EvalContext.for_model(model)
        self.comp_entries = tuple(
            self._server_map(*ctx.comp_group(i)) for i in range(model.n_servers)
        )
        self.opt_entries = tuple(
            self._server_map(*ctx.opt_group(i)) for i in range(model.n_servers)
        )

    @staticmethod
    def _server_map(entries, starts, counts) -> dict[int, tuple[int, ...]]:
        ge = entries.tolist()
        st = starts.tolist()
        ct = counts.tolist()
        return {
            k: tuple(ge[st[k] : st[k] + ct[k]])
            for k in counts.nonzero()[0].tolist()
        }

    @classmethod
    def for_model(cls, model: SystemModel) -> "ReverseIndex":
        """Return the (cached) reverse index of ``model``."""
        cached = getattr(model, cls._CACHE_ATTR, None)
        if cached is None:
            cached = cls(model)
            setattr(model, cls._CACHE_ATTR, cached)
        return cached

    def entries_for(
        self, server_id: int, object_id: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(compulsory_entries, optional_entries)`` for the pair."""
        return (
            self.comp_entries[server_id].get(object_id, ()),
            self.opt_entries[server_id].get(object_id, ()),
        )


# ----------------------------------------------------------------------
# PARTITION
# ----------------------------------------------------------------------
def partition_all_scalar(
    model: SystemModel,
    optional_policy: OptionalPolicy = "all",
    order: SortOrder = "decreasing",
) -> Allocation:
    """PARTITION over every page, one :func:`partition_page` at a time.

    Same parameters and result as :func:`repro.core.partition.partition_all`.
    """
    alloc = Allocation(model)
    for j in range(model.n_pages):
        sl = model.comp_slice(j)
        comp_marks, streams, _, _ = partition_page(model, j, order=order)
        alloc.comp_stream[sl] = streams
        for off, val in enumerate(comp_marks):
            if val:
                alloc.set_comp_local(sl.start + off, True)
        opt_marks = optional_marks(model, j, optional_policy)
        slo = model.opt_slice(j)
        for off, val in enumerate(opt_marks):
            if val:
                alloc.set_opt_local(slo.start + off, True)
    return alloc


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def page_time_from_stream_bytes(
    cost: CostModel, page_id: int, local_mo_bytes: float, stream_bytes
) -> float:
    """Eq. 5 over k streams for one page.

    ``stream_bytes[r-1]`` is stream ``r``'s byte total; the page time is
    the max over the local and every remote stream.
    """
    s = cost.scalars
    t = s.ovhd_local[page_id] + s.spb_local[page_id] * (
        s.html[page_id] + local_mo_bytes
    )
    for ovhd_r, spb_r, rb in zip(
        s.ovhd_streams[page_id], s.spb_streams[page_id], stream_bytes
    ):
        tr = ovhd_r + spb_r * rb
        if tr > t:
            t = tr
    return t


def optional_entry_delta(cost: CostModel, entry: int, to_local: bool) -> float:
    """Change in ``alpha2 * D2`` from flipping one optional entry; the
    scalar form of ``CostModel.bulk_optional_entry_delta``.

    Positive means the objective gets worse.
    """
    diff = cost.opt_time_local[entry] - cost.opt_time_remote[entry]
    signed = diff if to_local else -diff
    return cost.alpha2 * cost.opt_freq_weight[entry] * signed


class _PageState:
    """Incrementally maintained per-page stream byte totals.

    Kept as plain Python lists: list indexing is several times faster
    than NumPy scalar indexing.  ``stream_bytes[r-1]`` holds remote
    stream ``r``'s totals; a move to remote lands on the stream whose
    resulting time is lowest (ties to the lowest stream index).
    """

    def __init__(self, cost: CostModel, alloc: Allocation):
        self.cost = cost
        self.alloc = alloc
        self.local_bytes: list[float] = cost.local_mo_bytes(alloc).tolist()
        self.stream_bytes: list[list[float]] = [
            rb.tolist() for rb in cost.remote_mo_bytes_by_stream(alloc)
        ]

    def page_time(self, j: int) -> float:
        return page_time_from_stream_bytes(
            self.cost, j, self.local_bytes[j], [sb[j] for sb in self.stream_bytes]
        )

    def best_stream(self, j: int, size: float) -> int:
        """Remote stream (1-based) with the lowest time after +``size``."""
        s = self.cost.scalars
        best = 0
        best_t = None
        for r, (ov, sp, sb) in enumerate(
            zip(s.ovhd_streams[j], s.spb_streams[j], self.stream_bytes)
        ):
            t = ov + sp * (sb[j] + size)
            if best_t is None or t < best_t:
                best, best_t = r, t
        return best + 1

    def page_time_if_moved_remote(self, j: int, size: float) -> float:
        r = self.best_stream(j, size)
        sb = [b[j] for b in self.stream_bytes]
        sb[r - 1] += size
        return page_time_from_stream_bytes(
            self.cost, j, self.local_bytes[j] - size, sb
        )

    def move_remote(self, j: int, size: float, stream: int = 1) -> None:
        self.local_bytes[j] -= size
        self.stream_bytes[stream - 1][j] += size

    def move_local(self, j: int, size: float, stream: int = 1) -> None:
        self.local_bytes[j] += size
        self.stream_bytes[stream - 1][j] -= size


def _pop_current(heap: list, current: dict, alive) -> tuple[float, int] | None:
    """Pop the lowest ``(score, key)`` entry of ``heap`` that is still
    current: its key ``alive`` and its score the key's ``current`` one.

    Every rescore pushes a fresh entry and overwrites ``current``, so the
    first current entry popped is the exact argmin over live candidates.
    """
    while heap:
        score, key = heapq.heappop(heap)
        if alive(key) and current[key] == score:
            return score, key
    return None


def _candidate_load(alloc: Allocation, key: int) -> float:
    """Requests/second candidate ``key`` carries (``e`` for compulsory
    entry ``e``, ``NC + e`` for optional entry ``e``): the load a switch
    to the repository sheds, or an absorption adds."""
    ctx = alloc.ctx
    nc = len(ctx.comp_freq)
    if key < nc:
        return float(ctx.comp_freq[key])
    return float(ctx.opt_freq_weight[key - nc])


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
def _eviction_delta(
    cost: CostModel,
    alloc: Allocation,
    state: _PageState,
    server_id: int,
    object_id: int,
    rev: ReverseIndex,
) -> float:
    """Objective change from deallocating ``object_id`` at ``server_id``.

    Every page currently downloading the object locally would switch that
    download to its best remote stream; every optional local mark pays
    the remote single-download time instead.  The follow-up
    re-partitioning can only improve on this, so the score is a safe
    upper bound for ranking.
    """
    m = alloc.model
    comp_e, opt_e = rev.entries_for(server_id, object_id)
    size = float(m.sizes[object_id])
    freq = cost.ctx.frequencies
    comp_pages = m.comp_pages
    comp_local = alloc.comp_local
    delta = 0.0
    for e in comp_e:
        if comp_local[e]:
            j = int(comp_pages[e])
            old = state.page_time(j)
            new = state.page_time_if_moved_remote(j, size)
            delta += cost.alpha1 * float(freq[j]) * (new - old)
    opt_local = alloc.opt_local
    for e in opt_e:
        if opt_local[e]:
            delta += optional_entry_delta(cost, e, to_local=False)
    return delta


def _evict_replica(
    alloc: Allocation,
    state: _PageState,
    server_id: int,
    object_id: int,
    rev: ReverseIndex,
) -> list[int]:
    """Deallocate ``object_id`` at ``server_id``, moving its local marks
    to the remote streams; return the pages whose downloads moved."""
    m = alloc.model
    size = float(m.sizes[object_id])
    comp_e, opt_e = rev.entries_for(server_id, object_id)
    flipped: list[int] = []
    for e in comp_e:
        if alloc.comp_local[e]:
            j = int(m.comp_pages[e])
            alloc.set_comp_local(e, False)
            r = state.best_stream(j, size)
            alloc.comp_stream[e] = r
            state.move_remote(j, size, r)
            flipped.append(j)
    for e in opt_e:
        if alloc.opt_local[e]:
            alloc.set_opt_local(e, False)
    alloc.replicas[server_id].discard(object_id)
    return flipped


def _repartition_page(
    alloc: Allocation, state: _PageState, server_id: int, j: int
) -> bool:
    """Re-run PARTITION on page ``j`` restricted to the server's replica
    set and install its marks and streams; return whether anything
    changed.  A remote entry that merely changed stream still shifts the
    page's stream totals, so it counts as a change.
    """
    m = alloc.model
    marks, streams, _, _ = partition_page(m, j, allowed=alloc.replicas[server_id])
    sl = m.comp_slice(j)
    changed = False
    for off in range(sl.stop - sl.start):
        e = sl.start + off
        new = bool(marks[off])
        old_r = int(alloc.comp_stream[e])
        r = int(streams[off])
        if bool(alloc.comp_local[e]) != new:
            size = float(m.sizes[m.comp_objects[e]])
            if new:
                state.move_local(j, size, old_r)
                alloc.set_comp_local(e, True)
            else:
                alloc.set_comp_local(e, False)
                alloc.comp_stream[e] = r
                state.move_remote(j, size, r)
            changed = True
        elif not new and old_r != r:
            # remote entry hopping streams: totals shift on both
            size = float(m.sizes[m.comp_objects[e]])
            state.stream_bytes[old_r - 1][j] -= size
            state.stream_bytes[r - 1][j] += size
            alloc.comp_stream[e] = r
            changed = True
    return changed


def _local_objects(alloc: Allocation, pages: Iterable[int]) -> set[int]:
    """Objects marked local on any of ``pages``."""
    m = alloc.model
    out: set[int] = set()
    for j in pages:
        sl = m.comp_slice(j)
        for e in range(sl.start, sl.stop):
            if alloc.comp_local[e]:
                out.add(int(m.comp_objects[e]))
    return out


def _restore_storage_one_server(
    alloc: Allocation,
    cost: CostModel,
    state: _PageState,
    server_id: int,
    amortise: bool = True,
    decisions: list | None = None,
) -> StorageRestorationStats:
    m = alloc.model
    rev = ReverseIndex.for_model(m)
    stats = StorageRestorationStats()

    capacity = m.server_storage[server_id]
    html_bytes = float(
        m.html_sizes[np.asarray(m.pages_by_server[server_id], dtype=np.intp)].sum()
    ) if m.pages_by_server[server_id] else 0.0
    used = html_bytes + alloc.stored_bytes(server_id)
    if used <= capacity + _TOL:
        return stats
    if html_bytes > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: hosted HTML ({html_bytes:.0f} B) alone "
            f"exceeds storage capacity ({capacity:.0f} B)"
        )

    replicas = alloc.replicas[server_id]
    heap: list[tuple[float, int]] = []
    current: dict[int, float] = {}

    def push(k: int) -> None:
        raw = _eviction_delta(cost, alloc, state, server_id, k, rev)
        score = raw / float(m.sizes[k]) if amortise else raw
        current[k] = score
        heapq.heappush(heap, (score, k))

    for k in replicas:
        push(int(k))

    while used > capacity + _TOL:
        popped = _pop_current(heap, current, replicas.__contains__)
        if popped is None:
            raise InfeasibleError(
                f"server {server_id}: storage constraint unrestorable "
                f"(used {used:.0f} B > capacity {capacity:.0f} B with no "
                "replicas left)"
            )
        delta, k = popped
        size = float(m.sizes[k])
        flipped_pages = _evict_replica(alloc, state, server_id, k, rev)
        used -= size
        stats.evictions += 1
        stats.bytes_freed += size
        stats.objective_delta += delta * size if amortise else delta
        stats.evicted_objects.append((server_id, k))
        if decisions is not None:
            decisions.append((k, delta))
        if flipped_pages:
            # Paper: after each deallocation, try to reduce the retrieval
            # time of the affected pages using objects that are stored but
            # unmarked.  Every replica marked local on one of those pages,
            # before or after the re-partition, scores against moved totals.
            dirty = _local_objects(alloc, flipped_pages)
            for j in flipped_pages:
                if _repartition_page(alloc, state, server_id, j):
                    stats.repartitioned_pages += 1
            dirty |= _local_objects(alloc, flipped_pages)
            for k2 in dirty:
                if k2 in replicas:
                    push(k2)
    return stats


def restore_storage_scalar(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    amortise: bool = True,
    servers: Iterable[int] | None = None,
    decisions: list | None = None,
) -> StorageRestorationStats:
    """Reference of :func:`repro.core.restoration.restore_storage_capacity`.

    ``decisions``, when given, receives one ``(object, score)`` pair per
    eviction, server after server, as the engine logs them.
    """
    stats = StorageRestorationStats()
    state = _PageState(cost, alloc)
    ids = server_id if servers is None else servers
    for i in _server_ids(alloc.model.n_servers, ids):
        stats.merge(
            _restore_storage_one_server(
                alloc, cost, state, i, amortise=amortise, decisions=decisions
            )
        )
    return stats


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def _switch_score(
    alloc: Allocation, cost: CostModel, state: _PageState, key: int
) -> float:
    """Objective damage of switching candidate ``key`` to its best remote
    stream, per request/second it sheds (``inf`` when it sheds nothing)."""
    m = alloc.model
    shed = _candidate_load(alloc, key)
    if shed <= 0:
        return np.inf
    nc = len(m.comp_objects)
    if key < nc:
        j = int(m.comp_pages[key])
        size = float(m.sizes[m.comp_objects[key]])
        old = state.page_time(j)
        new = state.page_time_if_moved_remote(j, size)
        return cost.alpha1 * m.frequencies[j] * (new - old) / shed
    return optional_entry_delta(cost, key - nc, to_local=False) / shed


def _switch_remote(alloc: Allocation, state: _PageState, key: int) -> int:
    """Switch candidate ``key``'s download to the remote stream that ends
    up shortest; return its object id."""
    m = alloc.model
    nc = len(m.comp_objects)
    if key >= nc:
        alloc.set_opt_local(key - nc, False)
        return int(m.opt_objects[key - nc])
    j = int(m.comp_pages[key])
    k = int(m.comp_objects[key])
    size = float(m.sizes[k])
    alloc.set_comp_local(key, False)
    r = state.best_stream(j, size)
    alloc.comp_stream[key] = r
    state.move_remote(j, size, r)
    return k


def _restore_processing_one_server(
    alloc: Allocation,
    cost: CostModel,
    state: _PageState,
    server_id: int,
    decisions: list | None = None,
) -> ProcessingRestorationStats:
    m = alloc.model
    stats = ProcessingRestorationStats()
    capacity = float(m.server_capacity[server_id])
    if np.isinf(capacity):
        return stats

    pages_here = np.asarray(m.pages_by_server[server_id], dtype=np.intp)
    html_load = float(m.frequencies[pages_here].sum()) if len(pages_here) else 0.0
    load = float(local_processing_load(alloc)[server_id])
    if load <= capacity + _TOL:
        return stats
    if html_load > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: HTML request load ({html_load:.2f} req/s) "
            f"alone exceeds processing capacity ({capacity:.2f} req/s)"
        )

    nc = len(m.comp_objects)
    heap: list[tuple[float, int]] = []
    current: dict[int, float] = {}

    def push(key: int) -> None:
        score = _switch_score(alloc, cost, state, key)
        current[key] = score
        heapq.heappush(heap, (score, key))

    def alive(key: int) -> bool:
        return bool(
            alloc.comp_local[key] if key < nc else alloc.opt_local[key - nc]
        )

    ctx = alloc.ctx
    for e in (alloc.comp_local & (ctx.comp_server == server_id)).nonzero()[0]:
        push(int(e))
    for e in (alloc.opt_local & (ctx.opt_server == server_id)).nonzero()[0]:
        push(nc + int(e))

    # Absolute tolerance scaled to the capacity: the running ``load``
    # accumulates one floating subtraction per switch, and a fraction-0
    # sweep must terminate exactly when only HTML requests remain.
    tol = max(_TOL, 1e-9 * max(capacity, html_load, 1.0))
    switches_since_resync = 0
    while True:
        if switches_since_resync >= 4096:
            # periodic mid-loop resync bounds accumulated drift
            load = float(local_processing_load(alloc)[server_id])
            switches_since_resync = 0
        if load <= capacity + tol:
            # The running accumulator says Eq. 8 holds — but it drifts by
            # one floating subtraction per switch, so trust only an exact
            # recomputation to declare done.
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
        popped = _pop_current(heap, current, alive)
        if popped is None:
            # no candidates left: re-verify against the exact load before
            # declaring infeasibility (the accumulator may overestimate)
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
            raise InfeasibleError(
                f"server {server_id}: processing constraint unrestorable "
                f"(load {load:.2f} req/s > capacity {capacity:.2f} req/s "
                "with no local downloads left)"
            )
        amortised, key = popped
        shed = _candidate_load(alloc, key)
        k = _switch_remote(alloc, state, key)
        if key < nc:
            # the page's other local entries now score against new totals
            sl = m.comp_slice(int(m.comp_pages[key]))
            for e2 in range(sl.start, sl.stop):
                if alloc.comp_local[e2]:
                    push(e2)
        stats.switches += 1
        stats.load_shed += shed
        stats.objective_delta += amortised * shed
        load -= shed
        switches_since_resync += 1
        if decisions is not None:
            decisions.append((key, amortised))
        # Paper: an object no longer marked local by any page on the
        # server is deallocated, freeing storage as a bonus.
        if alloc.mark_count(server_id, k) == 0 and k in alloc.replicas[server_id]:
            alloc.replicas[server_id].discard(k)
            stats.deallocations += 1
    assert load <= capacity + tol, (
        f"server {server_id}: Eq. 8 violated on exit "
        f"({load:.6f} > {capacity:.6f} + tol)"
    )
    return stats


def restore_processing_scalar(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    servers: Iterable[int] | None = None,
    decisions: list | None = None,
) -> ProcessingRestorationStats:
    """Reference of :func:`repro.core.restoration.restore_processing_capacity`.

    ``decisions``, when given, receives one ``(key, score)`` pair per
    switch, server after server, as the engine logs them.
    """
    stats = ProcessingRestorationStats()
    state = _PageState(cost, alloc)
    ids = server_id if servers is None else servers
    for i in _server_ids(alloc.model.n_servers, ids):
        stats.merge(
            _restore_processing_one_server(alloc, cost, state, i, decisions)
        )
    return stats


# ----------------------------------------------------------------------
# OFF_LOADING (Eq. 9)
# ----------------------------------------------------------------------
def _absorb_score(
    alloc: Allocation,
    cost: CostModel,
    key: int,
    local_bytes: np.ndarray,
    remote_bytes: np.ndarray,
) -> float:
    """Objective damage of marking candidate ``key`` local, per
    request/second it absorbs (``inf`` when it absorbs nothing)."""
    m = alloc.model
    w = _candidate_load(alloc, key)
    if w <= 0:
        return np.inf
    nc = len(m.comp_objects)
    if key >= nc:
        return optional_entry_delta(cost, key - nc, to_local=True) / w
    j = int(m.comp_pages[key])
    size = float(m.sizes[m.comp_objects[key]])
    lb, rb = local_bytes[j], remote_bytes[j]
    old = page_time_from_stream_bytes(cost, j, lb, (rb,))
    new = page_time_from_stream_bytes(cost, j, lb + size, (rb - size,))
    return cost.alpha1 * m.frequencies[j] * (new - old) / w


def absorb_scalar(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool = True,
    allow_swap: bool = True,
    counters: dict[str, int] | None = None,
) -> float:
    """Reference of :func:`repro.core.offload.absorb_extra_workload`.

    Candidates are the server's remote entries at entry, keyed ``e`` for
    compulsory entry ``e`` and ``NC + e`` for optional entry ``e``; each
    step takes the live one with the lowest ``(fresh score, key)``.  A
    refused candidate — weightless, heavier than the CPU slack, needing
    a replica it may not create, or blocked by a failed swap — is
    retired for good.  A successful swap re-admits the absorbed
    candidates it turns remote again.  Every L2 swap ranks its victims
    afresh.  ``counters``, when given, receives ``absorptions``,
    ``swap_attempts``, ``swaps`` and ``swap_rankings``.
    """
    if target <= _TOL:
        return 0.0
    m = alloc.model
    cap = float(m.server_capacity[server_id])
    load = float(local_processing_load(alloc)[server_id])
    cpu_slack = np.inf if np.isinf(cap) else cap - load
    space = float(m.server_storage[server_id] - storage_used(alloc)[server_id])

    local_bytes = cost.local_mo_bytes(alloc)
    (remote_bytes,) = cost.remote_mo_bytes_by_stream(alloc)
    ctx = alloc.ctx
    nc = len(m.comp_objects)

    heap: list[tuple[float, int]] = []
    current: dict[int, float] = {}

    def push(key: int) -> None:
        score = _absorb_score(alloc, cost, key, local_bytes, remote_bytes)
        current[key] = score
        heapq.heappush(heap, (score, key))

    candidate = np.zeros(nc + len(m.opt_objects), dtype=bool)
    live = candidate.copy()
    for e in ((~alloc.comp_local) & (ctx.comp_server == server_id)).nonzero()[0]:
        candidate[e] = live[e] = True
        push(int(e))
    for e in ((~alloc.opt_local) & (ctx.opt_server == server_id)).nonzero()[0]:
        candidate[nc + e] = live[nc + e] = True
        push(nc + int(e))

    def rescore_pages(pages: list[int]) -> None:
        for j in set(pages):
            sl = m.comp_slice(j)
            for e in range(sl.start, sl.stop):
                if live[e]:
                    push(e)

    absorbed = 0.0
    while absorbed < target - _TOL and cpu_slack > _TOL:
        popped = _pop_current(heap, current, live.__getitem__)
        if popped is None:
            break
        _, key = popped
        live[key] = False  # accepted or refused, it leaves the set
        w = _candidate_load(alloc, key)
        if w <= 0 or w > cpu_slack + _TOL:
            continue
        e = key if key < nc else key - nc
        k = int(m.comp_objects[e] if key < nc else m.opt_objects[e])
        dirty_pages: list[int] = []
        unmarked: list[int] = []
        if k not in alloc.replicas[server_id]:
            size = float(m.sizes[k])
            if not allow_new_replicas:
                continue
            if size > space + _TOL:
                # L2-style swap: make room if the trade gains workload,
                # against a fresh victim ranking (never cached)
                if not allow_swap:
                    continue
                _tally(counters, swap_rankings=1)
                _tally(counters, swap_attempts=1)
                ok, freed_sizes, flip_c, flip_o, flip_pages = _try_make_room(
                    alloc,
                    server_id,
                    _rank_victims(alloc, server_id),
                    size - space,
                    min(w, target - absorbed),
                    local_bytes,
                    remote_bytes,
                )
                if not ok:
                    continue
                _tally(counters, swaps=1)
                for sz in freed_sizes:
                    space += sz
                unmarked = flip_c + [nc + e2 for e2 in flip_o]
                dirty_pages = flip_pages
            space -= size
        if key < nc:
            j = int(m.comp_pages[e])
            size_k = float(m.sizes[k])
            alloc.set_comp_local(e, True)
            local_bytes[j] += size_k
            remote_bytes[j] -= size_k
            dirty_pages.append(j)
        else:
            alloc.set_opt_local(e, True)
        absorbed += w
        cpu_slack -= w
        _tally(counters, absorptions=1)
        for key2 in unmarked:
            if candidate[key2]:
                live[key2] = True
                if key2 >= nc:
                    push(key2)
        rescore_pages(dirty_pages)
    return absorbed


def offload_scalar(
    alloc: Allocation,
    cost: CostModel,
    config: OffloadConfig | None = None,
    capacity: float | None = None,
    counters: dict[str, int] | None = None,
) -> OffloadOutcome:
    """OFF_LOADING_REPOSITORY with every absorption run by
    :func:`absorb_scalar`, through :func:`offload_repository`'s scatter
    seam (the serial scatter's contract: requests in plan order)."""

    def scatter(alloc, cost, requests, *, allow_swap=True):
        return {
            i: absorb_scalar(
                alloc,
                cost,
                i,
                req,
                allow_new_replicas=allow_new,
                allow_swap=allow_swap,
                counters=counters,
            )
            for i, req, allow_new in requests
        }

    return offload_repository(alloc, cost, config, capacity=capacity, scatter=scatter)


# ----------------------------------------------------------------------
# whole pipeline
# ----------------------------------------------------------------------
#: Phase entry points :func:`scalar_phases` replaces, with their
#: references (the production ``kernel=`` keyword is dropped).
_PHASES = {
    "partition_all": lambda *a, kernel=None, **kw: partition_all_scalar(*a, **kw),
    "restore_storage_capacity": (
        lambda *a, kernel=None, **kw: restore_storage_scalar(*a, **kw)
    ),
    "restore_processing_capacity": (
        lambda *a, kernel=None, **kw: restore_processing_scalar(*a, **kw)
    ),
    "offload_repository": lambda *a, kernel=None, **kw: offload_scalar(*a, **kw),
}


@contextlib.contextmanager
def scalar_phases(*modules) -> Iterator[None]:
    """Run PARTITION, both restorations and OFF_LOADING on the reference
    loops inside the ``with`` block.

    Rebinds the phase entry points that
    :class:`repro.core.policy.RepositoryReplicationPolicy` and
    :class:`repro.dynamic.incremental.IncrementalReplanner` call, plus
    those imported into any extra ``modules`` (e.g. a scenario builder
    that partitions a reference allocation itself).
    """
    import repro.core.policy
    import repro.dynamic.incremental

    with contextlib.ExitStack() as stack:
        for mod in (repro.core.policy, repro.dynamic.incremental, *modules):
            for name, ref in _PHASES.items():
                if hasattr(mod, name):
                    stack.enter_context(mock.patch.object(mod, name, ref))
        yield

