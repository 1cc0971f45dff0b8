"""Stateful replay for cache baselines (Section 5.2's ideal LRU, plus
GreedyDual-Size).

The paper compares against "an ideal LRU caching/redirection scheme with
0 redirection overhead": each local server keeps an LRU cache of
multimedia objects; a requested object found in the cache is served over
the local pipelined stream, a miss is served directly from the
repository (paying only the repository's normal connection attributes —
the *redirection* itself is free, the idealisation) and is then inserted
into the cache, evicting least-recently-used objects as needed.

Consequences the paper highlights:

* at 100% storage the cache eventually holds everything and LRU
  degenerates to the Local policy (all objects on one stream), which is
  why "LRU's performance is comparable to the local policy" there;
* LRU adapts to the realised request stream rather than to frequency
  estimates, which is its advantage at small cache sizes.

The replay is two-pass.  The first pass resolves every download to
hit/miss one server at a time: NumPy lays the server's accesses out in
trace order (each request's compulsory objects, then its optional
downloads), and the cache's :meth:`~LruCache.replay` walks that stream
in one inlined loop over Python lists.  The second pass hands the
resulting local/remote split to the shared vectorised measurement core
(:func:`repro.simulation.engine.simulate_partition_masks`) for pricing.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.types import expand_rows
from repro.obs.registry import get_registry
from repro.simulation.engine import simulate_partition_masks
from repro.simulation.metrics import SimulationResult
from repro.simulation.perturbation import PAPER_PERTURBATION, PerturbationModel
from repro.util.rng import as_generator
from repro.workload.trace import RequestTrace

__all__ = ["LruCache", "GreedyDualSizeCache", "LruStats", "simulate_lru"]


class LruCache:
    """A byte-budgeted LRU cache of multimedia objects.

    :meth:`replay` is the engine: it walks a stream of accesses, reports
    which were hits, refreshes recency (on hit) or inserts (on miss), and
    evicts least-recently-used objects until the budget holds.  Objects
    larger than the whole budget are never cached.  :meth:`access` is a
    one-element replay.
    """

    def __init__(self, capacity_bytes: float):
        if not capacity_bytes >= 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity = float(capacity_bytes)
        self._entries: OrderedDict[int, float] = OrderedDict()
        self.used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def access(self, object_id: int, size: float, cost: float | None = None) -> bool:
        """Record an access; return ``True`` on hit.

        ``cost`` is accepted for interface parity with the cost-aware
        caches and ignored.
        """
        return bool(self.replay((object_id,), (size,))[0])

    def replay(
        self,
        objects: Sequence[int],
        sizes: Sequence[float],
        costs: Sequence[float] | None = None,
    ) -> bytearray:
        """Access ``objects[t]`` with size ``sizes[t]`` for each ``t`` in
        order; return the hit flags (1 = hit) as a ``bytearray``.

        A hit with a *different* size (an updated object) re-accounts its
        bytes and evicts least-recently-used objects; the refreshed object
        goes only if it alone exceeds the budget.  ``costs`` is ignored
        (see :meth:`access`).  The loop is inlined over the cache's bound
        methods with the byte count in a local, and hits are counted from
        the flags once at the end; state carries over between calls.
        """
        entries = self._entries
        get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.capacity
        used = self.used
        evictions = 0
        flags = bytearray(len(objects))
        t = -1
        for k, size in zip(objects, sizes):
            t += 1
            old = get(k)
            if old is not None:
                move_to_end(k)
                flags[t] = 1
                if size == old:
                    continue
                # k is now the most recent entry, so the evictions below
                # reach it only once it alone exceeds the budget
                entries[k] = size
                used += size - old
            elif size <= capacity:
                entries[k] = size
                used += size
            else:
                continue
            while used > capacity and entries:
                used -= popitem(last=False)[1]
                evictions += 1
        hits = flags.count(1)
        self.used = used
        self.hits += hits
        self.misses += len(flags) - hits
        self.evictions += evictions
        return flags

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class GreedyDualSizeCache:
    """GreedyDual-Size (Cao & Irani, USITS 1997) — the strongest
    size-aware web-cache policy contemporaneous with the paper.

    Each cached object carries a credit ``H = L + cost/size`` where ``L``
    is an inflating baseline; eviction removes the minimum-``H`` object
    and raises ``L`` to its credit, so objects decay unless re-accessed.
    ``cost`` is the miss penalty — here the repository download latency
    ``Ovhd(R,S_i) + Size/B(R,S_i)`` — so ``cost/size`` rewards small
    objects (their connection overhead amortises over few bytes),
    which is exactly GDS's edge over LRU.  With a cost *proportional* to
    size the credit becomes uniform and GDS provably degenerates to LRU
    (with the standard recency tie-break), a property the tests pin.

    The class mirrors :class:`LruCache`'s ``access`` and ``replay``
    interface so :func:`simulate_lru` accepts either via its
    ``cache_factory`` hook.
    """

    def __init__(self, capacity_bytes: float):
        if not capacity_bytes >= 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity = float(capacity_bytes)
        self._credit: dict[int, float] = {}
        self._sizes: dict[int, float] = {}
        self._touched: dict[int, int] = {}
        # lazy min-heap of (credit, touch_seq, object_id); entries whose
        # credit/touch no longer match the dicts are stale and discarded
        # on pop — the standard O(log n) GreedyDual implementation
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._baseline = 0.0
        self.used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._credit

    def __len__(self) -> int:
        return len(self._credit)

    def _set_credit(self, object_id: int, credit: float) -> None:
        self._credit[object_id] = credit
        self._touched[object_id] = self._seq
        heapq.heappush(self._heap, (credit, self._seq, object_id))

    def _evict_one(self, protect: int | None = None) -> bool:
        deferred: tuple[float, int, int] | None = None
        while self._heap:
            credit, touched, k = heapq.heappop(self._heap)
            if (
                k not in self._credit
                or self._credit[k] != credit
                or self._touched[k] != touched
            ):
                continue  # stale entry
            if k == protect:
                deferred = (credit, touched, k)
                continue
            self._baseline = credit
            self.used -= self._sizes.pop(k)
            del self._credit[k]
            del self._touched[k]
            self.evictions += 1
            if deferred is not None:
                heapq.heappush(self._heap, deferred)
            return True
        if deferred is not None:
            heapq.heappush(self._heap, deferred)
        return False

    def access(self, object_id: int, size: float, cost: float | None = None) -> bool:
        """Record an access; return ``True`` on hit.

        ``cost`` is the miss penalty used for the credit (defaults to
        ``size``, i.e. the LRU-degenerate uniform credit).
        """
        self._seq += 1
        credit = self._baseline + (size if cost is None else cost) / max(size, 1e-12)
        if object_id in self._credit:
            self.hits += 1
            self._set_credit(object_id, credit)
            old = self._sizes[object_id]
            if size != old:
                self._sizes[object_id] = size
                self.used += size - old
                while self.used > self.capacity and self._credit:
                    self._evict_one()
            return True
        self.misses += 1
        if size <= self.capacity:
            self._sizes[object_id] = size
            self._set_credit(object_id, credit)
            self.used += size
            # never immediately evict the object just admitted unless it
            # alone still overflows the budget
            while self.used > self.capacity:
                if not self._evict_one(protect=object_id):
                    break
            if self.used > self.capacity and object_id in self._credit:
                self.used -= self._sizes.pop(object_id)
                del self._credit[object_id]
                del self._touched[object_id]
                self.evictions += 1
        return False

    def replay(
        self,
        objects: Sequence[int],
        sizes: Sequence[float],
        costs: Sequence[float] | None = None,
    ) -> bytearray:
        """:meth:`access` each ``(objects[t], sizes[t], costs[t])`` in
        order; return the hit flags (1 = hit) as a ``bytearray``."""
        if costs is not None:
            costs = np.asarray(costs, dtype=float).tolist()
        access = self.access
        flags = bytearray(len(objects))
        for t, (k, size) in enumerate(zip(objects, sizes)):
            if access(k, size, None if costs is None else costs[t]):
                flags[t] = 1
        return flags

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class LruStats:
    """Aggregate cache behaviour of one LRU replay."""

    hits: int
    misses: int
    evictions: int
    final_bytes_by_server: np.ndarray

    @property
    def hit_rate(self) -> float:
        """Overall hit rate across all servers."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def simulate_lru(
    trace: RequestTrace,
    cache_bytes: np.ndarray | float,
    perturbation: PerturbationModel = PAPER_PERTURBATION,
    seed: int | np.random.Generator | None = 2,
    local_service_prob: float = 1.0,
    extra_remote_overhead: float = 0.0,
    cache_factory=LruCache,
) -> tuple[SimulationResult, LruStats]:
    """Replay ``trace`` through per-server LRU caches.

    Parameters
    ----------
    trace:
        The request trace (requests are processed in trace order within
        each server; caches are independent across servers).
    cache_bytes:
        Cache budget per server for multimedia objects — a scalar or a
        per-server array.  HTML documents live outside the cache (they
        are always hosted locally).
    perturbation:
        Deviation model for actual network attributes.
    seed:
        RNG for perturbations and the capacity coin-flips.
    local_service_prob:
        Models the Eq. 8 processing-capacity constraint the paper applies
        to LRU: each cache hit is actually served locally only with this
        probability (an overloaded server bounces the download to the
        repository). 1.0 = unconstrained.
    extra_remote_overhead:
        Extra redirection latency per remote download; the paper's
        *ideal* scheme uses 0.
    cache_factory:
        Cache class constructed per server with one positional byte
        budget — :class:`LruCache` (default, the paper's baseline) or
        :class:`GreedyDualSizeCache`.  Instances must provide
        ``replay(objects, sizes, costs) -> bytearray``: access the
        objects in order and return one hit flag per access.  ``objects``
        and ``sizes`` arrive as Python lists; ``costs`` is a float array
        of each download's miss penalty ``Ovhd(R,S_i) + Size/B(R,S_i)``,
        left unconverted so a cost-blind cache pays nothing for it.
        Instances also expose ``hits``, ``misses``, ``evictions`` and
        ``used``.

    Returns
    -------
    (SimulationResult, LruStats)
    """
    m = trace.model
    rng = as_generator(seed)
    budgets = np.broadcast_to(
        np.asarray(cache_bytes, dtype=float), (m.n_servers,)
    )
    bad = np.flatnonzero(~(budgets >= 0))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"cache_bytes for server {i} must be >= 0, got {budgets[i]}"
        )
    if not 0.0 <= local_service_prob <= 1.0:
        raise ValueError(
            f"local_service_prob must be in [0, 1], got {local_service_prob}"
        )

    caches = [cache_factory(budgets[i]) for i in range(m.n_servers)]

    owner, entries = trace.comp_expansion(m.comp_indptr)
    pair_local = np.zeros(len(entries), dtype=bool)
    opt_local = np.zeros(trace.n_optional_downloads, dtype=bool)

    # pair ranges per request (pairs are laid out in request order)
    counts = np.diff(m.comp_indptr)[trace.page_of_request]
    pair_starts = np.concatenate(([0], np.cumsum(counts)))
    # optional downloads grouped by server, then by owning request; the
    # stable sort keeps one request's downloads in trace order
    opt_server = trace.server_of_request[trace.opt_owner]
    opt_order = np.lexsort((trace.opt_owner, opt_server))
    opt_bounds = np.searchsorted(
        opt_server[opt_order], np.arange(m.n_servers + 1)
    )

    reg = get_registry()
    with reg.span("simulate-lru"):
        for i, cache in enumerate(caches):
            # server i's accesses in trace order: each request's
            # compulsory pairs, then its optional downloads
            reqs = trace.requests_for_server(i)
            _, pairs = expand_rows(pair_starts[reqs], counts[reqs])
            opts = opt_order[opt_bounds[i] : opt_bounds[i + 1]]
            opt_owner = trace.opt_owner[opts]
            at = np.searchsorted(owner[pairs], opt_owner, side="right")
            objects = np.insert(
                m.comp_objects[entries[pairs]],
                at,
                m.opt_objects[trace.opt_entries[opts]],
            )
            opt_at = at + np.arange(len(opts))
            size = m.sizes[objects]
            cost = float(m.server_repo_overhead[i]) + size * (
                1.0 / float(m.server_repo_rate[i])
            )
            hit = np.frombuffer(
                cache.replay(objects.tolist(), size.tolist(), cost), dtype=bool
            )
            if local_service_prob < 1.0:
                # an overloaded server serves each hit locally only with
                # this probability: one draw per hit in access order
                served = np.flatnonzero(hit)
                hit[served] = rng.random(len(served)) < local_service_prob
            pair_local[pairs] = np.delete(hit, opt_at)
            opt_local[opts] = hit[opt_at]

    result = simulate_partition_masks(
        trace,
        pair_local,
        opt_local,
        perturbation=perturbation,
        seed=rng,
        extra_remote_overhead=extra_remote_overhead,
    )
    stats = LruStats(
        hits=sum(c.hits for c in caches),
        misses=sum(c.misses for c in caches),
        evictions=sum(c.evictions for c in caches),
        final_bytes_by_server=np.array([c.used for c in caches]),
    )
    if reg.enabled:
        reg.count("simulation.lru_accesses", stats.hits + stats.misses)
        reg.count("simulation.lru_hits", stats.hits)
        reg.count("simulation.lru_evictions", stats.evictions)
    return result, stats
