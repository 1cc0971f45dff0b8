"""Pure-Python reference oracles for the LRU replay.

``ReferenceLruCache`` is the per-access LRU rule (one method call per
access, eviction in a helper) and ``simulate_lru_reference`` the
per-access replay loop that walks each server's requests and draws one
coin per hit.  :class:`repro.simulation.lru_sim.LruCache.replay` and
:func:`repro.simulation.lru_sim.simulate_lru` must match them bit for
bit; the differential tests check that.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.simulation.engine import simulate_partition_masks
from repro.simulation.lru_sim import LruStats
from repro.simulation.perturbation import PAPER_PERTURBATION
from repro.util.rng import as_generator


class ReferenceLruCache:
    """Byte-budgeted LRU cache, one access at a time."""

    def __init__(self, capacity_bytes: float):
        self.capacity = float(capacity_bytes)
        self._entries: OrderedDict[int, float] = OrderedDict()
        self.used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, object_id: int, size: float, cost: float | None = None) -> bool:
        if object_id in self._entries:
            old = self._entries[object_id]
            self._entries.move_to_end(object_id)
            self.hits += 1
            if size != old:
                self._entries[object_id] = size
                self.used += size - old
                self._evict_to_fit(keep=object_id)
            return True
        self.misses += 1
        if size <= self.capacity:
            self._entries[object_id] = size
            self.used += size
            self._evict_to_fit()
        return False

    def _evict_to_fit(self, keep: int | None = None) -> None:
        while self.used > self.capacity and self._entries:
            key = next(iter(self._entries))
            if key == keep:
                if len(self._entries) == 1:
                    # the refreshed object alone exceeds the budget
                    self.used -= self._entries.pop(key)
                    self.evictions += 1
                    return
                self._entries.move_to_end(key)
                continue
            self.used -= self._entries.pop(key)
            self.evictions += 1


def simulate_lru_reference(
    trace,
    cache_bytes,
    perturbation=PAPER_PERTURBATION,
    seed=2,
    local_service_prob: float = 1.0,
    extra_remote_overhead: float = 0.0,
    cache_factory=ReferenceLruCache,
):
    """The per-access ``simulate_lru`` loop."""
    m = trace.model
    rng = as_generator(seed)
    budgets = np.broadcast_to(np.asarray(cache_bytes, dtype=float), (m.n_servers,))
    caches = [cache_factory(budgets[i]) for i in range(m.n_servers)]

    owner, entries = trace.comp_expansion(m.comp_indptr)
    pair_local = np.zeros(len(entries), dtype=bool)
    opt_local = np.zeros(trace.n_optional_downloads, dtype=bool)

    opt_by_owner: dict[int, list[int]] = {}
    for idx, r in enumerate(trace.opt_owner):
        opt_by_owner.setdefault(int(r), []).append(idx)

    counts = m.comp_indptr[trace.page_of_request + 1] - m.comp_indptr[
        trace.page_of_request
    ]
    pair_starts = np.concatenate(([0], np.cumsum(counts)))

    sizes = m.sizes
    for i in range(m.n_servers):
        cache = caches[i]
        repo_ovhd = float(m.server_repo_overhead[i])
        repo_spb = 1.0 / float(m.server_repo_rate[i])
        for r in trace.requests_for_server(i):
            r = int(r)
            for p in range(int(pair_starts[r]), int(pair_starts[r + 1])):
                k = int(m.comp_objects[entries[p]])
                size_k = float(sizes[k])
                hit = cache.access(k, size_k, cost=repo_ovhd + size_k * repo_spb)
                if hit and (
                    local_service_prob >= 1.0 or rng.random() < local_service_prob
                ):
                    pair_local[p] = True
            for d in opt_by_owner.get(r, ()):
                k = int(m.opt_objects[trace.opt_entries[d]])
                size_k = float(sizes[k])
                hit = cache.access(k, size_k, cost=repo_ovhd + size_k * repo_spb)
                if hit and (
                    local_service_prob >= 1.0 or rng.random() < local_service_prob
                ):
                    opt_local[d] = True

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
    return result, stats
