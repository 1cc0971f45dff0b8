"""Brute-force exact-argmin oracles for the three Section 4.2 loops.

Each step rescores **every** live candidate from scratch with the scalar
score formulas and takes ``min((score, key))`` — no dirty-set
bookkeeping, no heap.  The state updates (mark flips, byte totals,
re-partitions) reuse the scalar reference's helpers
(:mod:`tests.oracles.scalar_greedy`), so the byte totals
evolve through the same float operations as in the engines and every
score is comparable bit for bit.  An engine whose dirty set misses a
candidate keeps a stale score for it, and its decision log drifts from
the oracle's.

Every oracle returns its decision log: one ``(key, score)`` per
eviction, switch or absorption, keyed like the engines (object id for
storage; ``e`` / ``NC + e`` for compulsory / optional entries).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, storage_used
from repro.core.cost_model import CostModel
from repro.core.offload import _rank_victims, _try_make_room
from tests.oracles.scalar_greedy import (
    _TOL,
    ReverseIndex,
    _absorb_score,
    _candidate_load,
    _eviction_delta,
    _evict_replica,
    _PageState,
    _repartition_page,
    _switch_remote,
    _switch_score,
)


def storage_oracle(
    alloc: Allocation, cost: CostModel, server_id: int, amortise: bool = True
) -> list[tuple[int, float]]:
    m = alloc.model
    rev = ReverseIndex.for_model(m)
    state = _PageState(cost, alloc)
    replicas = alloc.replicas[server_id]
    pages = np.asarray(m.pages_by_server[server_id], dtype=np.intp)
    used = float(m.html_sizes[pages].sum()) + alloc.stored_bytes(server_id)
    capacity = m.server_storage[server_id]
    log = []
    while used > capacity + _TOL:
        scored = []
        for k in replicas:
            raw = _eviction_delta(cost, alloc, state, server_id, int(k), rev)
            scored.append((raw / float(m.sizes[k]) if amortise else raw, int(k)))
        score, k = min(scored)
        for j in _evict_replica(alloc, state, server_id, k, rev):
            _repartition_page(alloc, state, server_id, j)
        used -= float(m.sizes[k])
        log.append((k, score))
    return log


def processing_oracle(
    alloc: Allocation, cost: CostModel, server_id: int
) -> list[tuple[int, float]]:
    m = alloc.model
    ctx = alloc.ctx
    state = _PageState(cost, alloc)
    nc = len(m.comp_objects)
    capacity = float(m.server_capacity[server_id])
    pages = np.asarray(m.pages_by_server[server_id], dtype=np.intp)
    html_load = float(m.frequencies[pages].sum())
    tol = max(_TOL, 1e-9 * max(capacity, html_load, 1.0))
    log = []
    # the engines' termination rule: a running load, trusted only after
    # an exact recomputation agrees
    load = float(local_processing_load(alloc)[server_id])
    if load <= capacity + _TOL:
        return log
    while True:
        if load <= capacity + tol:
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                return log
        live = [
            int(e)
            for e in (alloc.comp_local & (ctx.comp_server == server_id)).nonzero()[0]
        ] + [
            nc + int(e)
            for e in (alloc.opt_local & (ctx.opt_server == server_id)).nonzero()[0]
        ]
        if not live:
            return log
        score, key = min((_switch_score(alloc, cost, state, q), q) for q in live)
        shed = _candidate_load(alloc, key)
        k = _switch_remote(alloc, state, key)
        load -= shed
        if alloc.mark_count(server_id, k) == 0:
            alloc.replicas[server_id].discard(k)
        log.append((key, score))


def absorption_oracle(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool = True,
    allow_swap: bool = True,
) -> tuple[float, list[tuple[int, float]]]:
    m = alloc.model
    ctx = alloc.ctx
    nc = len(m.comp_objects)
    if target <= _TOL:
        return 0.0, []
    cap = float(m.server_capacity[server_id])
    load = float(local_processing_load(alloc)[server_id])
    cpu_slack = np.inf if np.isinf(cap) else cap - load
    space = float(m.server_storage[server_id] - storage_used(alloc)[server_id])
    local_bytes = cost.local_mo_bytes(alloc)
    (remote_bytes,) = cost.remote_mo_bytes_by_stream(alloc)
    candidates = {
        int(e)
        for e in ((~alloc.comp_local) & (ctx.comp_server == server_id)).nonzero()[0]
    } | {
        nc + int(e)
        for e in ((~alloc.opt_local) & (ctx.opt_server == server_id)).nonzero()[0]
    }
    live = set(candidates)
    absorbed = 0.0
    log = []
    while live and absorbed < target - _TOL and cpu_slack > _TOL:
        score, key = min(
            (_absorb_score(alloc, cost, q, local_bytes, remote_bytes), q)
            for q in live
        )
        live.discard(key)
        w = _candidate_load(alloc, key)
        if w <= 0 or w > cpu_slack + _TOL:
            continue
        e = key if key < nc else key - nc
        k = int(m.comp_objects[e] if key < nc else m.opt_objects[e])
        if k not in alloc.replicas[server_id]:
            size = float(m.sizes[k])
            if not allow_new_replicas:
                continue
            if size > space + _TOL:
                if not allow_swap:
                    continue
                ok, freed, flip_c, flip_o, _ = _try_make_room(
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
                for sz in freed:
                    space += sz
                live |= candidates & (set(flip_c) | {nc + e2 for e2 in flip_o})
            space -= size
        if key < nc:
            j = int(m.comp_pages[e])
            alloc.set_comp_local(e, True)
            local_bytes[j] += float(m.sizes[k])
            remote_bytes[j] -= float(m.sizes[k])
        else:
            alloc.set_opt_local(e, True)
        absorbed += w
        cpu_slack -= w
        log.append((key, score))
    return absorbed, log
