"""The greedy-restoration engines of Section 4.2.

The Section 4.2 greedy loops — storage restoration, processing
restoration and OFF_LOADING's server-side absorption — each take, step
after step, the candidate action whose fresh score (objective damage per
unit) is lowest, ties going to the lowest candidate key.  This module
runs those loops on flat NumPy arrays for
:mod:`repro.core.restoration` and :mod:`repro.core.offload`.  The
scalar per-candidate priority-queue loops they were written against
live with the tests as the reference
(``tests/oracles/scalar_greedy.py``); the engines make the **same
decisions bit for bit** — every eviction, switch and absorption happens
for the same candidate with the same score.

Two pieces make a step cheap:

1. **Dirty-set rescoring.**  An action only moves the byte totals of the
   pages it touches, so only candidates with a term on those pages score
   differently afterwards.  Each step collects that dirty set as arrays,
   dedupes it and rescores it in one fused Eq. 3-5 pipeline plus
   one ``np.bincount`` segment sum whose in-order accumulation replays
   the scalar per-candidate ``+=`` fold term for term.

2. **An argmin picker** (:class:`ArgminPicker`).  A score vector aligned
   with the server's candidates in ascending key order, dead candidates
   at ``+inf``: ``np.argmin`` returns the first minimum, which is the
   lowest key among the best scores.

See DESIGN.md Appendix D for the full argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, storage_used
from repro.core.cost_model import CostModel
from repro.core.partition import partition_page

__all__ = [
    "ArgminPicker",
    "restore_storage_batched",
    "restore_processing_batched",
    "absorb_extra_workload_batched",
]

#: kept in lockstep with ``offload._TOL``
_TOL = 1e-9


class ArgminPicker:
    """Exact argmin over one server's candidates, ties to the lowest key.

    ``keys`` lists the candidates in ascending order; every one starts
    alive at score ``+inf`` until :meth:`set` scores it.  A dead
    candidate is pinned at ``+inf``, so one ``np.argmin`` over the
    persistent score vector is one selection — no per-step gather.
    Keys outside the candidate list map to a trailing sentinel slot that
    is never alive and never selected.
    """

    def __init__(self, keys: np.ndarray, n_keys: int):
        n = len(keys)
        self.keys = keys
        self.pos = np.full(n_keys, n, dtype=np.intp)
        self.pos[keys] = np.arange(n)
        self._score = np.full(n + 1, np.inf)
        self.alive = np.zeros(n + 1, dtype=bool)
        self.alive[:n] = True
        self._view = self._score[:n]

    def live(self, keys: np.ndarray) -> np.ndarray:
        """The members of ``keys`` that are live candidates."""
        return keys[self.alive[self.pos[keys]]]

    def live_distinct(self, keys: np.ndarray) -> np.ndarray:
        """The distinct live candidates among ``keys``, ascending — a
        mask over the candidate list, cheaper than ``np.unique`` on a
        long key list full of repeats."""
        hit = np.zeros(len(self.alive), dtype=bool)
        hit[self.pos[keys]] = True
        hit &= self.alive
        return self.keys[hit[:-1].nonzero()[0]]

    def set(self, keys: np.ndarray, scores: np.ndarray) -> None:
        """Install fresh scores for live candidates ``keys``."""
        self._score[self.pos[keys]] = scores

    def kill(self, pos) -> None:
        """Retire the candidates at positions ``pos`` (int or array)."""
        self.alive[pos] = False
        self._score[pos] = np.inf

    def revive(self, pos: np.ndarray) -> None:
        """Re-admit the candidates at positions ``pos``; the caller
        rescores them."""
        self.alive[pos] = True

    def pick(self) -> tuple[float, int] | None:
        """``(score, key)`` of the live candidate with the lowest
        ``(score, key)``, or ``None`` when none is left."""
        if not len(self._view):
            return None
        i = int(self._view.argmin())
        s = float(self._view[i])
        if s == np.inf:
            # every live candidate scores +inf (or none is left): the
            # lowest live key wins, as in the scalar (score, key) order
            live = self.alive[:-1].nonzero()[0]
            if not len(live):
                return None
            i = int(live[0])
        return s, int(self.keys[i])


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged-expand CSR (starts, counts) rows into (index, owner) pairs."""
    counts = np.asarray(counts, dtype=np.intp)
    if len(counts) == 1:
        c0 = int(counts[0])
        s0 = int(starts[0])
        return (
            np.arange(s0, s0 + c0, dtype=np.intp),
            np.zeros(c0, dtype=np.intp),
        )
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    if total == 0:
        return np.empty(0, dtype=np.intp), owner
    # row r's entries are starts[r] + (position - first position of r)
    idx = np.arange(total, dtype=np.intp)
    idx += np.repeat(np.asarray(starts, dtype=np.intp) - (ends - counts), counts)
    return idx, owner


def _page_entries(indptr: np.ndarray, pages) -> np.ndarray:
    """Every compulsory entry of ``pages`` (page order, ascending within)."""
    pages = np.asarray(pages, dtype=np.intp)
    starts = indptr[pages]
    return _expand(starts, indptr[pages + 1] - starts)[0]


def _bump(counters: dict | None, n: int) -> None:
    if counters is not None and n:
        counters["batches"] = counters.get("batches", 0) + 1
        counters["candidates"] = counters.get("candidates", 0) + n


def _move_remote_times(tl, tl2, size, repo, sites):
    """Eq. 5 page times before and after moving ``size`` bytes of each
    entry from its local stream onto its best remote stream.

    ``tl`` / ``tl2`` are the local stream times before and after the
    move; ``repo`` is the repository stream's ``(ovhd, spb, bytes)``
    triple of arrays and ``sites`` lists the same triple for each
    replica-site stream of a mesh.  The bytes land on the stream with
    the lowest post-move time, ties to the lowest index (the scalar
    ``best_stream`` rule).  One running fold over the streams keeps the
    incumbent's time before and after the move — the repository's
    first; a site that is strictly shorter after the move takes over,
    and the loser's unchanged time joins the ``other`` max.
    """
    ovhd, spb, rb = repo
    inc = ovhd + spb * rb
    inc2 = ovhd + spb * (rb + size)
    old = np.maximum(tl, inc)
    other = tl2
    for ovhd, spb, rb in sites:
        t = ovhd + spb * rb
        t2 = ovhd + spb * (rb + size)
        old = np.maximum(old, t)
        win = t2 < inc2
        other = np.maximum(other, np.where(win, inc, t))
        inc = np.where(win, t, inc)
        inc2 = np.where(win, t2, inc2)
    return old, np.maximum(other, inc2)


def _best_stream(ctx, RBs, j: int, size: float) -> int:
    """Remote stream (0-based) whose time on page ``j`` is lowest after
    receiving ``size`` bytes, ties to the lowest index: the repository
    unless a mesh's replica site is strictly shorter."""
    best = 0
    for r in range(1, len(RBs)):
        ovhd = ctx.scalars.ovhd_streams[j]
        spb = ctx.scalars.spb_streams[j]
        t = ovhd[r] + spb[r] * (RBs[r][j] + size)
        if t < ovhd[best] + spb[best] * (RBs[best][j] + size):
            best = r
    return best


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
class _EvictionScorer:
    """Bulk eviction-delta evaluation for one server.

    Precomputes a per-compulsory-entry attribute matrix (one 2-D fancy
    gather per flush) and per-object CSR group tables so that scoring a
    set of candidate objects is a single fused Eq. 3-5 pipeline plus one
    ``np.bincount`` segment sum.  The bincount accumulates weights
    sequentially in input order — compulsory terms in ascending entry
    order, then optional terms — replaying the scalar
    ``_eviction_delta`` ``+=`` fold bit-for-bit.
    """

    def __init__(self, cost: CostModel, alloc: Allocation, server_id: int):
        m = alloc.model
        self.m = m
        ctx = alloc.ctx
        n_rem = ctx.n_streams - 1
        self.sites = range(1, n_rem)
        # the per-server object-grouped CSR tables live in the shared
        # EvalContext (same layout _group_by_object produced per phase)
        self.ce, self.cstarts, self.ccounts = ctx.comp_group(server_id)
        pg = ctx.comp_pages[self.ce].astype(np.intp)
        self.pg = pg
        # rows: ovhd_l, spb_l, [ovhd_r, spb_r per remote stream],
        # html, alpha1*freq, size
        rows = [ctx.page_ovhd_local[pg], ctx.page_spb_local[pg]]
        for r in range(n_rem):
            rows.append(ctx.page_ovhd_streams[r][pg])
            rows.append(ctx.page_spb_streams[r][pg])
        rows.extend(
            [
                ctx.html_sizes[pg],
                cost.alpha1 * ctx.comp_freq[self.ce],
                ctx.comp_sizes[self.ce],
            ]
        )
        self.attrs = np.vstack(rows)
        self.oe, self.ostarts, self.ocounts = ctx.opt_group(server_id)
        self.oterm = cost.bulk_optional_entry_delta(self.oe, to_local=False)
        self.sizes = m.sizes

    def comp_entries(self, k: int) -> np.ndarray:
        """This object's compulsory entries on the server (ascending)."""
        s = self.cstarts[k]
        return self.ce[s : s + self.ccounts[k]]

    def opt_entries(self, k: int) -> np.ndarray:
        s = self.ostarts[k]
        return self.oe[s : s + self.ocounts[k]]

    def flush(
        self,
        cand: np.ndarray,
        comp_local: np.ndarray,
        opt_local: np.ndarray,
        LB: np.ndarray,
        RBs: list[np.ndarray],
        amortise: bool,
    ) -> np.ndarray:
        """Fresh eviction scores for candidate objects ``cand``.

        ``RBs[r-1]`` is stream ``r``'s per-page byte totals.  Each
        marked entry is scored as moving to the remote stream that ends
        up shortest after receiving it (:func:`_move_remote_times`).
        """
        idx, owner = _expand(self.cstarts[cand], self.ccounts[cand])
        if len(idx):
            mk = comp_local[self.ce[idx]]
            idx = idx[mk]
            owner = owner[mk]
        pg = self.pg[idx]
        A = self.attrs[:, idx]
        ovl, spl = A[0], A[1]
        html, a1f, sz = A[-3], A[-2], A[-1]
        lb = LB[pg]
        tl = ovl + spl * (html + lb)
        tl2 = ovl + spl * (html + (lb - sz))
        old, new = _move_remote_times(
            tl,
            tl2,
            sz,
            (A[2], A[3], RBs[0][pg]),
            [(A[2 + 2 * r], A[3 + 2 * r], RBs[r][pg]) for r in self.sites],
        )
        wc = a1f * (new - old)
        ocounts = self.ocounts[cand]
        if ocounts.any():
            oidx, oowner = _expand(self.ostarts[cand], ocounts)
            if len(oidx):
                omk = opt_local[self.oe[oidx]]
                oidx = oidx[omk]
                oowner = oowner[omk]
            ow = self.oterm[oidx]
            sums = np.bincount(
                np.concatenate((owner, oowner)),
                weights=np.concatenate((wc, ow)),
                minlength=len(cand),
            )
        else:
            # no optional terms: the concatenated fold degenerates to
            # the compulsory stream — same accumulation order
            sums = np.bincount(owner, weights=wc, minlength=len(cand))
        if amortise:
            sums = sums / self.sizes[cand]
        return sums


def restore_storage_batched(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    amortise: bool = True,
    counters: dict | None = None,
    decisions: list | None = None,
):
    """Storage restoration (Eq. 10) of one server.

    Evicts, step after step, the replica whose deallocation damages the
    objective least (per byte when ``amortise``) and re-partitions the
    pages it leaves, until the server fits.  Flips go through the
    per-entry setters in the reference loop's order.  ``decisions``,
    when given, receives one ``(object, score)`` pair per eviction.
    """
    # deferred: restoration imports this module at load
    from repro.core.restoration import InfeasibleError, StorageRestorationStats

    m = alloc.model
    stats = StorageRestorationStats()
    capacity = m.server_storage[server_id]
    html_bytes = (
        float(
            m.html_sizes[
                np.asarray(m.pages_by_server[server_id], dtype=np.intp)
            ].sum()
        )
        if m.pages_by_server[server_id]
        else 0.0
    )
    used = html_bytes + alloc.stored_bytes(server_id)
    if used <= capacity + _TOL:
        return stats
    if html_bytes > capacity + _TOL:
        raise InfeasibleError(
            f"server {server_id}: hosted HTML ({html_bytes:.0f} B) alone "
            f"exceeds storage capacity ({capacity:.0f} B)"
        )

    scorer = _EvictionScorer(cost, alloc, server_id)
    ctx = alloc.ctx
    LB = cost.local_mo_bytes(alloc)
    RBs = cost.remote_mo_bytes_by_stream(alloc)
    comp_stream = alloc.comp_stream
    comp_local = alloc.comp_local
    opt_local = alloc.opt_local
    sizes_list = m.sizes.tolist()
    comp_objects = m.comp_objects
    comp_indptr = m.comp_indptr
    entry_objects, entry_indptr = m.fast_comp[1], m.fast_comp[3]

    replicas = alloc.replicas[server_id]
    keys = np.sort(np.fromiter(replicas, dtype=np.intp, count=len(replicas)))
    picker = ArgminPicker(keys, len(m.sizes))

    def rescore(objs: np.ndarray) -> None:
        """Fresh scores for the live replicas among ``objs``."""
        objs = picker.live_distinct(objs)
        if len(objs):
            picker.set(
                objs,
                scorer.flush(objs, comp_local, opt_local, LB, RBs, amortise),
            )
            _bump(counters, len(objs))

    rescore(keys)

    def apply_marks(j: int, marks: np.ndarray, streams: np.ndarray) -> None:
        """Install page ``j``'s re-partitioned marks and streams.

        Only the entries whose mark or stream differs are walked, in
        ascending entry order through the per-entry setter, accumulating
        the byte totals one move at a time in Python floats — the
        reference loop's float-op sequence exactly.  A remote entry
        that merely hops streams shifts the page's stream totals, so it
        counts as a change; a local entry's stream is not read.
        """
        start = entry_indptr[j]
        stop = entry_indptr[j + 1]
        walk = comp_local[start:stop] != marks
        walk |= comp_stream[start:stop] != streams
        walk = walk.nonzero()[0]
        if not len(walk):
            return
        lb = float(LB[j])
        rbs = [float(rb[j]) for rb in RBs]
        changed = False
        for off in walk.tolist():
            e = start + off
            was = comp_local[e]
            if marks[off]:
                if was:
                    continue
                alloc.set_comp_local(e, True)
                size2 = sizes_list[entry_objects[e]]
                lb += size2
                rbs[comp_stream[e] - 1] -= size2
            else:
                size2 = sizes_list[entry_objects[e]]
                if was:
                    alloc.set_comp_local(e, False)
                    lb -= size2
                else:
                    rbs[comp_stream[e] - 1] -= size2
                r = streams[off]
                comp_stream[e] = r
                rbs[r - 1] += size2
            changed = True
        if changed:
            LB[j] = lb
            for rb, v in zip(RBs, rbs):
                rb[j] = v
            stats.repartitioned_pages += 1

    def repartition(pages: list[int]) -> None:
        """Re-run PARTITION on ``pages`` restricted to the remaining
        replicas.  A flip set averages a handful of pages, too few to
        amortise the batched PARTITION's fixed NumPy dispatch."""
        for j in pages:
            pm, ps, _, _ = partition_page(m, j, allowed=replicas)
            apply_marks(j, pm, ps)

    while used > capacity + _TOL:
        picked = picker.pick()
        if picked is None:
            raise InfeasibleError(
                f"server {server_id}: storage constraint unrestorable "
                f"(used {used:.0f} B > capacity {capacity:.0f} B with no "
                "replicas left)"
            )
        delta, k = picked
        size = sizes_list[k]
        comp_e = scorer.comp_entries(k)
        flip_e = comp_e[comp_local[comp_e]]
        flip_pages = m.comp_pages[flip_e]
        flipped_pages = flip_pages.tolist()
        for e, j in zip(flip_e.tolist(), flipped_pages):
            alloc.set_comp_local(e, False)
            r = _best_stream(ctx, RBs, j, size)
            comp_stream[e] = r + 1
            LB[j] -= size
            RBs[r][j] += size
        opt_e = scorer.opt_entries(k)
        for e in opt_e[opt_local[opt_e]].tolist():
            alloc.set_opt_local(e, False)
        replicas.discard(k)
        picker.kill(picker.pos[k])
        used -= size
        stats.evictions += 1
        stats.bytes_freed += size
        stats.objective_delta += delta * size if amortise else delta
        stats.evicted_objects.append((server_id, k))
        if decisions is not None:
            decisions.append((k, delta))
        if flipped_pages:
            # Paper: re-partition the affected pages with the replicas
            # left.  Every replica marked local on one of them, before
            # or after the re-partition, now scores against moved totals.
            ents = _page_entries(comp_indptr, flip_pages)
            was_local = comp_local[ents]
            repartition(flipped_pages)
            rescore(comp_objects[ents[was_local | comp_local[ents]]])
    return stats


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def restore_processing_batched(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    counters: dict | None = None,
    decisions: list | None = None,
):
    """Processing restoration (Eq. 8) of one server.

    Switches, step after step, the local download whose move to its best
    remote stream damages the objective least per request/second shed,
    until the server's load fits.  Candidates are the server's local
    compulsory entries (key ``e``) and local optional entries (key
    ``NC + e``).  ``decisions``, when given, receives one
    ``(key, score)`` pair per switch.
    """
    # deferred: restoration imports this module at load
    from repro.core.restoration import InfeasibleError, ProcessingRestorationStats

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

    ctx = alloc.ctx
    LB = cost.local_mo_bytes(alloc)
    RBs = cost.remote_mo_bytes_by_stream(alloc)
    sites = range(1, len(RBs))
    comp_stream = alloc.comp_stream
    NC = len(m.comp_objects)

    def comp_scores(entries: np.ndarray) -> np.ndarray:
        # move-remote lands on the per-entry best stream (scalar
        # ``page_time_if_moved_remote`` rule)
        j = ctx.comp_pages[entries]
        size = ctx.comp_sizes[entries]
        lb = LB[j]
        ovl = ctx.page_ovhd_local[j]
        spl = ctx.page_spb_local[j]
        html = ctx.html_sizes[j]
        old, new = _move_remote_times(
            ovl + spl * (html + lb),
            ovl + spl * (html + (lb - size)),
            size,
            (ctx.page_ovhd_repo[j], ctx.page_spb_repo[j], RBs[0][j]),
            [
                (ctx.page_ovhd_streams[r][j], ctx.page_spb_streams[r][j], RBs[r][j])
                for r in sites
            ],
        )
        shed = ctx.comp_freq[entries]
        raw = (cost.alpha1 * shed) * (new - old)
        out = np.full(len(entries), np.inf)
        pos = shed > 0
        out[pos] = raw[pos] / shed[pos]
        _bump(counters, len(entries))
        return out

    def opt_scores(entries: np.ndarray) -> np.ndarray:
        raw = cost.bulk_optional_entry_delta(entries, to_local=False)
        shed = ctx.opt_freq_weight[entries]
        out = np.full(len(entries), np.inf)
        pos = shed > 0
        out[pos] = raw[pos] / shed[pos]
        _bump(counters, len(entries))
        return out

    ec = (alloc.comp_local & (ctx.comp_server == server_id)).nonzero()[0]
    eo = (alloc.opt_local & (ctx.opt_server == server_id)).nonzero()[0]
    picker = ArgminPicker(np.concatenate((ec, NC + eo)), NC + len(m.opt_objects))
    picker.set(ec, comp_scores(ec))
    picker.set(NC + eo, opt_scores(eo))

    tol = max(_TOL, 1e-9 * max(capacity, html_load, 1.0))
    switches_since_resync = 0
    while True:
        if switches_since_resync >= 4096:
            load = float(local_processing_load(alloc)[server_id])
            switches_since_resync = 0
        if load <= capacity + tol:
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
        picked = picker.pick()
        if picked is None:
            load = float(local_processing_load(alloc)[server_id])
            if load <= capacity + tol:
                break
            raise InfeasibleError(
                f"server {server_id}: processing constraint unrestorable "
                f"(load {load:.2f} req/s > capacity {capacity:.2f} req/s "
                "with no local downloads left)"
            )
        amortised, key = picked
        picker.kill(picker.pos[key])
        if key < NC:
            e = key
            j = int(m.comp_pages[e])
            k = int(m.comp_objects[e])
            shed = float(ctx.comp_freq[e])
            size = float(m.sizes[k])
            alloc.set_comp_local(e, False)
            r = _best_stream(ctx, RBs, j, size)
            comp_stream[e] = r + 1
            LB[j] -= size
            RBs[r][j] += size
            # the page's other local entries now score against new totals
            sl = m.comp_slice(j)
            sib = sl.start + alloc.comp_local[sl.start : sl.stop].nonzero()[0]
            if len(sib):
                picker.set(sib, comp_scores(sib))
        else:
            e = key - NC
            k = int(m.opt_objects[e])
            shed = float(ctx.opt_freq_weight[e])
            alloc.set_opt_local(e, False)
        stats.switches += 1
        stats.load_shed += shed
        stats.objective_delta += amortised * shed
        if decisions is not None:
            decisions.append((key, amortised))
        load -= shed
        switches_since_resync += 1
        if alloc.mark_count(server_id, k) == 0 and k in alloc.replicas[server_id]:
            alloc.replicas[server_id].discard(k)
            stats.deallocations += 1
    assert load <= capacity + tol, (
        f"server {server_id}: Eq. 8 violated on exit "
        f"({load:.6f} > {capacity:.6f} + tol)"
    )
    return stats


# ----------------------------------------------------------------------
# OFF_LOADING server-side absorption
# ----------------------------------------------------------------------
def absorb_extra_workload_batched(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool = True,
    allow_swap: bool = True,
    counters: dict | None = None,
    decisions: list | None = None,
) -> float:
    """OFF_LOADING's server-side absorption at one server.

    Marks, step after step, the remote download whose move to the local
    stream damages the objective least per request/second absorbed,
    until ``target`` req/s are absorbed or nothing fits.  Candidates are
    the server's remote entries at entry (keys ``e`` and ``NC + e``).
    A refused candidate is retired for good; CPU slack only
    shrinks, so every candidate heavier than the slack is retired in bulk
    by a ``searchsorted`` cut over the weight-descending order.  A
    successful swap re-admits the absorbed entries it un-marks.

    The L2 swap's victim table is built lazily at the first blocked
    candidate and kept while the loop leaves the server untouched; any
    mutation (an accepted mark, a new replica, a successful swap) drops
    it, so the next blocked candidate ranks the new state afresh.
    ``decisions``, when given, receives one ``(key, score)`` pair per
    absorption.
    """
    from repro.core.offload import _rank_victims, _tally, _try_make_room

    if alloc.ctx.n_streams > 2:
        raise NotImplementedError(
            "OFF_LOADING absorption supports the k=2 topology only; "
            "k-stream off-loading is a planned follow-up (k>2 scenarios "
            "model the repository tier as uncapacitated)"
        )
    if target <= _TOL:
        return 0.0
    m = alloc.model
    cap = float(m.server_capacity[server_id])
    load = float(local_processing_load(alloc)[server_id])
    cpu_slack = np.inf if np.isinf(cap) else cap - load
    space = float(m.server_storage[server_id] - storage_used(alloc)[server_id])

    ctx = alloc.ctx
    LB = cost.local_mo_bytes(alloc)
    (RB,) = cost.remote_mo_bytes_by_stream(alloc)
    NC = len(m.comp_objects)
    comp_indptr = m.comp_indptr
    replicas = alloc.replicas[server_id]

    def comp_scores(entries: np.ndarray) -> np.ndarray:
        j = ctx.comp_pages[entries]
        size = ctx.comp_sizes[entries]
        lb = LB[j]
        rb = RB[j]
        ovl = ctx.page_ovhd_local[j]
        spl = ctx.page_spb_local[j]
        html = ctx.html_sizes[j]
        ovr = ctx.page_ovhd_repo[j]
        spr = ctx.page_spb_repo[j]
        old = np.maximum(ovl + spl * (html + lb), ovr + spr * rb)
        new = np.maximum(
            ovl + spl * (html + (lb + size)), ovr + spr * (rb - size)
        )
        w = ctx.comp_freq[entries]
        raw = (cost.alpha1 * w) * (new - old)
        out = np.full(len(entries), np.inf)
        pos = w > 0
        out[pos] = raw[pos] / w[pos]
        _bump(counters, len(entries))
        return out

    def opt_scores(entries: np.ndarray) -> np.ndarray:
        raw = cost.bulk_optional_entry_delta(entries, to_local=True)
        w = ctx.opt_freq_weight[entries]
        out = np.full(len(entries), np.inf)
        pos = w > 0
        out[pos] = raw[pos] / w[pos]
        _bump(counters, len(entries))
        return out

    ec = ((~alloc.comp_local) & (ctx.comp_server == server_id)).nonzero()[0]
    eo = ((~alloc.opt_local) & (ctx.opt_server == server_id)).nonzero()[0]
    picker = ArgminPicker(np.concatenate((ec, NC + eo)), NC + len(m.opt_objects))
    picker.set(ec, comp_scores(ec))
    picker.set(NC + eo, opt_scores(eo))
    weight = np.concatenate((ctx.comp_freq[ec], ctx.opt_freq_weight[eo]))
    # a weightless candidate sheds nothing: refused whenever it is picked
    picker.kill((weight <= 0).nonzero()[0])
    by_weight = np.argsort(-weight, kind="stable")
    neg_weight = -weight[by_weight]
    n_heavy = 0

    def retire_heavy() -> None:
        """Retire every candidate heavier than the CPU slack left."""
        nonlocal n_heavy
        cut = int(neg_weight.searchsorted(-(cpu_slack + _TOL)))
        if cut > n_heavy:
            picker.kill(by_weight[n_heavy:cut])
            n_heavy = cut

    retire_heavy()
    absorbed = 0.0
    victims = None  # the server's ranked swap victims, while still valid
    while absorbed < target - _TOL and cpu_slack > _TOL:
        picked = picker.pick()
        if picked is None:
            break
        score, key = picked
        # accepted or refused, the candidate leaves the set
        picker.kill(picker.pos[key])
        w = float(weight[picker.pos[key]])
        e = key if key < NC else key - NC
        k = int(m.comp_objects[e] if key < NC else m.opt_objects[e])
        unmarked: list[int] = []
        dirty_pages: list[int] = []
        if k not in replicas:
            size = float(m.sizes[k])
            if not allow_new_replicas:
                continue
            if size > space + _TOL:
                if not allow_swap:
                    continue
                if victims is None:
                    victims = _rank_victims(alloc, server_id)
                    _tally(counters, "swap_rankings")
                _tally(counters, "swap_attempts")
                remaining = target - absorbed
                ok, freed_sizes, flip_c, flip_o, flip_pages = _try_make_room(
                    alloc,
                    server_id,
                    victims,
                    size - space,
                    min(w, remaining),
                    LB,
                    RB,
                )
                if not ok:
                    continue  # a failed swap retires its candidate
                _tally(counters, "swaps")
                for sz in freed_sizes:
                    space += sz
                unmarked = flip_c + [NC + e2 for e2 in flip_o]
                dirty_pages = flip_pages
            space -= size
        if key < NC:
            j = int(m.comp_pages[e])
            size_k = float(m.sizes[k])
            alloc.set_comp_local(e, True)
            LB[j] += size_k
            RB[j] -= size_k
            dirty_pages.append(j)
        else:
            alloc.set_opt_local(e, True)
        absorbed += w
        cpu_slack -= w
        _tally(counters, "absorptions")
        victims = None  # this server's marks (and maybe replicas) moved
        if decisions is not None:
            decisions.append((key, score))
        if unmarked:
            # absorbed candidates the swap turned remote again are back
            # in play, unless they no longer fit the slack
            p = picker.pos[np.asarray(unmarked, dtype=np.intp)]
            p = p[p < len(weight)]
            p = p[weight[p] <= cpu_slack + _TOL]
            picker.revive(p)
            back_opt = picker.keys[p]
            back_opt = back_opt[back_opt >= NC]
            if len(back_opt):
                picker.set(back_opt, opt_scores(back_opt - NC))
        retire_heavy()
        if dirty_pages:
            # the touched pages' live candidates score against new totals
            if len(dirty_pages) > 1:
                dirty_pages = np.unique(dirty_pages)
            ents = picker.live(_page_entries(comp_indptr, dirty_pages))
            if len(ents):
                picker.set(ents, comp_scores(ents))
    return absorbed
