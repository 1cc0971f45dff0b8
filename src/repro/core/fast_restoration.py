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

Three pieces make a step cheap:

1. **Dirty-set rescoring.**  An action only moves the byte totals of the
   pages it touches, so only candidates with a term on those pages score
   differently afterwards.  Each step collects that dirty set as arrays,
   dedupes it and rescores it in one fused Eq. 3-5 pipeline plus
   one ``np.bincount`` segment sum whose in-order accumulation replays
   the scalar per-candidate ``+=`` fold term for term.

2. **An argmin picker** (:class:`ArgminPicker`).  A score row aligned
   with a server's candidates in ascending key order, dead candidates
   at ``+inf``: ``argmin`` returns the first minimum, which is the
   lowest key among the best scores.

3. **Lockstep across servers.**  The two restorations are independent
   per server, so every violating server is one row of the picker's
   score matrix: a step takes one action in every row still violating
   its constraint, and one fused flush rescores all their dirty sets.
   Python-level steps drop from the sum of the servers' step counts to
   their maximum.

See DESIGN.md Appendix D for the full argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, storage_used
from repro.core.cost_model import CostModel
from repro.core.partition import _partition_page

__all__ = [
    "ArgminPicker",
    "restore_storage_batched",
    "restore_processing_batched",
    "absorb_extra_workload_batched",
]

#: kept in lockstep with ``offload._TOL``
_TOL = 1e-9


class ArgminPicker:
    """Exact argmin per row of candidates, ties to the lowest key.

    Each row lists its candidates' keys in ascending order (keys are
    distinct across rows); the rows are padded to one width in a
    row-major score matrix, every candidate alive at score ``+inf``
    until :meth:`set` scores it.  A dead candidate or a pad slot is
    pinned at ``+inf``, so one ``argmin`` per row is one selection — no
    per-step gather.  Keys outside every row map to a trailing sentinel
    slot that is never alive and never selected.
    """

    def __init__(self, rows: list[np.ndarray], n_keys: int):
        lens = np.array([len(r) for r in rows], dtype=np.intp)
        self.width = width = int(lens.max(initial=0))
        n = len(rows) * width
        at = _expand(np.arange(len(rows), dtype=np.intp) * width, lens)[0]
        self.keys = np.full(n + 1, -1, dtype=np.intp)
        self.pos = np.full(n_keys, n, dtype=np.intp)
        self.alive = np.zeros(n + 1, dtype=bool)
        if len(at):
            self.keys[at] = np.concatenate(rows)
            self.pos[self.keys[at]] = at
            self.alive[at] = True
        self._score = np.full(n + 1, np.inf)
        self._rows = self._score[:n].reshape(len(rows), width)

    def live(self, keys: np.ndarray) -> np.ndarray:
        """The members of ``keys`` that are live candidates."""
        return keys[self.alive[self.pos[keys]]]

    def live_distinct(self, keys: np.ndarray) -> np.ndarray:
        """The distinct live candidates among ``keys``, row after row and
        ascending within a row — a mask over the candidate slots,
        cheaper than ``np.unique`` on a long key list full of repeats."""
        hit = np.zeros(len(self.alive), dtype=bool)
        hit[self.pos[keys]] = True
        hit &= self.alive
        return self.keys[hit.nonzero()[0]]

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

    def pick_rows(self, rows: list[int]) -> list[tuple[float, int] | None]:
        """For each of ``rows`` (ascending, distinct): ``(score, key)`` of
        its live candidate with the lowest ``(score, key)``, or ``None``
        when none is left — one ``argmin(axis=1)`` over the matrix."""
        w = self.width
        if not w:
            return [None] * len(rows)
        r = np.asarray(rows, dtype=np.intp)
        mat = self._rows if len(r) == len(self._rows) else self._rows[r]
        at = r * w + mat.argmin(axis=1)
        out: list[tuple[float, int] | None] = []
        for row, s, p in zip(rows, self._score[at].tolist(), at.tolist()):
            if s == np.inf:
                # every live candidate of the row scores +inf (or none is
                # left): the lowest live key wins, as in the (score, key)
                # order
                live = self.alive[row * w : (row + 1) * w].nonzero()[0]
                if not len(live):
                    out.append(None)
                    continue
                p = row * w + int(live[0])
            out.append((s, int(self.keys[p])))
        return out

    def pick(self) -> tuple[float, int] | None:
        """:meth:`pick_rows` of a one-row picker."""
        return self.pick_rows([0])[0]


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


def _server_list(servers) -> list[int]:
    """One server id or an iterable of them, as an ascending list."""
    return sorted({int(i) for i in np.atleast_1d(np.asarray(servers))})


def _finish(out: dict, failed: dict, logs: list, decisions: list | None) -> dict:
    """Hand the decision logs over server after server and return the
    per-server stats, or raise the lowest failing server's error — the
    one an ascending one-server-at-a-time sweep raises first."""
    from repro.core.restoration import InfeasibleError

    if decisions is not None:
        for log in logs:
            decisions.extend(log)
    if failed:
        raise InfeasibleError(failed[min(failed)])
    return out


def _grouped(group, servers: list[int]):
    """Concatenate ``servers``' object-grouped entries (``group`` is the
    context's :meth:`comp_group` or :meth:`opt_group`).  The start and
    count tables are flat over ``row * n_objects + k``; each row's
    starts are offset to its slice of the concatenation."""
    parts = [group(i) for i in servers]
    off = np.cumsum([0] + [len(p[0]) for p in parts[:-1]])
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] + o for p, o in zip(parts, off)]),
        np.concatenate([p[2] for p in parts]),
    )


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
class _EvictionScorer:
    """Bulk eviction-delta evaluation for a list of servers.

    A candidate is the flat key ``row * n_objects + k`` (object ``k`` at
    the server of row ``row``).  The servers' object-grouped entries are
    concatenated with flat start/count tables, and a per-compulsory-
    entry attribute matrix (one 2-D fancy gather per flush) is built
    over them, so scoring the candidates of every server at once is a
    single fused Eq. 3-5 pipeline plus one ``np.bincount`` segment sum.
    The bincount accumulates weights sequentially in input order —
    each candidate's compulsory terms in ascending entry order, then
    its optional terms — replaying the scalar ``_eviction_delta``
    ``+=`` fold bit-for-bit.
    """

    def __init__(self, cost: CostModel, alloc: Allocation, servers: list[int]):
        m = alloc.model
        ctx = alloc.ctx
        n_rem = ctx.n_streams - 1
        self.sites = range(1, n_rem)
        self.ce, self.cstarts, self.ccounts = _grouped(ctx.comp_group, servers)
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
        self.oe, self.ostarts, self.ocounts = _grouped(ctx.opt_group, servers)
        self.oterm = cost.bulk_optional_entry_delta(self.oe, to_local=False)
        self.sizes = np.tile(m.sizes, len(servers))

    def comp_entries(self, key: int) -> np.ndarray:
        """This candidate's compulsory entries on its server (ascending)."""
        s = self.cstarts[key]
        return self.ce[s : s + self.ccounts[key]]

    def opt_entries(self, key: int) -> np.ndarray:
        s = self.ostarts[key]
        return self.oe[s : s + self.ocounts[key]]

    def flush(
        self,
        cand: np.ndarray,
        comp_local: np.ndarray,
        opt_local: np.ndarray,
        LB: np.ndarray,
        RBs: list[np.ndarray],
        amortise: bool,
    ) -> np.ndarray:
        """Fresh eviction scores for candidates ``cand`` (flat keys).

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
    servers,
    amortise: bool = True,
    counters: dict | None = None,
    decisions: list | None = None,
) -> dict:
    """Storage restoration (Eq. 10) of ``servers`` (one id or several).

    Each step evicts, in every server still over capacity (one
    :class:`ArgminPicker` row each), the replica whose deallocation
    damages the objective least (per byte when ``amortise``) and
    re-partitions the pages it leaves; one fused flush then rescores
    every row's dirty candidates.  Servers share no page, replica or
    byte total, so each one's evictions are those of a run on it alone.
    Returns each server's stats, ascending.  ``decisions``, when given,
    receives one ``(object, score)`` pair per eviction, server after
    server.  An error names the server an ascending sweep would.
    """
    # deferred: restoration imports this module at load
    from repro.core.restoration import StorageRestorationStats

    m = alloc.model
    servers = _server_list(servers)
    out = {i: StorageRestorationStats() for i in servers}
    failed: dict[int, str] = {}
    rows: list[int] = []
    used: list[float] = []
    cap: list = []
    for i in servers:
        capacity = m.server_storage[i]
        pages = np.asarray(m.pages_by_server[i], dtype=np.intp)
        html_bytes = float(m.html_sizes[pages].sum()) if len(pages) else 0.0
        u = html_bytes + alloc.stored_bytes(i)
        if u <= capacity + _TOL:
            continue
        if html_bytes > capacity + _TOL:
            failed[i] = (
                f"server {i}: hosted HTML ({html_bytes:.0f} B) alone "
                f"exceeds storage capacity ({capacity:.0f} B)"
            )
            break  # the sweep never reaches a higher server
        rows.append(i)
        used.append(u)
        cap.append(capacity)
    if not rows:
        return _finish(out, failed, [], decisions)
    stats = [out[i] for i in rows]
    logs: list[list] = [[] for _ in rows]
    ctx = alloc.ctx
    n_obj = len(m.sizes)
    scorer = _EvictionScorer(cost, alloc, rows)
    LB = cost.local_mo_bytes(alloc)
    RBs = cost.remote_mo_bytes_by_stream(alloc)
    comp_stream = alloc.comp_stream
    comp_local = alloc.comp_local
    opt_local = alloc.opt_local
    sizes_list = m.sizes.tolist()
    comp_objects = m.comp_objects
    comp_indptr = m.comp_indptr
    entry_objects, entry_indptr = m.fast_comp[1], m.fast_comp[3]
    scalars, fast_comp = ctx.scalars, m.fast_comp
    row_of = np.zeros(m.n_servers, dtype=np.intp)
    row_of[rows] = np.arange(len(rows))

    replicas = [alloc.replicas[i] for i in rows]
    picker = ArgminPicker(
        [
            r * n_obj + np.sort(np.fromiter(rep, dtype=np.intp, count=len(rep)))
            for r, rep in enumerate(replicas)
        ],
        len(rows) * n_obj,
    )

    def rescore(keys: np.ndarray) -> None:
        """Fresh scores for the live candidates among ``keys``."""
        keys = picker.live_distinct(keys)
        if len(keys):
            picker.set(
                keys,
                scorer.flush(keys, comp_local, opt_local, LB, RBs, amortise),
            )
            _bump(counters, len(keys))

    rescore(picker.keys[picker.alive])

    def apply_marks(j: int, marks: np.ndarray, streams: np.ndarray, st) -> None:
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
            st.repartitioned_pages += 1

    active = list(range(len(rows)))
    while active:
        going: list[int] = []
        touched: list[tuple[int, np.ndarray]] = []
        for row, picked in zip(active, picker.pick_rows(active)):
            if picked is None:
                failed[rows[row]] = (
                    f"server {rows[row]}: storage constraint unrestorable "
                    f"(used {used[row]:.0f} B > capacity {cap[row]:.0f} B "
                    "with no replicas left)"
                )
                break  # the rows above it can no longer decide the error
            delta, key = picked
            k = key - row * n_obj
            size = sizes_list[k]
            comp_e = scorer.comp_entries(key)
            flip_e = comp_e[comp_local[comp_e]]
            flip_pages = m.comp_pages[flip_e]
            for e, j in zip(flip_e.tolist(), flip_pages.tolist()):
                alloc.set_comp_local(e, False)
                r = _best_stream(ctx, RBs, j, size)
                comp_stream[e] = r + 1
                LB[j] -= size
                RBs[r][j] += size
            opt_e = scorer.opt_entries(key)
            for e in opt_e[opt_local[opt_e]].tolist():
                alloc.set_opt_local(e, False)
            replicas[row].discard(k)
            picker.kill(picker.pos[key])
            used[row] -= size
            st = stats[row]
            st.evictions += 1
            st.bytes_freed += size
            st.objective_delta += delta * size if amortise else delta
            st.evicted_objects.append((rows[row], k))
            logs[row].append((k, delta))
            if len(flip_pages):
                touched.append((row, flip_pages))
            if used[row] > cap[row] + _TOL:
                going.append(row)
        if touched:
            # Paper: re-partition the affected pages with the replicas
            # left.  Every replica marked local on one of them, before
            # or after the re-partition, now scores against moved totals.
            ents = _page_entries(
                comp_indptr, np.concatenate([p for _, p in touched])
            )
            was_local = comp_local[ents]
            for row, pages in touched:
                for j in pages.tolist():
                    pm, ps, _, _ = _partition_page(
                        scalars, fast_comp, j, replicas[row]
                    )
                    apply_marks(j, pm, ps, stats[row])
            ents = ents[was_local | comp_local[ents]]
            rescore(row_of[ctx.comp_server[ents]] * n_obj + comp_objects[ents])
        active = going
    return _finish(out, failed, logs, decisions)


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def restore_processing_batched(
    alloc: Allocation,
    cost: CostModel,
    servers,
    counters: dict | None = None,
    decisions: list | None = None,
) -> dict:
    """Processing restoration (Eq. 8) of ``servers`` (one id or several).

    Each step switches, in every server whose load still exceeds its
    capacity, the local download whose move to its best remote stream
    damages the objective least per request/second shed; one fused
    pipeline then rescores every switched page's other local entries.
    A row's candidates are its server's local compulsory entries (key
    ``e``) and local optional entries (key ``NC + e``).  A step that
    reaches any termination check evaluates the loads once for all
    rows.  Returns and logs as :func:`restore_storage_batched` does.
    """
    from repro.core.restoration import ProcessingRestorationStats

    m = alloc.model
    servers = _server_list(servers)
    out = {i: ProcessingRestorationStats() for i in servers}
    failed: dict[int, str] = {}
    rows: list[int] = []
    cap: list[float] = []
    load: list[float] = []
    tol: list[float] = []
    start_load = local_processing_load(alloc)
    for i in servers:
        capacity = float(m.server_capacity[i])
        if np.isinf(capacity):
            continue
        pages = np.asarray(m.pages_by_server[i], dtype=np.intp)
        html_load = float(m.frequencies[pages].sum()) if len(pages) else 0.0
        ld = float(start_load[i])
        if ld <= capacity + _TOL:
            continue
        if html_load > capacity + _TOL:
            failed[i] = (
                f"server {i}: HTML request load ({html_load:.2f} req/s) "
                f"alone exceeds processing capacity ({capacity:.2f} req/s)"
            )
            break  # the sweep never reaches a higher server
        rows.append(i)
        cap.append(capacity)
        load.append(ld)
        tol.append(max(_TOL, 1e-9 * max(capacity, html_load, 1.0)))
    if not rows:
        return _finish(out, failed, [], decisions)
    stats = [out[i] for i in rows]
    logs: list[list] = [[] for _ in rows]
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

    # each row's candidates, ascending: its server's local compulsory
    # entries, then its local optional entries
    row_of = np.full(m.n_servers, len(rows), dtype=np.intp)
    row_of[rows] = np.arange(len(rows))
    ec, eo = alloc.comp_local.nonzero()[0], alloc.opt_local.nonzero()[0]
    keys = np.concatenate((ec, NC + eo))
    owner = row_of[np.concatenate((ctx.comp_server[ec], ctx.opt_server[eo]))]
    keys, owner = keys[owner < len(rows)], owner[owner < len(rows)]
    picker = ArgminPicker(
        np.split(
            keys[np.argsort(owner, kind="stable")],
            np.bincount(owner, minlength=len(rows)).cumsum()[:-1],
        ),
        NC + len(m.opt_objects),
    )
    ec, eo = keys[keys < NC], keys[keys >= NC] - NC
    if len(ec):
        picker.set(ec, comp_scores(ec))
    if len(eo):
        picker.set(NC + eo, opt_scores(eo))

    since_resync = [0] * len(rows)
    active = list(range(len(rows)))
    while active:
        # the termination check (and the periodic resync of the running
        # load): one exact evaluation serves every row that reaches it
        check = [
            row
            for row in active
            if since_resync[row] >= 4096 or load[row] <= cap[row] + tol[row]
        ]
        if check:
            exact = local_processing_load(alloc)
            for row in check:
                if since_resync[row] >= 4096:
                    since_resync[row] = 0
                load[row] = float(exact[rows[row]])
            active = [row for row in active if load[row] > cap[row] + tol[row]]
        going: list[int] = []
        dirty: list[np.ndarray] = []
        for row, picked in zip(active, picker.pick_rows(active)):
            i = rows[row]
            if picked is None:
                load[row] = float(local_processing_load(alloc)[i])
                if load[row] <= cap[row] + tol[row]:
                    continue
                failed[i] = (
                    f"server {i}: processing constraint unrestorable "
                    f"(load {load[row]:.2f} req/s > capacity {cap[row]:.2f} "
                    "req/s with no local downloads left)"
                )
                break  # the rows above it can no longer decide the error
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
                    dirty.append(sib)
            else:
                e = key - NC
                k = int(m.opt_objects[e])
                shed = float(ctx.opt_freq_weight[e])
                alloc.set_opt_local(e, False)
            st = stats[row]
            st.switches += 1
            st.load_shed += shed
            st.objective_delta += amortised * shed
            logs[row].append((key, amortised))
            load[row] -= shed
            since_resync[row] += 1
            if alloc.mark_count(i, k) == 0 and k in alloc.replicas[i]:
                alloc.replicas[i].discard(k)
                st.deallocations += 1
            going.append(row)
        if dirty:
            sib = np.concatenate(dirty)
            picker.set(sib, comp_scores(sib))
        active = going
    if not failed:
        for i, ld, c, t in zip(rows, load, cap, tol):
            assert ld <= c + t, (
                f"server {i}: Eq. 8 violated on exit ({ld:.6f} > {c:.6f} + tol)"
            )
    return _finish(out, failed, logs, decisions)


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
    picker = ArgminPicker([np.concatenate((ec, NC + eo))], NC + len(m.opt_objects))
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
