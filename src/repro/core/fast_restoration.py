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

Four pieces make the loops cheap:

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

4. **Verified prefixes, applied in bulk.**  Processing restoration takes,
   per row and step, the longest prefix of its ``(score, key)`` order
   that the one-switch-at-a-time loop provably takes in a row
   (:func:`_verified_prefixes`): it stops at a page an earlier switch
   moved, at a sibling whose fresh score now comes first, at the
   capacity and at the periodic load resync.  Both restorations apply
   a step's actions as array updates — bulk mark setters, a vectorised
   best-stream choice, one update per touched page total, left-to-right
   ``accumulate`` folds for the stats — rather than entry by entry.
   Byte totals are sums of whole sizes below 2**53, so they come out the
   same in any order.

See DESIGN.md Appendix D for the full argument.
"""

from __future__ import annotations

from typing import NamedTuple

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

#: switches between two exact recomputations of a row's running load
_RESYNC_EVERY = 4096

#: the most switches a processing row takes in one step: a longer window
#: saves few steps (paper scale: 155 at 64, 142 at 256), and every window
#: candidate past the cut costs its page's sibling scores
_WINDOW = 64

#: above every index and key
_NONE = np.iinfo(np.intp).max


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

    def lowest_rows(
        self, rows: list[int], n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each of ``rows`` (ascending, distinct), a prefix of its live
        candidates in ``(score, key)`` order, at most ``n`` long and not
        empty while any is live: ``(scores, keys, lens)``, row ``x``'s
        prefix being ``keys[x, :lens[x]]`` — one ``argpartition`` and one
        ``lexsort`` over the rows' score matrix.

        Scores below the window's largest, ``top``, are all in the
        window; a candidate tying at ``top`` may have a tie with a lower
        key outside it, so a prefix stops below ``top`` (a window tying
        at ``top`` throughout takes the lowest-keyed ties instead).  When
        every finite score is in the window, the live ``+inf``
        candidates follow in key order.
        """
        w = self.width
        r = np.asarray(rows, dtype=np.intp)
        mat = self._rows if len(r) == len(self._rows) else self._rows[r]
        ix = np.arange(len(r))[:, None]
        if w > n:
            part = np.argpartition(mat, n - 1, axis=1)[:, :n]
            vals = mat[ix, part]
        else:
            part = np.broadcast_to(np.arange(w, dtype=np.intp), mat.shape)
            vals = mat
        order = np.lexsort((part, vals), axis=1)
        part, vals = part[ix, order], vals[ix, order]
        top = vals[:, -1:] if w > n else np.inf
        lens = (vals < top).sum(axis=1)
        complete = np.broadcast_to(top == np.inf, (len(r), 1))[:, 0]
        fix = np.where(complete, lens < n, lens == 0)
        for x in fix.nonzero()[0]:
            scores = mat[x]
            if complete[x]:
                # the live +inf candidates, in key order
                live = self.alive[rows[x] * w : (rows[x] + 1) * w]
                tail = (live & (scores == np.inf)).nonzero()[0][: n - lens[x]]
            else:
                # the whole window ties at ``top``: its lowest keys
                tail = (scores == top[x, 0]).nonzero()[0][:n]
            part[x, lens[x] : lens[x] + len(tail)] = tail
            vals[x, lens[x] : lens[x] + len(tail)] = scores[tail]
            lens[x] += len(tail)
        return vals, self.keys[(r * w)[:, None] + part], lens


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


def _fold(start: list[float], terms: np.ndarray) -> np.ndarray:
    """Running sums ``start[x] + terms[x, 0] + ...`` per row, column ``t``
    after ``t`` terms: ``accumulate`` adds left to right, as a Python
    ``+=`` loop does (``np.sum`` would add pairwise)."""
    return np.add.accumulate(
        np.concatenate((np.asarray(start)[:, None], terms), axis=1), axis=1
    )


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

    def flush(
        self,
        cand: np.ndarray,
        comp_local: np.ndarray,
        opt_local: np.ndarray,
        LB: np.ndarray,
        RBs: tuple[np.ndarray, ...],
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
    re-partitions the pages it leaves; the step's flips and new marks
    are installed as array updates, and one fused flush then rescores
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
    LB, RBs = cost.local_mo_bytes(alloc), cost.remote_mo_bytes_by_stream(alloc)
    comp_stream = alloc.comp_stream
    comp_local = alloc.comp_local
    opt_local = alloc.opt_local
    sizes_list = m.sizes.tolist()
    comp_objects = m.comp_objects
    comp_indptr = m.comp_indptr
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

    active = list(range(len(rows)))
    while active:
        going: list[int] = []
        picked_rows: list[int] = []
        picked_keys: list[int] = []
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
            replicas[row].discard(k)
            used[row] -= size
            st = stats[row]
            st.evictions += 1
            st.bytes_freed += size
            st.objective_delta += delta * size if amortise else delta
            st.evicted_objects.append((rows[row], k))
            if decisions is not None:
                logs[row].append((k, delta))
            picked_rows.append(row)
            picked_keys.append(key)
            if used[row] > cap[row] + _TOL:
                going.append(row)
        if not picked_keys:
            break
        if counters is not None:
            counters["steps"] = counters.get("steps", 0) + 1
        # the evictions, one per row: their servers' pages are disjoint,
        # and an object appears once per page, so every flipped entry is
        # on a page of its own and moves against the totals before the step
        keys = np.asarray(picked_keys, dtype=np.intp)
        picker.kill(picker.pos[keys])
        idx, owner = _expand(scorer.cstarts[keys], scorer.ccounts[keys])
        flip = scorer.ce[idx]
        mk = comp_local[flip]
        flip, owner = flip[mk], owner[mk]
        pages = ctx.comp_pages[flip]
        size = ctx.comp_sizes[flip]
        streams = _best_streams(ctx, RBs, pages, size)
        alloc.set_comp_local_bulk(flip, False)
        comp_stream[flip] = streams + 1
        LB[pages] -= size
        for r, rb in enumerate(RBs):
            at = streams == r
            rb[pages[at]] += size[at]
        ocounts = scorer.ocounts[keys]
        if ocounts.any():
            opt_e = scorer.oe[_expand(scorer.ostarts[keys], ocounts)[0]]
            alloc.set_opt_local_bulk(opt_e[opt_local[opt_e]], False)
        if len(pages):
            # Paper: re-partition the affected pages with the replicas
            # left.  Every replica marked local on one of them, before
            # or after the re-partition, now scores against moved totals.
            starts = comp_indptr[pages]
            ents, on_page = _expand(starts, comp_indptr[pages + 1] - starts)
            was = comp_local[ents]
            row_pages = np.asarray(picked_rows, dtype=np.intp)[owner]
            marks, new_streams = bytearray(), bytearray()
            for row, j in zip(row_pages.tolist(), pages.tolist()):
                pm, ps, _, _ = _partition_page(scalars, fast_comp, j, replicas[row])
                marks += pm
                new_streams += ps
            _install_marks(
                alloc,
                ents,
                np.frombuffer(marks, dtype=bool),
                np.frombuffer(new_streams, dtype=np.int8),
                LB,
                RBs,
                [stats[row] for row in picked_rows],
                owner[on_page],
            )
            ents = ents[was | comp_local[ents]]
            rescore(row_of[ctx.comp_server[ents]] * n_obj + comp_objects[ents])
        active = going
    return _finish(out, failed, logs, decisions)


def _best_streams(
    ctx, RBs: tuple[np.ndarray, ...], pages: np.ndarray, size
) -> np.ndarray:
    """Remote stream (0-based) of each of ``pages`` (distinct) whose time
    is lowest after receiving ``size`` bytes, ties to the lowest index:
    the repository unless a mesh's replica site is strictly shorter."""
    if len(RBs) == 1:
        return np.zeros(len(pages), dtype=np.intp)
    return np.argmin(
        [
            ctx.page_ovhd_streams[r][pages]
            + ctx.page_spb_streams[r][pages] * (rb[pages] + size)
            for r, rb in enumerate(RBs)
        ],
        axis=0,
    )


def _install_marks(
    alloc: Allocation,
    ents: np.ndarray,
    marks: np.ndarray,
    streams: np.ndarray,
    LB: np.ndarray,
    RBs: tuple[np.ndarray, ...],
    stats: list,
    owner: np.ndarray,
) -> None:
    """Install re-partitioned marks and streams for the compulsory
    entries ``ents`` (whole pages, page after page), updating the byte
    totals.

    An entry turning local keeps the stream it had; a remote entry
    takes its new stream, and one that merely hops streams shifts its
    page's stream totals.  The totals are sums of integer byte counts
    below 2**53 (a model invariant), so ``np.add.at`` gives them
    exactly as the entry-by-entry walk would, in any order.  Each page
    whose marks or remote streams moved counts once in the
    ``repartitioned_pages`` of ``stats[owner]``.
    """
    was = alloc.comp_local[ents]
    moved = (marks != was) | (~(marks | was) & (alloc.comp_stream[ents] != streams))
    at = moved.nonzero()[0]
    if not len(at):
        return
    ents, marks, was, streams = ents[at], marks[at], was[at], streams[at]
    ctx = alloc.ctx
    pages = ctx.comp_pages[ents]
    size = ctx.comp_sizes[ents]
    # a moved entry that was remote leaves its stream; one that ends
    # remote arrives on its new one
    leave, arrive = ~was, ~marks
    np.add.at(LB, pages, np.where(marks, size, np.where(was, -size, 0.0)))
    old = alloc.comp_stream[ents]
    for r, rb in enumerate(RBs, 1):
        out = leave & (old == r)
        np.subtract.at(rb, pages[out], size[out])
        into = arrive & (streams == r)
        np.add.at(rb, pages[into], size[into])
    alloc.comp_stream[ents[arrive]] = streams[arrive]
    alloc.set_comp_local_bulk(ents[marks], True)
    alloc.set_comp_local_bulk(ents[was & arrive], False)
    first = np.ones(len(pages), dtype=bool)
    first[1:] = pages[1:] != pages[:-1]
    for o in owner[at[first]].tolist():
        stats[o].repartitioned_pages += 1


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
    capacity, a verified prefix of its candidates in ``(score, key)``
    order (:func:`_verified_prefixes`): the local downloads whose moves to
    their best remote streams damage the objective least per
    request/second shed, for as long as the one-switch-at-a-time argmin
    provably takes them in that order.  The prefix is applied in bulk,
    and one fused pipeline has already scored its pages' other local
    entries.  A row's candidates are its server's local compulsory
    entries (key ``e``) and local optional entries (key ``NC + e``).  A
    step that reaches any termination check evaluates the loads once
    for all rows.  Returns and logs as :func:`restore_storage_batched`
    does.
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
    LB, RBs = cost.local_mo_bytes(alloc), cost.remote_mo_bytes_by_stream(alloc)
    NC = len(m.comp_objects)
    scorer = _SwitchScorer(cost, alloc, LB, RBs)

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
        j = ctx.comp_pages[ec]
        picker.set(ec, scorer.comp(ec, LB[j], [rb[j] for rb in RBs]))
        _bump(counters, len(ec))
    if len(eo):
        picker.set(NC + eo, scorer.opt(eo))
        _bump(counters, len(eo))

    since_resync = [0] * len(rows)
    active = list(range(len(rows)))
    while active:
        # the termination check (and the periodic resync of the running
        # load): one exact evaluation serves every row that reaches it
        check = [
            row
            for row in active
            if since_resync[row] >= _RESYNC_EVERY
            or load[row] <= cap[row] + tol[row]
        ]
        if check:
            exact = local_processing_load(alloc)
            for row in check:
                if since_resync[row] >= _RESYNC_EVERY:
                    since_resync[row] = 0
                load[row] = float(exact[rows[row]])
            active = [row for row in active if load[row] > cap[row] + tol[row]]
            if not active:
                break
        vals, keys, lens = picker.lowest_rows(active, _WINDOW)
        # a row with no local download left: exact load check, in row
        # order; the rows above a failing one can no longer decide the
        # error
        take = []
        for x, row in enumerate(active):
            if lens[x]:
                take.append(x)
                continue
            i = rows[row]
            load[row] = float(local_processing_load(alloc)[i])
            if load[row] <= cap[row] + tol[row]:
                continue
            failed[i] = (
                f"server {i}: processing constraint unrestorable "
                f"(load {load[row]:.2f} req/s > capacity {cap[row]:.2f} "
                "req/s with no local downloads left)"
            )
            break
        if not take:
            break
        if counters is not None:
            counters["steps"] = counters.get("steps", 0) + 1
        going = [active[x] for x in take]
        vals, keys = vals[take], keys[take]
        p = _verified_prefixes(
            scorer,
            vals,
            keys,
            lens[take],
            np.array([load[row] for row in going]),
            np.array([cap[row] + tol[row] for row in going]),
            np.array([_RESYNC_EVERY - since_resync[row] for row in going]),
        )
        taken = np.arange(keys.shape[1]) < p.n[:, None]
        picked = keys[taken]
        picker.kill(picker.pos[picked])
        # the prefixes' pages are distinct: one update per page
        alloc.set_comp_local_bulk(p.entries, False)
        alloc.comp_stream[p.entries] = p.streams + 1
        LB[p.pages] = p.lb
        for rb, new in zip(RBs, p.rbs):
            rb[p.pages] = new
        comp = picked < NC
        opt_e = picked[~comp] - NC
        alloc.set_opt_local_bulk(opt_e, False)
        if len(p.siblings):
            picker.set(p.siblings, p.sibling_scores)
            _bump(counters, len(p.siblings))
        # the stats folds replay the one-switch-at-a-time ``+=``:
        # ``accumulate`` folds left to right
        with np.errstate(invalid="ignore"):
            damage = vals * p.shed
        shed_fold = _fold([stats[row].load_shed for row in going], p.shed)
        damage_fold = _fold([stats[row].objective_delta for row in going], damage)
        # an object no page of the server marks local any more is
        # deallocated; mark counts only fall here, so reading them after
        # the prefix finds what each switch would have found
        pairs = np.empty(len(picked), dtype=np.intp)
        pairs[comp] = ctx.comp_pair[picked[comp]]
        pairs[~comp] = ctx.opt_pair[opt_e]
        zero = np.flatnonzero(alloc._mark_counts[pairs] == 0)
        dead = ctx.pair_object[pairs[zero]].tolist()
        cuts = [0, *zero.searchsorted(np.cumsum(p.n)).tolist()]
        for x, row in enumerate(going):
            n = int(p.n[x])
            st = stats[row]
            st.switches += n
            st.load_shed = float(shed_fold[x, n])
            st.objective_delta = float(damage_fold[x, n])
            load[row] = float(p.loads[x, n])
            since_resync[row] += n
            if decisions is not None:
                logs[row].extend(zip(keys[x, :n].tolist(), vals[x, :n].tolist()))
            replicas = alloc.replicas[rows[row]]
            gone = replicas.intersection(dead[cuts[x] : cuts[x + 1]])
            replicas.difference_update(gone)
            st.deallocations += len(gone)
        active = going
    if not failed:
        for i, ld, c, t in zip(rows, load, cap, tol):
            assert ld <= c + t, (
                f"server {i}: Eq. 8 violated on exit ({ld:.6f} > {c:.6f} + tol)"
            )
    return _finish(out, failed, logs, decisions)


class _SwitchScorer:
    """Processing restoration's scores — objective damage per
    request/second shed, ``+inf`` for a candidate that sheds nothing —
    over the run's page byte totals ``LB`` and ``RBs``."""

    def __init__(self, cost: CostModel, alloc: Allocation, LB, RBs):
        self.cost = cost
        self.alloc = alloc
        self.ctx = ctx = alloc.ctx
        self.LB = LB
        self.RBs = RBs
        #: per candidate key (``e``, then ``NC + e``): the request rate a
        #: switch sheds, and the page it moves (``-1``: an optional one)
        self.shed = np.concatenate((ctx.comp_freq, ctx.opt_freq_weight))
        self.page = np.concatenate(
            (ctx.comp_pages, np.full(len(ctx.opt_pages), -1, dtype=np.intp))
        )
        #: per-page scratch of :func:`_verified_prefixes`, at rest
        #: ``_NONE`` everywhere
        self.first = np.full(len(LB), _NONE, dtype=np.intp)
        # one gather per score for each of a page's and an entry's terms:
        # local overhead and seconds per byte, HTML bytes, each remote
        # stream's overhead and seconds per byte; alpha1 * frequency,
        # frequency, size
        rows = [ctx.page_ovhd_local, ctx.page_spb_local, ctx.html_sizes]
        for ovhd, spb in zip(ctx.page_ovhd_streams, ctx.page_spb_streams):
            rows += [ovhd, spb]
        self.page_terms = np.vstack(rows)
        self.entry_terms = np.vstack(
            (cost.alpha1 * ctx.comp_freq, ctx.comp_freq, ctx.comp_sizes)
        )

    def comp(self, entries: np.ndarray, lb: np.ndarray, rbs: list) -> np.ndarray:
        """Compulsory ``entries`` moving to their best remote stream (the
        scalar ``page_time_if_moved_remote`` rule), against their pages'
        local bytes ``lb`` and per-stream bytes ``rbs`` (one value per
        entry)."""
        ovl, spl, html, *streams = self.page_terms[:, self.ctx.comp_pages[entries]]
        a1f, shed, size = self.entry_terms[:, entries]
        old, new = _move_remote_times(
            ovl + spl * (html + lb),
            ovl + spl * (html + (lb - size)),
            size,
            (streams[0], streams[1], rbs[0]),
            [(streams[2 * r], streams[2 * r + 1], rbs[r]) for r in range(1, len(rbs))],
        )
        return np.divide(
            a1f * (new - old), shed, out=np.full(len(entries), np.inf), where=shed > 0
        )

    def opt(self, entries: np.ndarray) -> np.ndarray:
        raw = self.cost.bulk_optional_entry_delta(entries, to_local=False)
        shed = self.ctx.opt_freq_weight[entries]
        out = np.full(len(entries), np.inf)
        pos = shed > 0
        out[pos] = raw[pos] / shed[pos]
        return out


class _Prefixes(NamedTuple):
    """The verified prefixes of one step, row ``x`` taking ``n[x]``
    switches: every window candidate's ``shed`` and the running
    ``loads`` (``loads[x, t]`` after ``t`` switches); the compulsory
    switches' ``entries``, on distinct ``pages``, moving to 0-based
    remote ``streams``, with those pages' new local bytes ``lb`` and
    per-stream bytes ``rbs``; and the pages' other local entries
    (``siblings``) with their fresh scores."""

    n: np.ndarray
    shed: np.ndarray
    loads: np.ndarray
    entries: np.ndarray
    pages: np.ndarray
    streams: np.ndarray
    lb: np.ndarray
    rbs: list
    siblings: np.ndarray
    sibling_scores: np.ndarray


def _verified_prefixes(
    scorer: _SwitchScorer,
    vals: np.ndarray,
    keys: np.ndarray,
    lens: np.ndarray,
    load: np.ndarray,
    bound: np.ndarray,
    room: np.ndarray,
) -> _Prefixes:
    """For each row ``x`` of a step's windows — ``keys[x, :lens[x]]`` in
    ``(score, key)`` order, scores ``vals`` — the longest prefix that
    the one-switch-at-a-time loop takes one switch after another, with
    each switch's move and its page's fresh scores.

    A switch moves only its own page's byte totals, so once a row's
    entries ``0..t-1`` are switched its next argmin is entry ``t``
    unless one of these cuts the prefix at ``t``:

    * entry ``t`` is a compulsory switch on a page an earlier switch
      moved (its window score is stale);
    * an earlier switch's page holds a local entry whose fresh
      ``(score, key)`` is below entry ``t``'s;
    * the running load after ``t`` switches is within ``bound`` (the
      loop stops to check it exactly);
    * ``t`` equals ``room`` (the periodic exact resync).

    Optional switches move no page total, so they cut nothing.  The
    prefixes' pages are distinct (rows are servers, which share no
    page), so every move and every fresh score is computed at once,
    against the byte totals before the step.
    """
    alloc, ctx = scorer.alloc, scorer.ctx
    pos = np.arange(keys.shape[1])
    shed = scorer.shed[keys]
    page = scorer.page[keys]
    n = np.minimum(lens, room)
    # the compulsory candidates, row after row in window order
    row, at = ((page >= 0) & (pos < lens[:, None])).nonzero()
    pages = page[row, at]
    first = scorer.first
    flat = np.arange(len(pages))
    np.minimum.at(first, pages, flat)
    repeat = first[pages] != flat
    first[pages] = _NONE
    np.minimum.at(n, row[repeat], at[repeat])
    loads = np.subtract.accumulate(
        np.concatenate((load[:, None], shed), axis=1), axis=1
    )
    done = (loads[:, 1:] <= bound[:, None]) & (pos < n[:, None] - 1)
    stop = done.any(axis=1)
    n[stop] = done[stop].argmax(axis=1) + 1
    # the compulsory switches' moves
    keep = at < n[row]
    row, at, pages = row[keep], at[keep], pages[keep]
    e = keys[row, at]
    size = ctx.comp_sizes[e]
    streams = _best_streams(ctx, scorer.RBs, pages, size)
    lb = scorer.LB[pages] - size
    rbs = [
        np.where(streams == r, rb[pages] + size, rb[pages])
        for r, rb in enumerate(scorer.RBs)
    ]
    # each page's other local entries, scored against its new totals
    indptr = alloc.model.comp_indptr
    sib, owner = _expand(indptr[pages], indptr[pages + 1] - indptr[pages])
    keep = alloc.comp_local[sib]
    keep[sib == e[owner]] = False
    sib, owner = sib[keep], owner[keep]
    fresh = scorer.comp(sib, lb[owner], [rb[owner] for rb in rbs])
    # entry t must come before the lowest fresh (score, key) of every
    # switch ahead of it: below that score, or level with it and below
    # the lowest key scoring it
    low = np.full(len(e), np.inf)
    np.minimum.at(low, owner, fresh)
    low_key = np.full(len(e), _NONE)
    tie = fresh == low[owner]
    np.minimum.at(low_key, owner[tie], sib[tie])
    v, k = vals[row], keys[row]
    late = (v > low[:, None]) | ((v == low[:, None]) & (k > low_key[:, None]))
    late &= pos > at[:, None]
    cut = late.any(axis=1)
    np.minimum.at(n, row[cut], late[cut].argmax(axis=1))
    taken = at < n[row]
    return _Prefixes(
        n,
        shed,
        loads,
        e[taken],
        pages[taken],
        streams[taken],
        lb[taken],
        [rb[taken] for rb in rbs],
        sib[taken[owner]],
        fresh[taken[owner]],
    )


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
