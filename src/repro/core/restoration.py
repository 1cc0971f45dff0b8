"""Greedy constraint restoration (Section 4.2).

The unconstrained PARTITION output may violate the storage constraint
(Eq. 10) or the local processing constraint (Eq. 8).  The paper restores
them greedily:

**Storage** — repeatedly deallocate the stored MO whose removal hurts the
objective ``D`` least, *amortised over the object's size* ("to make our
criterion more judicious over large ... objects").  After each
deallocation, pages that were downloading the victim locally are
**re-partitioned** restricted to the server's remaining replica set —
"some MOs although stored in the server may not be marked for a local
download ... marking the above MOs for local downloads can now reduce
it".  Iterate until Eq. 10 holds.

**Local processing** — repeatedly switch the (page, local MO) download
pair whose move to the repository degrades ``D`` least, amortised over
the request workload the switch sheds ("over the difference between the
new workload and the required one").  An object left with no local mark
anywhere on the server is deallocated, freeing storage too.  Iterate
until Eq. 8 holds.

Both loops are an **exact argmin**: every step takes the live candidate
with the lowest ``(fresh score, key)`` — ties go to the lowest key (the
object id for storage; ``e`` for a compulsory entry and ``NC + e`` for an
optional one in processing).  The scalar priority-queue loops they
reproduce bit for bit — every eviction and switch for the same candidate
with the same score — live with the tests
(``tests/oracles/scalar_greedy.py``).  OFF_LOADING's absorption
(:mod:`repro.core.offload`) runs the same argmin on this module's
:class:`ArgminPicker`.

Four things make the loops cheap:

1. **Dirty-set rescoring.**  An action only moves the byte totals of the
   pages it touches, so only the candidates with a term on those pages
   score differently afterwards.  They are rescored in one fused Eq. 3-5
   pipeline (:class:`_EntryMoves`), whose ``np.bincount`` segment sum
   adds in the scalar ``+=`` order.
2. **An argmin picker.**  A score row in ascending key order, dead
   candidates at ``+inf``: ``argmin`` returns the first minimum, the
   lowest key among the best scores.
3. **Lockstep across servers.**  Servers share no page, replica or byte
   total, so every violating server is one row of the picker and all of
   them advance in the same step: Python-level steps drop from the sum
   of the servers' step counts to their maximum.
4. **Verified prefixes, applied in bulk.**  Processing restoration takes
   per row and step the longest prefix of its ``(score, key)`` order that
   the one-switch-at-a-time loop provably takes
   (:func:`_verified_prefixes`), and both restorations install a step's
   actions as array updates.  Byte totals are sums of whole sizes below
   2**53, so they come out the same in any order.

See DESIGN.md Appendix D for the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load
from repro.core.cost_model import CostModel
from repro.core.partition import Kernel, _partition_page, resolve_kernel
from repro.core.types import expand_rows
from repro.obs.registry import get_registry

__all__ = [
    "restore_storage_capacity",
    "restore_processing_capacity",
    "StorageRestorationStats",
    "ProcessingRestorationStats",
    "InfeasibleError",
    "ArgminPicker",
    "restore_storage_batched",
    "restore_processing_batched",
    "CAPACITY_TOL",
]

#: slack below which a capacity constraint counts as met, shared by
#: restoration and OFF_LOADING (both its engine and the message-passing
#: actors of ``repro.network``)
CAPACITY_TOL = 1e-9

#: switches between two exact recomputations of a row's running load
_RESYNC_EVERY = 4096

#: the most switches a processing row takes in one step: a longer window
#: saves few steps (paper scale: 155 at 64, 142 at 256), and every window
#: candidate past the cut costs its page's sibling scores
_WINDOW = 64

#: above every index and key
_NONE = np.iinfo(np.intp).max


class InfeasibleError(RuntimeError):
    """Raised when a constraint cannot be restored by any decision.

    For storage this means a server's hosted HTML alone exceeds its
    capacity; for processing it means even serving HTML documents exceeds
    ``C(S_i)`` — both are workload-configuration errors, not algorithmic
    states.
    """


@dataclass
class StorageRestorationStats:
    """Accounting of one storage-restoration run."""

    evictions: int = 0
    repartitioned_pages: int = 0
    objective_delta: float = 0.0
    bytes_freed: float = 0.0
    evicted_objects: list[tuple[int, int]] = field(default_factory=list)

    def merge(self, other: "StorageRestorationStats") -> None:
        self.evictions += other.evictions
        self.repartitioned_pages += other.repartitioned_pages
        self.objective_delta += other.objective_delta
        self.bytes_freed += other.bytes_freed
        self.evicted_objects.extend(other.evicted_objects)


@dataclass
class ProcessingRestorationStats:
    """Accounting of one processing-restoration run."""

    switches: int = 0
    deallocations: int = 0
    objective_delta: float = 0.0
    load_shed: float = 0.0

    def merge(self, other: "ProcessingRestorationStats") -> None:
        self.switches += other.switches
        self.deallocations += other.deallocations
        self.objective_delta += other.objective_delta
        self.load_shed += other.load_shed


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
        at = expand_rows(np.arange(len(rows), dtype=np.intp) * width, lens)[1]
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
def _tally(counters: dict | None, **add: int) -> None:
    """Add ``add`` to ``counters``, when the caller keeps them."""
    if counters is not None:
        for key, n in add.items():
            counters[key] = counters.get(key, 0) + n


def _server_ids(n_servers: int, servers) -> list[int]:
    """``servers`` — ``None`` for every server, one id or several — as
    distinct ids, ascending; an id outside ``[0, n_servers)`` raises
    ``ValueError``."""
    if servers is None:
        return list(range(n_servers))
    if isinstance(servers, Integral):
        servers = (servers,)
    out = sorted({int(i) for i in servers})
    for i in out:
        if not 0 <= i < n_servers:
            raise ValueError(f"server index {i} out of range [0, {n_servers})")
    return out


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


class _EntryMoves:
    """The Eq. 3-5 objective change of moving compulsory entries from
    the local stream onto their best remote streams — the one term both
    restorations score.

    A page's terms (local overhead and seconds per byte, HTML bytes,
    each remote stream's overhead and seconds per byte) and an entry's
    (alpha1 * frequency, frequency, size) are stacked once, so a call
    gathers each with one 2-D fancy index.
    """

    def __init__(self, cost: CostModel, ctx):
        rows = [ctx.page_ovhd_local, ctx.page_spb_local, ctx.html_sizes]
        for ovhd, spb in zip(ctx.page_ovhd_streams, ctx.page_spb_streams):
            rows += [ovhd, spb]
        self.page_terms = np.vstack(rows)
        self.entry_terms = np.vstack(
            (cost.alpha1 * ctx.comp_freq, ctx.comp_freq, ctx.comp_sizes)
        )

    def to_remote(self, entries, pages, lb, rbs) -> tuple[np.ndarray, np.ndarray]:
        """``(delta, shed)`` of ``entries`` on ``pages`` moving to their
        best remote stream (the scalar ``page_time_if_moved_remote``
        rule), against the pages' local bytes ``lb`` and per-stream
        bytes ``rbs`` (one value per entry): the objective change and
        the request rate the move sheds."""
        ovl, spl, html, *streams = self.page_terms[:, pages]
        a1f, shed, size = self.entry_terms[:, entries]
        old, new = _move_remote_times(
            ovl + spl * (html + lb),
            ovl + spl * (html + (lb - size)),
            size,
            (streams[0], streams[1], rbs[0]),
            [(streams[2 * r], streams[2 * r + 1], rbs[r]) for r in range(1, len(rbs))],
        )
        return a1f * (new - old), shed


def _fold(start: list[float], terms: np.ndarray) -> np.ndarray:
    """Running sums ``start[x] + terms[x, 0] + ...`` per row, column ``t``
    after ``t`` terms: ``accumulate`` adds left to right, as a Python
    ``+=`` loop does (``np.sum`` would add pairwise)."""
    return np.add.accumulate(
        np.concatenate((np.asarray(start)[:, None], terms), axis=1), axis=1
    )


def _finish(out: dict, failed: dict, logs: list, decisions: list | None) -> dict:
    """Hand the decision logs over server after server and return the
    per-server stats, or raise the lowest failing server's error — the
    one an ascending one-server-at-a-time sweep raises first."""
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
    concatenated with flat start/count tables, so scoring the candidates
    of every server at once is one :meth:`_EntryMoves.to_remote` call
    plus one ``np.bincount`` segment sum.  The bincount accumulates
    weights sequentially in input order — each candidate's compulsory
    terms in ascending entry order, then its optional terms — replaying
    the scalar ``_eviction_delta`` ``+=`` fold bit-for-bit.
    """

    def __init__(self, cost: CostModel, alloc: Allocation, servers: list[int]):
        ctx = alloc.ctx
        self.ctx = ctx
        self.moves = _EntryMoves(cost, ctx)
        self.ce, self.cstarts, self.ccounts = _grouped(ctx.comp_group, servers)
        self.oe, self.ostarts, self.ocounts = _grouped(ctx.opt_group, servers)
        self.oterm = cost.bulk_optional_entry_delta(self.oe, to_local=False)
        self.sizes = np.tile(alloc.model.sizes, len(servers))

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
        up shortest after receiving it.
        """
        owner, idx = expand_rows(self.cstarts[cand], self.ccounts[cand])
        e = self.ce[idx]
        if len(e):
            mk = comp_local[e]
            e = e[mk]
            owner = owner[mk]
        pg = self.ctx.comp_pages[e]
        wc = self.moves.to_remote(e, pg, LB[pg], [rb[pg] for rb in RBs])[0]
        ocounts = self.ocounts[cand]
        if ocounts.any():
            oowner, oidx = expand_rows(self.ostarts[cand], ocounts)
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
    """Storage restoration (Eq. 10) of ``servers`` (``None`` for every
    server, one id or several).

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
    m = alloc.model
    servers = _server_ids(m.n_servers, servers)
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
        if u <= capacity + CAPACITY_TOL:
            continue
        if html_bytes > capacity + CAPACITY_TOL:
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
            _tally(counters, batches=1, candidates=len(keys))

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
            if used[row] > cap[row] + CAPACITY_TOL:
                going.append(row)
        if not picked_keys:
            break
        _tally(counters, steps=1)
        # the evictions, one per row: their servers' pages are disjoint,
        # and an object appears once per page, so every flipped entry is
        # on a page of its own and moves against the totals before the step
        keys = np.asarray(picked_keys, dtype=np.intp)
        picker.kill(picker.pos[keys])
        owner, idx = expand_rows(scorer.cstarts[keys], scorer.ccounts[keys])
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
            opt_e = scorer.oe[expand_rows(scorer.ostarts[keys], ocounts)[1]]
            alloc.set_opt_local_bulk(opt_e[opt_local[opt_e]], False)
        if len(pages):
            # Paper: re-partition the affected pages with the replicas
            # left.  Every replica marked local on one of them, before
            # or after the re-partition, now scores against moved totals.
            starts = comp_indptr[pages]
            on_page, ents = expand_rows(starts, comp_indptr[pages + 1] - starts)
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
    """Processing restoration (Eq. 8) of ``servers`` (``None`` for every
    server, one id or several).

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
    m = alloc.model
    servers = _server_ids(m.n_servers, servers)
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
        if ld <= capacity + CAPACITY_TOL:
            continue
        if html_load > capacity + CAPACITY_TOL:
            failed[i] = (
                f"server {i}: HTML request load ({html_load:.2f} req/s) "
                f"alone exceeds processing capacity ({capacity:.2f} req/s)"
            )
            break  # the sweep never reaches a higher server
        rows.append(i)
        cap.append(capacity)
        load.append(ld)
        tol.append(max(CAPACITY_TOL, 1e-9 * max(capacity, html_load, 1.0)))
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
        picker.set(ec, scorer.comp(ec, j, LB[j], [rb[j] for rb in RBs]))
        _tally(counters, batches=1, candidates=len(ec))
    if len(eo):
        picker.set(NC + eo, scorer.opt(eo))
        _tally(counters, batches=1, candidates=len(eo))

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
        _tally(counters, steps=1)
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
            _tally(counters, batches=1, candidates=len(p.siblings))
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
        self.moves = _EntryMoves(cost, ctx)
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

    def comp(self, entries, pages, lb, rbs) -> np.ndarray:
        """Compulsory ``entries`` on ``pages`` moving to their best
        remote stream, against the pages' byte totals ``lb`` and ``rbs``
        (see :meth:`_EntryMoves.to_remote`)."""
        delta, shed = self.moves.to_remote(entries, pages, lb, rbs)
        return np.divide(
            delta, shed, out=np.full(len(entries), np.inf), where=shed > 0
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
    owner, sib = expand_rows(indptr[pages], indptr[pages + 1] - indptr[pages])
    keep = alloc.comp_local[sib]
    keep[sib == e[owner]] = False
    sib, owner = sib[keep], owner[keep]
    fresh = scorer.comp(sib, pages[owner], lb[owner], [rb[owner] for rb in rbs])
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
# phase entry points
# ----------------------------------------------------------------------
def _merged(stats, per_server: dict):
    """``stats`` with every server's stats merged in, ascending."""
    for i in sorted(per_server):
        stats.merge(per_server[i])
    return stats


def _restore(phase: str, stats_type, engine, alloc, cost, servers, **kw) -> dict:
    """Run ``engine`` over ``servers`` under the phase's span and
    counters; return each server's stats (the sharded kernel merges
    them across shards in global server order).  Every numeric stats
    field becomes a ``restoration.<phase>.<field>`` counter."""
    reg = get_registry()
    rescore: dict = {}
    with reg.span(f"restore-{phase}"):
        per_server = engine(alloc, cost, servers, counters=rescore, **kw)
    if reg.enabled:
        reg.count(f"restoration.{phase}.runs")
        for name, value in vars(_merged(stats_type(), per_server)).items():
            if not isinstance(value, list):
                reg.count(f"restoration.{phase}.{name}", value)
        if rescore:
            reg.count(f"restoration.{phase}.rescore_batches", rescore["batches"])
            reg.count(
                f"restoration.{phase}.rescored_candidates", rescore["candidates"]
            )
        if "steps" in rescore:
            reg.count(f"restoration.{phase}.steps", rescore["steps"])
    return per_server


_restore_storage = partial(
    _restore, "storage", StorageRestorationStats, restore_storage_batched
)
_restore_processing = partial(
    _restore, "processing", ProcessingRestorationStats, restore_processing_batched
)


def restore_storage_capacity(
    alloc: Allocation,
    cost: CostModel,
    servers: int | Iterable[int] | None = None,
    amortise: bool = True,
    kernel: Kernel = "batched",
) -> StorageRestorationStats:
    """Restore Eq. 10 in place; return accounting statistics.

    Parameters
    ----------
    alloc:
        Allocation to repair (mutated).
    cost:
        Cost model supplying the objective ``D``.
    servers:
        Restrict to one server id or a subset of them; default repairs
        every violating server.  The incremental re-planner passes the
        servers whose load or storage actually changed.  Duplicates
        collapse and the order is ascending, so a run over all servers
        is bit-identical to the default; an id out of range raises
        ``ValueError``.
    amortise:
        Divide each candidate's objective damage by its size (the paper's
        criterion, "more judicious over large ... objects").  ``False``
        ranks by raw damage — the ablation baseline.
    kernel:
        Validated policy kernel name (see
        :func:`repro.core.context.resolve_kernel`).  Every kernel runs
        the lockstep engine :func:`restore_storage_batched` (one
        ``argmin`` per step over every violating server, one fused
        dirty-set rescore per step); ``"sharded"`` called directly runs
        it in-process.

    The registry counter ``restoration.storage.rescore_batches`` counts
    fused flushes — one per lockstep step that touched a page, plus
    the initial scoring — not per-server flushes;
    ``rescored_candidates`` counts the candidates they rescored, and
    ``steps`` the lockstep steps.

    Raises
    ------
    InfeasibleError
        If a server's HTML alone exceeds its storage capacity (the
        lowest such server, as an ascending sweep would report).
    """
    resolve_kernel(kernel)
    return _merged(
        StorageRestorationStats(),
        _restore_storage(alloc, cost, servers, amortise=amortise),
    )


def restore_processing_capacity(
    alloc: Allocation,
    cost: CostModel,
    servers: int | Iterable[int] | None = None,
    kernel: Kernel = "batched",
) -> ProcessingRestorationStats:
    """Restore Eq. 8 in place; return accounting statistics.

    Runs the lockstep engine :func:`restore_processing_batched` (a
    verified prefix of switches per step for every violating server)
    for every validated ``kernel`` name.  ``servers`` restricts the run
    as in :func:`restore_storage_capacity`.  ``rescore_batches`` counts
    fused flushes: the initial scoring (compulsory and optional) and one
    per step that switched a compulsory entry with local siblings;
    ``steps`` counts the lockstep steps.

    Raises
    ------
    InfeasibleError
        If a server's HTML request load alone exceeds ``C(S_i)`` (the
        lowest such server, as an ascending sweep would report).
    """
    resolve_kernel(kernel)
    return _merged(
        ProcessingRestorationStats(), _restore_processing(alloc, cost, servers)
    )
