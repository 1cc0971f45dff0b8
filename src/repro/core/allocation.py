"""Allocation state: the decision matrices ``X``/``X'`` plus replica sets.

The paper's decision variables are

* ``X_jk = 1``  — compulsory object ``M_k`` of page ``W_j`` is downloaded
  from the *local* server (Eq. 3/4),
* ``X'_jk = 1`` — as ``X`` but extended to optional objects (Eq. 6), and
* the implied **replica set** of each server: every object some hosted
  page marks local must be stored there (text below Eq. 2).

Two subtleties the paper relies on and we model explicitly:

1. A server may *store* an object that no page currently marks for local
   download ("some MOs although stored in the server may not be marked
   for a local download", Section 4.2) — the storage-restoration loop
   exploits exactly this.  Hence replicas are independent state, with the
   invariant ``marked ⊆ stored``.
2. An object marked local by several co-hosted pages is stored **once**
   (the set-union in Eq. 10).

:class:`Allocation` keeps the flat boolean mark arrays aligned with
:class:`repro.core.types.SystemModel`'s flattened ``U``/``U'`` entries,
plus one replica set per server, and maintains per-server mark counts so
the greedy loops can find fully-unmarked (deallocatable) objects in O(1).
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.core.context import EvalContext
from repro.core.types import SystemModel

__all__ = ["Allocation", "transplant_allocation"]

#: bulk mark flips up to this many entries update the counts one by one.
#: Measured per call on a ``plan-cold`` universe (2-vCPU box): the loop costs
#: 3 us for one entry and 25 us for 100, against 16 us and 45 us through
#: ``np.unique``; the two meet between 300 and 1,000 entries
_SHORT_BATCH = 256


def transplant_allocation(alloc: "Allocation", model: SystemModel) -> "Allocation":
    """Rebind ``alloc``'s decisions onto a structurally identical model.

    Used when planning and evaluation happen on different model
    instances — e.g. an allocation computed against *estimated* page
    frequencies replayed on the *true* model, or across frequency-drift
    epochs.  Both models must have the same pages/objects layout (only
    attributes like frequencies or capacities may differ).
    """
    src = alloc.model
    if (
        src.n_pages != model.n_pages
        or src.n_servers != model.n_servers
        or not np.array_equal(src.comp_objects, model.comp_objects)
        or not np.array_equal(src.opt_objects, model.opt_objects)
        or not np.array_equal(src.page_server, model.page_server)
    ):
        raise ValueError(
            "models are structurally different; transplant requires "
            "identical page/object layout"
        )
    return Allocation(
        model,
        alloc.comp_local,
        alloc.opt_local,
        replicas=[set(r) for r in alloc.replicas],
        comp_stream=alloc.comp_stream,
    )


class Allocation:
    """Mutable decision state over a :class:`SystemModel`.

    Parameters
    ----------
    model:
        The system universe the decisions refer to.
    comp_local:
        Flat boolean array over the model's compulsory entries (``X``).
        Defaults to all-``False`` (everything from the repository).
    opt_local:
        Flat boolean array over the optional entries (the optional part of
        ``X'``). Defaults to all-``False``.
    replicas:
        Per-server sets of stored object ids. Defaults to exactly the
        objects required by the marks. Supplying a superset is allowed
        (stored-but-unmarked objects); a subset raises.
    comp_stream:
        Per-compulsory-entry remote stream assignment (``int8``, values
        in ``1..n_streams-1``) — which of the k−1 remote streams serves
        the entry when ``comp_local`` is ``False``.  Meaningful only for
        remote entries; defaults to all-``1`` (the repository stream,
        the only remote stream of the degenerate k=2 topology).
    """

    def __init__(
        self,
        model: SystemModel,
        comp_local: np.ndarray | None = None,
        opt_local: np.ndarray | None = None,
        replicas: Iterable[Iterable[int]] | None = None,
        comp_stream: np.ndarray | None = None,
    ):
        self.model = model
        #: shared columnar derived state (see :mod:`repro.core.context`)
        self.ctx = EvalContext.for_model(model)
        ne_c = len(model.comp_objects)
        ne_o = len(model.opt_objects)
        self.comp_local = (
            np.zeros(ne_c, dtype=bool) if comp_local is None else np.asarray(comp_local, dtype=bool).copy()
        )
        self.opt_local = (
            np.zeros(ne_o, dtype=bool) if opt_local is None else np.asarray(opt_local, dtype=bool).copy()
        )
        if self.comp_local.shape != (ne_c,):
            raise ValueError(
                f"comp_local must have shape ({ne_c},), got {self.comp_local.shape}"
            )
        if self.opt_local.shape != (ne_o,):
            raise ValueError(
                f"opt_local must have shape ({ne_o},), got {self.opt_local.shape}"
            )
        if comp_stream is None:
            self.comp_stream = np.ones(ne_c, dtype=np.int8)
        else:
            self.comp_stream = np.asarray(comp_stream, dtype=np.int8).copy()
            if self.comp_stream.shape != (ne_c,):
                raise ValueError(
                    f"comp_stream must have shape ({ne_c},), got "
                    f"{self.comp_stream.shape}"
                )
        self._rebuild_mark_counts()
        required = self._required_replicas()
        if replicas is None:
            self.replicas: list[set[int]] = [set(r) for r in required]
        else:
            self.replicas = [set(r) for r in replicas]
            if len(self.replicas) != model.n_servers:
                raise ValueError(
                    f"replicas must have one set per server "
                    f"({model.n_servers}), got {len(self.replicas)}"
                )
            for i, (have, need) in enumerate(zip(self.replicas, required)):
                missing = need - have
                if missing:
                    raise ValueError(
                        f"server {i}: objects {sorted(missing)[:5]}... are "
                        "marked for local download but absent from the "
                        "replica set"
                    )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _rebuild_mark_counts(self) -> None:
        """Recompute the per-server ``{object: #marking entries}`` maps.

        One ``np.bincount`` over the context's precomputed per-entry
        ``(server, object)`` pair indices — integer counts, so the totals
        are exact regardless of accumulation order.  Python-level work is
        one dict write per *replica*, not per mark.
        """
        ctx = self.ctx
        self._mark_counts: list[dict[int, int]] = [
            dict() for _ in range(self.model.n_servers)
        ]
        cnt = np.bincount(
            np.concatenate(
                [ctx.comp_pair[self.comp_local], ctx.opt_pair[self.opt_local]]
            ),
            minlength=ctx.n_pairs,
        )
        nz = cnt.nonzero()[0]
        # nz is ascending and the pair table is server-contiguous
        bounds = nz.searchsorted(ctx.pair_indptr)
        obj_of = ctx.pair_object
        for i in range(self.model.n_servers):
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                sel = nz[lo:hi]
                self._mark_counts[i] = dict(
                    zip(obj_of[sel].tolist(), cnt[sel].tolist())
                )

    def _required_replicas(self) -> list[set[int]]:
        return [set(d.keys()) for d in self._mark_counts]

    def mark_count(self, server_id: int, object_id: int) -> int:
        """Number of entries on ``server_id`` marking ``object_id`` local."""
        return self._mark_counts[server_id].get(object_id, 0)

    # ------------------------------------------------------------------
    # mutation (keeps marks ⊆ replicas)
    # ------------------------------------------------------------------
    def set_comp_local(self, entry: int, value: bool) -> None:
        """Set ``X`` for one flat compulsory entry, updating replica state."""
        old = bool(self.comp_local[entry])
        if old == bool(value):
            return
        ctx = self.ctx
        i = int(ctx.comp_server[entry])
        k = int(ctx.comp_objects[entry])
        self.comp_local[entry] = value
        self._bump(i, k, +1 if value else -1)

    def set_opt_local(self, entry: int, value: bool) -> None:
        """Set the optional part of ``X'`` for one flat entry."""
        old = bool(self.opt_local[entry])
        if old == bool(value):
            return
        ctx = self.ctx
        i = int(ctx.opt_server[entry])
        k = int(ctx.opt_objects[entry])
        self.opt_local[entry] = value
        self._bump(i, k, +1 if value else -1)

    def set_comp_local_bulk(self, entries: np.ndarray, value: bool) -> None:
        """Set ``X`` for many flat compulsory entries in one batch.

        Equivalent to ``for e in entries: set_comp_local(e, value)`` but
        with the replica/mark-count bookkeeping grouped per unique
        ``(server, object)`` pair instead of per entry.  Duplicate
        entries are collapsed (setting is idempotent).
        """
        changed = self._changed_entries(entries, self.comp_local, value)
        if len(changed) == 0:
            return
        self.comp_local[changed] = value
        self._bump_bulk(self.ctx.comp_pair[changed], +1 if value else -1)

    def set_opt_local_bulk(self, entries: np.ndarray, value: bool) -> None:
        """Batched :meth:`set_opt_local` (see :meth:`set_comp_local_bulk`)."""
        changed = self._changed_entries(entries, self.opt_local, value)
        if len(changed) == 0:
            return
        self.opt_local[changed] = value
        self._bump_bulk(self.ctx.opt_pair[changed], +1 if value else -1)

    @staticmethod
    def _changed_entries(
        entries: np.ndarray, marks: np.ndarray, value: bool
    ) -> np.ndarray:
        """Deduplicated subset of ``entries`` whose mark actually flips."""
        entries = np.asarray(entries, dtype=np.intp)
        changed = entries[marks[entries] != bool(value)]
        if len(changed) > 1 and not (changed[1:] > changed[:-1]).all():
            changed = np.unique(changed)
        return changed

    def _bump_bulk(self, pair_ids: np.ndarray, delta: int) -> None:
        """Apply a bulk mark delta grouped per ``(server, object)`` pair.

        ``pair_ids`` are context pair-table rows of the flipped entries;
        unique-with-counts over them yields each pair's multiplicity in
        ascending (server, object) order, exactly like the sort-based
        grouping it replaces.  A short batch (the restoration engines
        flip a few dozen entries per step) is cheaper one entry at a
        time; the mark counts come out the same either way.
        """
        ctx = self.ctx
        if len(pair_ids) <= _SHORT_BATCH:
            for i, k in zip(
                ctx.pair_server[pair_ids].tolist(), ctx.pair_object[pair_ids].tolist()
            ):
                self._bump(i, k, delta)
            return
        uniq, counts = np.unique(pair_ids, return_counts=True)
        usrv = ctx.pair_server[uniq]
        uobj = ctx.pair_object[uniq]
        bounds = (usrv[1:] != usrv[:-1]).nonzero()[0] + 1
        for lo, hi in zip(
            np.concatenate(([0], bounds)), np.concatenate((bounds, [len(uniq)]))
        ):
            i = int(usrv[lo])
            objs = uobj[lo:hi].tolist()
            cnts = counts[lo:hi].tolist()
            d = self._mark_counts[i]
            if delta > 0 and not d:
                self._mark_counts[i] = dict(zip(objs, cnts))
                self.replicas[i].update(objs)
                continue
            for k, c in zip(objs, cnts):
                new = d.get(k, 0) + delta * c
                if new < 0:  # pragma: no cover - defensive
                    raise RuntimeError("mark count underflow")
                if new == 0:
                    d.pop(k, None)
                else:
                    d[k] = new
            if delta > 0:
                self.replicas[i].update(objs)

    def _bump(self, server_id: int, object_id: int, delta: int) -> None:
        d = self._mark_counts[server_id]
        new = d.get(object_id, 0) + delta
        if new < 0:  # pragma: no cover - defensive
            raise RuntimeError("mark count underflow")
        if new == 0:
            d.pop(object_id, None)
        else:
            d[object_id] = new
        if delta > 0:
            self.replicas[server_id].add(object_id)

    def store(self, server_id: int, object_id: int) -> None:
        """Add a replica of ``object_id`` at ``server_id`` (idempotent)."""
        self.replicas[server_id].add(object_id)

    def deallocate(self, server_id: int, object_id: int) -> tuple[int, ...]:
        """Drop the replica of ``object_id`` at ``server_id``.

        All entries on that server marking the object local are flipped to
        remote first (a page cannot download locally what is not stored).

        Returns
        -------
        tuple of page ids whose marks were flipped (useful for the
        re-partitioning step of storage restoration).
        """
        if object_id not in self.replicas[server_id]:
            raise KeyError(
                f"object {object_id} is not stored at server {server_id}"
            )
        ce, c_start, c_count = self.ctx.comp_group(server_id)
        oe, o_start, o_count = self.ctx.opt_group(server_id)
        lo = int(c_start[object_id])
        comp_e = ce[lo : lo + int(c_count[object_id])].tolist()
        lo = int(o_start[object_id])
        opt_e = oe[lo : lo + int(o_count[object_id])].tolist()
        affected: list[int] = []
        for e in comp_e:
            if self.comp_local[e]:
                self.set_comp_local(e, False)
                affected.append(int(self.model.comp_pages[e]))
        for e in opt_e:
            if self.opt_local[e]:
                self.set_opt_local(e, False)
                affected.append(int(self.model.opt_pages[e]))
        self.replicas[server_id].discard(object_id)
        return tuple(dict.fromkeys(affected))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stored_bytes(self, server_id: int) -> float:
        """MO bytes stored at ``server_id`` (the set-union term of Eq. 10)."""
        sizes = self.model.sizes
        return float(sum(sizes[k] for k in self.replicas[server_id]))

    def stored_bytes_all(self) -> np.ndarray:
        """Per-server stored MO bytes, in one vectorised pass.

        Concatenates the replica sets, each in its own iteration order
        (the order :meth:`stored_bytes` sums in); ``np.bincount`` adds
        its weights in input order, so every server's total is
        bit-identical to :meth:`stored_bytes`.
        """
        counts = np.fromiter(map(len, self.replicas), dtype=np.intp)
        objs = np.fromiter(
            itertools.chain.from_iterable(self.replicas),
            dtype=np.intp,
            count=int(counts.sum()),
        )
        return np.bincount(
            np.repeat(np.arange(len(counts)), counts),
            weights=self.model.sizes[objs],
            minlength=self.model.n_servers,
        )

    def unmarked_stored(self, server_id: int) -> set[int]:
        """Objects stored at ``server_id`` with zero local-download marks."""
        d = self._mark_counts[server_id]
        return {k for k in self.replicas[server_id] if k not in d}

    def page_comp_marks(self, page_id: int) -> np.ndarray:
        """View of this page's compulsory marks (aligned with
        ``model.pages[page_id].compulsory``)."""
        return self.comp_local[self.model.comp_slice(page_id)]

    def page_opt_marks(self, page_id: int) -> np.ndarray:
        """View of this page's optional marks."""
        return self.opt_local[self.model.opt_slice(page_id)]

    def copy(self) -> "Allocation":
        """Deep copy of marks and replica sets (model is shared)."""
        dup = Allocation.__new__(Allocation)
        dup.model = self.model
        dup.ctx = self.ctx
        dup.comp_local = self.comp_local.copy()
        dup.opt_local = self.opt_local.copy()
        dup.comp_stream = self.comp_stream.copy()
        dup.replicas = [set(r) for r in self.replicas]
        dup._mark_counts = [dict(d) for d in self._mark_counts]
        return dup

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if marks/replicas are inconsistent.

        Intended for tests and debugging; production paths maintain the
        invariants incrementally.
        """
        k = getattr(self.model, "n_streams", 2)
        assert (self.comp_stream >= 1).all() and (
            self.comp_stream <= k - 1
        ).all(), "comp_stream out of 1..n_streams-1 range"
        fresh = Allocation(self.model, self.comp_local, self.opt_local)
        for i in range(self.model.n_servers):
            need = set(fresh._mark_counts[i].keys())
            assert need <= self.replicas[i], (
                f"server {i}: marked objects {sorted(need - self.replicas[i])} "
                "missing from replica set"
            )
            assert self._mark_counts[i] == fresh._mark_counts[i], (
                f"server {i}: stale mark counts"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (
            self.model is other.model
            and np.array_equal(self.comp_local, other.comp_local)
            and np.array_equal(self.opt_local, other.opt_local)
            # stream assignments only matter where the entry is remote
            and np.array_equal(
                np.where(self.comp_local, 0, self.comp_stream),
                np.where(other.comp_local, 0, other.comp_stream),
            )
            and self.replicas == other.replicas
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stored = sum(len(r) for r in self.replicas)
        return (
            f"Allocation(local_comp={int(self.comp_local.sum())}/"
            f"{len(self.comp_local)}, local_opt={int(self.opt_local.sum())}/"
            f"{len(self.opt_local)}, replicas={stored})"
        )
