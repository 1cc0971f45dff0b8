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
plus one replica set per server, and one integer mark count per row of
the context's ``(server, object)`` pair table (``ctx.comp_pair`` /
``ctx.opt_pair`` give each entry's row).  A flip updates the counts at
its entries' rows — one index for a scalar setter, one ``np.add.at`` /
``np.subtract.at`` for a batch — so the greedy loops read a
fully-unmarked (deallocatable) object off a zero count.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.core.context import EvalContext
from repro.core.types import SystemModel

__all__ = ["Allocation", "transplant_allocation"]

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
        if replicas is None:
            self.replicas: list[set[int]] = [
                self._marked(i) for i in range(model.n_servers)
            ]
        else:
            self.replicas = [set(r) for r in replicas]
            if len(self.replicas) != model.n_servers:
                raise ValueError(
                    f"replicas must have one set per server "
                    f"({model.n_servers}), got {len(self.replicas)}"
                )
            for i, have in enumerate(self.replicas):
                missing = self._marked(i) - have
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
        """Recompute the mark counts from the marks.

        ``_mark_counts[p]`` is the number of entries marking pair-table
        row ``p`` local (see :mod:`repro.core.context`): one
        ``np.bincount`` over the marked entries' pair indices.
        """
        ctx = self.ctx
        self._mark_counts = np.bincount(
            np.concatenate(
                [ctx.comp_pair[self.comp_local], ctx.opt_pair[self.opt_local]]
            ),
            minlength=ctx.n_pairs,
        )

    def _marked(self, server_id: int) -> set[int]:
        """Objects some entry on ``server_id`` marks local."""
        ctx = self.ctx
        sl = slice(ctx.pair_indptr[server_id], ctx.pair_indptr[server_id + 1])
        return set(ctx.pair_object[sl][self._mark_counts[sl] > 0].tolist())

    def mark_count(self, server_id: int, object_id: int) -> int:
        """Number of entries on ``server_id`` marking ``object_id`` local."""
        ctx = self.ctx
        lo, hi = ctx.pair_indptr[server_id], ctx.pair_indptr[server_id + 1]
        p = lo + int(ctx.pair_object[lo:hi].searchsorted(object_id))
        if p < hi and ctx.pair_object[p] == object_id:
            return int(self._mark_counts[p])
        return 0

    # ------------------------------------------------------------------
    # mutation (keeps marks ⊆ replicas)
    # ------------------------------------------------------------------
    def set_comp_local(self, entry: int, value: bool) -> None:
        """Set ``X`` for one flat compulsory entry, updating replica state."""
        if bool(self.comp_local[entry]) == bool(value):
            return
        self.comp_local[entry] = value
        self._count_one(int(self.ctx.comp_pair[entry]), value)

    def set_opt_local(self, entry: int, value: bool) -> None:
        """Set the optional part of ``X'`` for one flat entry."""
        if bool(self.opt_local[entry]) == bool(value):
            return
        self.opt_local[entry] = value
        self._count_one(int(self.ctx.opt_pair[entry]), value)

    def set_comp_local_bulk(self, entries: np.ndarray, value: bool) -> None:
        """Set ``X`` for many flat compulsory entries in one batch.

        Equivalent to ``for e in entries: set_comp_local(e, value)``;
        duplicate entries and entries already at ``value`` are no-ops.
        """
        changed = self._changed_entries(entries, self.comp_local, value)
        if len(changed) == 0:
            return
        self.comp_local[changed] = value
        self._count(self.ctx.comp_pair[changed], value)

    def set_opt_local_bulk(self, entries: np.ndarray, value: bool) -> None:
        """Batched :meth:`set_opt_local` (see :meth:`set_comp_local_bulk`)."""
        changed = self._changed_entries(entries, self.opt_local, value)
        if len(changed) == 0:
            return
        self.opt_local[changed] = value
        self._count(self.ctx.opt_pair[changed], value)

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

    def _count_one(self, pair: int, value: bool) -> None:
        """Add (``value``) or remove one mark at pair-table row ``pair``;
        a count rising from zero stores the pair's object."""
        if not value:
            self._mark_counts[pair] -= 1
            return
        if self._mark_counts[pair] == 0:
            ctx = self.ctx
            i, k = int(ctx.pair_server[pair]), int(ctx.pair_object[pair])
            self.replicas[i].add(k)
        self._mark_counts[pair] += 1

    def _count(self, pairs: np.ndarray, value: bool) -> None:
        """:meth:`_count_one` at each of ``pairs`` (repeats allowed).

        The counts are integers, so any update order gives the same
        array.
        """
        counts = self._mark_counts
        if not value:
            np.subtract.at(counts, pairs, 1)
            return
        rising = pairs[counts[pairs] == 0]
        np.add.at(counts, pairs, 1)
        ctx = self.ctx
        for i, k in zip(
            ctx.pair_server[rising].tolist(), ctx.pair_object[rising].tolist()
        ):
            self.replicas[i].add(k)

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
        lo = c_start[object_id]
        comp_e = ce[lo : lo + c_count[object_id]]
        comp_e = comp_e[self.comp_local[comp_e]]
        lo = o_start[object_id]
        opt_e = oe[lo : lo + o_count[object_id]]
        opt_e = opt_e[self.opt_local[opt_e]]
        self.set_comp_local_bulk(comp_e, False)
        self.set_opt_local_bulk(opt_e, False)
        self.replicas[server_id].discard(object_id)
        affected = np.concatenate(
            (self.model.comp_pages[comp_e], self.model.opt_pages[opt_e])
        ).tolist()
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
        return self.replicas[server_id] - self._marked(server_id)

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
        dup._mark_counts = self._mark_counts.copy()
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
        for i, need in enumerate(fresh.replicas):
            assert need <= self.replicas[i], (
                f"server {i}: marked objects {sorted(need - self.replicas[i])} "
                "missing from replica set"
            )
        stale = np.flatnonzero(self._mark_counts != fresh._mark_counts)
        assert not len(stale), (
            f"server {self.ctx.pair_server[stale[0]]}: stale mark counts"
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
