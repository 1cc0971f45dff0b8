"""Popularity-greedy replication — the classic caching heuristic.

A natural competitor the paper does not evaluate: fill each server's
storage with the objects its pages request most (popularity per byte),
ignoring the two-connection structure entirely.  Two marking variants
isolate *where the paper's gain comes from*:

* ``marking="all-stored"`` — every stored object is downloaded locally
  (what a conventional push-cache does); the replica *set* is greedy-
  popular and the streams are whatever they end up being.
* ``marking="balanced"`` — same replica set, but each page re-runs
  PARTITION restricted to the stored objects, splitting its downloads
  across the two connections.

Comparing the two against the full policy shows that (1) balancing the
streams matters even for a popularity-chosen replica set, and (2) the
policy's D-aware eviction beats popularity-per-byte at equal storage.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.baselines.base import AllocationPolicy
from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.partition import partition_pages_batched
from repro.core.types import SystemModel

__all__ = ["PopularityPolicy"]

Marking = Literal["all-stored", "balanced"]


class PopularityPolicy(AllocationPolicy):
    """Greedy popularity-per-byte replication under Eq. 10 budgets.

    Parameters
    ----------
    storage_bytes:
        Per-server MO storage budget in bytes (scalar broadcasts).
        ``None`` uses each server's Eq. 10 capacity minus hosted HTML.
    marking:
        How downloads are assigned once the replica set is fixed (see
        module docstring).
    """

    def __init__(
        self,
        storage_bytes: float | np.ndarray | None = None,
        marking: Marking = "all-stored",
    ):
        if marking not in ("all-stored", "balanced"):
            raise ValueError(f"unknown marking {marking!r}")
        self.storage_bytes = storage_bytes
        self.marking: Marking = marking
        self.name = f"popularity-{marking}"

    # ------------------------------------------------------------------
    def _budgets(self, model: SystemModel) -> np.ndarray:
        if self.storage_bytes is not None:
            return np.broadcast_to(
                np.asarray(self.storage_bytes, dtype=float), (model.n_servers,)
            ).copy()
        budgets = model.server_storage - model.html_bytes_by_server()
        return np.maximum(budgets, 0.0)

    def _popular_set(self, model: SystemModel, server_id: int, budget: float) -> set[int]:
        """Objects ranked by request rate per byte, greedily packed.

        The per-object rates come from one ``np.bincount`` over the
        server's compulsory-then-optional entries (the context's groups
        are object-sorted with ascending entries — the exact order a
        per-object ``+=`` loop over the server's entries accumulates
        in, so the folds are bit-identical).
        """
        ctx = EvalContext.for_model(model)
        ce = ctx.comp_group(server_id)[0]
        oe = ctx.opt_group(server_id)[0]
        objs = np.concatenate([ctx.comp_objects[ce], ctx.opt_objects[oe]])
        w = np.concatenate([ctx.comp_freq[ce], ctx.opt_freq_weight[oe]])
        rate = np.bincount(objs, weights=w, minlength=len(model.sizes))
        scores: list[tuple[float, int, float]] = []
        for k in model.objects_referenced_by_server(server_id):
            size = float(model.sizes[k])
            scores.append((float(rate[k]) / size, k, size))
        scores.sort(key=lambda t: (-t[0], t[1]))
        chosen: set[int] = set()
        used = 0.0
        for _, k, size in scores:
            if used + size <= budget:
                chosen.add(k)
                used += size
        return chosen

    # ------------------------------------------------------------------
    def allocate(self, model: SystemModel) -> Allocation:
        """Build the popularity replica sets and mark downloads.

        Marks are installed through the bulk APIs; for ``"balanced"``
        the per-page PARTITION runs on the batched kernel restricted to
        the stored set — both bit-identical to the scalar assembly.
        """
        budgets = self._budgets(model)
        alloc = Allocation(model)
        ctx = alloc.ctx
        for i in range(model.n_servers):
            stored = self._popular_set(model, i, float(budgets[i]))
            stored_arr = np.fromiter(stored, dtype=np.intp, count=len(stored))
            ce = ctx.comp_group(i)[0]
            if self.marking == "all-stored":
                sel = np.isin(ctx.comp_objects[ce], stored_arr)
                alloc.set_comp_local_bulk(ce[sel], True)
            else:
                pages = np.asarray(model.pages_by_server[i], dtype=np.intp)
                if len(pages):
                    allowed_mask = np.zeros(len(ctx.comp_objects), dtype=bool)
                    allowed_mask[ce] = np.isin(ctx.comp_objects[ce], stored_arr)
                    marks, streams, _, _ = partition_pages_batched(
                        model, page_ids=pages, allowed_mask=allowed_mask
                    )
                    alloc.set_comp_local_bulk(marks.nonzero()[0], True)
                    alloc.comp_stream[ce] = streams[ce]
            oe = ctx.opt_group(i)[0]
            osel = np.isin(ctx.opt_objects[oe], stored_arr)
            alloc.set_opt_local_bulk(oe[osel], True)
            # stored-but-unmarked objects still occupy the budget
            for k in stored:
                alloc.store(i, k)
        return alloc
