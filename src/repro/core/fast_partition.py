"""Batched PARTITION kernel (Section 4.2, all pages at once).

:func:`~repro.core.partition.partition_page` runs the greedy stream
balancing one page at a time; on Table 1-scale workloads the experiment
sweeps spend most of their wall-clock inside that Python loop.  This module re-implements the
greedy as a **pad-and-mask batch kernel** over the flat CSR layout that
:class:`~repro.core.types.SystemModel` already maintains
(``comp_sorted`` / ``comp_indptr``): pages are sorted by descending
compulsory count, padded to a conceptual ``(n_pages, max_k)`` tile, and
each greedy step ``t`` becomes one vectorized compare-and-select over
every page whose ``t``-th object exists.  Because the pages are rank
sorted, the active set at step ``t`` is a prefix — the kernel never
touches exhausted pages, so total work is ``O(sum_j k_j)`` element ops in
``max_k`` NumPy dispatches instead of ``sum_j k_j`` Python iterations.

Bit-exactness contract
----------------------
The kernel performs *the same IEEE-754 double operations in the same
order* as the scalar greedy for every page:

* ``local = Ovhd(S_i) + Size(H_j)/B(S_i)`` seed, remote stream ``r``
  seeded at its overhead (``Ovhd(R, S_i)`` for the repository),
* per object ``cand_r = remote_r + size/B(r, S_i)`` on every remote
  stream and ``cand_local = local + size/B(S_i)``,
* the tie rule: the lowest-index remote stream among the shortest
  candidates wins the object only when it is **strictly** shorter than
  ``cand_local`` — equal candidates go local.  With the repository as
  the only remote stream this is the paper's
  ``cand_remote < cand_local``.

Hence marks, streams and stream times are **bit-identical** to
:func:`~repro.core.partition.partition_page`, which the differential
property suite (``tests/properties/test_property_fast_partition.py``)
asserts with exact ``==`` comparisons.  ``partition_page`` stays in
production as the per-page kernel: storage restoration re-partitions
the few pages an eviction touches with it.

Entry points
------------
* :func:`partition_pages_batched` — marks, streams and stream times for
  a set of pages (the incremental re-planner rebuilds the pages of the
  servers a drift touched).
* :func:`partition_all_batched` — full :class:`Allocation` assembly via
  the bulk mark APIs (:meth:`Allocation.set_comp_local_bulk`).
* :func:`comp_allowed_mask` / :func:`optional_marks_batched` — vectorised
  ``allowed`` whitelists and optional-object marking.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.types import SystemModel
from repro.obs.registry import get_registry

__all__ = [
    "partition_pages_batched",
    "partition_all_batched",
    "comp_allowed_mask",
    "optional_marks_batched",
]


def comp_allowed_mask(
    model: SystemModel,
    allowed_per_server: dict[int, Collection[int]] | None,
) -> np.ndarray | None:
    """Per-compulsory-entry ``allowed`` mask from per-server whitelists.

    ``None`` whitelists mean "unrestricted"; a missing server key means
    "nothing allowed" for that server's pages (matching
    :func:`~repro.core.partition.partition_all`'s ``.get(server, ())``).
    """
    if allowed_per_server is None:
        return None
    ne = len(model.comp_objects)
    mask = np.zeros(ne, dtype=bool)
    entry_server = EvalContext.for_model(model).comp_server
    for i in range(model.n_servers):
        allowed = allowed_per_server.get(i, ())
        if not allowed:
            continue
        rows = entry_server == i
        allowed_arr = np.fromiter(allowed, dtype=np.intp, count=len(allowed))
        mask[rows] = np.isin(model.comp_objects[rows], allowed_arr)
    return mask


def _entry_tile_column(
    model: SystemModel,
    pages: np.ndarray,
    counts: np.ndarray,
    t: int,
    order: str,
) -> np.ndarray:
    """Flat entry index of each page's ``t``-th object in ``order``.

    Only called with pages whose count exceeds ``t`` (the rank-sorted
    active prefix), so no padding is needed.
    """
    starts = model.comp_indptr[pages]
    if order == "decreasing":
        return model.comp_sorted[starts + t]
    if order == "increasing":
        return model.comp_sorted[starts + counts - 1 - t]
    if order == "document":
        return starts + t
    raise ValueError(f"unknown sort order {order!r}")


def partition_pages_batched(
    model: SystemModel,
    page_ids: np.ndarray | Collection[int] | None = None,
    allowed_mask: np.ndarray | None = None,
    order: str = "decreasing",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run PARTITION for many pages in one vectorized pass.

    Each greedy step folds the active pages' candidate times over the
    remote streams — the repository first, a replica site taking over
    only when strictly shorter — and the best remote stream must then be
    *strictly* shorter than the local candidate to win the object: the
    scalar kernel's tie rule.

    Parameters
    ----------
    model:
        The system universe.
    page_ids:
        Pages to partition (default: all pages).
    allowed_mask:
        Optional boolean array over the model's **flat compulsory
        entries**: ``False`` entries are forced onto a remote stream
        (build it with :func:`comp_allowed_mask`, or slice-assign for a
        single server's replica set).  ``None`` = unrestricted.
    order:
        Same iteration orders as :func:`~repro.core.partition.partition_page`.

    Returns
    -------
    (marks, streams, local_times, stream_times):
        ``marks``/``streams`` are flat over **all** of the model's
        compulsory entries (entries of unselected pages stay unmarked on
        stream 1; ``streams`` is ``int8``, meaningful where the mark is
        ``False``); ``local_times`` aligns with ``page_ids`` and
        ``stream_times`` is ``(n_streams - 1, len(page_ids))``.
    """
    if page_ids is None:
        pages = np.arange(model.n_pages, dtype=np.intp)
    else:
        pages = np.asarray(page_ids, dtype=np.intp)
        if pages.ndim != 1:
            raise ValueError("page_ids must be one-dimensional")
    if order not in ("decreasing", "increasing", "document"):
        raise ValueError(f"unknown sort order {order!r}")

    reg = get_registry()
    if reg.enabled:
        reg.count("partition.batched_calls")
        reg.count("partition.batched_pages", len(pages))

    ne = len(model.comp_objects)
    marks = np.zeros(ne, dtype=bool)
    streams = np.ones(ne, dtype=np.int8)

    ctx = EvalContext.for_model(model)
    spb_local = ctx.page_spb_local[pages]
    local = ctx.page_ovhd_local[pages] + spb_local * ctx.html_sizes[pages]
    spb_streams = np.stack([col[pages] for col in ctx.page_spb_streams])
    remote = np.stack([col[pages] for col in ctx.page_ovhd_streams])

    counts = model.comp_indptr[pages + 1] - model.comp_indptr[pages]
    if len(pages) == 0 or counts.max(initial=0) == 0:
        return marks, streams, local, remote

    # Rank pages by descending compulsory count so the pages still
    # holding a t-th object always form a prefix of the batch; undo the
    # permutation on return.
    rank = np.argsort(-counts, kind="stable")
    pages_r = pages[rank]
    counts_r = counts[rank]
    local_r = local[rank]
    remote_r = remote[:, rank]
    spb_local_r = spb_local[rank]
    spb_streams_r = spb_streams[:, rank]

    entry_sizes = model.comp_entry_sizes
    max_k = int(counts_r[0])
    # Number of active pages at each step: counts_r is descending, so
    # pages with counts_r > t occupy [0, active_at[t]).
    active_at = np.searchsorted(-counts_r, -np.arange(max_k), side="left")

    sites = range(1, len(remote_r))
    for t in range(max_k):
        a = int(active_at[t])
        e_t = _entry_tile_column(model, pages_r[:a], counts_r[:a], t, order)
        size = entry_sizes[e_t]
        # the shortest remote stream after receiving the object, ties to
        # the lowest index (site 0 is the repository) ...
        best = remote_r[0, :a] + spb_streams_r[0, :a] * size
        site = np.zeros(a, dtype=np.intp)
        for r in sites:
            cand = remote_r[r, :a] + spb_streams_r[r, :a] * size
            win = cand < best
            best = np.where(win, cand, best)
            site[win] = r
        # ... wins it only when STRICTLY shorter than the local stream
        cand_local = local_r[:a] + spb_local_r[:a] * size
        go_local = ~(best < cand_local)
        if allowed_mask is not None:
            go_local &= allowed_mask[e_t]
        local_r[:a] = np.where(go_local, cand_local, local_r[:a])
        won = (~go_local).nonzero()[0]
        site = site[won]
        remote_r[site, won] = best[won]
        marks[e_t[go_local]] = True
        streams[e_t[won]] = site + 1

    inv = np.empty_like(rank)
    inv[rank] = np.arange(len(rank))
    return marks, streams, local_r[inv], remote_r[:, inv]


def optional_marks_batched(
    model: SystemModel,
    policy: str = "all",
    allowed_per_server: dict[int, Collection[int]] | None = None,
) -> np.ndarray:
    """Flat optional-entry marks for every page under ``policy``.

    Vectorized equivalent of the page-by-page reference loop
    (``tests/oracles/optional_marks.py``): the
    ``"beneficial"`` predicate ``Ovhd(S_i) + size/B(S_i) <= Ovhd(R, S_i)
    + size/B(R, S_i)`` is evaluated with the identical arithmetic.
    """
    ne = len(model.opt_objects)
    if ne == 0 or policy == "none":
        return np.zeros(ne, dtype=bool)
    ctx = EvalContext.for_model(model)
    srv = ctx.opt_server
    if policy == "all":
        marks = np.ones(ne, dtype=bool)
    elif policy == "beneficial":
        # the per-entry single-download times are exactly the "beneficial"
        # predicate's two sides, precomputed once in the context
        # (opt_time_remote is the cheapest remote stream, as in the
        # page-by-page reference)
        marks = ctx.opt_time_local <= ctx.opt_time_remote
    else:
        raise ValueError(f"unknown optional policy {policy!r}")
    if allowed_per_server is not None:
        allowed = np.zeros(ne, dtype=bool)
        for i in range(model.n_servers):
            wl = allowed_per_server.get(i, ())
            if not wl:
                continue
            rows = srv == i
            wl_arr = np.fromiter(wl, dtype=np.intp, count=len(wl))
            allowed[rows] = np.isin(model.opt_objects[rows], wl_arr)
        marks &= allowed
    return marks


def partition_all_batched(
    model: SystemModel,
    optional_policy: str = "all",
    allowed_per_server: dict[int, Collection[int]] | None = None,
    order: str = "decreasing",
) -> Allocation:
    """Batched :func:`~repro.core.partition.partition_all`.

    Produces an :class:`Allocation` equal (marks, replicas and all) to
    the scalar assembly, but computes every page's greedy in the batch
    kernel and installs the marks through the bulk APIs.
    """
    mask = comp_allowed_mask(model, allowed_per_server)
    comp_marks, streams, _, _ = partition_pages_batched(
        model, page_ids=None, allowed_mask=mask, order=order
    )
    opt_marks = optional_marks_batched(model, optional_policy, allowed_per_server)
    alloc = Allocation(model)
    alloc.set_comp_local_bulk(comp_marks.nonzero()[0], True)
    alloc.set_opt_local_bulk(opt_marks.nonzero()[0], True)
    alloc.comp_stream[:] = streams
    return alloc
