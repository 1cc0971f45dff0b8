"""The PARTITION algorithm (Section 4.2).

For each page the compulsory MOs are sorted by **decreasing size** and
greedily assigned to whichever parallel stream ends up shortest after
receiving the object.  The paper has two streams, the local server and
the repository; a k-stream replica mesh adds k−2 replica sites, and the
greedy becomes an argmin over all k.  With the repository as the only
remote stream the argmin is the paper's pseudocode (both running totals
tentatively incremented, the loser rolled back) operation for operation.

The local stream starts at ``Ovhd(S_i) + Size(H_j)/B(S_i)`` (the HTML
document must always come from the local server); remote stream ``r``
starts at its connection overhead, ``Ovhd(R, S_i)`` for the repository.

After partitioning, the paper stores every MO with at least one local
mark, and additionally *stores all optional objects* (downloading an
optional object locally is beneficial whenever ``B(R,S_i) < B(S_i)``).
:func:`partition_all` exposes that choice via ``optional_policy``:

* ``"all"`` (paper default) — mark every optional object local,
* ``"beneficial"`` — mark an optional object local only when its single
  download is faster locally (equivalent under the Table 1 workload,
  strictly better when some region's repository link beats its local
  link).

Two kernels run the one greedy:

* :func:`partition_pages_batched` runs many pages at once as a
  **pad-and-mask batch** over the model's flat CSR layout
  (``comp_sorted`` / ``comp_indptr``).  Pages are ranked by descending
  compulsory count, so the pages still holding a ``t``-th object form a
  prefix, and each greedy step is one vectorised compare-and-select over
  that prefix: ``O(sum_j k_j)`` element operations in ``max_k`` NumPy
  dispatches.  :func:`partition_all` and the incremental re-planner use
  it.
* :func:`partition_page` runs one page in plain Python.  Storage
  restoration re-partitions the few pages an eviction touches with it,
  passing ``allowed`` — the set of objects currently stored at the
  page's server — so the greedy can only mark objects that will not
  grow the replica set.

Both perform the same IEEE-754 double operations in the same order, so
their marks, streams and stream times are bit-identical; the
differential property suite
(``tests/properties/test_property_fast_partition.py``) asserts it with
exact ``==`` comparisons.
"""

from __future__ import annotations

from typing import Collection, Literal

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext, Kernel, resolve_kernel
from repro.core.types import SystemModel
from repro.obs.registry import get_registry

__all__ = [
    "partition_page",
    "partition_pages_batched",
    "optional_marks_batched",
    "partition_all",
    "resolve_kernel",
    "OptionalPolicy",
    "SortOrder",
    "Kernel",
]

OptionalPolicy = Literal["all", "beneficial", "none"]
SortOrder = Literal["decreasing", "increasing", "document"]

_INF = float("inf")


def partition_page(
    model: SystemModel,
    page_id: int,
    allowed: Collection[int] | None = None,
    order: SortOrder = "decreasing",
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Run PARTITION for one page: a greedy argmin over the k streams.

    Each object lands on whichever stream — local, or any of the k−1
    remote streams — would end up shortest after receiving it; a later
    stream must be *strictly* shorter to win, so ties go to the lowest
    stream index (local beats every remote, the repository beats the
    extra replica sites).  A disallowed object takes the argmin over the
    remote streams only.  With the repository as the only remote stream
    this is the paper's pseudocode exactly: the repository wins an
    object only when ``cand_remote < cand_local``.

    Parameters
    ----------
    model:
        The system universe.
    page_id:
        Page to partition.
    allowed:
        If given, only these object ids may be marked local; all others
        are forced onto a remote stream.  ``None`` means any object may
        be replicated.
    order:
        Iteration order over the page's compulsory objects.  The paper
        prescribes ``"decreasing"`` size (big objects placed while the
        streams are short, so the greedy can still balance around them);
        ``"increasing"`` and ``"document"`` (the page's embed order) are
        provided for the ablation bench.

    Returns
    -------
    (marks, streams, local_time, stream_times):
        ``marks`` is a boolean array aligned with
        ``model.pages[page_id].compulsory`` (``True`` = download locally,
        i.e. ``X_jk = 1``); ``streams`` the per-entry owning remote
        stream (``int8``, meaningful where the mark is ``False``);
        ``local_time`` the Eq. 3 stream time and ``stream_times[r-1]``
        the Eq. 4 analog of remote stream ``r``.
    """
    marks, streams, local_time, stream_times = _partition_page(
        EvalContext.for_model(model).scalars, model.fast_comp, page_id, allowed, order
    )
    return (
        np.frombuffer(marks, dtype=bool),
        np.frombuffer(streams, dtype=np.int8),
        local_time,
        stream_times,
    )


def _partition_page(s, fast_comp, page_id, allowed=None, order="decreasing"):
    """:func:`partition_page` over a context's scalar views ``s`` and the
    model's ``fast_comp`` lists — storage restoration calls it with its
    allocation's own context, so no context is looked up per page.  The
    marks and streams come back as ``bytearray``s (one byte per entry),
    which storage restoration joins for a whole step before viewing
    them as arrays."""
    spb_local = s.spb_local[page_id]
    local_time = s.ovhd_local[page_id] + spb_local * s.html[page_id]
    # the repository (stream 1), then a mesh's replica sites (2..k-1)
    spb_repo, *spb_sites = s.spb_streams[page_id]
    repo_time, *site_times = s.ovhd_streams[page_id]
    sites = range(len(site_times))
    # no site can win an object while its current time is no shorter
    # than the best remote candidate (object sizes are non-negative)
    site_floor = min(site_times, default=_INF)

    # Pre-sorted by decreasing size (ties broken by entry position); see
    # SystemModel.comp_sorted.  Plain-list views keep this hot loop off
    # NumPy scalar indexing.
    sorted_entries, comp_objects, entry_sizes, indptr = fast_comp
    start = indptr[page_id]
    stop = indptr[page_id + 1]
    if order == "decreasing":
        iteration = sorted_entries[start:stop]
    elif order == "increasing":
        iteration = sorted_entries[start:stop][::-1]
    elif order == "document":
        iteration = range(start, stop)
    else:
        raise ValueError(f"unknown sort order {order!r}")
    if allowed is not None and not isinstance(allowed, (set, frozenset)):
        allowed = set(allowed)

    # byte buffers, viewed as the returned arrays: a bytearray item write
    # is about half the cost of a NumPy scalar write
    marks = bytearray(stop - start)
    streams = bytearray(b"\x01") * (stop - start)
    for e in iteration:
        size = entry_sizes[e]
        # the shortest remote stream after receiving the object, ties
        # to the lowest index (site = 0 is the repository) ...
        site = 0
        best_t = repo_time + spb_repo * size
        if site_floor < best_t:
            for r in sites:
                t = site_times[r] + spb_sites[r] * size
                if t < best_t:
                    site, best_t = r + 1, t
        # ... wins it only when STRICTLY shorter than the local stream
        if allowed is None or comp_objects[e] in allowed:
            t = local_time + spb_local * size
            if not best_t < t:
                local_time = t
                marks[e - start] = 1
                continue
        if site:
            site_times[site - 1] = best_t
            site_floor = min(site_times)
            streams[e - start] = site + 1
        else:
            repo_time = best_t
    return marks, streams, local_time, [repo_time, *site_times]


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
    return starts + t  # "document"


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
    tie rule of :func:`partition_page`.

    Parameters
    ----------
    model:
        The system universe.
    page_ids:
        Pages to partition (default: all pages).
    allowed_mask:
        Optional boolean array over the model's **flat compulsory
        entries**: ``False`` entries are forced onto a remote stream
        (slice-assign it for a single server's replica set).  ``None`` =
        unrestricted.
    order:
        Same iteration orders as :func:`partition_page`.

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
            raise ValueError(
                f"page_ids must be one-dimensional, got shape {pages.shape}"
            )
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


def optional_marks_batched(model: SystemModel, policy: str = "all") -> np.ndarray:
    """Flat optional-entry marks for every page under ``policy``.

    Vectorized equivalent of the page-by-page reference loop
    (``tests/oracles/optional_marks.py``): the
    ``"beneficial"`` predicate ``Ovhd(S_i) + size/B(S_i) <= Ovhd(R, S_i)
    + size/B(R, S_i)`` is evaluated with the identical arithmetic.
    """
    ne = len(model.opt_objects)
    if ne == 0 or policy == "none":
        return np.zeros(ne, dtype=bool)
    if policy == "all":
        return np.ones(ne, dtype=bool)
    if policy == "beneficial":
        # the per-entry single-download times are exactly the predicate's
        # two sides, precomputed once in the context (opt_time_remote is
        # the cheapest remote stream, as in the page-by-page reference)
        ctx = EvalContext.for_model(model)
        return ctx.opt_time_local <= ctx.opt_time_remote
    raise ValueError(f"unknown optional policy {policy!r}")


def partition_all(
    model: SystemModel,
    optional_policy: OptionalPolicy = "all",
    order: SortOrder = "decreasing",
    kernel: Kernel = "batched",
) -> Allocation:
    """Run PARTITION over every page and assemble an :class:`Allocation`.

    The resulting replica sets are exactly the marked objects: every MO
    with at least one ``X'_jk = 1`` on the server is stored (the paper's
    "Store the M_k's that have at least one non-zero entry in X matrix.
    Store all optional objects.").

    Parameters
    ----------
    model:
        The system universe.
    optional_policy:
        How optional objects are marked (see module docstring).
    order:
        Greedy iteration order (see :func:`partition_page`).
    kernel:
        Validated policy kernel name.  Every kernel runs
        :func:`partition_pages_batched` over all pages; ``"sharded"``
        called directly runs it in-process.
    """
    kernel = resolve_kernel(kernel)
    reg = get_registry()
    with reg.span("partition-all"):
        comp_marks, streams, _, _ = partition_pages_batched(model, order=order)
        opt_marks = optional_marks_batched(model, optional_policy)
        alloc = Allocation(model)
        alloc.set_comp_local_bulk(comp_marks.nonzero()[0], True)
        alloc.set_opt_local_bulk(opt_marks.nonzero()[0], True)
        alloc.comp_stream[:] = streams
    if reg.enabled:
        reg.count("partition.runs")
        reg.count(f"partition.kernel.{kernel}")
        reg.count("partition.pages", model.n_pages)
    return alloc
