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

Re-partitioning during constraint restoration passes ``allowed`` — the
set of objects currently stored at the page's server — so the greedy can
only mark objects that will not grow the replica set.
"""

from __future__ import annotations

from typing import Collection, Literal

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext, Kernel, resolve_kernel
from repro.core.fast_partition import partition_all_batched
from repro.core.types import SystemModel
from repro.obs.registry import get_registry

__all__ = [
    "partition_page",
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


def partition_all(
    model: SystemModel,
    optional_policy: OptionalPolicy = "all",
    allowed_per_server: dict[int, Collection[int]] | None = None,
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
    allowed_per_server:
        Optional per-server whitelists restricting which objects may be
        replicated (used by constrained re-partitioning).
    order:
        Greedy iteration order (see :func:`partition_page`).
    kernel:
        Validated policy kernel name.  Every kernel runs the vectorized
        pad-and-mask engine of :mod:`repro.core.fast_partition`, which
        reproduces :func:`partition_page` on every page bit for bit;
        ``"sharded"`` called directly runs it in-process.
    """
    kernel = resolve_kernel(kernel)
    reg = get_registry()
    with reg.span("partition-all"):
        alloc = partition_all_batched(
            model,
            optional_policy=optional_policy,
            allowed_per_server=allowed_per_server,
            order=order,
        )
    if reg.enabled:
        reg.count("partition.runs")
        reg.count(f"partition.kernel.{kernel}")
        reg.count("partition.pages", model.n_pages)
    return alloc
