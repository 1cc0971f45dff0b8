"""The paper's two-stream PARTITION, verbatim (Section 4.2).

The compulsory MOs of a page are taken by decreasing size, and each goes
to whichever of the two parallel streams, local server or repository,
ends up shorter after receiving it: both running totals are tentatively
incremented, then the loser is rolled back.  Equal candidates go local.

The engine's k-way PARTITION (:func:`repro.core.partition.partition_page`)
must reproduce this bit for bit when the only remote stream is the
repository; the k=2 identity property checks it against this oracle.
"""

from __future__ import annotations

import numpy as np


def partition_page_pair(model, page_id, allowed=None, order="decreasing"):
    """``(marks, local_time, remote_time)`` of one page.

    ``allowed`` restricts which objects may be marked local (the rest
    ride the repository stream); ``order`` is ``"decreasing"`` size,
    ``"increasing"`` or ``"document"`` (the page's embed order).
    """
    page = model.pages[page_id]
    srv = model.servers[page.server]
    spb_local = srv.spb
    spb_repo = srv.repo_spb

    local_time = srv.overhead + spb_local * page.html_size
    remote_time = srv.repo_overhead

    sl = model.comp_slice(page_id)
    start = sl.start
    marks = np.zeros(sl.stop - start, dtype=bool)
    sorted_entries, comp_objects, entry_sizes, _ = model.fast_comp
    if order == "decreasing":
        iteration = sorted_entries[start : sl.stop]
    elif order == "increasing":
        iteration = sorted_entries[start : sl.stop][::-1]
    elif order == "document":
        iteration = range(start, sl.stop)
    else:
        raise ValueError(f"unknown sort order {order!r}")

    allowed_set = None if allowed is None else set(allowed)
    for e in iteration:
        size = entry_sizes[e]
        if allowed_set is not None and comp_objects[e] not in allowed_set:
            remote_time += spb_repo * size
            continue
        cand_remote = remote_time + spb_repo * size
        cand_local = local_time + spb_local * size
        if cand_remote < cand_local:
            remote_time = cand_remote
        else:
            local_time = cand_local
            marks[e - start] = True
    return marks, local_time, remote_time
