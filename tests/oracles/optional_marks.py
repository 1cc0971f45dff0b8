"""The per-page optional-object marking, one object at a time.

After PARTITION the paper "stores all optional objects"; the
``"beneficial"`` policy instead marks an optional object local only when
its single download is no slower locally than over the cheapest remote
stream.  Production marks every page at once
(:func:`repro.core.partition.optional_marks_batched`); this loop
is the page-by-page reference it is checked against, and the one the
scalar PARTITION oracle assembles its allocations with.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import EvalContext
from repro.core.partition import OptionalPolicy
from repro.core.types import SystemModel


def optional_marks(
    model: SystemModel,
    page_id: int,
    policy: OptionalPolicy,
) -> np.ndarray:
    """Marks aligned with ``model.pages[page_id].optional`` under
    ``policy``."""
    page = model.pages[page_id]
    n = len(page.optional)
    if n == 0 or policy == "none":
        return np.zeros(n, dtype=bool)
    s = EvalContext.for_model(model).scalars
    ovhd_local = s.ovhd_local[page_id]
    spb_local = s.spb_local[page_id]
    remote = list(zip(s.ovhd_streams[page_id], s.spb_streams[page_id]))
    marks = np.zeros(n, dtype=bool)
    for pos, k in enumerate(page.optional):
        if policy == "all":
            marks[pos] = True
        else:  # "beneficial": against the cheapest remote stream
            size = model.sizes[k]
            t_remote = min(ovhd + spb * size for ovhd, spb in remote)
            marks[pos] = ovhd_local + spb_local * size <= t_remote
    return marks
