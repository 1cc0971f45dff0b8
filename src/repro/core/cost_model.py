"""Vectorised implementation of the Section 3 cost model (Eq. 3-7).

For an allocation ``X``/``X'`` the model computes, per page ``W_j`` hosted
on server ``S_i``:

.. math::

    Time(S_i, W_j) &= Ovhd(S_i) + \\frac{Size(H_j) + \\sum_k X_{jk} Size(M_k)}{B(S_i)}

    Time(R, W_j)   &= Ovhd(R, S_i) + \\frac{\\sum_k (1 - X_{jk}) U_{jk} Size(M_k)}{B(R, S_i)}

    Time(W_j)      &= \\max\\{Time(S_i, W_j),\\ Time(R, W_j)\\}

(the two downloads proceed in parallel over persistent pipelined
connections), and the expected optional-object time of Eq. 6

.. math::

    Time(W_j, M) = f(W_j, M) \\sum_k U'_{jk} \\big[ X'_{jk} t^{loc}_k +
                   (1 - X'_{jk}) t^{rep}_k \\big]

where each optional download pays a fresh connection overhead.  The
composite objective (Eq. 7 with weights) is

.. math::

    D = \\alpha_1 \\underbrace{\\sum_j f(W_j) Time(W_j)}_{D_1} +
        \\alpha_2 \\underbrace{\\sum_j f(W_j) Time(W_j, M)}_{D_2}.

Note on units: the paper calls ``B`` a transfer rate yet multiplies it by
sizes; we store rates in bytes/second and divide (see
:mod:`repro.util.units`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext, ScalarViews
from repro.core.types import SystemModel

__all__ = ["PageTimes", "CostModel"]

@dataclass(frozen=True)
class PageTimes:
    """Per-page time decomposition under an allocation.

    All arrays have length ``n_pages``.

    Attributes
    ----------
    local:
        ``Time(S_i, W_j)`` — the local pipelined stream (Eq. 3).
    remote:
        ``Time(R, W_j)`` — the binding remote time (Eq. 4): the
        elementwise max over the remote streams, which is the repository
        stream alone in the paper's two-stream model, so ``page ==
        max(local, remote)`` holds at every k.
    page:
        ``Time(W_j) = max(local, remote)`` (Eq. 5), generalized to the
        max over all k streams.
    optional:
        ``Time(W_j, M)`` — expected optional-object time (Eq. 6).
    by_stream:
        Per-remote-stream times, ``by_stream[r-1]`` being stream ``r``'s
        Eq. 4 analog.
    """

    local: np.ndarray
    remote: np.ndarray
    page: np.ndarray
    optional: np.ndarray
    by_stream: tuple[np.ndarray, ...]


class CostModel:
    """Evaluates Eq. 3-7 for allocations over a fixed :class:`SystemModel`.

    Parameters
    ----------
    model:
        The system universe.
    alpha1, alpha2:
        The positive weights combining ``D1`` (page retrieval time) and
        ``D2`` (optional object time) into the scalar objective ``D``.
        Table 1 uses ``(2, 1)`` — page time matters more.
    """

    def __init__(self, model: SystemModel, alpha1: float = 2.0, alpha2: float = 1.0):
        if alpha1 <= 0 or alpha2 <= 0:
            raise ValueError(
                f"alpha weights must be positive, got ({alpha1}, {alpha2})"
            )
        self.model = model
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)

        # All columns live in (and are shared through) the model's
        # EvalContext; the attributes below are aliases kept for the many
        # call sites that read them off the cost model.
        ctx = EvalContext.for_model(model)
        self.ctx = ctx
        #: per-page seconds-per-byte on the local / repository connection
        self.page_spb_local = ctx.page_spb_local
        self.page_spb_repo = ctx.page_spb_repo
        #: per-page connection overheads
        self.page_ovhd_local = ctx.page_ovhd_local
        self.page_ovhd_repo = ctx.page_ovhd_repo
        #: per-compulsory-entry object sizes (flat, aligned with comp_local)
        self.comp_sizes = ctx.comp_sizes
        #: per-optional-entry object sizes
        self.opt_sizes = ctx.opt_sizes
        #: per-optional-entry single-download times (Eq. 6): local vs repo
        self.opt_time_local = ctx.opt_time_local
        self.opt_time_repo = ctx.opt_time_repo
        #: best remote single-download time: the min over the k−1
        #: remote streams
        self.opt_time_remote = ctx.opt_time_remote
        #: expected weight of each optional entry: f(W_j)·scale·U'_jk
        self.opt_freq_weight = ctx.opt_freq_weight
        #: number of parallel streams (2 = the paper's local/repo pair)
        self.n_streams = ctx.n_streams

    # ------------------------------------------------------------------
    # byte aggregation
    # ------------------------------------------------------------------
    def local_mo_bytes(self, alloc: Allocation) -> np.ndarray:
        """Per-page :math:`\\sum_k X_{jk} Size(M_k)`.

        ``np.bincount`` accumulates its weights sequentially in input
        order, exactly like the ``np.add.at`` scatter it replaces, so the
        totals are bit-identical — it is just several times faster.  The
        result is float64 even when no entry is local (``np.bincount``
        of an empty selection is integer-typed).
        """
        m = self.model
        sel = alloc.comp_local
        return np.bincount(
            m.comp_pages[sel], weights=self.comp_sizes[sel], minlength=m.n_pages
        ).astype(float, copy=False)

    def remote_mo_bytes_by_stream(
        self, alloc: Allocation
    ) -> tuple[np.ndarray, ...]:
        """Per-page :math:`\\sum_k (1-X_{jk}) U_{jk} Size(M_k)` split by
        owning stream: element ``r-1`` is stream ``r``'s total, float64
        as in :meth:`local_mo_bytes`."""
        m = self.model
        rem = ~alloc.comp_local
        return tuple(
            np.bincount(
                m.comp_pages[sel_r],
                weights=self.comp_sizes[sel_r],
                minlength=m.n_pages,
            ).astype(float, copy=False)
            for r in range(1, self.n_streams)
            for sel_r in (rem & (alloc.comp_stream == r),)
        )

    # ------------------------------------------------------------------
    # Eq. 3-6
    # ------------------------------------------------------------------
    def optional_times(self, alloc: Allocation) -> np.ndarray:
        """Eq. 6 per page: expected optional download time per view.

        Remote optional downloads use the cheapest remote stream
        (``opt_time_remote``).
        """
        m = self.model
        per_entry = np.where(
            alloc.opt_local, self.opt_time_local, self.opt_time_remote
        )
        weighted = m.opt_probs * per_entry
        out = np.bincount(m.opt_pages, weights=weighted, minlength=m.n_pages)
        return out * m.optional_rate_scale

    def page_times(self, alloc: Allocation) -> PageTimes:
        """Full per-page decomposition (Eq. 3-6)."""
        ctx = self.ctx
        m = self.model
        local = self.page_ovhd_local + self.page_spb_local * (
            m.html_sizes + self.local_mo_bytes(alloc)
        )
        by_stream = tuple(
            ctx.page_ovhd_streams[r - 1] + ctx.page_spb_streams[r - 1] * rb
            for r, rb in enumerate(self.remote_mo_bytes_by_stream(alloc), 1)
        )
        remote = by_stream[0]
        for t in by_stream[1:]:
            remote = np.maximum(remote, t)
        page = np.maximum(local, remote)
        optional = self.optional_times(alloc)
        return PageTimes(
            local=local,
            remote=remote,
            page=page,
            optional=optional,
            by_stream=by_stream,
        )

    # ------------------------------------------------------------------
    # Eq. 7
    # ------------------------------------------------------------------
    def D1(self, alloc: Allocation) -> float:
        """:math:`D_1 = \\sum_j f(W_j)\\,Time(W_j)`."""
        times = self.page_times(alloc)
        return float(np.dot(self.model.frequencies, times.page))

    def D2(self, alloc: Allocation) -> float:
        """:math:`D_2 = \\sum_j f(W_j)\\,Time(W_j, M)`."""
        times = self.optional_times(alloc)
        return float(np.dot(self.model.frequencies, times))

    def D(self, alloc: Allocation) -> float:
        """The weighted composite objective :math:`\\alpha_1 D_1 + \\alpha_2 D_2`."""
        times = self.page_times(alloc)
        d1 = float(np.dot(self.model.frequencies, times.page))
        d2 = float(np.dot(self.model.frequencies, times.optional))
        return self.alpha1 * d1 + self.alpha2 * d2

    def objective_from_times(self, times: PageTimes) -> float:
        """``D`` from an existing :class:`PageTimes` (avoids recomputation)."""
        d1 = float(np.dot(self.model.frequencies, times.page))
        d2 = float(np.dot(self.model.frequencies, times.optional))
        return self.alpha1 * d1 + self.alpha2 * d2

    # ------------------------------------------------------------------
    # scalar helpers used by the greedy loops
    # ------------------------------------------------------------------
    @property
    def scalars(self) -> ScalarViews:
        """Plain-Python per-page views for scalar-heavy greedy loops.

        NumPy scalar indexing costs ~1 microsecond per access; the greedy
        restoration loops evaluate millions of single-page times, so they
        read these plain ``list`` views instead (built once per model in
        the shared :class:`~repro.core.context.EvalContext`).
        """
        return self.ctx.scalars

    # ------------------------------------------------------------------
    # bulk (vectorised) counterparts used by the batched greedy kernels
    # ------------------------------------------------------------------
    def bulk_optional_entry_delta(
        self, entries: np.ndarray, to_local: bool
    ) -> np.ndarray:
        """Change in ``alpha2 * D2`` from flipping each optional entry in
        ``entries``; positive means the objective gets worse."""
        diff = self.opt_time_local[entries] - self.opt_time_remote[entries]
        signed = diff if to_local else -diff
        return self.alpha2 * self.opt_freq_weight[entries] * signed
