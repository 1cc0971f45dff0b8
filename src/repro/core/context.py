"""One columnar home for per-model derived state: the :class:`EvalContext`.

Every layer of the pipeline — PARTITION (Section 4.2), the Eq. 8/10
restoration loops, OFF_LOADING (Eq. 9), the Eq. 3-7 cost model, the
baselines and the request-level simulator — evaluates the same matrices
``U``, ``U'``, ``A``, ``X``, ``X'`` over the same per-entry attributes.
Before this module each consumer re-derived its own slice of that state
(`CostModel` columns, `Allocation`'s pair grouping, the eviction
scorer's per-server gather, per-model reverse-index dicts …), once per
phase or worse.

:class:`EvalContext` is the consolidation: an immutable struct-of-arrays
built **once per** :class:`SystemModel` and cached on the model.  Each
column is computed with the expression its consumers used to
evaluate privately, so the arrays are bit-identical to theirs — which
is what keeps the golden regressions and the differential kernel
oracles unchanged.

A context holds columns only: it keeps no reference back to its model,
so a model and everything cached on it are freed by reference counting
as soon as the last caller drops the model.  A frequency-only clone
(:func:`adopt_frequency_context`) takes a shallow copy of its base's
context and rebinds the frequency columns, so the structural arrays are
shared by reference and never written.  The objective itself is
computed in one place, :class:`repro.core.cost_model.CostModel`.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from repro.core.types import SystemModel

__all__ = [
    "EvalContext",
    "ScalarViews",
    "Kernel",
    "resolve_kernel",
    "rebuild_contexts",
    "is_frequency_clone",
    "adopt_frequency_context",
]

#: Policy kernels.  Every phase has one engine, the batched one;
#: ``"sharded"`` fans servers out over worker processes and runs that
#: engine inside each shard (see :mod:`repro.core.shard`).  A phase
#: called directly with ``kernel="sharded"`` runs in-process.
Kernel = Literal["batched", "sharded"]

_KERNELS = ("batched", "sharded")


def resolve_kernel(value: str | None, default: Kernel = "batched") -> Kernel:
    """Validate a kernel name from CLI / env / API callers.

    The single source of truth for kernel validation — the CLI
    ``--kernel`` flag, the ``REPRO_KERNEL`` environment override, and the
    restoration/partition entry points all funnel through here, so the
    accepted values and the error text cannot diverge.

    Parameters
    ----------
    value:
        Raw kernel name; surrounding whitespace and case are ignored.
        ``None`` or ``""`` selects ``default``.
    default:
        Kernel returned for unset values.

    Raises
    ------
    ValueError
        If ``value`` names neither ``"batched"`` nor ``"sharded"``.
    """
    if value is None or value == "":
        return default
    kernel = str(value).strip().lower()
    if kernel not in _KERNELS:
        raise ValueError(
            f"kernel must be one of {'|'.join(_KERNELS)}, got {value!r}"
        )
    return kernel  # type: ignore[return-value]


@dataclass(frozen=True)
class ScalarViews:
    """Plain-list per-page attribute views (see :attr:`EvalContext.scalars`).

    NumPy scalar indexing costs ~1 microsecond per access; PARTITION's
    per-page kernel (:func:`repro.core.partition.partition_page`, which
    storage restoration runs on every page it re-partitions) reads these
    plain ``list`` views instead.  They hold exactly what that kernel
    reads, and nothing that depends on page frequencies.
    """

    ovhd_local: list[float]
    spb_local: list[float]
    html: list[float]
    #: per-page remote-stream views: ``ovhd_streams[j][r-1]`` is page
    #: ``j``'s overhead on remote stream ``r`` (the repository first)
    ovhd_streams: list[tuple[float, ...]]
    spb_streams: list[tuple[float, ...]]


_CACHE_ATTR = "_repro_eval_context_cache"

_CACHE_ENABLED = [True]


@contextlib.contextmanager
def rebuild_contexts() -> Iterator[None]:
    """Disable the per-model context cache inside the ``with`` block.

    Every :meth:`EvalContext.for_model` call then builds a fresh context
    — the pre-consolidation behaviour where each consumer re-derived its
    own columns.  Used by ``benchmarks/bench_policy_end_to_end.py`` as
    the rebuild baseline arm; never use it in production paths.
    """
    _CACHE_ENABLED[0] = False
    try:
        yield
    finally:
        _CACHE_ENABLED[0] = True


def is_frequency_clone(base: SystemModel, model: SystemModel) -> bool:
    """Whether ``model`` differs from ``base`` only in page frequencies.

    Checks every structural input the :class:`EvalContext` columns are
    derived from — page/object layout, sizes, per-server network
    attributes and capacities, optional probabilities and rate scales.
    ``True`` means all non-frequency derived state (CSR groups, pair
    tables, size expansions, Eq. 6 single-download times) is valid for
    ``model`` as-is, so :func:`adopt_frequency_context` may transfer it
    instead of rebuilding.  O(entries) array comparisons — orders of
    magnitude cheaper than a context rebuild.
    """
    if base is model:
        return True
    return (
        base.n_pages == model.n_pages
        and base.n_servers == model.n_servers
        and base.n_objects == model.n_objects
        and np.array_equal(base.comp_objects, model.comp_objects)
        and np.array_equal(base.opt_objects, model.opt_objects)
        and np.array_equal(base.page_server, model.page_server)
        and np.array_equal(base.sizes, model.sizes)
        and np.array_equal(base.html_sizes, model.html_sizes)
        and np.array_equal(base.opt_probs, model.opt_probs)
        and np.array_equal(base.optional_rate_scale, model.optional_rate_scale)
        and np.array_equal(base.server_rate, model.server_rate)
        and np.array_equal(base.server_overhead, model.server_overhead)
        and np.array_equal(base.server_repo_rate, model.server_repo_rate)
        and np.array_equal(base.server_repo_overhead, model.server_repo_overhead)
        and np.array_equal(base.stream_rates, model.stream_rates)
        and np.array_equal(base.stream_overheads, model.stream_overheads)
        and np.array_equal(base.server_storage, model.server_storage)
        and np.array_equal(base.server_capacity, model.server_capacity)
        and base.repository == model.repository
    )


def adopt_frequency_context(base: SystemModel, model: SystemModel) -> bool:
    """Seed ``model``'s derived-state caches from ``base``'s.

    ``model`` must be a frequency-only clone of ``base`` (same pages,
    objects, servers, sizes; only ``frequencies`` may differ — verified,
    raising :class:`ValueError` otherwise).  When ``base`` carries a
    cached :class:`EvalContext`, ``model`` gets a shallow copy of it
    whose frequency-derived columns are rebound to fresh arrays; the
    structural columns (sizes, CSR groups, pair tables, stream-seed
    expansions) stay shared **by reference**.  The (purely structural)
    plain-list PARTITION views transfer too.

    Returns ``True`` when a context was transferred, ``False`` when
    ``base`` had none cached (nothing to do — ``model`` will build its
    own lazily).  The dynamic re-replication loop calls this through
    ``repro.dynamic.drift.replace_frequencies`` so consecutive epoch
    models never rebuild structural state.
    """
    if not is_frequency_clone(base, model):
        raise ValueError(
            "adopt_frequency_context requires a frequency-only clone: "
            "the models differ structurally"
        )
    if base is model:
        return True
    # Structural cache outside the context: the plain-list PARTITION
    # views (sizes/order only), a pure function of the structure.
    src_fast = getattr(base, "_fast_comp_cache", None)
    if src_fast is not None and getattr(model, "_fast_comp_cache", None) is None:
        model._fast_comp_cache = src_fast

    src_ctx: EvalContext | None = getattr(base, _CACHE_ATTR, None)
    if src_ctx is None or not _CACHE_ENABLED[0]:
        return False
    if getattr(model, _CACHE_ATTR, None) is not None:
        return False  # model already has its own context; keep it
    ctx = copy.copy(src_ctx)
    ctx._bind_frequency_columns(model)
    setattr(model, _CACHE_ATTR, ctx)
    return True


class EvalContext:
    """Immutable columnar derived state of one :class:`SystemModel`.

    Obtain instances through :meth:`for_model` — direct construction
    bypasses the per-model cache.  All array attributes are read-only
    views shared across every consumer; treat them as immutable.

    Column groups
    -------------
    * **per page** — ``page_spb_local``/``page_spb_repo`` (seconds per
      byte on the local / repository connection), ``page_ovhd_local``/
      ``page_ovhd_repo`` (connection overheads), plus the ``html_sizes``
      and ``frequencies`` aliases.
    * **per compulsory entry** (aligned with ``Allocation.comp_local``) —
      owning page/server, object id, object size, page frequency.
    * **per optional entry** — the same index columns plus the Eq. 6
      single-download times (``opt_time_local``/``opt_time_repo``) and
      the expected request weight ``opt_freq_weight`` =
      ``f(W_j)·scale·U'_jk``.
    * **per server** — hosted-HTML bytes (the fixed Eq. 10 term) and the
      HTML request load (the fixed Eq. 8 term).
    * **pair table** — the distinct ``(server, object)`` pairs any entry
      can mark, with per-entry pair indices (``comp_pair``/``opt_pair``)
      so mark-count bookkeeping reduces to ``np.bincount``.
    * **per-server CSR groups** — every server's entries sorted by
      object, with dense per-object ``starts``/``counts`` tables (see
      :meth:`comp_group`), feeding the eviction scorer, the L2-swap
      victim ranking and ``Allocation.deallocate`` without any
      per-phase scan-and-sort.
    """

    def __init__(self, model: SystemModel):
        self._build(model)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, m: SystemModel) -> None:
        self.n_pages = m.n_pages
        self.n_servers = m.n_servers
        self.n_objects = m.n_objects

        srv = m.page_server
        self.page_server = srv
        self.html_sizes = m.html_sizes
        #: per-page seconds-per-byte on the local / repository connection
        self.page_spb_local = 1.0 / m.server_rate[srv]
        self.page_spb_repo = 1.0 / m.server_repo_rate[srv]
        #: per-page connection overheads
        self.page_ovhd_local = m.server_overhead[srv]
        self.page_ovhd_repo = m.server_repo_overhead[srv]

        self.comp_pages = m.comp_pages
        self.comp_objects = m.comp_objects
        self.comp_server = srv[m.comp_pages]
        self.comp_sizes = m.sizes[m.comp_objects]

        po = m.opt_pages
        self.opt_pages = po
        self.opt_objects = m.opt_objects
        self.opt_server = srv[po]
        self.opt_sizes = m.sizes[m.opt_objects]
        self.opt_probs = m.opt_probs
        # Per-optional-entry single-download times (each needs its own TCP
        # connection, Eq. 6): local vs repository.
        self.opt_time_local = (
            self.page_ovhd_local[po] + self.page_spb_local[po] * self.opt_sizes
        )
        self.opt_time_repo = (
            self.page_ovhd_repo[po] + self.page_spb_repo[po] * self.opt_sizes
        )

        # Per-remote-stream seed columns (the k-stream generalization of
        # the Eq. 3-5 local/repository pair).  Element 0 IS the
        # repository column — the same array objects as
        # ``page_spb_repo`` / ``page_ovhd_repo`` / ``opt_time_repo``.
        self.n_streams = int(getattr(m, "n_streams", 2))
        spb_rows = [self.page_spb_repo]
        ovhd_rows = [self.page_ovhd_repo]
        opt_rows = [self.opt_time_repo]
        for r in range(1, self.n_streams - 1):
            spb_r = 1.0 / m.stream_rates[srv, r]
            ovhd_r = m.stream_overheads[srv, r]
            spb_rows.append(spb_r)
            ovhd_rows.append(ovhd_r)
            opt_rows.append(ovhd_r[po] + spb_r[po] * self.opt_sizes)
        self.page_spb_streams = tuple(spb_rows)
        self.page_ovhd_streams = tuple(ovhd_rows)
        self.opt_time_streams = tuple(opt_rows)
        # cheapest remote stream per optional entry, ties to the lowest
        # index: a fold from the repository over the replica sites
        self.opt_time_remote = self.opt_time_repo
        self.opt_best_stream = np.ones(len(po), dtype=np.int8)
        for r, row in enumerate(opt_rows[1:], 2):
            win = row < self.opt_time_remote
            self.opt_time_remote = np.where(win, row, self.opt_time_remote)
            self.opt_best_stream[win] = r

        self.html_bytes_by_server = m.html_bytes_by_server()

        self.scalars = ScalarViews(
            ovhd_local=self.page_ovhd_local.tolist(),
            spb_local=self.page_spb_local.tolist(),
            html=m.html_sizes.tolist(),
            ovhd_streams=list(zip(*(a.tolist() for a in ovhd_rows))),
            spb_streams=list(zip(*(a.tolist() for a in spb_rows))),
        )
        self._bind_frequency_columns(m)

        self._build_pair_table()
        (
            self._comp_grouped,
            self._comp_srv_indptr,
            self._comp_starts,
            self._comp_counts,
        ) = self._build_groups(self.comp_server, self.comp_objects)
        (
            self._opt_grouped,
            self._opt_srv_indptr,
            self._opt_starts,
            self._opt_counts,
        ) = self._build_groups(self.opt_server, self.opt_objects)

    def _build_pair_table(self) -> None:
        """The distinct ``(server, object)`` pairs, sorted ascending.

        ``comp_pair[e]`` / ``opt_pair[e]`` give each entry's row in the
        table; ``pair_indptr`` slices the (server-contiguous) table per
        server.  Mark counting becomes ``np.bincount`` over pair indices
        — integer counts, so exact regardless of accumulation order.
        """
        n_obj = self.n_objects
        key_c = self.comp_server * n_obj + self.comp_objects
        key_o = self.opt_server * n_obj + self.opt_objects
        keys = np.unique(np.concatenate([key_c, key_o]))
        self.n_pairs = len(keys)
        self.pair_server = keys // n_obj
        self.pair_object = keys % n_obj
        self.comp_pair = keys.searchsorted(key_c)
        self.opt_pair = keys.searchsorted(key_o)
        self.pair_indptr = self.pair_server.searchsorted(
            np.arange(self.n_servers + 1)
        )

    def _build_groups(
        self, entry_server: np.ndarray, entry_objects: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
        """Per-server entries grouped by object (stable: entry ascending).

        Returns ``(grouped, srv_indptr, starts, counts)`` where
        ``grouped[srv_indptr[i]:srv_indptr[i+1]]`` are server ``i``'s
        entries sorted by ``(object, entry)``, and ``starts[i]`` /
        ``counts[i]`` are dense per-object tables into that slice, built
        once per model.
        """
        ne = len(entry_server)
        order = np.lexsort((np.arange(ne), entry_objects, entry_server))
        srv_indptr = entry_server[order].searchsorted(
            np.arange(self.n_servers + 1)
        )
        starts: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for i in range(self.n_servers):
            sl_objs = entry_objects[order[srv_indptr[i] : srv_indptr[i + 1]]]
            cnt = np.bincount(sl_objs, minlength=self.n_objects)
            starts.append(cnt.cumsum() - cnt)
            counts.append(cnt)
        return order, srv_indptr, tuple(starts), tuple(counts)

    def _bind_frequency_columns(self, m: SystemModel) -> None:
        """Bind the columns that depend on ``m``'s page frequencies.

        The only place those columns are computed: a fresh build calls
        it once, and a frequency clone's shallow copy of its base's
        context (see :func:`adopt_frequency_context`) calls it again.
        Every column is rebound to a new object, never written in place,
        so the copy and its base keep sharing only structural arrays.
        """
        self.frequencies = m.frequencies
        self.comp_freq = m.frequencies[self.comp_pages]
        #: expected weight of each optional entry: f(W_j)·scale·U'_jk
        po = self.opt_pages
        self.opt_freq_weight = (
            m.frequencies[po] * m.optional_rate_scale[po] * self.opt_probs
        )
        load = np.zeros(self.n_servers)
        np.add.at(load, self.page_server, m.frequencies)
        self.html_request_load = load

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def comp_group(self, server_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entries, starts, counts)`` — server's compulsory entries
        grouped by object.  ``entries[starts[k]:starts[k]+counts[k]]``
        are the (ascending) entries referencing object ``k``; the dense
        tables span all ``n_objects``."""
        sl = slice(
            self._comp_srv_indptr[server_id], self._comp_srv_indptr[server_id + 1]
        )
        return (
            self._comp_grouped[sl],
            self._comp_starts[server_id],
            self._comp_counts[server_id],
        )

    def opt_group(self, server_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Optional-entry counterpart of :meth:`comp_group`."""
        sl = slice(
            self._opt_srv_indptr[server_id], self._opt_srv_indptr[server_id + 1]
        )
        return (
            self._opt_grouped[sl],
            self._opt_starts[server_id],
            self._opt_counts[server_id],
        )

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, model: SystemModel) -> "EvalContext":
        """The (cached) context of ``model``; only the first call per
        model pays the build."""
        if not _CACHE_ENABLED[0]:
            return cls(model)
        ctx: EvalContext | None = getattr(model, _CACHE_ATTR, None)
        if ctx is None:
            ctx = cls(model)
            setattr(model, _CACHE_ATTR, ctx)
        return ctx
