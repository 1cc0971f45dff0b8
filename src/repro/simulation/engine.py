"""Vectorised replay of a request trace under a static allocation.

For every page request the engine reconstructs the two parallel
pipelined downloads of Eq. 3-5 — but with the *actual* (perturbed)
per-HTTP-request rates and per-connection overheads of Section 5.1
instead of the estimates the allocation was computed from:

* the local stream carries the HTML document plus every compulsory MO
  with ``X_jk = 1``; each transfer gets its own rate factor;
* the repository stream carries the remaining compulsory MOs; its
  connection overhead is only paid when at least one object actually
  travels on it (no connection is opened otherwise — the cost model's
  Eq. 4 keeps the constant term for planning, the measurement does not);
* each optional download in the trace opens a fresh connection to
  whichever side ``X'`` assigns it (Eq. 6's structure).

Everything is flat NumPy: the per-request object lists are expanded with
a ragged-repeat, factors are drawn in bulk, and per-request totals are
reassembled with ``bincount`` segment sums — no Python-level loop over
the ~100k requests of a Table 1 trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.obs.registry import get_registry
from repro.simulation.metrics import SimulationResult
from repro.simulation.perturbation import PAPER_PERTURBATION, PerturbationModel
from repro.util.rng import as_generator
from repro.workload.trace import RequestTrace

__all__ = ["simulate_allocation", "simulate_partition_masks"]


def simulate_partition_masks(
    trace: RequestTrace,
    pair_local: np.ndarray,
    opt_local: np.ndarray,
    perturbation: PerturbationModel = PAPER_PERTURBATION,
    seed: int | np.random.Generator | None = 2,
    extra_remote_overhead: float = 0.0,
    repo_slowdown: float = 1.0,
    local_overhead_scale: np.ndarray | None = None,
) -> SimulationResult:
    """Measure response times given *per-download* local/remote masks.

    This is the measurement core shared by the static-allocation replay
    (:func:`simulate_allocation`) and the stateful LRU replay
    (:mod:`repro.simulation.lru_sim`), whose local/remote split varies
    per request with cache contents.

    Parameters
    ----------
    trace:
        The request trace.
    pair_local:
        Boolean array over the trace's expanded ``(request, compulsory
        entry)`` pairs (:meth:`RequestTrace.comp_expansion` over
        ``comp_indptr``):
        ``True`` = this download is served by the local server.
    opt_local:
        Boolean array over ``trace.opt_entries``.
    perturbation:
        Deviation model for actual vs estimated network attributes.
    seed:
        RNG for the perturbation draws.
    extra_remote_overhead:
        Additional per-connection redirection latency charged to remote
        downloads (0 models the paper's *ideal* zero-redirection scheme).
    repo_slowdown:
        Saturation multiplier on every repository-side service time
        (overhead and transfer).  Figure 3 sets this to
        ``max(1, P(R)/C(R))`` when off-loading could not restore Eq. 9:
        an over-capacity repository serves each request proportionally
        slower.  1.0 (default) models an uncongested repository.
    local_overhead_scale:
        Optional per-server multipliers on local connection overheads —
        the hook for utilisation-dependent processing delay (see
        :mod:`repro.simulation.queueing`).  ``None`` keeps the paper's
        constant-processing-time assumption.
    """
    reg = get_registry()
    with reg.span("simulate-replay"):
        result = _simulate_partition_masks(
            trace,
            pair_local,
            opt_local,
            perturbation=perturbation,
            seed=seed,
            extra_remote_overhead=extra_remote_overhead,
            repo_slowdown=repo_slowdown,
            local_overhead_scale=local_overhead_scale,
        )
    if reg.enabled:
        reg.count("simulation.replays")
        reg.count("simulation.page_requests", result.n_requests)
        reg.count("simulation.optional_downloads", len(result.optional_times))
        reg.gauge("simulation.mean_page_time", result.mean_page_time)
        quantiles = (50, 90, 95, 99)
        for q, value in zip(
            quantiles, result.percentile_page_times(quantiles)
        ):
            reg.gauge(f"simulation.p{q}_page_time", float(value))
    return result


def _simulate_partition_masks(
    trace: RequestTrace,
    pair_local: np.ndarray,
    opt_local: np.ndarray,
    perturbation: PerturbationModel = PAPER_PERTURBATION,
    seed: int | np.random.Generator | None = 2,
    extra_remote_overhead: float = 0.0,
    repo_slowdown: float = 1.0,
    local_overhead_scale: np.ndarray | None = None,
) -> SimulationResult:
    """Uninstrumented measurement core of :func:`simulate_partition_masks`."""
    if repo_slowdown < 1.0:
        raise ValueError(f"repo_slowdown must be >= 1, got {repo_slowdown}")
    m = trace.model
    rng = as_generator(seed)
    n_req = trace.n_requests
    pages = trace.page_of_request
    srv = trace.server_of_request

    spb_local_req = 1.0 / m.server_rate[srv]
    spb_repo_req = 1.0 / m.server_repo_rate[srv]

    owner, entries = trace.comp_expansion(m.comp_indptr)
    pair_local = np.asarray(pair_local, dtype=bool)
    if pair_local.shape != entries.shape:
        raise ValueError(
            f"pair_local has shape {pair_local.shape}, expected {entries.shape}"
        )
    opt_local = np.asarray(opt_local, dtype=bool)
    if opt_local.shape != trace.opt_entries.shape:
        raise ValueError(
            f"opt_local has shape {opt_local.shape}, expected "
            f"{trace.opt_entries.shape}"
        )
    ctx = EvalContext.for_model(m)
    pair_sizes = ctx.comp_sizes[entries]

    # local stream: HTML + local MOs, one rate factor per HTTP request
    html_factors = perturbation.sample_local_rate(rng, n_req)
    local_bytes_time = m.html_sizes[pages] * spb_local_req / html_factors
    lo = owner[pair_local]
    if len(lo):
        f = perturbation.sample_local_rate(rng, len(lo))
        t = pair_sizes[pair_local] * spb_local_req[lo] / f
        local_bytes_time = local_bytes_time + np.bincount(
            lo, weights=t, minlength=n_req
        )
    ovhd_scale = (
        np.ones(m.n_servers)
        if local_overhead_scale is None
        else np.asarray(local_overhead_scale, dtype=float)
    )
    if ovhd_scale.shape != (m.n_servers,):
        raise ValueError(
            f"local_overhead_scale must have shape ({m.n_servers},), got "
            f"{ovhd_scale.shape}"
        )
    if np.any(ovhd_scale < 1.0):
        raise ValueError("local_overhead_scale entries must be >= 1")
    local_overheads = (
        m.server_overhead[srv]
        * ovhd_scale[srv]
        * perturbation.sample_local_overhead(rng, n_req)
    )
    local_stream = local_overheads + local_bytes_time

    # repository stream
    ro = owner[~pair_local]
    remote_counts = np.bincount(ro, minlength=n_req)
    remote_bytes_time = np.zeros(n_req)
    if len(ro):
        f = perturbation.sample_repo_rate(rng, len(ro))
        t = pair_sizes[~pair_local] * spb_repo_req[ro] / f
        remote_bytes_time = np.bincount(ro, weights=t, minlength=n_req)
    repo_overheads = (
        m.server_repo_overhead[srv] * perturbation.sample_repo_overhead(rng, n_req)
        + extra_remote_overhead
    )
    remote_stream = np.where(
        remote_counts > 0,
        repo_slowdown * (repo_overheads + remote_bytes_time),
        0.0,
    )

    page_times = np.maximum(local_stream, remote_stream)

    # ------------------------------------------------------------------
    # optional downloads: one fresh connection each (Eq. 6)
    # ------------------------------------------------------------------
    n_opt = trace.n_optional_downloads
    optional_times = np.empty(0)
    if n_opt:
        e = trace.opt_entries
        opt_srv = ctx.opt_server[e]
        opt_sizes = ctx.opt_sizes[e]
        is_local = opt_local
        optional_times = np.empty(n_opt)
        n_loc = int(is_local.sum())
        if n_loc:
            f = perturbation.sample_local_rate(rng, n_loc)
            o = perturbation.sample_local_overhead(rng, n_loc)
            sl = opt_srv[is_local]
            optional_times[is_local] = (
                m.server_overhead[sl] * ovhd_scale[sl] * o
                + opt_sizes[is_local] / m.server_rate[sl] / f
            )
        n_rem = n_opt - n_loc
        if n_rem:
            f = perturbation.sample_repo_rate(rng, n_rem)
            o = perturbation.sample_repo_overhead(rng, n_rem)
            sr = opt_srv[~is_local]
            optional_times[~is_local] = repo_slowdown * (
                m.server_repo_overhead[sr] * o
                + extra_remote_overhead
                + opt_sizes[~is_local] / m.server_repo_rate[sr] / f
            )

    return SimulationResult(
        page_times=page_times,
        local_stream_times=local_stream,
        remote_stream_times=remote_stream,
        optional_times=optional_times,
        server_of_request=srv.copy(),
    )


def simulate_allocation(
    alloc: Allocation,
    trace: RequestTrace,
    perturbation: PerturbationModel = PAPER_PERTURBATION,
    seed: int | np.random.Generator | None = 2,
    repo_slowdown: float = 1.0,
) -> SimulationResult:
    """Measure response times for ``trace`` under a static ``alloc``.

    Parameters
    ----------
    alloc:
        The allocation (``X``/``X'``) to evaluate; must be over the same
        model the trace was sampled from.
    trace:
        Request trace (see :mod:`repro.workload.trace`).
    perturbation:
        Deviation model for actual vs estimated network attributes.
    seed:
        RNG for the perturbation draws.  Reusing the same trace and seed
        across allocations yields paired comparisons.
    repo_slowdown:
        Repository saturation multiplier (see
        :func:`simulate_partition_masks`).
    """
    if alloc.model is not trace.model:
        raise ValueError("allocation and trace must share the same SystemModel")
    m = trace.model
    _, entries = trace.comp_expansion(m.comp_indptr)
    pair_local = alloc.comp_local[entries]
    opt_local = alloc.opt_local[trace.opt_entries]
    return simulate_partition_masks(
        trace,
        pair_local,
        opt_local,
        perturbation=perturbation,
        seed=seed,
        repo_slowdown=repo_slowdown,
    )
