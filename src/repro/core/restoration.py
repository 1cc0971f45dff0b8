"""Greedy constraint restoration (Section 4.2).

The unconstrained PARTITION output may violate the storage constraint
(Eq. 10) or the local processing constraint (Eq. 8).  The paper restores
them greedily:

**Storage** — repeatedly deallocate the stored MO whose removal hurts the
objective ``D`` least, *amortised over the object's size* ("to make our
criterion more judicious over large ... objects").  After each
deallocation, pages that were downloading the victim locally are
**re-partitioned** restricted to the server's remaining replica set —
"some MOs although stored in the server may not be marked for a local
download ... marking the above MOs for local downloads can now reduce
it".  Iterate until Eq. 10 holds.

**Local processing** — repeatedly switch the (page, local MO) download
pair whose move to the repository degrades ``D`` least, amortised over
the request workload the switch sheds ("over the difference between the
new workload and the required one").  An object left with no local mark
anywhere on the server is deallocated, freeing storage too.  Iterate
until Eq. 8 holds.

Both loops are an **exact argmin**: every step takes the live candidate
with the lowest ``(fresh score, key)`` — ties go to the lowest key (the
object id for storage; ``e`` for a compulsory entry and ``NC + e`` for an
optional one in processing).  An action only moves the byte totals of the
pages it touches, so after each step exactly the candidates with a term on
those pages (the *dirty set*) are rescored before the next selection.
This module holds the phase entry points and their accounting; the
loops themselves run on the lockstep engines of
:mod:`repro.core.fast_restoration`: every violating server advances in
the same step, one ``argmin`` per row of a padded score matrix.  The
scalar priority-queue loops they reproduce bit for bit live with the
tests (``tests/oracles/scalar_greedy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.fast_restoration import (
    restore_processing_batched,
    restore_storage_batched,
)
from repro.core.partition import Kernel, resolve_kernel
from repro.obs.registry import get_registry

__all__ = [
    "restore_storage_capacity",
    "restore_processing_capacity",
    "StorageRestorationStats",
    "ProcessingRestorationStats",
    "InfeasibleError",
]

def _resolve_servers(
    n_servers: int,
    server_id: int | None,
    servers: Iterable[int] | None,
) -> list[int]:
    """Normalize the two server-restriction parameters to a sorted list.

    ``server_id`` (legacy single-server form) and ``servers`` (the
    incremental re-planner's localized-repair form) are mutually
    exclusive; with neither, every server is visited.  Duplicates
    collapse and the order is ascending, so a restricted run over all
    servers is bit-identical to the default.
    """
    if servers is not None:
        if server_id is not None:
            raise ValueError(
                "restoration accepts either server_id or servers, not both"
            )
        out = sorted({int(i) for i in servers})
        for i in out:
            if not 0 <= i < n_servers:
                raise ValueError(
                    f"server index {i} out of range [0, {n_servers})"
                )
        return out
    if server_id is None:
        return list(range(n_servers))
    return [server_id]


class InfeasibleError(RuntimeError):
    """Raised when a constraint cannot be restored by any decision.

    For storage this means a server's hosted HTML alone exceeds its
    capacity; for processing it means even serving HTML documents exceeds
    ``C(S_i)`` — both are workload-configuration errors, not algorithmic
    states.
    """


@dataclass
class StorageRestorationStats:
    """Accounting of one storage-restoration run."""

    evictions: int = 0
    repartitioned_pages: int = 0
    objective_delta: float = 0.0
    bytes_freed: float = 0.0
    evicted_objects: list[tuple[int, int]] = field(default_factory=list)

    def merge(self, other: "StorageRestorationStats") -> None:
        self.evictions += other.evictions
        self.repartitioned_pages += other.repartitioned_pages
        self.objective_delta += other.objective_delta
        self.bytes_freed += other.bytes_freed
        self.evicted_objects.extend(other.evicted_objects)


@dataclass
class ProcessingRestorationStats:
    """Accounting of one processing-restoration run."""

    switches: int = 0
    deallocations: int = 0
    objective_delta: float = 0.0
    load_shed: float = 0.0

    def merge(self, other: "ProcessingRestorationStats") -> None:
        self.switches += other.switches
        self.deallocations += other.deallocations
        self.objective_delta += other.objective_delta
        self.load_shed += other.load_shed


def _merged(stats, per_server: dict):
    """``stats`` with every server's stats merged in, ascending."""
    for i in sorted(per_server):
        stats.merge(per_server[i])
    return stats


def _restore(phase: str, stats_type, engine, alloc, cost, servers, **kw) -> dict:
    """Run ``engine`` over ``servers`` under the phase's span and
    counters; return each server's stats (the sharded kernel merges
    them across shards in global server order).  Every numeric stats
    field becomes a ``restoration.<phase>.<field>`` counter."""
    reg = get_registry()
    rescore: dict = {}
    with reg.span(f"restore-{phase}"):
        per_server = engine(alloc, cost, servers, counters=rescore, **kw)
    if reg.enabled:
        reg.count(f"restoration.{phase}.runs")
        for name, value in vars(_merged(stats_type(), per_server)).items():
            if not isinstance(value, list):
                reg.count(f"restoration.{phase}.{name}", value)
        if rescore:
            reg.count(f"restoration.{phase}.rescore_batches", rescore["batches"])
            reg.count(
                f"restoration.{phase}.rescored_candidates", rescore["candidates"]
            )
        if "steps" in rescore:
            reg.count(f"restoration.{phase}.steps", rescore["steps"])
    return per_server


_restore_storage = partial(
    _restore, "storage", StorageRestorationStats, restore_storage_batched
)
_restore_processing = partial(
    _restore, "processing", ProcessingRestorationStats, restore_processing_batched
)


# ----------------------------------------------------------------------
# storage restoration (Eq. 10)
# ----------------------------------------------------------------------
def restore_storage_capacity(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    amortise: bool = True,
    kernel: Kernel = "batched",
    servers: Iterable[int] | None = None,
) -> StorageRestorationStats:
    """Restore Eq. 10 in place; return accounting statistics.

    Parameters
    ----------
    alloc:
        Allocation to repair (mutated).
    cost:
        Cost model supplying the objective ``D``.
    server_id:
        Restrict to one server; default repairs every violating server.
    servers:
        Restrict to an explicit server subset.  Mutually exclusive with
        ``server_id``.  The incremental re-planner passes the servers
        whose load or storage actually changed.
    amortise:
        Divide each candidate's objective damage by its size (the paper's
        criterion, "more judicious over large ... objects").  ``False``
        ranks by raw damage — the ablation baseline.
    kernel:
        Validated policy kernel name (see
        :func:`repro.core.context.resolve_kernel`).  Every kernel runs
        the lockstep engine of :mod:`repro.core.fast_restoration` (one
        ``argmin`` per step over every violating server, one fused
        dirty-set rescore per step); ``"sharded"`` called directly runs
        it in-process.

    The registry counter ``restoration.storage.rescore_batches`` counts
    fused flushes — one per lockstep step that touched a page, plus
    the initial scoring — not per-server flushes;
    ``rescored_candidates`` counts the candidates they rescored, and
    ``steps`` the lockstep steps.

    Raises
    ------
    InfeasibleError
        If a server's HTML alone exceeds its storage capacity (the
        lowest such server, as an ascending sweep would report).
    """
    resolve_kernel(kernel)
    servers = _resolve_servers(alloc.model.n_servers, server_id, servers)
    return _merged(
        StorageRestorationStats(),
        _restore_storage(alloc, cost, servers, amortise=amortise),
    )


# ----------------------------------------------------------------------
# processing restoration (Eq. 8)
# ----------------------------------------------------------------------
def restore_processing_capacity(
    alloc: Allocation,
    cost: CostModel,
    server_id: int | None = None,
    kernel: Kernel = "batched",
    servers: Iterable[int] | None = None,
) -> ProcessingRestorationStats:
    """Restore Eq. 8 in place; return accounting statistics.

    Runs the lockstep engine of :mod:`repro.core.fast_restoration` (a
    verified prefix of switches per step for every violating server)
    for every validated ``kernel`` name.  ``servers`` restricts the run
    to an explicit subset (mutually exclusive with ``server_id``); see
    :func:`restore_storage_capacity`.  ``rescore_batches`` counts fused
    flushes: the initial scoring (compulsory and optional) and one per
    step that switched a compulsory entry with local siblings; ``steps``
    counts the lockstep steps.

    Raises
    ------
    InfeasibleError
        If a server's HTML request load alone exceeds ``C(S_i)`` (the
        lowest such server, as an ascending sweep would report).
    """
    resolve_kernel(kernel)
    servers = _resolve_servers(alloc.model.n_servers, server_id, servers)
    return _merged(
        ProcessingRestorationStats(), _restore_processing(alloc, cost, servers)
    )
