"""OFF_LOADING_REPOSITORY — the distributed negotiation of Section 4.2.

After every local server has fixed its allocation, each sends the
repository a **status message** carrying

* ``Space(S_i)`` — free storage,
* ``P(S_i)``     — spare processing capacity, and
* ``P(S_i, R)``  — the repository workload its assignment imposes.

If the repository's total estimated workload ``P(R) = Σ P(S_i, R)``
exceeds ``C(R)`` (Eq. 9), the repository pushes the excess back to the
local servers in rounds.  Servers are classed

* ``L1`` — free storage **and** free processing capacity,
* ``L2`` — no storage, but free processing capacity,
* ``L3`` — neither (excluded).

The excess is split proportionally to spare capacity: entirely within
``L1`` if it fits there, otherwise ``L1`` servers take all their spare
capacity and ``L2`` absorbs the remainder proportionally.  A server that
cannot achieve its requested share reports what it managed and moves to
``L3``; the loop repeats until Eq. 9 holds or no absorbing server
remains ("CONSTRAINT CAN NOT BE RESTORED").

Server-side absorption marks currently-remote ``(W_j, M_k)`` downloads
local, choosing the pairs whose move costs the objective least per unit
of workload shed — the mirror image of processing restoration.  ``L1``
servers may create new replicas (bounded by free space); ``L2`` servers
first exploit objects that are *stored but marked remote*, then (the
paper's last resort) may **swap**: deallocate stored objects whose local
marks carry little workload to make room for objects that would shed
more.

This module implements the protocol as plain function calls;
:mod:`repro.network` wraps the same primitives in actual message-passing
actors with message accounting.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import (
    local_processing_load,
    repository_load,
    repository_load_by_server,
    storage_used,
)
from repro.core.cost_model import CostModel
from repro.core.context import engine_kernel
from repro.core.partition import Kernel, resolve_kernel
from repro.obs.registry import get_registry

__all__ = [
    "OffloadConfig",
    "OffloadOutcome",
    "ServerStatus",
    "compute_server_status",
    "compute_all_server_statuses",
    "absorb_extra_workload",
    "absorb_round_serial",
    "plan_offload_round",
    "offload_repository",
]

_TOL = 1e-9


@dataclass(frozen=True)
class ServerStatus:
    """Content of a Section 4.2 status message."""

    server_id: int
    free_space: float
    """``Space(S_i)`` — Eq. 10 slack in bytes."""
    free_capacity: float
    """``P(S_i)`` — Eq. 8 slack in requests/second."""
    repo_share: float
    """``P(S_i, R)`` — repository workload imposed by this server."""

    @property
    def classification(self) -> str:
        """``"L1"``, ``"L2"`` or ``"L3"`` per the paper's partition."""
        if self.free_capacity > _TOL and self.free_space > _TOL:
            return "L1"
        if self.free_capacity > _TOL:
            return "L2"
        return "L3"


def compute_server_status(alloc: Allocation, server_id: int) -> ServerStatus:
    """Build the status message a local server would send."""
    m = alloc.model
    storage = storage_used(alloc)[server_id]
    load = local_processing_load(alloc)[server_id]
    repo_share = repository_load_by_server(alloc)[server_id]
    cap = m.server_capacity[server_id]
    free_cap = np.inf if np.isinf(cap) else max(0.0, float(cap - load))
    return ServerStatus(
        server_id=server_id,
        free_space=max(0.0, float(m.server_storage[server_id] - storage)),
        free_capacity=free_cap,
        repo_share=float(repo_share),
    )


def compute_all_server_statuses(alloc: Allocation) -> list[ServerStatus]:
    """Status messages for every server from one pass over the allocation.

    Each per-server constraint array (``storage_used``,
    ``local_processing_load``, ``repository_load_by_server``) is computed
    once and sliced, instead of once per server as mapping
    :func:`compute_server_status` over ``range(n_servers)`` would —
    identical values, ``O(S)`` fewer full-allocation scans per round.
    """
    m = alloc.model
    storage = storage_used(alloc)
    load = local_processing_load(alloc)
    repo_share = repository_load_by_server(alloc)
    out: list[ServerStatus] = []
    for i in range(m.n_servers):
        cap = m.server_capacity[i]
        free_cap = np.inf if np.isinf(cap) else max(0.0, float(cap - load[i]))
        out.append(
            ServerStatus(
                server_id=i,
                free_space=max(0.0, float(m.server_storage[i] - storage[i])),
                free_capacity=free_cap,
                repo_share=float(repo_share[i]),
            )
        )
    return out


def plan_offload_round(
    statuses: list[ServerStatus],
    repo_capacity: float,
    demoted: frozenset[int] | set[int] = frozenset(),
) -> dict[int, float] | None:
    """One iteration of the repository-side WHILE loop.

    ``statuses`` must cover *every* server (their ``repo_share`` all count
    toward ``P(R)``); servers in ``demoted`` are treated as ``L3``
    regardless of their raw slack (they fell short in an earlier round).

    Returns the ``NewReq(S_i)`` assignment, or ``None`` when both ``L1``
    and ``L2`` are empty (the constraint cannot be restored).
    """
    total = sum(s.repo_share for s in statuses)
    excess = total - repo_capacity
    if excess <= _TOL:
        return {}
    eligible = [s for s in statuses if s.server_id not in demoted]
    l1 = [s for s in eligible if s.classification == "L1"]
    l2 = [s for s in eligible if s.classification == "L2"]
    if not l1 and not l2:
        return None
    p_l1 = sum(s.free_capacity for s in l1)
    new_req: dict[int, float] = {}
    if excess <= p_l1 and l1:
        new_req.update(_proportional_shares(l1, excess))
        return new_req
    for s in l1:
        new_req[s.server_id] = s.free_capacity
    p_l2 = sum(s.free_capacity for s in l2)
    if l2 and p_l2 > 0:
        remainder = excess - p_l1
        new_req.update(_proportional_shares(l2, min(remainder, p_l2)))
    return new_req


def _proportional_shares(
    servers: list[ServerStatus], amount: float
) -> dict[int, float]:
    """Split ``amount`` across servers proportionally to spare capacity.

    Servers with *infinite* spare capacity (Table 1 leaves ``C(S_i)``
    unconstrained in some experiments) share the amount equally — a
    proportional split over infinities is undefined.
    """
    infinite = [s for s in servers if np.isinf(s.free_capacity)]
    if infinite:
        share = amount / len(infinite)
        return {s.server_id: share for s in infinite}
    total = sum(s.free_capacity for s in servers)
    if total <= 0:
        return {}
    return {s.server_id: s.free_capacity * amount / total for s in servers}


# ----------------------------------------------------------------------
# server-side absorption
# ----------------------------------------------------------------------
def _candidate_workload(alloc: Allocation, kind: str, e: int) -> float:
    ctx = alloc.ctx
    if kind == "comp":
        return float(ctx.comp_freq[e])
    return float(ctx.opt_freq_weight[e])


@dataclass(frozen=True)
class _VictimTable:
    """One server's L2-swap victims, ranked once per server state.

    ``objects``/``sizes`` list the stored objects in deallocation order;
    ``freed[c]`` / ``lost[c]`` are the bytes freed and the local-mark
    workload lost by deallocating the first ``c`` of them (both start at
    ``0.0``, so each array has one more element than ``objects``).
    """

    objects: np.ndarray
    sizes: np.ndarray
    freed: np.ndarray
    lost: np.ndarray

    def prefix(self, need: float, gain: float) -> int | None:
        """Victims to deallocate for a net-positive trade, or ``None``.

        The shortest ranked prefix freeing at least ``need`` bytes; the
        trade is refused when no prefix frees enough or the prefix's
        lost workload reaches ``gain``.
        """
        c = int(self.freed.searchsorted(need))
        if c == len(self.freed) or self.lost[c] >= gain:
            return None
        return c


def _rank_victims(alloc: Allocation, server_id: int) -> _VictimTable:
    """Rank every object stored at ``server_id`` as a swap victim.

    Each replica's ``w_lost`` — the workload its local marks carry — is
    one order-preserving ``np.bincount`` over the server's context
    groups: compulsory entries first, then optional ones, each grouped
    by ``(object, entry)`` ascending, with weight ``0.0`` where the
    entry is remote.  Every sum therefore accumulates the same terms in
    the same order as a per-entry Python loop, bit for bit.  Victims are
    ordered by ``(w_lost / size, object)``: cheapest workload per byte
    first, object id breaking ties.
    """
    m = alloc.model
    ctx = alloc.ctx
    reps = alloc.replicas[server_id]
    objects = np.fromiter(reps, dtype=np.intp, count=len(reps))
    ce = ctx.comp_group(server_id)[0]
    oe = ctx.opt_group(server_id)[0]
    w_lost = np.bincount(
        np.concatenate((ctx.comp_objects[ce], ctx.opt_objects[oe])),
        weights=np.concatenate(
            (
                np.where(alloc.comp_local[ce], ctx.comp_freq[ce], 0.0),
                np.where(alloc.opt_local[oe], ctx.opt_freq_weight[oe], 0.0),
            )
        ),
        minlength=len(m.sizes),
    )[objects]
    sizes = m.sizes[objects]
    order = np.lexsort((objects, w_lost / sizes))
    sizes = sizes[order]
    return _VictimTable(
        objects=objects[order],
        sizes=sizes,
        freed=np.concatenate(([0.0], np.cumsum(sizes))),
        lost=np.concatenate(([0.0], np.cumsum(w_lost[order]))),
    )


#: Registry counters of the L2 swap, emitted as ``offload.<name>``:
#: swaps tried, swaps made, and victim tables built.
_SWAP_COUNTERS = ("swap_attempts", "swaps", "swap_rankings")


def _tally(counters: dict | None, key: str) -> None:
    if counters is not None:
        counters[key] = counters.get(key, 0) + 1


def _try_make_room(
    alloc: Allocation,
    server_id: int,
    table: _VictimTable,
    need: float,
    gain: float,
    local_bytes: np.ndarray,
    remote_bytes: np.ndarray,
) -> tuple[bool, list[float], list[int], list[int], list[int]]:
    """Free ``need`` bytes by deallocating stored objects whose marks
    shed less workload than ``gain`` would add (net positive trade).

    ``table`` is :func:`_rank_victims` of the server's *current* marks
    and replicas.  Ranking is the expensive part and does not depend on
    ``need`` or ``gain``, so the batched kernel keeps one table across
    consecutive blocked candidates and rebuilds it only after it mutates
    the server (an accepted mark, a new replica or a successful swap);
    the scalar kernel ranks afresh on every call.  A query is one
    ``searchsorted`` over the table's prefix sums, so both kernels choose
    identical victims.  Returns ``(ok, freed_sizes, flipped_comp_entries,
    flipped_opt_entries, flipped_pages)``; on failure nothing is
    mutated.
    """
    c = table.prefix(need, gain)
    if c is None:
        return False, [], [], [], []
    m = alloc.model
    ce, c_start, c_count = alloc.ctx.comp_group(server_id)
    oe, o_start, o_count = alloc.ctx.opt_group(server_id)
    freed_sizes: list[float] = []
    flip_comp: list[int] = []
    flip_opt: list[int] = []
    flip_pages: list[int] = []
    for k, size in zip(table.objects[:c].tolist(), table.sizes[:c].tolist()):
        lo = int(c_start[k])
        for e2 in ce[lo : lo + int(c_count[k])].tolist():
            if alloc.comp_local[e2]:
                j = int(m.comp_pages[e2])
                alloc.set_comp_local(e2, False)
                local_bytes[j] -= size
                remote_bytes[j] += size
                flip_comp.append(e2)
                flip_pages.append(j)
        lo = int(o_start[k])
        for e2 in oe[lo : lo + int(o_count[k])].tolist():
            if alloc.opt_local[e2]:
                alloc.set_opt_local(e2, False)
                flip_opt.append(e2)
        alloc.replicas[server_id].discard(k)
        freed_sizes.append(size)
    return True, freed_sizes, flip_comp, flip_opt, flip_pages


def absorb_extra_workload(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool = True,
    allow_swap: bool = True,
    kernel: Kernel = "batched",
) -> float:
    """Shift up to ``target`` req/s of repository workload onto ``server_id``.

    Marks remote ``(page, object)`` downloads local in order of least
    objective damage per unit workload, honouring the server's remaining
    storage (Eq. 10) and processing (Eq. 8) slack.  Mutates ``alloc`` and
    returns the workload actually absorbed.

    Parameters
    ----------
    allow_new_replicas:
        ``False`` restricts candidates to objects already stored (the
        ``L2`` behaviour before swapping).
    allow_swap:
        Enable the paper's last-resort swap: deallocating stored objects
        whose marks carry less workload than a blocked candidate would
        add, when that trade is a net workload gain.  A recording
        registry receives ``offload.swap_attempts``, ``offload.swaps``
        and ``offload.swap_rankings`` (victim tables built).
    kernel:
        ``"batched"`` (default) scores candidates with the vectorised
        engine of :mod:`repro.core.fast_restoration`; ``"scalar"`` keeps
        the reference lazy-heap loop.  Both produce bit-identical
        absorption sequences.
    """
    kernel = engine_kernel(resolve_kernel(kernel))
    if alloc.ctx.n_streams > 2:
        raise NotImplementedError(
            "OFF_LOADING absorption supports the k=2 topology only; "
            "k-stream off-loading is a planned follow-up (k>2 scenarios "
            "model the repository tier as uncapacitated)"
        )
    if kernel == "batched":
        # local import avoids a module-level cycle
        from repro.core.fast_restoration import (
            absorb_extra_workload_batched as absorb,
        )
    else:
        absorb = _absorb_scalar
    counters: dict[str, int] = {}
    absorbed = absorb(
        alloc,
        cost,
        server_id,
        target,
        allow_new_replicas=allow_new_replicas,
        allow_swap=allow_swap,
        counters=counters,
    )
    reg = get_registry()
    if reg.enabled:
        if "batches" in counters:
            reg.count("offload.rescore_batches", counters["batches"])
            reg.count("offload.rescored_candidates", counters["candidates"])
        for key in _SWAP_COUNTERS:
            reg.count(f"offload.{key}", counters.get(key, 0))
    return absorbed


def _absorb_scalar(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool,
    allow_swap: bool,
    counters: dict[str, int],
) -> float:
    """The reference lazy-heap absorption loop (``kernel="scalar"``)."""
    if target <= _TOL:
        return 0.0
    m = alloc.model
    cap = float(m.server_capacity[server_id])
    load = float(local_processing_load(alloc)[server_id])
    cpu_slack = np.inf if np.isinf(cap) else cap - load
    space = float(m.server_storage[server_id] - storage_used(alloc)[server_id])

    local_bytes = cost.local_mo_bytes(alloc)
    remote_bytes = cost.remote_mo_bytes(alloc)

    def page_time(j: int, lb: float, rb: float) -> float:
        return cost.page_time_from_bytes(j, lb, rb)

    def score(kind: str, e: int) -> float:
        w = _candidate_workload(alloc, kind, e)
        if w <= 0:
            return np.inf
        if kind == "comp":
            j = int(m.comp_pages[e])
            size = float(m.sizes[m.comp_objects[e]])
            old = page_time(j, local_bytes[j], remote_bytes[j])
            new = page_time(j, local_bytes[j] + size, remote_bytes[j] - size)
            raw = cost.alpha1 * m.frequencies[j] * (new - old)
        else:
            raw = cost.optional_entry_delta(e, to_local=True)
        return raw / w

    ctx = alloc.ctx
    counter = itertools.count()
    heap: list[tuple[float, int, tuple[str, int]]] = []
    for e in ((~alloc.comp_local) & (ctx.comp_server == server_id)).nonzero()[0]:
        heapq.heappush(heap, (score("comp", int(e)), next(counter), ("comp", int(e))))
    for e in ((~alloc.opt_local) & (ctx.opt_server == server_id)).nonzero()[0]:
        heapq.heappush(heap, (score("opt", int(e)), next(counter), ("opt", int(e))))

    def try_make_room(need: float, gain: float) -> bool:
        """The L2 swap against a fresh victim ranking (never cached)."""
        nonlocal space
        _tally(counters, "swap_rankings")
        _tally(counters, "swap_attempts")
        ok, freed_sizes, _, _, _ = _try_make_room(
            alloc, server_id, _rank_victims(alloc, server_id), need, gain,
            local_bytes, remote_bytes,
        )
        if ok:
            _tally(counters, "swaps")
        for size in freed_sizes:
            space += size
        return ok

    absorbed = 0.0
    while heap and absorbed < target - _TOL and cpu_slack > _TOL:
        s, _, (kind, e) = heapq.heappop(heap)
        is_local = alloc.comp_local[e] if kind == "comp" else alloc.opt_local[e]
        if is_local:
            continue
        fresh = score(kind, e)
        if fresh > s + _TOL:
            heapq.heappush(heap, (fresh, next(counter), (kind, e)))
            continue
        w = _candidate_workload(alloc, kind, e)
        if w <= 0 or w > cpu_slack + _TOL:
            continue
        k = int(m.comp_objects[e] if kind == "comp" else m.opt_objects[e])
        stored = k in alloc.replicas[server_id]
        if not stored:
            size = float(m.sizes[k])
            if not allow_new_replicas:
                continue
            if size > space + _TOL:
                # L2-style swap: make room if the trade gains workload
                remaining = target - absorbed
                if not allow_swap or not try_make_room(
                    size - space, min(w, remaining)
                ):
                    continue
            space -= size
        if kind == "comp":
            j = int(m.comp_pages[e])
            size_k = float(m.sizes[k])
            alloc.set_comp_local(e, True)
            local_bytes[j] += size_k
            remote_bytes[j] -= size_k
            # sibling candidates of this page are now stale; they will be
            # revalidated on pop (scores only shift, keys stay valid)
        else:
            alloc.set_opt_local(e, True)
        absorbed += w
        cpu_slack -= w
    return absorbed


def absorb_round_serial(
    alloc: Allocation,
    cost: CostModel,
    requests: list[tuple[int, float, bool]],
    *,
    allow_swap: bool = True,
    kernel: Kernel = "batched",
) -> dict[int, float]:
    """Default (serial) scatter: absorb each round request in plan order.

    This is the **scatter** half of the off-loading round's
    scatter/gather split.  ``requests`` holds one
    ``(server_id, new_req, allow_new_replicas)`` triple per server the
    repository addressed this round; the scatter must mutate ``alloc``
    to the post-absorption state of every listed server and return the
    workload each actually achieved.

    The contract a replacement scatter (e.g. the process-parallel one in
    :mod:`repro.core.shard`) must honour: per-server absorptions are
    **independent** — a server appears at most once per round, and
    absorption at one server reads and writes only that server's pages,
    entries and replica set, so any execution order (or parallel
    execution) produces the same marks as this serial reference.  The
    round's order-sensitive bookkeeping (absorbed accumulation, L3
    demotion, the Eq. 9 load recompute) stays in
    :func:`offload_repository` — the gather side.
    """
    achieved: dict[int, float] = {}
    for server_id, req, allow_new in requests:
        achieved[server_id] = absorb_extra_workload(
            alloc,
            cost,
            server_id,
            req,
            allow_new_replicas=allow_new,
            allow_swap=allow_swap,
            kernel=kernel,
        )
    return achieved


# ----------------------------------------------------------------------
# repository-side loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OffloadConfig:
    """Tunables for the off-loading negotiation."""

    max_rounds: int = 50
    """Safety bound on negotiation rounds (the paper iterates until the
    constraint holds or L1 ∪ L2 empties; this guards pathological cases)."""
    allow_swap: bool = True
    """Enable the L2 swap fallback."""


@dataclass
class OffloadOutcome:
    """Result of a full off-loading negotiation."""

    restored: bool
    """Whether Eq. 9 holds at exit."""
    rounds: int
    messages: int
    """Status + NewReq + answer + END messages exchanged."""
    initial_repo_load: float
    final_repo_load: float
    absorbed_by_server: dict[int, float] = field(default_factory=dict)
    round_bytes: list[dict[str, float]] = field(
        default_factory=list, compare=False
    )
    """Per-round scatter transport accounting, filled by the sharded
    kernel: each entry holds ``delta_bytes`` (bytes actually shipped by
    the worker-resident delta protocol) and ``full_bytes`` (what the
    per-request full-state protocol would have shipped).  Empty for
    serial negotiations; excluded from equality — transport cost is not
    part of the negotiation outcome."""

    @property
    def total_absorbed(self) -> float:
        """Workload shifted off the repository (requests/second)."""
        return sum(self.absorbed_by_server.values())


def offload_repository(
    alloc: Allocation,
    cost: CostModel,
    config: OffloadConfig | None = None,
    capacity: float | None = None,
    kernel: Kernel = "batched",
    scatter=None,
) -> OffloadOutcome:
    """Run the OFF_LOADING_REPOSITORY protocol, mutating ``alloc``.

    Follows the paper's pseudocode: collect statuses, loop while
    ``P(R) > C(R)`` assigning ``NewReq`` shares to ``L1``/``L2`` servers,
    collect answers, recompute.  Servers that fall short are excluded
    (``L3``) from subsequent rounds.

    Parameters
    ----------
    capacity:
        Override for ``C(R)`` (defaults to the model's repository
        capacity).  Figure 3 sweeps this as a fraction of the workload
        the pre-offload allocation imposes.
    kernel:
        Candidate-scoring kernel forwarded to
        :func:`absorb_extra_workload` (``"batched"`` or ``"scalar"``).
    scatter:
        Absorption-round executor with the signature and contract of
        :func:`absorb_round_serial` (the default).  The sharded kernel
        injects a process-parallel scatter here; because per-server
        absorptions are independent, every conforming scatter yields
        bit-identical marks, and this function keeps all the
        order-sensitive gather bookkeeping either way.  A scatter may
        additionally expose ``begin(alloc)`` / ``finish()`` lifecycle
        hooks: ``begin`` runs once before the first round (after the
        nothing-to-do early return, so trivial negotiations never pay
        for scatter setup) and ``finish`` runs exactly once on every
        exit path — normal, early break, or an exception raised
        mid-round — so round-scoped resources (the sharded kernel's
        shared-memory mark frontier) are never leaked.
    """
    cfg = config or OffloadConfig()
    kernel = engine_kernel(resolve_kernel(kernel))
    m = alloc.model
    repo_cap = (
        m.repository.processing_capacity if capacity is None else float(capacity)
    )
    initial = repository_load(alloc)
    outcome = OffloadOutcome(
        restored=True,
        rounds=0,
        messages=m.n_servers,  # initial status messages
        initial_repo_load=float(initial),
        final_repo_load=float(initial),
    )
    if np.isinf(repo_cap) or initial <= repo_cap + _TOL:
        return outcome
    if alloc.ctx.n_streams > 2:
        raise NotImplementedError(
            "OFF_LOADING_REPOSITORY supports the k=2 topology only; "
            "give the k-stream replica mesh an uncapacitated repository "
            "(the negotiation protocol's k>2 form is a planned follow-up)"
        )

    reg = get_registry()
    absorb_round = absorb_round_serial if scatter is None else scatter
    begin = getattr(absorb_round, "begin", None)
    finish = getattr(absorb_round, "finish", None)
    demoted: set[int] = set()
    load = initial
    if begin is not None:
        begin(alloc)
    try:
        with reg.span("off-loading"):
            for _ in range(cfg.max_rounds):
                if load <= repo_cap + _TOL:
                    break
                statuses = compute_all_server_statuses(alloc)
                plan = plan_offload_round(statuses, repo_cap, demoted)
                if plan is None or not plan:
                    break
                outcome.rounds += 1
                outcome.messages += len(plan)  # NewReq messages
                # Scatter: each server appears at most once per round and
                # absorption at one server never changes another's
                # constraint slack, so the round-start statuses stay exact
                # for every request and the absorptions commute.
                requests = [
                    (i, req, statuses[i].free_space > _TOL)
                    for i, req in plan.items()
                ]
                achieved_by = absorb_round(
                    alloc,
                    cost,
                    requests,
                    allow_swap=cfg.allow_swap,
                    kernel=kernel,
                )
                # Gather: the order-sensitive bookkeeping, in plan order.
                for i, req in plan.items():
                    achieved = achieved_by[i]
                    outcome.absorbed_by_server[i] = (
                        outcome.absorbed_by_server.get(i, 0.0) + achieved
                    )
                    if achieved < req - _TOL:
                        demoted.add(i)  # joins L3 for subsequent rounds
                outcome.messages += len(plan)  # answers
                load = repository_load(alloc)
    finally:
        if finish is not None:
            finish()
    outcome.messages += m.n_servers  # Off_Loading_END broadcast
    outcome.final_repo_load = float(load)
    outcome.restored = bool(load <= repo_cap + _TOL)
    if reg.enabled:
        reg.count("offload.negotiations")
        reg.count("offload.rounds", outcome.rounds)
        reg.count("offload.messages", outcome.messages)
        reg.count("offload.absorbed_load", outcome.total_absorbed)
        reg.gauge("offload.restored", float(outcome.restored))
    return outcome
