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

Absorption (:func:`absorb_extra_workload`) is the exact argmin of
:mod:`repro.core.restoration` run the other way: the remote entry
with the lowest ``(fresh score, key)`` on the same
:class:`~repro.core.restoration.ArgminPicker`, its score the k=2 move
onto the local stream.  The scalar loop it reproduces bit for bit
lives with the tests (``tests/oracles/scalar_greedy.py``).

This module implements the protocol as plain function calls;
:mod:`repro.network` wraps the same primitives in actual message-passing
actors with message accounting.
"""

from __future__ import annotations

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
from repro.core.partition import Kernel, resolve_kernel
from repro.core.restoration import CAPACITY_TOL, ArgminPicker, _tally
from repro.core.types import expand_rows
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
        if self.free_capacity > CAPACITY_TOL and self.free_space > CAPACITY_TOL:
            return "L1"
        if self.free_capacity > CAPACITY_TOL:
            return "L2"
        return "L3"


def _statuses(alloc: Allocation, servers) -> list[ServerStatus]:
    """The status messages of ``servers``, sliced from one evaluation of
    each per-server constraint array (``storage_used``,
    ``local_processing_load``, ``repository_load_by_server``)."""
    m = alloc.model
    storage = storage_used(alloc)
    load = local_processing_load(alloc)
    repo_share = repository_load_by_server(alloc)
    out: list[ServerStatus] = []
    for i in servers:
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


def compute_server_status(alloc: Allocation, server_id: int) -> ServerStatus:
    """Build the status message a local server would send."""
    return _statuses(alloc, [server_id])[0]


def compute_all_server_statuses(alloc: Allocation) -> list[ServerStatus]:
    """Status messages for every server from one pass over the allocation
    — identical values to :func:`compute_server_status` per server,
    ``O(S)`` fewer full-allocation scans per round."""
    return _statuses(alloc, range(alloc.model.n_servers))


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
    if excess <= CAPACITY_TOL:
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


#: Registry counters of server-side absorption, emitted as
#: ``offload.<name>``: candidates absorbed, L2 swaps tried, swaps made,
#: and victim tables built.
_ABSORB_COUNTERS = ("absorptions", "swap_attempts", "swaps", "swap_rankings")


def _require_two_streams(alloc: Allocation, what: str) -> None:
    """Refuse a k-stream replica mesh: OFF_LOADING's k>2 form (the
    negotiation protocol and its absorption) is a planned follow-up."""
    if alloc.ctx.n_streams > 2:
        raise NotImplementedError(
            f"{what} supports the k=2 topology only; give the k-stream "
            "replica mesh an uncapacitated repository (k-stream "
            "off-loading is a planned follow-up)"
        )


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
    ``need`` or ``gain``, so the absorption engine keeps one table across
    consecutive blocked candidates and rebuilds it only after it mutates
    the server (an accepted mark, a new replica or a successful swap).
    A query is one ``searchsorted`` over the table's prefix sums, so a
    table kept that way chooses the victims a fresh ranking would.
    Returns ``(ok, freed_sizes, flipped_comp_entries,
    flipped_opt_entries, flipped_pages)``; on failure nothing is
    mutated.
    """
    c = table.prefix(need, gain)
    if c is None:
        return False, [], [], [], []
    ctx = alloc.ctx
    objects = table.objects[:c]
    # the victims' entries, victim by victim, ascending within each
    ce, c_start, c_count = ctx.comp_group(server_id)
    oe, o_start, o_count = ctx.opt_group(server_id)
    flip_comp = ce[expand_rows(c_start[objects], c_count[objects])[1]]
    flip_comp = flip_comp[alloc.comp_local[flip_comp]]
    flip_opt = oe[expand_rows(o_start[objects], o_count[objects])[1]]
    flip_opt = flip_opt[alloc.opt_local[flip_opt]]
    alloc.set_comp_local_bulk(flip_comp, False)
    alloc.set_opt_local_bulk(flip_opt, False)
    alloc.replicas[server_id].difference_update(objects.tolist())
    # ``ufunc.at`` applies the moves in order, as one ``-=`` per entry would
    pages, sizes = ctx.comp_pages[flip_comp], ctx.comp_sizes[flip_comp]
    np.subtract.at(local_bytes, pages, sizes)
    np.add.at(remote_bytes, pages, sizes)
    return (
        True,
        table.sizes[:c].tolist(),
        flip_comp.tolist(),
        flip_opt.tolist(),
        pages.tolist(),
    )


def _report_absorption(counters: dict) -> None:
    """Add one absorption's counters to a recording registry, as
    ``offload.*``."""
    reg = get_registry()
    if reg.enabled:
        if "batches" in counters:
            reg.count("offload.rescore_batches", counters["batches"])
            reg.count("offload.rescored_candidates", counters["candidates"])
        for key in _ABSORB_COUNTERS:
            reg.count(f"offload.{key}", counters.get(key, 0))


def absorb_extra_workload(
    alloc: Allocation,
    cost: CostModel,
    server_id: int,
    target: float,
    allow_new_replicas: bool = True,
    allow_swap: bool = True,
    decisions: list | None = None,
) -> float:
    """Shift up to ``target`` req/s of repository workload onto ``server_id``.

    Marks, step after step, the remote ``(page, object)`` download whose
    move to the local stream damages the objective least per
    request/second absorbed (ties to the lowest key: ``e`` for a
    compulsory entry, ``NC + e`` for an optional one), honouring the
    server's remaining storage (Eq. 10) and processing (Eq. 8) slack,
    until ``target`` req/s are absorbed or nothing fits.  Mutates
    ``alloc`` and returns the workload actually absorbed.

    A refused candidate is retired for good; CPU slack only shrinks, so
    every candidate heavier than the slack is retired in bulk by a
    ``searchsorted`` cut over the weight-descending order.  A successful
    swap re-admits the absorbed entries it un-marks.  The L2 swap's
    victim table is built lazily at the first blocked candidate and kept
    while the loop leaves the server untouched; any mutation (an
    accepted mark, a new replica, a successful swap) drops it, so the
    next blocked candidate ranks the new state afresh.

    Parameters
    ----------
    allow_new_replicas:
        ``False`` restricts candidates to objects already stored (the
        ``L2`` behaviour before swapping).
    allow_swap:
        Enable the paper's last-resort swap: deallocating stored objects
        whose marks carry less workload than a blocked candidate would
        add, when that trade is a net workload gain.
    decisions:
        When given, receives one ``(key, score)`` pair per absorption.

    A recording registry receives ``offload.swap_attempts``,
    ``offload.swaps`` and ``offload.swap_rankings`` (victim tables
    built), next to ``offload.absorptions`` (candidates marked local)
    and the rescoring counts.
    """
    _require_two_streams(alloc, "OFF_LOADING absorption")
    counters: dict[str, int] = {}
    if target <= CAPACITY_TOL:
        _report_absorption(counters)
        return 0.0
    m = alloc.model
    cap = float(m.server_capacity[server_id])
    load = float(local_processing_load(alloc)[server_id])
    cpu_slack = np.inf if np.isinf(cap) else cap - load
    space = float(m.server_storage[server_id] - storage_used(alloc)[server_id])

    ctx = alloc.ctx
    LB = cost.local_mo_bytes(alloc)
    (RB,) = cost.remote_mo_bytes_by_stream(alloc)
    NC = len(m.comp_objects)
    comp_indptr = m.comp_indptr
    replicas = alloc.replicas[server_id]

    def comp_scores(entries: np.ndarray) -> np.ndarray:
        # the k=2 move of each entry from the repository onto the local
        # stream; ``page_*_streams[0]`` are the repository's columns
        j = ctx.comp_pages[entries]
        size = ctx.comp_sizes[entries]
        lb = LB[j]
        rb = RB[j]
        ovl = ctx.page_ovhd_local[j]
        spl = ctx.page_spb_local[j]
        html = ctx.html_sizes[j]
        ovr = ctx.page_ovhd_streams[0][j]
        spr = ctx.page_spb_streams[0][j]
        old = np.maximum(ovl + spl * (html + lb), ovr + spr * rb)
        new = np.maximum(
            ovl + spl * (html + (lb + size)), ovr + spr * (rb - size)
        )
        w = ctx.comp_freq[entries]
        raw = (cost.alpha1 * w) * (new - old)
        out = np.full(len(entries), np.inf)
        pos = w > 0
        out[pos] = raw[pos] / w[pos]
        if len(entries):
            _tally(counters, batches=1, candidates=len(entries))
        return out

    def opt_scores(entries: np.ndarray) -> np.ndarray:
        raw = cost.bulk_optional_entry_delta(entries, to_local=True)
        w = ctx.opt_freq_weight[entries]
        out = np.full(len(entries), np.inf)
        pos = w > 0
        out[pos] = raw[pos] / w[pos]
        if len(entries):
            _tally(counters, batches=1, candidates=len(entries))
        return out

    ec = ((~alloc.comp_local) & (ctx.comp_server == server_id)).nonzero()[0]
    eo = ((~alloc.opt_local) & (ctx.opt_server == server_id)).nonzero()[0]
    picker = ArgminPicker([np.concatenate((ec, NC + eo))], NC + len(m.opt_objects))
    picker.set(ec, comp_scores(ec))
    picker.set(NC + eo, opt_scores(eo))
    weight = np.concatenate((ctx.comp_freq[ec], ctx.opt_freq_weight[eo]))
    # a weightless candidate sheds nothing: refused whenever it is picked
    picker.kill((weight <= 0).nonzero()[0])
    by_weight = np.argsort(-weight, kind="stable")
    neg_weight = -weight[by_weight]
    n_heavy = 0

    def retire_heavy() -> None:
        """Retire every candidate heavier than the CPU slack left."""
        nonlocal n_heavy
        cut = int(neg_weight.searchsorted(-(cpu_slack + CAPACITY_TOL)))
        if cut > n_heavy:
            picker.kill(by_weight[n_heavy:cut])
            n_heavy = cut

    retire_heavy()
    absorbed = 0.0
    victims = None  # the server's ranked swap victims, while still valid
    while absorbed < target - CAPACITY_TOL and cpu_slack > CAPACITY_TOL:
        picked = picker.pick()
        if picked is None:
            break
        score, key = picked
        # accepted or refused, the candidate leaves the set
        picker.kill(picker.pos[key])
        w = float(weight[picker.pos[key]])
        e = key if key < NC else key - NC
        k = int(m.comp_objects[e] if key < NC else m.opt_objects[e])
        unmarked: list[int] = []
        dirty_pages: list[int] = []
        if k not in replicas:
            size = float(m.sizes[k])
            if not allow_new_replicas:
                continue
            if size > space + CAPACITY_TOL:
                if not allow_swap:
                    continue
                if victims is None:
                    victims = _rank_victims(alloc, server_id)
                    _tally(counters, swap_rankings=1)
                _tally(counters, swap_attempts=1)
                remaining = target - absorbed
                ok, freed_sizes, flip_c, flip_o, flip_pages = _try_make_room(
                    alloc,
                    server_id,
                    victims,
                    size - space,
                    min(w, remaining),
                    LB,
                    RB,
                )
                if not ok:
                    continue  # a failed swap retires its candidate
                _tally(counters, swaps=1)
                for sz in freed_sizes:
                    space += sz
                unmarked = flip_c + [NC + e2 for e2 in flip_o]
                dirty_pages = flip_pages
            space -= size
        if key < NC:
            j = int(m.comp_pages[e])
            size_k = float(m.sizes[k])
            alloc.set_comp_local(e, True)
            LB[j] += size_k
            RB[j] -= size_k
            dirty_pages.append(j)
        else:
            alloc.set_opt_local(e, True)
        absorbed += w
        cpu_slack -= w
        _tally(counters, absorptions=1)
        victims = None  # this server's marks (and maybe replicas) moved
        if decisions is not None:
            decisions.append((key, score))
        if unmarked:
            # absorbed candidates the swap turned remote again are back
            # in play, unless they no longer fit the slack
            p = picker.pos[np.asarray(unmarked, dtype=np.intp)]
            p = p[p < len(weight)]
            p = p[weight[p] <= cpu_slack + CAPACITY_TOL]
            picker.revive(p)
            back_opt = picker.keys[p]
            back_opt = back_opt[back_opt >= NC]
            if len(back_opt):
                picker.set(back_opt, opt_scores(back_opt - NC))
        retire_heavy()
        if dirty_pages:
            # the touched pages' live candidates score against new totals
            pages = np.asarray(dirty_pages)
            if len(pages) > 1:
                pages = np.unique(pages)
            starts = comp_indptr[pages]
            ents = picker.live(expand_rows(starts, comp_indptr[pages + 1] - starts)[1])
            if len(ents):
                picker.set(ents, comp_scores(ents))
    _report_absorption(counters)
    return absorbed


def absorb_round_serial(
    alloc: Allocation,
    cost: CostModel,
    requests: list[tuple[int, float, bool]],
    *,
    allow_swap: bool = True,
) -> dict[int, float]:
    """Default (serial) scatter: absorb each round request in plan order.

    This is the **scatter** half of the off-loading round's
    scatter/gather split.  ``requests`` holds one
    ``(server_id, new_req, allow_new_replicas)`` triple per server the
    repository addressed this round; the scatter must mutate ``alloc``
    to the post-absorption state of every listed server and return the
    workload each actually achieved.

    The contract a replacement scatter (e.g. the scalar test oracle's)
    must honour: per-server absorptions are **independent** — a server
    appears at most once per round, and absorption at one server reads
    and writes only that server's pages, entries and replica set, so
    any execution order produces the same marks as this serial
    reference.  The scatter is a plain callable, run once per round
    with no setup or teardown around the negotiation.  The
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
        Validated policy kernel name.  Every kernel absorbs with
        :func:`absorb_extra_workload`.
    scatter:
        Absorption-round executor with the signature and contract of
        :func:`absorb_round_serial` (the default), called once per
        round.  Because per-server absorptions are independent, every
        conforming scatter yields bit-identical marks, and this function
        keeps all the order-sensitive gather bookkeeping either way.
        The scalar test oracle substitutes its own absorptions here.
    """
    cfg = config or OffloadConfig()
    resolve_kernel(kernel)
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
    if np.isinf(repo_cap) or initial <= repo_cap + CAPACITY_TOL:
        return outcome
    _require_two_streams(alloc, "OFF_LOADING_REPOSITORY")

    reg = get_registry()
    absorb_round = absorb_round_serial if scatter is None else scatter
    demoted: set[int] = set()
    load = initial
    with reg.span("off-loading"):
        for _ in range(cfg.max_rounds):
            if load <= repo_cap + CAPACITY_TOL:
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
                (i, req, statuses[i].free_space > CAPACITY_TOL)
                for i, req in plan.items()
            ]
            achieved_by = absorb_round(
                alloc, cost, requests, allow_swap=cfg.allow_swap
            )
            # Gather: the order-sensitive bookkeeping, in plan order.
            for i, req in plan.items():
                achieved = achieved_by[i]
                outcome.absorbed_by_server[i] = (
                    outcome.absorbed_by_server.get(i, 0.0) + achieved
                )
                if achieved < req - CAPACITY_TOL:
                    demoted.add(i)  # joins L3 for subsequent rounds
            outcome.messages += len(plan)  # answers
            load = repository_load(alloc)
    outcome.messages += m.n_servers  # Off_Loading_END broadcast
    outcome.final_repo_load = float(load)
    outcome.restored = bool(load <= repo_cap + CAPACITY_TOL)
    if reg.enabled:
        reg.count("offload.negotiations")
        reg.count("offload.rounds", outcome.rounds)
        reg.count("offload.messages", outcome.messages)
        reg.count("offload.absorbed_load", outcome.total_absorbed)
        reg.gauge("offload.restored", float(outcome.restored))
    return outcome
