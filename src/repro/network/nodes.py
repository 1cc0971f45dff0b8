"""Actors: local servers and the repository on the message bus.

Each :class:`LocalServerNode` owns the decisions for the pages its
server hosts: it runs PARTITION plus storage/processing restoration
locally ("we let the local servers decide which MOs should be kept and
downloaded by them"), then reports a status message.  The
:class:`RepositoryNode` aggregates statuses and drives the off-loading
rounds.

The shared :class:`~repro.core.allocation.Allocation` object plays the
role of each server's local state — nodes only ever read/write entries
belonging to their own server, so the sharing is an implementation
convenience, not hidden coordination.  The decision procedures are the
exact functions used by the centralised
:class:`~repro.core.policy.RepositoryReplicationPolicy`, which is what
makes the two execution styles bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.offload import (
    ServerStatus,
    absorb_extra_workload,
    compute_server_status,
    plan_offload_round,
)
from repro.core.partition import (
    OptionalPolicy,
    optional_marks_batched,
    partition_pages_batched,
)
from repro.core.restoration import (
    CAPACITY_TOL,
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.constraints import evaluate_constraints
from repro.network.bus import MessageBus
from repro.network.messages import (
    Message,
    NewRequirementMessage,
    OffloadEndMessage,
    REPOSITORY_NODE,
    StatusMessage,
    WorkloadAnswerMessage,
    server_node,
)

__all__ = ["LocalServerNode", "RepositoryNode"]


class LocalServerNode:
    """One local server ``S_i`` as a protocol participant."""

    def __init__(
        self,
        server_id: int,
        alloc: Allocation,
        cost: CostModel,
        bus: MessageBus,
        optional_policy: OptionalPolicy = "all",
        allow_swap: bool = True,
    ):
        self.server_id = server_id
        self.alloc = alloc
        self.cost = cost
        self.bus = bus
        self.optional_policy: OptionalPolicy = optional_policy
        self.allow_swap = allow_swap
        self.node_id = server_node(server_id)
        self.offload_done = False
        bus.register(self.node_id, self.handle)

    # ------------------------------------------------------------------
    def run_local_allocation(self) -> None:
        """PARTITION + restoration for this server's pages only."""
        alloc, ctx = self.alloc, self.alloc.ctx
        marks, streams, _, _ = partition_pages_batched(
            alloc.model, page_ids=alloc.model.pages_by_server[self.server_id]
        )
        comp_e = np.flatnonzero(ctx.comp_server == self.server_id)
        alloc.comp_stream[comp_e] = streams[comp_e]
        alloc.set_comp_local_bulk(comp_e[marks[comp_e]], True)
        opt_marks = optional_marks_batched(alloc.model, self.optional_policy)
        opt_e = np.flatnonzero(ctx.opt_server == self.server_id)
        alloc.set_opt_local_bulk(opt_e[opt_marks[opt_e]], True)
        report = evaluate_constraints(self.alloc)
        if self.server_id in report.violated_servers_storage():
            restore_storage_capacity(self.alloc, self.cost, servers=self.server_id)
        if self.server_id in report.violated_servers_processing():
            restore_processing_capacity(self.alloc, self.cost, servers=self.server_id)

    def send_status(self) -> None:
        """Report Space(S_i), P(S_i), P(S_i, R) to the repository."""
        self.bus.send(
            StatusMessage(
                sender=self.node_id,
                recipient=REPOSITORY_NODE,
                status=compute_server_status(self.alloc, self.server_id),
            )
        )

    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Protocol handler for repository-originated messages."""
        if isinstance(msg, NewRequirementMessage):
            st = compute_server_status(self.alloc, self.server_id)
            achieved = absorb_extra_workload(
                self.alloc,
                self.cost,
                self.server_id,
                msg.amount,
                allow_new_replicas=st.free_space > CAPACITY_TOL,
                allow_swap=self.allow_swap,
            )
            exhausted = achieved < msg.amount - CAPACITY_TOL
            self.bus.send(
                WorkloadAnswerMessage(
                    sender=self.node_id,
                    recipient=REPOSITORY_NODE,
                    achieved=achieved,
                    exhausted=exhausted,
                    status=compute_server_status(self.alloc, self.server_id),
                )
            )
        elif isinstance(msg, OffloadEndMessage):
            self.offload_done = True
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at {self.node_id}: {msg!r}")


@dataclass
class _RoundState:
    """Repository-side bookkeeping for one negotiation round."""

    awaiting: set[int] = field(default_factory=set)


class RepositoryNode:
    """The repository ``R`` as protocol coordinator."""

    def __init__(
        self,
        capacity: float,
        n_servers: int,
        bus: MessageBus,
        max_rounds: int = 50,
    ):
        self.capacity = float(capacity)
        self.n_servers = n_servers
        self.bus = bus
        self.max_rounds = max_rounds
        self.statuses: dict[int, ServerStatus] = {}
        self.demoted: set[int] = set()
        self.absorbed_by_server: dict[int, float] = {}
        self.rounds = 0
        self.finished = False
        self.restored = False
        self._round = _RoundState()
        bus.register(REPOSITORY_NODE, self.handle)

    # ------------------------------------------------------------------
    @property
    def estimated_load(self) -> float:
        """``P(R)`` from the latest known statuses."""
        return sum(s.repo_share for s in self.statuses.values())

    def handle(self, msg: Message) -> None:
        """Protocol handler for server-originated messages."""
        if isinstance(msg, StatusMessage):
            self.statuses[msg.status.server_id] = msg.status
            if len(self.statuses) == self.n_servers:
                self._maybe_start_round()
        elif isinstance(msg, WorkloadAnswerMessage):
            sid = msg.status.server_id
            self.statuses[sid] = msg.status
            self.absorbed_by_server[sid] = (
                self.absorbed_by_server.get(sid, 0.0) + msg.achieved
            )
            if msg.exhausted:
                self.demoted.add(sid)
            self._round.awaiting.discard(sid)
            if not self._round.awaiting:
                self._maybe_start_round()
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at repository: {msg!r}")

    # ------------------------------------------------------------------
    def _maybe_start_round(self) -> None:
        if self.finished:
            return
        load = self.estimated_load
        if (
            np.isinf(self.capacity)
            or load <= self.capacity + CAPACITY_TOL
            or self.rounds >= self.max_rounds
        ):
            self._finish(
                load <= self.capacity + CAPACITY_TOL or np.isinf(self.capacity)
            )
            return
        plan = plan_offload_round(
            list(self.statuses.values()), self.capacity, self.demoted
        )
        if plan is None or not plan:
            # CONSTRAINT CAN NOT BE RESTORED (or nothing to do)
            self._finish(bool(plan == {}))
            return
        self.rounds += 1
        self._round = _RoundState(awaiting=set(plan.keys()))
        for sid in sorted(plan.keys()):
            self.bus.send(
                NewRequirementMessage(
                    sender=REPOSITORY_NODE,
                    recipient=server_node(sid),
                    amount=plan[sid],
                )
            )

    def _finish(self, restored: bool) -> None:
        self.finished = True
        self.restored = restored
        for sid in range(self.n_servers):
            self.bus.send(
                OffloadEndMessage(
                    sender=REPOSITORY_NODE,
                    recipient=server_node(sid),
                    restored=restored,
                )
            )

    # ------------------------------------------------------------------
    def recover_from_stall(self) -> bool:
        """Handle lost messages after the bus drained without finishing.

        A real repository would run timeouts; in the synchronous
        simulation a "timeout" is the driver observing an idle bus with
        the negotiation incomplete.  Recovery is crash-stop-conservative:

        * servers whose answer is outstanding are demoted to ``L3`` (we
          cannot know how much they absorbed — assume nothing more is
          coming from them),
        * servers that never delivered a status are presumed crashed:
          recorded with zero slack and zero repository share, demoted.

        Returns ``True`` if the protocol can proceed (another round was
        attempted or the negotiation was finalised).
        """
        if self.finished:
            return True
        if self._round.awaiting:
            for sid in sorted(self._round.awaiting):
                self.demoted.add(sid)
            self._round = _RoundState()
            self._maybe_start_round()
            return True
        missing = set(range(self.n_servers)) - set(self.statuses)
        if missing:
            for sid in sorted(missing):
                self.statuses[sid] = ServerStatus(
                    server_id=sid,
                    free_space=0.0,
                    free_capacity=0.0,
                    repo_share=0.0,
                )
                self.demoted.add(sid)
            self._maybe_start_round()
            return True
        # idle with full information but unfinished: force evaluation
        self._maybe_start_round()
        return self.finished
