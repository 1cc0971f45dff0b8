"""Tests for repro.core.offload — the OFF_LOADING negotiation."""

import math

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.constraints import (
    evaluate_constraints,
    local_processing_load,
    repository_load,
    storage_used,
)
from repro.core.cost_model import CostModel
from repro.core.offload import (
    OffloadConfig,
    ServerStatus,
    absorb_extra_workload,
    compute_server_status,
    offload_repository,
    plan_offload_round,
)
from repro.core.partition import partition_all
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from tests.conftest import build_micro_model
from tests.oracles.scalar_greedy import absorb_scalar, offload_scalar


def _status(sid, space, cap, share):
    return ServerStatus(
        server_id=sid, free_space=space, free_capacity=cap, repo_share=share
    )


class TestServerStatus:
    def test_classification_l1(self):
        assert _status(0, 100.0, 5.0, 1.0).classification == "L1"

    def test_classification_l2(self):
        assert _status(0, 0.0, 5.0, 1.0).classification == "L2"

    def test_classification_l3(self):
        assert _status(0, 0.0, 0.0, 1.0).classification == "L3"
        assert _status(0, 100.0, 0.0, 1.0).classification == "L3"

    def test_compute_matches_constraints(self):
        m = build_micro_model(storage=(2000.0, 2000.0), processing=(10.0, 10.0))
        alloc = partition_all(m)
        st = compute_server_status(alloc, 0)
        assert st.free_space == pytest.approx(
            2000.0 - storage_used(alloc)[0]
        )
        assert st.free_capacity == pytest.approx(
            10.0 - local_processing_load(alloc)[0]
        )

    def test_infinite_capacity_status(self, micro_model):
        alloc = partition_all(micro_model)
        st = compute_server_status(alloc, 0)
        assert math.isinf(st.free_capacity)


class TestPlanOffloadRound:
    def test_no_excess_empty_plan(self):
        statuses = [_status(0, 1.0, 1.0, 2.0), _status(1, 1.0, 1.0, 2.0)]
        assert plan_offload_round(statuses, repo_capacity=10.0) == {}

    def test_l1_proportional_split(self):
        statuses = [_status(0, 1.0, 3.0, 5.0), _status(1, 1.0, 1.0, 5.0)]
        plan = plan_offload_round(statuses, repo_capacity=6.0)
        # excess 4, P(L1) = 4 -> proportional to capacity 3:1
        assert plan[0] == pytest.approx(3.0)
        assert plan[1] == pytest.approx(1.0)

    def test_spillover_to_l2(self):
        statuses = [
            _status(0, 1.0, 2.0, 5.0),   # L1
            _status(1, 0.0, 4.0, 5.0),   # L2
        ]
        plan = plan_offload_round(statuses, repo_capacity=5.0)
        # excess 5 > P(L1)=2: L1 takes all its capacity, L2 the rest
        assert plan[0] == pytest.approx(2.0)
        assert plan[1] == pytest.approx(3.0)

    def test_unrestorable_returns_none(self):
        statuses = [_status(0, 0.0, 0.0, 10.0)]
        assert plan_offload_round(statuses, repo_capacity=5.0) is None

    def test_demoted_treated_as_l3(self):
        statuses = [_status(0, 1.0, 3.0, 5.0), _status(1, 1.0, 3.0, 5.0)]
        plan = plan_offload_round(statuses, repo_capacity=6.0, demoted={0})
        assert 0 not in plan
        assert plan[1] == pytest.approx(3.0)  # capped by its capacity

    def test_demoted_share_still_counts_in_excess(self):
        statuses = [_status(0, 1.0, 10.0, 8.0), _status(1, 1.0, 10.0, 0.0)]
        plan = plan_offload_round(statuses, repo_capacity=4.0, demoted={0})
        # excess = 8 + 0 - 4 = 4, all assigned to server 1
        assert plan == {1: pytest.approx(4.0)}


class TestAbsorbExtraWorkload:
    def test_zero_target_noop(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        before = alloc.copy()
        assert absorb_extra_workload(alloc, cost, 0, 0.0) == 0.0
        assert alloc == before

    def test_absorbs_remote_downloads(self):
        m = build_micro_model()
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        base_repo = repository_load(alloc)
        achieved = absorb_extra_workload(alloc, cost, 1, 10.0)
        assert achieved > 0
        assert repository_load(alloc) == pytest.approx(base_repo - achieved)

    def test_respects_cpu_slack(self):
        m = build_micro_model(processing=(math.inf, 5.0))
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        slack = 5.0 - local_processing_load(alloc)[1]
        achieved = absorb_extra_workload(alloc, cost, 1, 100.0)
        assert achieved <= slack + 1e-9
        assert local_processing_load(alloc)[1] <= 5.0 + 1e-9

    def test_respects_storage_without_swap(self):
        m = build_micro_model(storage=(math.inf, 1000.0))
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        from repro.core.restoration import restore_storage_capacity

        restore_storage_capacity(alloc, cost)  # fit within 1000 B first
        used_before = storage_used(alloc)[1]
        absorb_extra_workload(alloc, cost, 1, 100.0, allow_swap=False)
        assert storage_used(alloc)[1] <= 1000.0 + 1e-9
        assert storage_used(alloc)[1] >= used_before  # may only grow into slack

    def test_no_new_replicas_mode(self):
        m = build_micro_model()
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        stored_before = set(alloc.replicas[1])
        absorb_extra_workload(alloc, cost, 1, 100.0, allow_new_replicas=False)
        assert set(alloc.replicas[1]) <= stored_before

    def test_uses_stored_but_unmarked(self):
        """An L2 server exploits objects stored but marked remote."""
        m = build_micro_model()
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        # force object 2 of page 3 (server 1) remote while keeping it stored
        sl = m.comp_slice(3)
        for off, k in enumerate(m.pages[3].compulsory):
            if k == 2 and alloc.comp_local[sl.start + off]:
                alloc.set_comp_local(sl.start + off, False)
        assert 2 in alloc.replicas[1]
        achieved = absorb_extra_workload(
            alloc, cost, 1, 100.0, allow_new_replicas=False
        )
        assert achieved > 0


class TestOffloadRepository:
    def test_infinite_capacity_noop(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        out = offload_repository(alloc, cost)
        assert out.restored
        assert out.rounds == 0

    def test_restores_when_possible(self):
        m = build_micro_model(repo_capacity=1.0)
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        initial = repository_load(alloc)
        assert initial > 1.0
        out = offload_repository(alloc, cost)
        assert out.restored
        assert repository_load(alloc) <= 1.0 + 1e-9
        assert out.total_absorbed == pytest.approx(initial - out.final_repo_load)

    def test_capacity_override(self):
        m = build_micro_model()  # infinite repo capacity in the model
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        load = repository_load(alloc)
        out = offload_repository(alloc, cost, capacity=load / 2)
        assert out.restored
        assert repository_load(alloc) <= load / 2 + 1e-9

    def test_unrestorable_reports_false(self):
        # zero processing slack anywhere: servers can't take extra work
        m = build_micro_model(processing=(3.0, 1.5), repo_capacity=0.5)
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        from repro.core.restoration import restore_processing_capacity

        restore_processing_capacity(alloc, cost)
        out = offload_repository(alloc, cost)
        assert not out.restored
        assert out.final_repo_load > 0.5

    def test_message_accounting(self):
        m = build_micro_model(repo_capacity=1.0)
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        out = offload_repository(alloc, cost)
        # >= initial statuses + END broadcast
        assert out.messages >= 2 * m.n_servers
        assert out.rounds >= 1

    def test_objective_worsens_but_bounded(self):
        m = build_micro_model(repo_capacity=2.0)
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        d_before = cost.D(alloc)
        offload_repository(alloc, cost)
        d_after = cost.D(alloc)
        # absorbing workload moves downloads off their preferred stream,
        # but never above the all-local extreme
        from repro.baselines.local import LocalPolicy

        assert d_after >= d_before - 1e-9
        assert d_after <= cost.D(LocalPolicy().allocate(m)) + 1e-9

    def test_constraints_respected_after_offload(self):
        m = build_micro_model(
            storage=(1200.0, 1500.0), processing=(8.0, 7.0), repo_capacity=2.0
        )
        alloc = partition_all(m, optional_policy="none")
        cost = CostModel(m)
        from repro.core.restoration import (
            restore_processing_capacity,
            restore_storage_capacity,
        )

        restore_storage_capacity(alloc, cost)
        restore_processing_capacity(alloc, cost)
        offload_repository(alloc, cost)
        rep = evaluate_constraints(alloc)
        assert rep.storage_ok
        assert rep.local_ok


class TestL2Swap:
    """OFF_LOADING where L2 servers must swap victims out to absorb."""

    def test_kernels_identical_through_swaps(self, l2_swap_world):
        model, base = l2_swap_world
        a, b = base.copy(), base.copy()
        counters: dict = {}
        out_a = offload_scalar(a, CostModel(model), OffloadConfig(), counters=counters)
        out_b = offload_repository(b, CostModel(model), OffloadConfig())
        assert counters["swaps"] >= 1
        assert np.array_equal(a.comp_local, b.comp_local)
        assert np.array_equal(a.opt_local, b.opt_local)
        assert a.replicas == b.replicas
        assert out_a == out_b
        b.check_invariants()
        report = evaluate_constraints(b)
        assert report.local_ok and report.storage_ok


def _single_object_pages(sizes, freqs, local, storage=math.inf, slack=math.inf):
    """One server (8 B/s local, 2 B/s repository, overheads 1 s / 2 s);
    page ``p`` holds 8 B of HTML and the single compulsory object ``p``
    (entry ``p``) at frequency ``freqs[p]``.  Pages in ``local`` are
    marked local; CPU capacity leaves ``slack`` req/s free.  Marking
    page ``p`` local scores 2 * (0.125 - 0.5) * sizes[p] = -0.75 *
    sizes[p], so bigger objects are absorbed first."""
    load = sum(freqs) + sum(freqs[p] for p in local)
    model = SystemModel(
        [
            ServerSpec(
                server_id=0,
                storage_capacity=storage,
                processing_capacity=load + slack,
                rate=8.0,
                overhead=1.0,
                repo_rate=2.0,
                repo_overhead=2.0,
            )
        ],
        RepositorySpec(),
        [
            PageSpec(
                page_id=p, server=0, html_size=8, frequency=f, compulsory=(p,)
            )
            for p, f in enumerate(freqs)
        ],
        [ObjectSpec(object_id=p, size=s) for p, s in enumerate(sizes)],
    )
    return model, Allocation(model, comp_local=np.isin(np.arange(len(sizes)), local))


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
class TestAbsorptionRefusals:
    """A refused candidate is retired for good; a successful swap
    re-admits the absorbed candidates it turns remote again."""

    def _absorb(self, kernel, model, alloc, target=10.0):
        cost = CostModel(model)
        if kernel == "scalar":
            return absorb_scalar(alloc, cost, 0, target), None
        log: list = []
        got = absorb_extra_workload(alloc, cost, 0, target, decisions=log)
        return got, log

    def test_heavier_than_slack_never_absorbed(self, kernel):
        # page 0 scores best but carries 4 req/s against 3 of slack
        model, alloc = _single_object_pages([100, 10], [4.0, 1.0], [], slack=3.0)
        absorbed, log = self._absorb(kernel, model, alloc)
        assert absorbed == 1.0
        assert alloc.comp_local.tolist() == [False, True]
        assert log is None or log == [(1, -7.5)]

    def test_failed_swap_retires_candidate(self, kernel):
        # page 0 (0.25 req/s) cannot outweigh stored object 2 (0.5 req/s),
        # so its swap fails; page 1's swap then evicts object 2 and frees
        # room enough for object 0 — which stays retired
        model, alloc = _single_object_pages(
            [100, 10, 200], [0.25, 2.0, 0.5], [2], storage=24 + 200 + 5
        )
        absorbed, log = self._absorb(kernel, model, alloc)
        assert absorbed == 2.0
        assert alloc.comp_local.tolist() == [False, True, False]
        assert alloc.replicas[0] == {1}
        assert log is None or log == [(1, -7.5)]

    def test_successful_swap_readmits_unmarked(self, kernel):
        # page 0 fills the free 100 B; page 1's swap evicts object 0
        # (cheapest per byte) and turns page 0 remote again; re-admitted,
        # page 0 wins once more by swapping out object 2
        model, alloc = _single_object_pages(
            [100, 10, 20], [1.0, 2.0, 0.5], [2], storage=24 + 20 + 100
        )
        absorbed, log = self._absorb(kernel, model, alloc)
        assert absorbed == 4.0
        assert alloc.comp_local.tolist() == [True, True, False]
        assert alloc.replicas[0] == {0, 1}
        assert log is None or log == [(0, -75.0), (1, -7.5), (0, -75.0)]
