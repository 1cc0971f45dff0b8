"""Tests for repro.core.restoration — Eq. 8/10 greedy repair."""

import math

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.constraints import (
    evaluate_constraints,
    local_processing_load,
    storage_used,
)
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import (
    InfeasibleError,
    restore_processing_batched,
    restore_processing_capacity,
    restore_storage_batched,
    restore_storage_capacity,
)
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from tests.conftest import build_micro_model
from tests.oracles.scalar_greedy import (
    _PageState,
    optional_entry_delta,
    restore_processing_scalar,
    restore_storage_scalar,
)


def _constrained_partition(storage=(math.inf, math.inf), processing=(math.inf, math.inf)):
    m = build_micro_model(storage=storage, processing=processing)
    alloc = partition_all(m)
    cost = CostModel(m)
    return m, alloc, cost


class TestStorageRestoration:
    def test_noop_when_satisfied(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        before = alloc.copy()
        stats = restore_storage_capacity(alloc, cost)
        assert stats.evictions == 0
        assert alloc == before

    def test_restores_constraint(self):
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        assert not evaluate_constraints(alloc).storage_ok
        stats = restore_storage_capacity(alloc, cost)
        assert evaluate_constraints(alloc).storage_ok
        assert stats.evictions > 0
        assert stats.bytes_freed > 0

    def test_marks_consistent_after(self):
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        restore_storage_capacity(alloc, cost)
        alloc.check_invariants()

    def test_objective_only_worsens_or_matches(self):
        """Shrinking storage cannot improve the (already greedy) D."""
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        before = cost.D(alloc)
        restore_storage_capacity(alloc, cost)
        assert cost.D(alloc) >= before - 1e-9

    def test_single_server_scope(self):
        m, alloc, cost = _constrained_partition(storage=(700.0, math.inf))
        marks_s1 = [alloc.page_comp_marks(j).copy() for j in m.pages_by_server[1]]
        restore_storage_capacity(alloc, cost, servers=0)
        assert storage_used(alloc)[0] <= 700.0 + 1e-9
        for j, before in zip(m.pages_by_server[1], marks_s1):
            assert np.array_equal(alloc.page_comp_marks(j), before)

    def test_infeasible_html_raises(self):
        # S0 hosts 300 B of HTML; 200 B of storage cannot ever fit it
        m, alloc, cost = _constrained_partition(storage=(200.0, math.inf))
        with pytest.raises(InfeasibleError, match="HTML"):
            restore_storage_capacity(alloc, cost)

    def test_progressively_tighter_storage_monotone(self, small_model):
        """Tighter budgets must yield weakly worse objectives."""
        from repro.experiments.scaling import (
            clone_with_capacities,
            storage_capacities_for_fraction,
        )

        ref = partition_all(small_model)
        prev_d = None
        for frac in (1.0, 0.6, 0.3):
            caps = storage_capacities_for_fraction(small_model, ref, frac)
            clone = clone_with_capacities(small_model, storage=caps)
            alloc = partition_all(clone)
            cost = CostModel(clone)
            restore_storage_capacity(alloc, cost)
            d = cost.D(alloc)
            assert evaluate_constraints(alloc).storage_ok
            if prev_d is not None:
                assert d >= prev_d - 1e-6
            prev_d = d

    def test_repartition_recovers_stored_objects(self):
        """After an eviction, pages may re-mark still-stored objects.

        Build a case: tight storage on S1 forces evictions; the
        re-partition step must leave every page's marks pointing only at
        stored objects.
        """
        m, alloc, cost = _constrained_partition(storage=(math.inf, 800.0))
        stats = restore_storage_capacity(alloc, cost)
        for j in m.pages_by_server[1]:
            page = m.pages[j]
            for k, mk in zip(page.compulsory, alloc.page_comp_marks(j)):
                if mk:
                    assert k in alloc.replicas[1]

    def test_zero_mo_storage_evicts_everything(self):
        m, alloc, cost = _constrained_partition(storage=(300.0, 400.0))
        restore_storage_capacity(alloc, cost)
        assert alloc.replicas[0] == set()
        assert alloc.replicas[1] == set()
        assert not alloc.comp_local.any()
        assert not alloc.opt_local.any()


class TestServerSubsets:
    """The ``servers=`` scope used by the incremental re-planner."""

    def test_storage_subset_equals_full_sweep(self):
        m1, a1, c1 = _constrained_partition(storage=(700.0, 900.0))
        m2, a2, c2 = _constrained_partition(storage=(700.0, 900.0))
        restore_storage_capacity(a1, c1)
        bad = evaluate_constraints(a2).violated_servers_storage()
        restore_storage_capacity(a2, c2, servers=bad)
        # sweeping only the violated servers is the full-sweep result:
        # the per-server loop exits immediately on feasible servers
        assert np.array_equal(a1.comp_local, a2.comp_local)
        assert np.array_equal(a1.opt_local, a2.opt_local)
        assert a1.replicas == a2.replicas

    def test_processing_subset_equals_full_sweep(self):
        m1, a1, c1 = _constrained_partition(processing=(5.0, 4.0))
        m2, a2, c2 = _constrained_partition(processing=(5.0, 4.0))
        restore_processing_capacity(a1, c1)
        bad = evaluate_constraints(a2).violated_servers_processing()
        restore_processing_capacity(a2, c2, servers=bad)
        assert np.array_equal(a1.comp_local, a2.comp_local)
        assert np.array_equal(a1.opt_local, a2.opt_local)
        assert a1.replicas == a2.replicas

    def test_subset_leaves_other_servers_untouched(self):
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        marks_s1 = [
            alloc.page_comp_marks(j).copy() for j in m.pages_by_server[1]
        ]
        restore_storage_capacity(alloc, cost, servers=[0])
        assert storage_used(alloc)[0] <= 700.0 + 1e-9
        for j, before in zip(m.pages_by_server[1], marks_s1):
            assert np.array_equal(alloc.page_comp_marks(j), before)

    def test_duplicates_deduped(self):
        m1, a1, c1 = _constrained_partition(storage=(700.0, 900.0))
        m2, a2, c2 = _constrained_partition(storage=(700.0, 900.0))
        restore_storage_capacity(a1, c1, servers=[0, 1])
        restore_storage_capacity(a2, c2, servers=[1, 0, 0, 1])
        assert np.array_equal(a1.comp_local, a2.comp_local)
        assert a1.replicas == a2.replicas

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    def test_kernels_agree_on_subset(self, kernel):
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        restore = (
            restore_storage_scalar if kernel == "scalar" else restore_storage_capacity
        )
        restore(alloc, cost, servers=[0, 1])
        assert evaluate_constraints(alloc).storage_ok

    def test_out_of_range_rejected(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        with pytest.raises(ValueError, match="out of range"):
            restore_storage_capacity(alloc, cost, servers=[2])
        with pytest.raises(ValueError, match="out of range"):
            restore_processing_capacity(alloc, cost, servers=[-1])

    def test_empty_subset_noop(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        before = alloc.copy()
        stats = restore_storage_capacity(alloc, cost, servers=[])
        assert stats.evictions == 0
        assert alloc == before


class TestProcessingRestoration:
    def test_noop_when_satisfied(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        before = alloc.copy()
        stats = restore_processing_capacity(alloc, cost)
        assert stats.switches == 0
        assert alloc == before

    def test_restores_constraint(self):
        # all-local load is 7.1 at S0 and 5.6 at S1
        m, alloc, cost = _constrained_partition(processing=(5.0, 4.0))
        assert not evaluate_constraints(alloc).local_ok
        stats = restore_processing_capacity(alloc, cost)
        rep = evaluate_constraints(alloc)
        assert rep.local_ok
        assert stats.switches > 0
        assert stats.load_shed > 0

    def test_load_bounded_after(self):
        m, alloc, cost = _constrained_partition(processing=(4.0, 3.0))
        restore_processing_capacity(alloc, cost)
        load = local_processing_load(alloc)
        assert load[0] <= 4.0 + 1e-6
        assert load[1] <= 3.0 + 1e-6

    def test_html_only_capacity_sheds_all(self):
        # html loads are 3.0 / 1.5 req/s
        m, alloc, cost = _constrained_partition(processing=(3.0, 1.5))
        restore_processing_capacity(alloc, cost)
        assert not alloc.comp_local.any()
        assert not alloc.opt_local.any()

    def test_infeasible_html_load_raises(self):
        m, alloc, cost = _constrained_partition(processing=(2.0, math.inf))
        with pytest.raises(InfeasibleError, match="HTML"):
            restore_processing_capacity(alloc, cost)

    def test_fully_remote_objects_deallocated(self):
        m, alloc, cost = _constrained_partition(processing=(3.0, 1.5))
        stats = restore_processing_capacity(alloc, cost)
        # every object lost all marks, so every replica must be gone
        assert alloc.replicas[0] == set()
        assert alloc.replicas[1] == set()
        assert stats.deallocations > 0

    def test_marks_consistent_after(self):
        m, alloc, cost = _constrained_partition(processing=(5.0, 4.0))
        restore_processing_capacity(alloc, cost)
        alloc.check_invariants()

    def test_infinite_capacity_skipped(self, micro_model):
        alloc = partition_all(micro_model)
        cost = CostModel(micro_model)
        stats = restore_processing_capacity(alloc, cost, servers=0)
        assert stats.switches == 0

    def test_greedy_prefers_cheap_switches(self):
        """The first switch must be (weakly) the cheapest amortised one."""
        m, alloc, cost = _constrained_partition(processing=(7.0, math.inf))
        # compute all candidate amortised deltas at S0 before restoration
        state = _PageState(cost, alloc)
        cands = []
        for e in np.flatnonzero(alloc.comp_local):
            j = int(m.comp_pages[e])
            if m.page_server[j] != 0:
                continue
            size = float(m.sizes[m.comp_objects[e]])
            old = state.page_time(j)
            new = state.page_time_if_moved_remote(j, size)
            cands.append(
                (cost.alpha1 * m.frequencies[j] * (new - old)) / m.frequencies[j]
            )
        for e in np.flatnonzero(alloc.opt_local):
            j = int(m.opt_pages[e])
            if m.page_server[j] != 0:
                continue
            w = m.frequencies[j] * m.opt_probs[e]
            cands.append(optional_entry_delta(cost, e, to_local=False) / w)
        cheapest = min(cands)

        work = alloc.copy()
        stats = restore_processing_capacity(work, cost, servers=0)
        assert stats.switches >= 1
        # realised amortised cost of the run's first (cheapest) move:
        assert stats.objective_delta / stats.load_shed >= cheapest - 1e-9


class TestEndToEndRestoration:
    def test_storage_then_processing(self, small_model):
        from repro.experiments.scaling import (
            clone_with_capacities,
            processing_capacities_for_fraction,
            storage_capacities_for_fraction,
        )

        ref = partition_all(small_model)
        storage = storage_capacities_for_fraction(small_model, ref, 0.5)
        processing = processing_capacities_for_fraction(small_model, 0.5)
        clone = clone_with_capacities(
            small_model, storage=storage, processing=processing
        )
        alloc = partition_all(clone)
        cost = CostModel(clone)
        restore_storage_capacity(alloc, cost)
        restore_processing_capacity(alloc, cost)
        rep = evaluate_constraints(alloc)
        assert rep.storage_ok and rep.local_ok
        alloc.check_invariants()


class TestAmortisationFlag:
    def test_raw_criterion_restores_too(self):
        m, alloc, cost = _constrained_partition(storage=(700.0, 900.0))
        stats = restore_storage_capacity(alloc, cost, amortise=False)
        assert evaluate_constraints(alloc).storage_ok
        assert stats.evictions > 0

    def test_amortised_no_worse_on_micro(self):
        m = build_micro_model(storage=(700.0, 900.0))
        cost = CostModel(m)
        a = partition_all(m)
        restore_storage_capacity(a, cost, amortise=True)
        b = partition_all(m)
        restore_storage_capacity(b, cost, amortise=False)
        assert cost.D(a) <= cost.D(b) + 1e-9


def _remote_bound_pages(pages, sizes, local, storage=math.inf, processing=math.inf):
    """One server (8 B/s local, 2 B/s repository, overheads 1 s / 2 s)
    hosting ``pages`` — ``(frequency, compulsory objects)`` pairs with
    8 B of HTML each — with the entries of ``local`` objects marked
    local.  Every figure is a binary fraction, so equal Eq. 3-5 deltas
    come out bit-identical."""
    model = SystemModel(
        [
            ServerSpec(
                server_id=0,
                storage_capacity=storage,
                processing_capacity=processing,
                rate=8.0,
                overhead=1.0,
                repo_rate=2.0,
                repo_overhead=2.0,
            )
        ],
        RepositorySpec(),
        [
            PageSpec(page_id=j, server=0, html_size=8, frequency=f, compulsory=objs)
            for j, (f, objs) in enumerate(pages)
        ],
        [ObjectSpec(object_id=k, size=s) for k, s in enumerate(sizes)],
    )
    return model, Allocation(model, comp_local=np.isin(model.comp_objects, local))


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
class TestLowestKeyTieBreak:
    """Equal scores go to the lowest candidate key.  Ties are common:
    an object local on two remote-bound pages scores α₁·spb_R·size on
    both, whatever the pages' frequencies."""

    def test_processing_switches_lowest_entry_first(self, kernel):
        # object 0 is local on both pages; switching either entry costs
        # 2 * 0.5 * 100 = 100 per request shed.  Entry 0 (page 0, one
        # request/s) goes first and sheds too little, so entry 2 (page 1)
        # follows; the opposite tie-break would stop after entry 2.
        model, alloc = _remote_bound_pages(
            [(1.0, (0, 1)), (2.0, (0, 1))], [100, 1000], local=[0],
            processing=4.5,
        )
        cost = CostModel(model)
        if kernel == "batched":
            log: list = []
            restore_processing_batched(alloc, cost, 0, decisions=log)
            assert log == [(0, 100.0), (2, 100.0)]
        else:
            restore_processing_scalar(alloc, cost)
        assert not alloc.comp_local.any()
        assert alloc.replicas[0] == set()

    def test_storage_evicts_lowest_object_first(self, kernel):
        # objects 0 and 1 (100 B each) sit on twin remote-bound pages:
        # both evictions cost 2 * 0.5 * 100 / 100 = 1 per byte
        model, alloc = _remote_bound_pages(
            [(1.0, (0, 2)), (1.0, (1, 3))], [100, 100, 1000, 1000],
            local=[0, 1], storage=16 + 150,
        )
        cost = CostModel(model)
        if kernel == "batched":
            log: list = []
            restore_storage_batched(alloc, cost, 0, decisions=log)
            assert log == [(0, 1.0)]
        else:
            restore_storage_scalar(alloc, cost)
        assert alloc.replicas[0] == {1}
