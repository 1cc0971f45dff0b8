"""Tests for repro.core.allocation — decision state and replica sets."""

import numpy as np
import pytest

from repro.core.allocation import Allocation


class TestConstruction:
    def test_default_all_remote(self, micro_model):
        a = Allocation(micro_model)
        assert not a.comp_local.any()
        assert not a.opt_local.any()
        assert all(len(r) == 0 for r in a.replicas)

    def test_marks_imply_replicas(self, micro_model):
        comp = np.zeros(8, dtype=bool)
        comp[0] = True  # page 0 (server 0), object 0
        a = Allocation(micro_model, comp_local=comp)
        assert 0 in a.replicas[0]
        assert 0 not in a.replicas[1]

    def test_extra_replicas_allowed(self, micro_model):
        a = Allocation(micro_model, replicas=[{0, 2}, set()])
        assert a.replicas[0] == {0, 2}

    def test_missing_replica_rejected(self, micro_model):
        comp = np.zeros(8, dtype=bool)
        comp[0] = True
        with pytest.raises(ValueError, match="replica"):
            Allocation(micro_model, comp_local=comp, replicas=[set(), set()])

    def test_wrong_shape_rejected(self, micro_model):
        with pytest.raises(ValueError, match="comp_local"):
            Allocation(micro_model, comp_local=np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="opt_local"):
            Allocation(micro_model, opt_local=np.zeros(9, dtype=bool))

    def test_wrong_replica_count_rejected(self, micro_model):
        with pytest.raises(ValueError, match="per server"):
            Allocation(micro_model, replicas=[set()])


class TestMutation:
    def test_set_comp_local_adds_replica(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)  # page 0 / object 0 on server 0
        assert a.comp_local[0]
        assert 0 in a.replicas[0]
        assert a.mark_count(0, 0) == 1

    def test_unmark_keeps_replica(self, micro_model):
        # the paper: stored objects may have no local-download marks
        a = Allocation(micro_model)
        a.set_comp_local(0, True)
        a.set_comp_local(0, False)
        assert 0 in a.replicas[0]
        assert a.mark_count(0, 0) == 0
        assert a.unmarked_stored(0) == {0}

    def test_set_same_value_noop(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, False)
        assert a.mark_count(0, 0) == 0

    def test_mark_count_shared_object(self, micro_model):
        # object 0 appears in pages 0 (server 0) and 3 (server 1)
        a = Allocation(micro_model)
        a.set_comp_local(0, True)  # page 0's entry for object 0
        a.set_comp_local(5, True)  # page 3's entry for object 0
        assert a.mark_count(0, 0) == 1
        assert a.mark_count(1, 0) == 1

    def test_opt_local_marks(self, micro_model):
        a = Allocation(micro_model)
        a.set_opt_local(0, True)  # page 0's optional object 4
        assert 4 in a.replicas[0]
        assert a.mark_count(0, 4) == 1

    def test_store_idempotent(self, micro_model):
        a = Allocation(micro_model)
        a.store(0, 3)
        a.store(0, 3)
        assert a.replicas[0] == {3}


class TestDeallocate:
    def test_flips_marks_and_reports_pages(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(1, True)  # page 0, object 1 (server 0)
        affected = a.deallocate(0, 1)
        assert affected == (0,)
        assert not a.comp_local[1]
        assert 1 not in a.replicas[0]

    def test_flips_optional_marks(self, micro_model):
        a = Allocation(micro_model)
        a.set_opt_local(0, True)  # page 0's optional object 4
        affected = a.deallocate(0, 4)
        assert affected == (0,)
        assert not a.opt_local[0]

    def test_unstored_raises(self, micro_model):
        a = Allocation(micro_model)
        with pytest.raises(KeyError):
            a.deallocate(0, 2)

    def test_does_not_touch_other_server(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)  # object 0 @ server 0
        a.set_comp_local(5, True)  # object 0 @ server 1
        a.deallocate(0, 0)
        assert a.comp_local[5]
        assert 0 in a.replicas[1]


class TestQueries:
    def test_stored_bytes(self, micro_model):
        a = Allocation(micro_model, replicas=[{0, 1}, {3}])
        assert a.stored_bytes(0) == 300.0  # 100 + 200
        assert a.stored_bytes(1) == 400.0
        assert a.stored_bytes_all().tolist() == [300.0, 400.0]

    def test_stored_bytes_all_matches_per_server_sums(self):
        """The vectorised pass adds each server's sizes in its replica
        set's iteration order, so it equals the per-server generator sum
        bit for bit — fractional sizes make the order matter — and a
        server with no replicas reads 0."""
        from repro.core.partition import partition_all
        from repro.workload import WorkloadParams, generate_workload

        model = generate_workload(WorkloadParams.tiny(), seed=7)
        model.sizes = model.sizes * 1.1 + 0.3
        replicas = [set(r) for r in partition_all(model).replicas]
        replicas[-1] = set()
        a = Allocation(model, replicas=replicas)
        got = a.stored_bytes_all()
        assert got.dtype == np.float64
        assert got.shape == (model.n_servers,)
        for i, objs in enumerate(a.replicas):
            assert got[i] == sum(model.sizes[k] for k in objs)
        assert got[-1] == 0.0

    def test_page_marks_views(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(3, True)  # page 2's first entry (object 1)
        marks = a.page_comp_marks(2)
        assert marks.tolist() == [True, False]

    def test_copy_independent(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)
        b = a.copy()
        b.set_comp_local(0, False)
        b.replicas[0].discard(0)
        assert a.comp_local[0]
        assert 0 in a.replicas[0]
        assert a != b

    def test_equality(self, micro_model):
        a = Allocation(micro_model)
        b = Allocation(micro_model)
        assert a == b
        b.set_comp_local(0, True)
        assert a != b

    def test_check_invariants_passes(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)
        a.set_opt_local(1, True)
        a.check_invariants()

    def test_check_invariants_catches_corruption(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)
        a.replicas[0].discard(0)  # corrupt directly
        with pytest.raises(AssertionError):
            a.check_invariants()


def _entries_for(ctx, server_id, object_id):
    """``(compulsory, optional)`` entries of the pair, from the
    context's per-server groups."""
    out = []
    for entries, starts, counts in (
        ctx.comp_group(server_id),
        ctx.opt_group(server_id),
    ):
        lo = starts[object_id]
        out.append(tuple(entries[lo : lo + counts[object_id]].tolist()))
    return tuple(out)


class TestReverseIndex:
    """The ``(server, object) → entries`` lookup that
    ``Allocation.deallocate`` reads from the context's groups."""

    def test_entries_for(self, micro_model):
        ctx = Allocation(micro_model).ctx
        comp_e, opt_e = _entries_for(ctx, 0, 0)
        assert comp_e == (0,)
        assert opt_e == ()
        comp_e, opt_e = _entries_for(ctx, 1, 0)
        assert comp_e == (5,)

    def test_optional_entries(self, micro_model):
        ctx = Allocation(micro_model).ctx
        comp_e, opt_e = _entries_for(ctx, 0, 4)
        assert comp_e == ()
        assert opt_e == (0,)

    def test_missing_pair_empty(self, micro_model):
        ctx = Allocation(micro_model).ctx
        assert _entries_for(ctx, 0, 3) == ((), ())

    def test_cached_per_model(self, micro_model):
        a, b = Allocation(micro_model).ctx, Allocation(micro_model).ctx
        assert a is b
        assert a.comp_group(0)[0].base is b.comp_group(0)[0].base


class TestBulkMutation:
    """set_comp_local_bulk / set_opt_local_bulk must be indistinguishable
    from the equivalent sequence of scalar setters."""

    def test_bulk_equals_scalar_loop(self, micro_model):
        bulk = Allocation(micro_model)
        loop = Allocation(micro_model)
        entries = [0, 2, 3, 5]
        bulk.set_comp_local_bulk(np.array(entries), True)
        for e in entries:
            loop.set_comp_local(e, True)
        assert bulk == loop
        assert np.array_equal(bulk._mark_counts, loop._mark_counts)
        bulk.check_invariants()

    def test_bulk_unset_updates_counts_not_replicas(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.arange(len(a.comp_local)), True)
        a.set_comp_local_bulk(np.array([0, 1]), False)
        # replicas keep the stored-but-unmarked objects (marks ⊆ stored)
        assert a.mark_count(0, 0) == 0
        assert 0 in a.replicas[0]
        a.check_invariants()

    def test_bulk_opt(self, micro_model):
        bulk = Allocation(micro_model)
        loop = Allocation(micro_model)
        bulk.set_opt_local_bulk(np.array([0, 1]), True)
        for e in (0, 1):
            loop.set_opt_local(e, True)
        assert bulk == loop
        assert np.array_equal(bulk._mark_counts, loop._mark_counts)

    def test_bulk_tolerates_duplicates_and_noops(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(0, True)
        # entry 0 is already set (no-op), entry 2 appears twice
        a.set_comp_local_bulk(np.array([0, 2, 2]), True)
        b = Allocation(micro_model)
        for e in (0, 2):
            b.set_comp_local(e, True)
        assert a == b
        assert np.array_equal(a._mark_counts, b._mark_counts)
        a.check_invariants()

    def test_bulk_unsorted_entries(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([5, 0, 3]), True)
        b = Allocation(micro_model)
        for e in (0, 3, 5):
            b.set_comp_local(e, True)
        assert a == b
        assert np.array_equal(a._mark_counts, b._mark_counts)

    def test_bulk_empty(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([], dtype=np.intp), True)
        a.set_opt_local_bulk(np.array([], dtype=np.intp), False)
        assert not a.comp_local.any()

    def test_bulk_shared_object_count_across_pages(self, micro_model):
        # object 3 is compulsory for pages 2 and 3, both hosted on
        # server 1 (flat entries 4 and 7) — the per-server count must
        # aggregate across pages.
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([4, 7]), True)
        assert a.mark_count(1, 3) == 2
        a.set_comp_local_bulk(np.array([4]), False)
        assert a.mark_count(1, 3) == 1
        assert 3 in a.replicas[1]


class TestCopyTransplantWithBulk:
    """Deep-copy/transplant semantics around the bulk mutators.

    ``copy`` and ``transplant_allocation`` both rebuild or duplicate the
    pair-indexed mark counts; the bulk mutators update those counts with
    one ``np.add.at`` over pair ids.  These tests pin the interaction: edits on
    one side must never leak to the other, and the counts must stay
    consistent (``check_invariants``) after any mix of scalar and bulk
    edits on either side.
    """

    def test_copy_isolates_bulk_edits(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([0, 2, 4]), True)
        b = a.copy()
        b.set_comp_local_bulk(np.array([0, 2]), False)
        b.set_opt_local_bulk(np.array([0]), True)
        # the original is untouched, including its mark counts
        assert a.comp_local[[0, 2, 4]].all()
        assert not a.opt_local.any()
        a.check_invariants()
        b.check_invariants()
        ref = Allocation(micro_model, b.comp_local, b.opt_local)
        assert np.array_equal(b._mark_counts, ref._mark_counts)

    def test_bulk_edits_on_copy_match_scalar_on_original(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local(1, True)
        dup = a.copy()
        dup.set_comp_local_bulk(np.array([3, 5]), True)
        scalar = a.copy()
        for e in (3, 5):
            scalar.set_comp_local(e, True)
        assert dup == scalar
        assert np.array_equal(dup._mark_counts, scalar._mark_counts)

    def test_transplant_after_bulk_edits(self, micro_model):
        from repro.core.allocation import transplant_allocation
        from repro.experiments.scaling import clone_with_capacities

        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([4, 7]), True)
        a.set_opt_local_bulk(np.array([1]), True)
        a.store(0, 3)  # stored-but-unmarked survives the move
        clone = clone_with_capacities(micro_model, storage=1e9)
        moved = transplant_allocation(a, clone)
        assert moved.model is clone
        assert moved.ctx is not a.ctx  # fresh model, fresh context
        assert np.array_equal(moved.comp_local, a.comp_local)
        assert 3 in moved.replicas[0]
        moved.check_invariants()
        # bulk edits on the transplant do not reach back
        moved.set_comp_local_bulk(np.array([4, 7]), False)
        assert a.comp_local[[4, 7]].all()
        assert a.mark_count(1, 3) == 2
        a.check_invariants()
        moved.check_invariants()

    def test_invariants_after_mixed_scalar_bulk_edits(self, micro_model):
        a = Allocation(micro_model)
        a.set_comp_local_bulk(np.array([0, 2, 4, 7]), True)
        a.set_comp_local(2, False)
        a.set_opt_local(0, True)
        a.set_opt_local_bulk(np.array([0, 1]), False)
        a.set_comp_local_bulk(np.array([2, 5]), True)
        a.set_comp_local(5, False)
        a.check_invariants()
        # scalar replay of the same edit history (replica sets record
        # every object ever marked, so the reference must replay the
        # set-then-unset steps too, not just the surviving marks)
        loop = Allocation(micro_model)
        for e in (0, 2, 4, 7):
            loop.set_comp_local(e, True)
        loop.set_comp_local(2, False)
        loop.set_opt_local(0, True)
        for e in (0, 1):
            loop.set_opt_local(e, False)
        for e in (2, 5):
            loop.set_comp_local(e, True)
        loop.set_comp_local(5, False)
        assert a == loop
        assert np.array_equal(a._mark_counts, loop._mark_counts)
