"""Property-based tests: Allocation state-machine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from tests.properties.strategies import models_with_allocations, system_models


@given(models_with_allocations())
@settings(max_examples=60, deadline=None)
def test_marks_always_subset_of_replicas(mw):
    _, alloc = mw
    alloc.check_invariants()


@given(models_with_allocations(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_mutation_preserves_invariants(mw, rnd):
    model, alloc = mw
    ne_c = len(model.comp_objects)
    ne_o = len(model.opt_objects)
    for _ in range(30):
        op = rnd.random()
        if op < 0.4 and ne_c:
            alloc.set_comp_local(rnd.randrange(ne_c), rnd.random() < 0.5)
        elif op < 0.7 and ne_o:
            alloc.set_opt_local(rnd.randrange(ne_o), rnd.random() < 0.5)
        elif op < 0.85:
            i = rnd.randrange(model.n_servers)
            alloc.store(i, rnd.randrange(model.n_objects))
        else:
            i = rnd.randrange(model.n_servers)
            if alloc.replicas[i]:
                k = rnd.choice(sorted(alloc.replicas[i]))
                alloc.deallocate(i, k)
    alloc.check_invariants()


@given(models_with_allocations())
@settings(max_examples=40, deadline=None)
def test_deallocate_clears_all_marks(mw):
    model, alloc = mw
    for i in range(model.n_servers):
        for k in sorted(alloc.replicas[i]):
            alloc.deallocate(i, k)
        assert alloc.replicas[i] == set()
    assert not alloc.comp_local.any()
    assert not alloc.opt_local.any()


@given(models_with_allocations())
@settings(max_examples=40, deadline=None)
def test_copy_equality_and_independence(mw):
    model, alloc = mw
    dup = alloc.copy()
    assert dup == alloc
    ne_c = len(model.comp_objects)
    if ne_c:
        dup.set_comp_local(0, not dup.comp_local[0])
        assert dup != alloc


@given(models_with_allocations())
@settings(max_examples=40, deadline=None)
def test_stored_bytes_matches_replica_sum(mw):
    model, alloc = mw
    for i in range(model.n_servers):
        expected = sum(model.objects[k].size for k in alloc.replicas[i])
        assert alloc.stored_bytes(i) == expected


@given(system_models())
@settings(max_examples=40, deadline=None)
def test_matrix_roundtrip(model):
    """Allocation -> MatrixSet -> Allocation is the identity on marks."""
    from repro.core.matrices import MatrixSet
    from repro.core.partition import partition_all

    alloc = partition_all(model)
    back = MatrixSet.from_allocation(alloc).to_allocation(model)
    assert np.array_equal(back.comp_local, alloc.comp_local)
    assert np.array_equal(back.opt_local, alloc.opt_local)


def _brute_counts(alloc: Allocation) -> dict[tuple[int, int], int]:
    """``{(server, object): #entries marking it local}`` from the marks."""
    ctx = alloc.ctx
    counts: dict[tuple[int, int], int] = {}
    for srv, objs, marks in (
        (ctx.comp_server, ctx.comp_objects, alloc.comp_local),
        (ctx.opt_server, ctx.opt_objects, alloc.opt_local),
    ):
        for e in np.flatnonzero(marks).tolist():
            key = (int(srv[e]), int(objs[e]))
            counts[key] = counts.get(key, 0) + 1
    return counts


@given(models_with_allocations(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mark_counts_track_any_edit_sequence(mw, rnd):
    """Scalar and bulk flips (batches on both sides of 256 entries, with
    repeats, unsorted), stores, deallocations and copies, interleaved.

    A twin replays every bulk flip through the scalar setters; the two
    must agree on marks, replicas and counts, and the counts must equal
    a fresh rebuild and a brute-force count over the marks.
    """
    model, alloc = mw
    twin = alloc.copy()
    sizes = {
        "comp": len(model.comp_objects),
        "opt": len(model.opt_objects),
    }
    for _ in range(25):
        op = rnd.random()
        value = rnd.random() < 0.5
        kind = rnd.choice(["comp", "opt"])
        n = sizes[kind]
        if op < 0.25 and n:
            e = rnd.randrange(n)
            getattr(alloc, f"set_{kind}_local")(e, value)
            getattr(twin, f"set_{kind}_local")(e, value)
        elif op < 0.6 and n:
            size = rnd.choice([rnd.randrange(0, 257), rnd.randrange(257, 600)])
            entries = [rnd.randrange(n) for _ in range(size)]
            getattr(alloc, f"set_{kind}_local_bulk")(np.array(entries), value)
            for e in entries:
                getattr(twin, f"set_{kind}_local")(e, value)
        elif op < 0.7:
            i, k = rnd.randrange(model.n_servers), rnd.randrange(model.n_objects)
            alloc.store(i, k)
            twin.store(i, k)
        elif op < 0.85:
            i = rnd.randrange(model.n_servers)
            if alloc.replicas[i]:
                k = rnd.choice(sorted(alloc.replicas[i]))
                assert alloc.deallocate(i, k) == twin.deallocate(i, k)
        else:
            # later edits of the original must not reach the copy
            alloc, old = alloc.copy(), alloc
            twin = twin.copy()
            old.set_comp_local_bulk(np.arange(sizes["comp"]), not value)
    assert alloc == twin
    assert np.array_equal(alloc._mark_counts, twin._mark_counts)
    fresh = Allocation(model, alloc.comp_local, alloc.opt_local)
    assert np.array_equal(alloc._mark_counts, fresh._mark_counts)
    brute = _brute_counts(alloc)
    for i in range(model.n_servers):
        for k in range(model.n_objects):
            assert alloc.mark_count(i, k) == brute.get((i, k), 0)
        assert alloc.unmarked_stored(i) == {
            k for k in alloc.replicas[i] if (i, k) not in brute
        }
    alloc.check_invariants()
