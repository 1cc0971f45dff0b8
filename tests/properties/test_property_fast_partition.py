"""Differential-oracle property tests for the batched PARTITION kernel.

The scalar greedy (:func:`repro.core.partition.partition_page`) is the
reference oracle; the batched kernel
(:func:`repro.core.partition.partition_pages_batched`) must reproduce
its marks, streams and stream times **bit-exactly** — assertions below
use ``==`` on floats and ``array_equal`` on marks, no tolerances — for
every page, every ``SortOrder``, arbitrary ``allowed`` whitelists, and
every optional policy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    optional_marks_batched,
    partition_all,
    partition_page,
    partition_pages_batched,
)
from tests.oracles.optional_marks import optional_marks
from tests.oracles.scalar_greedy import partition_all_scalar
from tests.properties.strategies import system_models

ORDERS = ("decreasing", "increasing", "document")


def assert_batch_matches_oracle(model, order, allowed_per_server=None):
    """Bit-exact comparison of the batch kernel against the scalar oracle.

    ``allowed_per_server`` whitelists become the kernel's per-entry
    ``allowed_mask``; a missing server key allows nothing on its pages.
    """
    mask = None
    if allowed_per_server is not None:
        mask = np.array(
            [
                int(k) in allowed_per_server.get(int(i), ())
                for i, k in zip(
                    model.page_server[model.comp_pages], model.comp_objects
                )
            ],
            dtype=bool,
        )
    marks, streams, local_t, stream_t = partition_pages_batched(
        model, allowed_mask=mask, order=order
    )
    for j in range(model.n_pages):
        allowed = (
            None
            if allowed_per_server is None
            else allowed_per_server.get(model.pages[j].server, ())
        )
        ref_marks, ref_streams, ref_lt, ref_st = partition_page(
            model, j, allowed, order=order
        )
        sl = model.comp_slice(j)
        assert np.array_equal(marks[sl], ref_marks), f"page {j} marks diverge"
        assert np.array_equal(streams[sl], ref_streams), f"page {j} streams diverge"
        assert local_t[j] == ref_lt, f"page {j} local time diverges"
        assert stream_t[:, j].tolist() == ref_st, f"page {j} remote times diverge"


@given(system_models(), st.sampled_from(ORDERS))
@settings(max_examples=60, deadline=None)
def test_batched_matches_scalar_unrestricted(model, order):
    assert_batch_matches_oracle(model, order)


@given(system_models(), st.sampled_from(ORDERS), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_matches_scalar_with_whitelists(model, order, data):
    allowed_per_server = {}
    for i in range(model.n_servers):
        # a random subset per server; servers may be missing entirely
        # (a missing key means "nothing allowed")
        if data.draw(st.booleans(), label=f"server {i} present"):
            allowed_per_server[i] = data.draw(
                st.sets(st.integers(0, model.n_objects - 1)),
                label=f"server {i} whitelist",
            )
    assert_batch_matches_oracle(model, order, allowed_per_server)


@given(system_models(), st.sampled_from(("all", "beneficial", "none")))
@settings(max_examples=60, deadline=None)
def test_optional_marks_batched_matches_scalar(model, policy):
    batched = optional_marks_batched(model, policy)
    for j in range(model.n_pages):
        ref = optional_marks(model, j, policy)
        assert np.array_equal(batched[model.opt_slice(j)], ref)


@given(
    system_models(),
    st.sampled_from(ORDERS),
    st.sampled_from(("all", "beneficial", "none")),
)
@settings(max_examples=40, deadline=None)
def test_partition_all_kernels_build_equal_allocations(model, order, policy):
    """Marks, replica sets, and mark-count bookkeeping all coincide."""
    scalar = partition_all_scalar(model, optional_policy=policy, order=order)
    batched = partition_all(model, optional_policy=policy, order=order)
    assert scalar == batched
    assert np.array_equal(scalar._mark_counts, batched._mark_counts)
    batched.check_invariants()


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_page_subset_matches_full_run(model, data):
    """Partitioning a subset of pages yields the same per-page output as
    the full batch (pages are independent under PARTITION)."""
    subset = data.draw(
        st.lists(
            st.integers(0, model.n_pages - 1), unique=True, min_size=0
        ),
        label="page subset",
    )
    full_marks, full_streams, full_lt, full_st = partition_pages_batched(model)
    sub_marks, sub_streams, sub_lt, sub_st = partition_pages_batched(
        model, page_ids=np.asarray(subset, dtype=np.intp)
    )
    for pos, j in enumerate(subset):
        sl = model.comp_slice(j)
        assert np.array_equal(sub_marks[sl], full_marks[sl])
        assert np.array_equal(sub_streams[sl], full_streams[sl])
        assert sub_lt[pos] == full_lt[j]
        assert np.array_equal(sub_st[:, pos], full_st[:, j])
    # entries of unselected pages stay untouched
    selected = np.zeros(len(model.comp_objects), dtype=bool)
    for j in subset:
        selected[model.comp_slice(j)] = True
    assert not sub_marks[~selected].any()
