"""Differential shard-identity harness for the sharded policy kernel.

The contract of :mod:`repro.core.shard` is **bit-identity**: for any
model and any valid shard count, ``kernel="sharded"`` must reproduce the
``"batched"`` reference — the same allocation (comp/opt marks *and*
replica sets), the same objectives, the same phase list, the same
restoration statistics and the same off-loading outcome, including every
greedy tie-break at shard boundaries.  These tests are the oracle for
that contract: random small universes with randomly tightened capacity
constraints are run through both kernels and compared field by field.

Shard counts exercised per example: ``1`` (the degenerate single-group
plan), ``2``, ``n_servers`` (one server per shard) and a ragged draw in
between — so group boundaries land on every kind of server split the
planner can produce.

The sharded runs use :class:`~repro.core.shard.InlineShardPool`:
Hypothesis drives hundreds of examples, and the pool-injection seam is
exactly what lets the *reconcile logic* be tested without paying for
process forks.  (Real-subprocess identity is covered once, at fixed
scale, by ``tests/core/test_shard_reconcile.py`` and the benchmark's
identity assertion.)

One sub-contract gets its own differential property on top of the
end-to-end runs: the **shard-local context build** (PARTITION and
optional marking over a :func:`~repro.core.types.restrict_to_servers`
submodel must map back through its global entry maps to the masked
full-model computation, for *any* server subset).  OFF_LOADING needs
none: it runs once, in the parent, on the merged allocation, through
the same code the batched kernel runs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import EvalContext
from repro.core.partition import (
    optional_marks_batched,
    partition_all,
    partition_pages_batched,
)
from repro.core.policy import PolicyResult, RepositoryReplicationPolicy
from repro.core.shard import InlineShardPool, plan_shards
from repro.core.types import restrict_to_servers
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from tests.properties.strategies import system_models


def _assert_bit_identical(
    sharded: PolicyResult, batched: PolicyResult, label: str
) -> None:
    """Every decision-determined field of the two results must match."""
    a, b = sharded.allocation, batched.allocation
    assert np.array_equal(a.comp_local, b.comp_local), label
    assert np.array_equal(a.opt_local, b.opt_local), label
    for i in range(a.model.n_servers):
        assert a.replicas[i] == b.replicas[i], label
    assert sharded.objective == batched.objective, label
    assert (
        sharded.unconstrained_objective == batched.unconstrained_objective
    ), label
    assert sharded.phases_run == batched.phases_run, label
    assert sharded.storage_stats == batched.storage_stats, label
    assert sharded.processing_stats == batched.processing_stats, label
    assert sharded.offload_outcome == batched.offload_outcome, label
    assert sharded.constraints.ok == batched.constraints.ok, label
    a.check_invariants()


def _shard_counts(n_servers: int, data) -> list[int]:
    """1, 2, S and one ragged draw — deduplicated, ascending."""
    counts = {1, n_servers, min(2, n_servers)}
    counts.add(data.draw(st.integers(1, n_servers), label="ragged shards"))
    return sorted(counts)


def _run_all_shardings(model, data, optional_policy: str = "all") -> None:
    batched = RepositoryReplicationPolicy(
        optional_policy=optional_policy
    ).run(model)
    for shards in _shard_counts(model.n_servers, data):
        sharded = RepositoryReplicationPolicy(
            optional_policy=optional_policy,
            kernel="sharded",
            shards=shards,
            pool=InlineShardPool(),
        ).run(model)
        _assert_bit_identical(
            sharded, batched, f"shards={shards} of {model.n_servers}"
        )


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_sharded_identical_unconstrained(model, data):
    """Infinite capacities: the pipeline reduces to pure PARTITION, and
    every sharding of it must scatter back to the same allocation."""
    _run_all_shardings(model, data)


@given(
    system_models(max_servers=4, max_pages=10),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.05, 1.0),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_sharded_identical_constrained(model, sfrac, pfrac, rfrac, data):
    """Randomly tightened storage / processing / repository capacities:
    the restorations run inside shards, off-loading runs in the
    parent on the merged allocation — decisions, stats and tie-breaks must match the reference."""
    ref = partition_all(model)
    m2 = clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, sfrac) + 1.0,
        processing=processing_capacities_for_fraction(model, pfrac, ref) + 1e-9,
        repo_capacity=max(repo_capacity_for_fraction(ref, rfrac), 1e-6),
    )
    _run_all_shardings(m2, data)


@given(system_models(max_servers=4), st.floats(0.0, 1.0), st.data())
@settings(max_examples=25, deadline=None)
def test_sharded_identical_storage_only(model, frac, data):
    """Storage-only pressure with ``optional_policy="none"`` — the
    eviction/re-partition greedy is the most tie-break-sensitive loop."""
    ref = partition_all(model, optional_policy="none")
    m2 = clone_with_capacities(
        model,
        storage=storage_capacities_for_fraction(model, ref, frac) + 1.0,
    )
    _run_all_shardings(m2, data, optional_policy="none")


@given(system_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_plan_shards_partitions_servers(model, data):
    """The shard plan is a true partition of the server set: every
    server in exactly one group, every group non-empty, ids ascending,
    and the plan is deterministic for equal models."""
    shards = data.draw(
        st.integers(1, model.n_servers), label="shard count"
    )
    groups = plan_shards(model, shards)
    assert len(groups) == shards
    seen = [i for g in groups for i in g]
    assert sorted(seen) == list(range(model.n_servers))
    for g in groups:
        assert len(g) >= 1
        assert list(g) == sorted(g)
    assert groups == plan_shards(model, shards)


@given(system_models(max_servers=4, max_pages=10), st.data())
@settings(max_examples=40, deadline=None)
def test_shard_local_context_matches_masked_full(model, data):
    """Shard-local context build: PARTITION and optional marking over a
    ``restrict_to_servers`` submodel and its own context, mapped back
    through the restriction's global entry maps, equal the full-model computation masked to the
    subset's entries — for any non-empty server subset."""
    servers = tuple(
        sorted(
            data.draw(
                st.sets(
                    st.integers(0, model.n_servers - 1), min_size=1
                ),
                label="server subset",
            )
        )
    )
    sub, maps = restrict_to_servers(model, servers)
    ctx = EvalContext.for_model(sub)

    member = np.zeros(model.n_servers, dtype=bool)
    member[list(servers)] = True
    page_member = member[model.page_server]
    comp_member = page_member[model.comp_pages]
    opt_member = page_member[model.opt_pages]

    assert sub.n_servers == len(servers)
    assert sub.n_pages == int(page_member.sum())
    np.testing.assert_array_equal(
        maps["comp_entries"], np.flatnonzero(comp_member)
    )
    np.testing.assert_array_equal(
        maps["opt_entries"], np.flatnonzero(opt_member)
    )
    full_ctx = EvalContext.for_model(model)
    for li, gi in enumerate(maps["servers"]):
        np.testing.assert_array_equal(
            maps["comp_entries"][ctx.comp_group(li)[0]],
            full_ctx.comp_group(int(gi))[0],
        )

    full_marks, _, _, _ = partition_pages_batched(
        model, page_ids=np.flatnonzero(page_member)
    )
    sub_marks, _, _, _ = partition_pages_batched(sub)
    got = np.zeros(len(model.comp_objects), dtype=bool)
    got[maps["comp_entries"][sub_marks]] = True
    np.testing.assert_array_equal(got, full_marks)

    full_opt = optional_marks_batched(model, "beneficial") & opt_member
    sub_opt = optional_marks_batched(sub, "beneficial")
    got_opt = np.zeros(len(model.opt_objects), dtype=bool)
    got_opt[maps["opt_entries"][sub_opt]] = True
    np.testing.assert_array_equal(got_opt, full_opt)
