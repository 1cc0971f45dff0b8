"""Shard-local context construction: :func:`repro.core.types.restrict_to_servers`
and ``EvalContext.for_model`` over the submodel it returns.

The sharded kernel's workers build their derived state over a
*restricted* model instead of masking a full-model context.  Identity
rests on the restriction preserving order everywhere: objects keep
their global ids, pages/entries are renumbered by strictly increasing
maps, and the pre-sorted ``comp_sorted`` permutation is filtered, not
re-sorted.  These tests pin that contract column by column, plus the
validation around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import EvalContext
from repro.core.partition import optional_marks_batched, partition_pages_batched
from repro.core.types import (
    ColumnarModel,
    MODEL_COLUMN_FIELDS,
    restrict_to_servers,
)
from repro.workload import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def model():
    # small scale: 4 servers, enough for non-trivial subsets
    return generate_workload(WorkloadParams.small(), seed=5)


def _member_masks(model, servers):
    member = np.zeros(model.n_servers, dtype=bool)
    member[list(servers)] = True
    page_member = member[model.page_server]
    comp_member = page_member[model.comp_pages]
    opt_member = page_member[model.opt_pages]
    return page_member, comp_member, opt_member


class TestRestrictToServers:
    def test_maps_are_ascending_global_ids(self, model):
        servers = (0, 2, 3)
        sub, maps = restrict_to_servers(model, servers)
        page_member, comp_member, opt_member = _member_masks(model, servers)
        np.testing.assert_array_equal(maps["servers"], np.asarray(servers))
        np.testing.assert_array_equal(maps["pages"], np.flatnonzero(page_member))
        np.testing.assert_array_equal(
            maps["comp_entries"], np.flatnonzero(comp_member)
        )
        np.testing.assert_array_equal(
            maps["opt_entries"], np.flatnonzero(opt_member)
        )
        assert sub.n_pages == int(page_member.sum())
        assert sub.n_servers == len(servers)
        assert sub.n_objects == model.n_objects  # objects stay global

    def test_columns_equal_masked_full_columns(self, model):
        servers = (1, 3)
        sub, maps = restrict_to_servers(model, servers)
        comp_sel = maps["comp_entries"]
        opt_sel = maps["opt_entries"]
        pages_sel = maps["pages"]
        # object ids are global in both — direct comparison
        np.testing.assert_array_equal(
            sub.comp_objects, model.comp_objects[comp_sel]
        )
        np.testing.assert_array_equal(
            sub.opt_objects, model.opt_objects[opt_sel]
        )
        np.testing.assert_array_equal(sub.opt_probs, model.opt_probs[opt_sel])
        np.testing.assert_array_equal(
            sub.frequencies, model.frequencies[pages_sel]
        )
        np.testing.assert_array_equal(
            sub.html_sizes, model.html_sizes[pages_sel]
        )
        # per-server arrays: slice by the kept servers
        srvs = np.asarray(servers)
        np.testing.assert_array_equal(sub.server_rate, model.server_rate[srvs])
        np.testing.assert_array_equal(
            sub.server_storage, model.server_storage[srvs]
        )
        # sizes shared by reference, not copied
        assert sub.sizes is model.sizes

    def test_comp_sorted_is_filtered_not_resorted(self, model):
        servers = (0, 1)
        sub, maps = restrict_to_servers(model, servers)
        _, comp_member, _ = _member_masks(model, servers)
        g2l = np.cumsum(comp_member) - 1  # local index of each kept entry
        kept_global_order = model.comp_sorted[comp_member[model.comp_sorted]]
        np.testing.assert_array_equal(sub.comp_sorted, g2l[kept_global_order])

    def test_validation(self, model):
        with pytest.raises(ValueError):
            restrict_to_servers(model, ())
        with pytest.raises(ValueError):
            restrict_to_servers(model, (2, 1))  # not strictly increasing
        with pytest.raises(ValueError):
            restrict_to_servers(model, (0, 0))  # duplicate
        with pytest.raises(ValueError):
            restrict_to_servers(model, (0, model.n_servers))  # out of range

    def test_full_subset_is_faithful(self, model):
        sub, maps = restrict_to_servers(model, tuple(range(model.n_servers)))
        for name in MODEL_COLUMN_FIELDS:
            np.testing.assert_array_equal(
                getattr(sub, name), getattr(model, name), err_msg=name
            )


class TestColumnarModel:
    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError):
            ColumnarModel([], None, [], [])

    def test_lazy_specs_round_trip(self, model):
        servers = (0, 2)
        sub, maps = restrict_to_servers(model, servers)
        for li, gi in enumerate(maps["servers"]):
            orig = model.servers[int(gi)]
            lazy = sub.servers[li]
            assert lazy.rate == orig.rate
            assert lazy.storage_capacity == orig.storage_capacity
            assert lazy.processing_capacity == orig.processing_capacity
        for lj, gj in enumerate(maps["pages"]):
            orig = model.pages[int(gj)]
            lazy = sub.pages[lj]
            assert lazy.compulsory == orig.compulsory
            assert lazy.optional == orig.optional
            assert lazy.frequency == orig.frequency
            assert lazy.optional_prob == orig.optional_prob

    def test_pages_by_server_matches_page_server_column(self, model):
        sub, _ = restrict_to_servers(model, (1, 2))
        for li in range(sub.n_servers):
            expected = sorted(np.flatnonzero(sub.page_server == li).tolist())
            assert sorted(sub.pages_by_server[li]) == expected


class TestForServers:
    """A server subset's submodel and its own context, mapped back to
    global ids through ``restrict_to_servers``'s maps — the shard
    worker's view of the model."""

    def test_partition_identity_through_global_maps(self, model):
        servers = (0, 3)
        sub, maps = restrict_to_servers(model, servers)
        assert EvalContext.for_model(sub).n_pages == sub.n_pages
        page_member, comp_member, _ = _member_masks(model, servers)
        full_marks, _, _, _ = partition_pages_batched(
            model, page_ids=np.flatnonzero(page_member)
        )
        sub_marks, _, _, _ = partition_pages_batched(sub)
        got = np.zeros(len(model.comp_objects), dtype=bool)
        got[maps["comp_entries"][sub_marks]] = True
        np.testing.assert_array_equal(got, full_marks)

    def test_optional_marks_identity(self, model):
        servers = (0, 1, 2)
        sub, maps = restrict_to_servers(model, servers)
        _, _, opt_member = _member_masks(model, servers)
        full = optional_marks_batched(model, "beneficial") & opt_member
        sub_opt = optional_marks_batched(sub, "beneficial")
        got = np.zeros(len(model.opt_objects), dtype=bool)
        got[maps["opt_entries"][sub_opt]] = True
        np.testing.assert_array_equal(got, full)

    def test_single_server_entry_order_matches_argsort_grouping(self, model):
        """Restriction preserves entry order: a one-server restriction's
        global entry map equals the server's ascending flat entry ids,
        and its context's per-server CSR group lists the same entries
        as the full context's group, in the same order."""
        full = EvalContext.for_model(model)
        for i in range(model.n_servers):
            sub, maps = restrict_to_servers(model, (i,))
            np.testing.assert_array_equal(
                maps["comp_entries"],
                np.flatnonzero(full.comp_server == i),
            )
            np.testing.assert_array_equal(
                maps["opt_entries"],
                np.flatnonzero(full.opt_server == i),
            )
            ctx = EvalContext.for_model(sub)
            np.testing.assert_array_equal(
                maps["comp_entries"][ctx.comp_group(0)[0]],
                full.comp_group(i)[0],
            )
            np.testing.assert_array_equal(
                maps["opt_entries"][ctx.opt_group(0)[0]],
                full.opt_group(i)[0],
            )
