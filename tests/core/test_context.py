"""Tests for repro.core.context: EvalContext and its per-model cache."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.context import (
    EvalContext,
    adopt_frequency_context,
    is_frequency_clone,
    rebuild_contexts,
    resolve_kernel,
)
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.types import PageSpec, SystemModel
from repro.dynamic.drift import replace_frequencies
from tests.conftest import build_micro_model
from tests.properties.strategies import system_models


def freq_clone(model: SystemModel, frequencies) -> SystemModel:
    """A structural clone of ``model`` with new page frequencies (the
    core-level equivalent of ``repro.dynamic.drift.replace_frequencies``,
    without the automatic context adoption)."""
    pages = [
        PageSpec(
            page_id=p.page_id,
            server=p.server,
            html_size=p.html_size,
            frequency=float(frequencies[j]),
            compulsory=p.compulsory,
            optional=p.optional,
            optional_prob=p.optional_prob,
            optional_rate_scale=p.optional_rate_scale,
        )
        for j, p in enumerate(model.pages)
    ]
    return SystemModel(model.servers, model.repository, pages, model.objects)


class TestResolveKernel:
    def test_default(self):
        assert resolve_kernel(None) == "batched"

    def test_explicit(self):
        assert resolve_kernel("sharded") == "sharded"
        assert resolve_kernel(" Batched ") == "batched"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("simd")

    def test_scalar_retired(self):
        """The scalar loops are test oracles, not a kernel choice."""
        with pytest.raises(ValueError, match=r"batched\|sharded, got 'scalar'"):
            resolve_kernel("scalar")


class TestCaching:
    def test_for_model_cached(self, micro_model):
        a = EvalContext.for_model(micro_model)
        b = EvalContext.for_model(micro_model)
        assert a is b

    def test_rebuild_contexts_disables_cache(self, micro_model):
        cached = EvalContext.for_model(micro_model)
        with rebuild_contexts():
            fresh = EvalContext.for_model(micro_model)
            assert fresh is not cached
        assert EvalContext.for_model(micro_model) is cached


class TestColumns:
    def test_entry_columns_match_model_gathers(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(ctx.comp_server, m.page_server[m.comp_pages])
        assert np.array_equal(ctx.comp_sizes, m.sizes[m.comp_objects])
        assert np.array_equal(ctx.comp_freq, m.frequencies[m.comp_pages])
        assert np.array_equal(ctx.opt_sizes, m.sizes[m.opt_objects])
        assert np.array_equal(
            ctx.opt_freq_weight,
            (m.frequencies[m.opt_pages] * m.optional_rate_scale[m.opt_pages])
            * m.opt_probs,
        )

    def test_per_server_fixed_terms(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(ctx.html_bytes_by_server, m.html_bytes_by_server())

    def test_groups_match_reverse_index(self, micro_model):
        """Each group is the (server, object) reverse lookup: the
        entries of the server's pages that reference the object, in
        ascending entry order."""
        m = micro_model
        ctx = EvalContext.for_model(m)
        for i in range(m.n_servers):
            for group, server, objects in (
                (ctx.comp_group(i), ctx.comp_server, ctx.comp_objects),
                (ctx.opt_group(i), ctx.opt_server, ctx.opt_objects),
            ):
                entries, starts, counts = group
                for k in range(m.n_objects):
                    want = np.flatnonzero((server == i) & (objects == k))
                    got = entries[starts[k] : starts[k] + counts[k]]
                    assert got.tolist() == want.tolist()

    def test_pair_table_covers_every_entry(self, micro_model):
        m = micro_model
        ctx = EvalContext.for_model(m)
        assert np.array_equal(
            ctx.pair_server[ctx.comp_pair], ctx.comp_server
        )
        assert np.array_equal(
            ctx.pair_object[ctx.comp_pair], m.comp_objects
        )
        assert np.array_equal(ctx.pair_server[ctx.opt_pair], ctx.opt_server)
        assert np.array_equal(ctx.pair_object[ctx.opt_pair], m.opt_objects)


class TestIsFrequencyClone:
    def test_same_instance(self, micro_model):
        assert is_frequency_clone(micro_model, micro_model)

    def test_frequency_clone_accepted(self, micro_model):
        clone = freq_clone(micro_model, [9.0, 8.0, 7.0, 6.0])
        assert is_frequency_clone(micro_model, clone)
        assert is_frequency_clone(clone, micro_model)

    def test_structural_change_detected(self, micro_model, tiny_model):
        assert not is_frequency_clone(micro_model, tiny_model)

    def test_capacity_change_detected(self, micro_model):
        from tests.conftest import build_micro_model

        tighter = build_micro_model(storage=(700.0, 900.0))
        assert not is_frequency_clone(micro_model, tighter)


class TestAdoptFrequencyContext:
    def test_structural_columns_shared_by_reference(self, micro_model):
        base_ctx = EvalContext.for_model(micro_model)
        clone = freq_clone(micro_model, [9.0, 8.0, 7.0, 6.0])
        assert adopt_frequency_context(micro_model, clone)
        ctx = EvalContext.for_model(clone)
        assert ctx is not base_ctx
        # structural columns transfer by reference — no rebuild
        assert ctx.comp_sizes is base_ctx.comp_sizes
        assert ctx.opt_sizes is base_ctx.opt_sizes
        assert ctx.pair_indptr is base_ctx.pair_indptr
        assert ctx.page_server is base_ctx.page_server
        # frequency columns are fresh arrays bound to the clone
        assert ctx.frequencies is clone.frequencies
        assert ctx.comp_freq is not base_ctx.comp_freq

    def test_refreshed_columns_bit_identical_to_fresh_build(self, micro_model):
        new_f = [9.0, 8.0, 7.0, 6.0]
        EvalContext.for_model(micro_model)
        adopted = freq_clone(micro_model, new_f)
        adopt_frequency_context(micro_model, adopted)
        fresh = freq_clone(micro_model, new_f)  # no adoption: full build
        ctx_a = EvalContext.for_model(adopted)
        ctx_f = EvalContext.for_model(fresh)
        for col in (
            "frequencies",
            "comp_freq",
            "opt_freq_weight",
            "html_request_load",
        ):
            assert np.array_equal(getattr(ctx_a, col), getattr(ctx_f, col)), col

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_adoption_bit_identical_property(self, data):
        """For any universe and any new frequency vector, the adopted
        (refreshed) context equals a from-scratch build exactly."""
        model = data.draw(system_models())
        EvalContext.for_model(model)
        new_f = data.draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False),
                min_size=model.n_pages,
                max_size=model.n_pages,
            )
        )
        adopted = freq_clone(model, new_f)
        adopt_frequency_context(model, adopted)
        fresh = freq_clone(model, new_f)
        ctx_a = EvalContext.for_model(adopted)
        ctx_f = EvalContext.for_model(fresh)
        for col in (
            "frequencies",
            "comp_freq",
            "opt_freq_weight",
            "html_request_load",
        ):
            assert np.array_equal(getattr(ctx_a, col), getattr(ctx_f, col)), col

    def test_structural_mismatch_rejected(self, micro_model, tiny_model):
        with pytest.raises(ValueError, match="frequency-only clone"):
            adopt_frequency_context(micro_model, tiny_model)

    def test_no_cached_context_returns_false(self, micro_model):
        clone = freq_clone(micro_model, [1.0, 1.0, 1.0, 1.0])
        assert not adopt_frequency_context(micro_model, clone)

    def test_existing_context_kept(self, micro_model):
        EvalContext.for_model(micro_model)
        clone = freq_clone(micro_model, [1.0, 1.0, 1.0, 1.0])
        own = EvalContext.for_model(clone)  # clone builds its own first
        assert not adopt_frequency_context(micro_model, clone)
        assert EvalContext.for_model(clone) is own


class TestRelease:
    def test_models_freed_by_refcount_alone(self):
        """With the cyclic gc off, dropping a model, its context, a cost
        model, an allocation and a frequency clone frees both models:
        nothing derived from a model refers back to it."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = build_micro_model()
            EvalContext.for_model(model)
            cost = CostModel(model)
            alloc = partition_all(model)
            clone = replace_frequencies(model, model.frequencies[::-1])
            assert EvalContext.for_model(clone) is not EvalContext.for_model(model)
            assert cost.D(alloc) > 0
            refs = [weakref.ref(model), weakref.ref(clone)]
            del model, cost, alloc, clone
            assert [r() for r in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()
