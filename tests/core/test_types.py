"""Tests for repro.core.types — the system universe."""

import math

import numpy as np
import pytest

from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from tests.conftest import build_micro_model


class TestObjectSpec:
    def test_valid(self):
        o = ObjectSpec(object_id=3, size=100)
        assert o.size == 100

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            ObjectSpec(object_id=0, size=0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="object_id"):
            ObjectSpec(object_id=-1, size=10)

    @pytest.mark.parametrize("size", [100, 100.0, np.int64(100), np.float64(7.0)])
    def test_whole_sizes_accepted(self, size):
        assert ObjectSpec(object_id=0, size=size).size == size

    @pytest.mark.parametrize("size", [1.5, 100.25, math.inf, math.nan])
    def test_fractional_size_rejected(self, size):
        with pytest.raises(ValueError, match="whole number of bytes"):
            ObjectSpec(object_id=0, size=size)


class TestPageSpec:
    def test_counts(self):
        p = PageSpec(0, 0, 100, 1.0, compulsory=(1, 2), optional=(3,))
        assert p.n_compulsory == 2
        assert p.n_optional == 1

    def test_duplicate_compulsory_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PageSpec(0, 0, 100, 1.0, compulsory=(1, 1))

    def test_duplicate_optional_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PageSpec(0, 0, 100, 1.0, optional=(2, 2))

    def test_overlap_rejected(self):
        # the paper: U'_jk = 0 whenever U_jk = 1
        with pytest.raises(ValueError, match="both"):
            PageSpec(0, 0, 100, 1.0, compulsory=(1,), optional=(1,))

    def test_bad_optional_prob(self):
        with pytest.raises(ValueError, match="optional_prob"):
            PageSpec(0, 0, 100, 1.0, optional_prob=1.5)

    def test_zero_html_rejected(self):
        with pytest.raises(ValueError, match="html_size"):
            PageSpec(0, 0, 0, 1.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            PageSpec(0, 0, 100, -1.0)


class TestServerSpec:
    def test_spb_properties(self):
        s = ServerSpec(0, 1000, 10, rate=10.0, overhead=1.0, repo_rate=2.0, repo_overhead=2.0)
        assert s.spb == pytest.approx(0.1)
        assert s.repo_spb == pytest.approx(0.5)

    def test_infinite_capacities_allowed(self):
        s = ServerSpec(
            0, math.inf, math.inf, rate=1.0, overhead=0.0, repo_rate=1.0, repo_overhead=0.0
        )
        assert math.isinf(s.storage_capacity)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ServerSpec(0, 1, 1, rate=0.0, overhead=1.0, repo_rate=1.0, repo_overhead=1.0)

    def test_zero_processing_rejected(self):
        with pytest.raises(ValueError, match="processing"):
            ServerSpec(0, 1, 0.0, rate=1.0, overhead=1.0, repo_rate=1.0, repo_overhead=1.0)


class TestRepositorySpec:
    def test_default_infinite(self):
        assert math.isinf(RepositorySpec().processing_capacity)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            RepositorySpec(processing_capacity=0.0)


class TestSystemModel:
    def test_dimensions(self, micro_model):
        assert micro_model.n_servers == 2
        assert micro_model.n_pages == 4
        assert micro_model.n_objects == 6

    def test_flat_compulsory_layout(self, micro_model):
        # pages have 2, 1, 2, 3 compulsory objects
        assert micro_model.comp_indptr.tolist() == [0, 2, 3, 5, 8]
        assert micro_model.comp_objects.tolist() == [0, 1, 2, 1, 3, 0, 2, 3]
        assert micro_model.comp_pages.tolist() == [0, 0, 1, 2, 2, 3, 3, 3]

    def test_flat_optional_layout(self, micro_model):
        assert micro_model.opt_indptr.tolist() == [0, 1, 1, 2, 2]
        assert micro_model.opt_objects.tolist() == [4, 5]
        assert micro_model.opt_probs.tolist() == [0.1, 0.2]

    def test_pages_by_server(self, micro_model):
        assert micro_model.pages_by_server == ((0, 1), (2, 3))

    def test_comp_slice(self, micro_model):
        sl = micro_model.comp_slice(3)
        assert micro_model.comp_objects[sl].tolist() == [0, 2, 3]

    def test_comp_sorted_decreasing_size(self, micro_model):
        # page 3: objects 0 (100), 2 (300), 3 (400) -> sorted 3, 2, 0
        sl = micro_model.comp_slice(3)
        order = micro_model.comp_sorted[sl.start : sl.stop]
        sizes = micro_model.sizes[micro_model.comp_objects[order]]
        assert sizes.tolist() == [400.0, 300.0, 100.0]

    def test_comp_sorted_grouped_by_page(self, micro_model):
        pages = micro_model.comp_pages[micro_model.comp_sorted]
        assert pages.tolist() == sorted(pages.tolist())

    def test_fast_comp_cached(self, micro_model):
        a = micro_model.fast_comp
        b = micro_model.fast_comp
        assert a is b

    def test_html_bytes_by_server(self, micro_model):
        assert micro_model.html_bytes_by_server().tolist() == [300.0, 400.0]

    def test_objects_referenced_by_server(self, micro_model):
        assert micro_model.objects_referenced_by_server(0) == {0, 1, 2, 4}
        assert micro_model.objects_referenced_by_server(1) == {0, 1, 2, 3, 5}

    def test_total_object_bytes(self, micro_model):
        assert micro_model.total_object_bytes() == 100 + 200 + 300 + 400 + 50 + 60

    def test_unordered_servers_rejected(self, micro_model):
        servers = list(micro_model.servers)[::-1]
        with pytest.raises(ValueError, match="ordered"):
            SystemModel(
                servers,
                micro_model.repository,
                micro_model.pages,
                micro_model.objects,
            )

    def test_unordered_pages_rejected(self, micro_model):
        pages = list(micro_model.pages)[::-1]
        with pytest.raises(ValueError, match="ordered"):
            SystemModel(
                micro_model.servers,
                micro_model.repository,
                pages,
                micro_model.objects,
            )

    def test_bad_server_reference_rejected(self, micro_model):
        pages = list(micro_model.pages) + [
            PageSpec(4, 9, 100, 1.0, compulsory=(0,))
        ]
        with pytest.raises(ValueError, match="server"):
            SystemModel(
                micro_model.servers,
                micro_model.repository,
                pages,
                micro_model.objects,
            )

    def test_bad_object_reference_rejected(self, micro_model):
        pages = list(micro_model.pages) + [
            PageSpec(4, 0, 100, 1.0, compulsory=(99,))
        ]
        with pytest.raises(ValueError, match="object"):
            SystemModel(
                micro_model.servers,
                micro_model.repository,
                pages,
                micro_model.objects,
            )

    def test_empty_pages_allowed(self):
        m = SystemModel(
            [
                ServerSpec(
                    0, math.inf, math.inf, rate=1.0, overhead=0.0,
                    repo_rate=1.0, repo_overhead=0.0,
                )
            ],
            RepositorySpec(),
            [],
            [ObjectSpec(0, 10)],
        )
        assert m.n_pages == 0
        assert len(m.comp_objects) == 0

    def test_total_bytes_below_2_pow_53(self):
        server = ServerSpec(
            0, math.inf, math.inf, rate=1.0, overhead=0.0,
            repo_rate=1.0, repo_overhead=0.0,
        )
        half = 2**52
        below = [ObjectSpec(0, half - 1), ObjectSpec(1, half)]
        assert SystemModel([server], RepositorySpec(), [], below).n_objects == 2
        at = [ObjectSpec(0, half), ObjectSpec(1, half)]
        with pytest.raises(ValueError, match="2\\*\\*53"):
            SystemModel([server], RepositorySpec(), [], at)

    def test_capacity_arrays(self):
        m = build_micro_model(storage=(1000.0, 2000.0), processing=(50.0, 60.0))
        assert m.server_storage.tolist() == [1000.0, 2000.0]
        assert m.server_capacity.tolist() == [50.0, 60.0]
