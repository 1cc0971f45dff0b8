"""Tests for repro.core.cost_model — exact Eq. 3-7 arithmetic.

All expectations are hand-computed on the micro model (see
``tests/conftest.py`` for its round-number attributes).
"""

import numpy as np
import pytest

from repro.baselines.local import LocalPolicy
from repro.baselines.remote import RemotePolicy
from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from tests.oracles.scalar_greedy import (
    optional_entry_delta,
    page_time_from_stream_bytes,
)


@pytest.fixture
def remote_alloc(micro_model):
    return RemotePolicy().allocate(micro_model)


@pytest.fixture
def local_alloc(micro_model):
    return LocalPolicy().allocate(micro_model)


class TestStreamTimes:
    def test_all_remote_page_times(self, micro_cost, remote_alloc):
        t = micro_cost.page_times(remote_alloc)
        # page 0 @S0: local = 1 + 0.1*100 = 11 ; remote = 2 + 0.5*300 = 152
        assert t.local[0] == pytest.approx(11.0)
        assert t.remote[0] == pytest.approx(152.0)
        assert t.page[0] == pytest.approx(152.0)
        # page 2 @S1: local = 1.5 + 0.2*100 = 21.5 ; remote = 2.5 + 600 = 602.5
        assert t.local[2] == pytest.approx(21.5)
        assert t.remote[2] == pytest.approx(602.5)
        # page 3 @S1: remote = 2.5 + (100+300+400) = 802.5
        assert t.remote[3] == pytest.approx(802.5)

    def test_all_local_page_times(self, micro_cost, local_alloc):
        t = micro_cost.page_times(local_alloc)
        # page 0: local = 1 + 0.1*(100+300) = 41 ; remote = Ovhd only = 2
        assert t.local[0] == pytest.approx(41.0)
        assert t.remote[0] == pytest.approx(2.0)
        assert t.page[0] == pytest.approx(41.0)
        # page 3: local = 1.5 + 0.2*(300+800) = 221.5
        assert t.local[3] == pytest.approx(221.5)

    def test_max_is_elementwise(self, micro_cost, remote_alloc):
        t = micro_cost.page_times(remote_alloc)
        assert np.array_equal(t.page, np.maximum(t.local, t.remote))

    def test_byte_aggregation(self, micro_cost, micro_model, local_alloc):
        lb = micro_cost.local_mo_bytes(local_alloc)
        (rb,) = micro_cost.remote_mo_bytes_by_stream(local_alloc)
        assert lb.tolist() == [300.0, 300.0, 600.0, 800.0]
        assert rb.tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("alloc", ["remote_alloc", "local_alloc"])
    def test_byte_totals_are_float(self, micro_cost, alloc, request):
        # all-remote leaves no local entry and all-local no remote one:
        # ``np.bincount`` of an empty selection is integer-typed
        alloc = request.getfixturevalue(alloc)
        assert micro_cost.local_mo_bytes(alloc).dtype == np.float64
        for rb in micro_cost.remote_mo_bytes_by_stream(alloc):
            assert rb.dtype == np.float64


class TestOptionalTimes:
    def test_all_remote(self, micro_cost, remote_alloc):
        opt = micro_cost.optional_times(remote_alloc)
        # page 0: 0.1 * (2 + 0.5*50) = 2.7 ; page 2: 0.2 * (2.5 + 60) = 12.5
        assert opt[0] == pytest.approx(2.7)
        assert opt[2] == pytest.approx(12.5)
        assert opt[1] == 0.0 and opt[3] == 0.0

    def test_all_local(self, micro_cost, local_alloc):
        opt = micro_cost.optional_times(local_alloc)
        # page 0: 0.1 * (1 + 0.1*50) = 0.6 ; page 2: 0.2 * (1.5 + 0.2*60) = 2.7
        assert opt[0] == pytest.approx(0.6)
        assert opt[2] == pytest.approx(2.7)


class TestObjectives:
    def test_d1_all_remote(self, micro_cost, remote_alloc):
        # 1*152 + 2*152 + 0.5*602.5 + 1*802.5
        assert micro_cost.D1(remote_alloc) == pytest.approx(1559.75)

    def test_d2_all_remote(self, micro_cost, remote_alloc):
        assert micro_cost.D2(remote_alloc) == pytest.approx(8.95)

    def test_d_all_remote(self, micro_cost, remote_alloc):
        assert micro_cost.D(remote_alloc) == pytest.approx(2 * 1559.75 + 8.95)

    def test_d_all_local(self, micro_cost, local_alloc):
        # D1 = 41 + 102 + 70.75 + 221.5 = 435.25 ; D2 = 0.6 + 1.35 = 1.95
        assert micro_cost.D(local_alloc) == pytest.approx(2 * 435.25 + 1.95)

    def test_objective_from_times_matches(self, micro_cost, local_alloc):
        times = micro_cost.page_times(local_alloc)
        assert micro_cost.objective_from_times(times) == pytest.approx(
            micro_cost.D(local_alloc)
        )

    def test_weights_scale(self, micro_model, remote_alloc):
        c1 = CostModel(micro_model, alpha1=1.0, alpha2=1.0)
        c2 = CostModel(micro_model, alpha1=3.0, alpha2=1.0)
        d1 = c1.D1(remote_alloc)
        assert c2.D(remote_alloc) == pytest.approx(c1.D(remote_alloc) + 2 * d1)

    def test_bad_weights_rejected(self, micro_model):
        with pytest.raises(ValueError, match="positive"):
            CostModel(micro_model, alpha1=0.0)
        with pytest.raises(ValueError, match="positive"):
            CostModel(micro_model, alpha2=-1.0)


class TestScalarHelpers:
    def test_page_time_from_stream_bytes_matches_vectorised(
        self, micro_cost, local_alloc
    ):
        t = micro_cost.page_times(local_alloc)
        lb = micro_cost.local_mo_bytes(local_alloc)
        rbs = micro_cost.remote_mo_bytes_by_stream(local_alloc)
        for j in range(4):
            assert page_time_from_stream_bytes(
                micro_cost, j, lb[j], [rb[j] for rb in rbs]
            ) == pytest.approx(t.page[j])

    def test_optional_entry_delta_signs(self, micro_cost):
        # Moving optional entry 0 (page 0, object 4) to local:
        # alpha2 * f * U' * (t_local - t_repo) = 1 * 1 * 0.1 * (6 - 27) = -2.1
        assert optional_entry_delta(
            micro_cost, 0, to_local=True
        ) == pytest.approx(-2.1)
        assert optional_entry_delta(
            micro_cost, 0, to_local=False
        ) == pytest.approx(2.1)

    def test_scalars_cached(self, micro_cost):
        assert micro_cost.scalars is micro_cost.scalars


class TestConsistencyOnGenerated(object):
    def test_partial_allocation_consistency(self, small_model):
        """Vectorised D equals a literal per-page Python transcription."""
        rng = np.random.default_rng(0)
        cost = CostModel(small_model)
        alloc = Allocation(small_model)
        for e in range(len(small_model.comp_objects)):
            if rng.random() < 0.5:
                alloc.set_comp_local(e, True)
        for e in range(len(small_model.opt_objects)):
            if rng.random() < 0.5:
                alloc.set_opt_local(e, True)

        m = small_model
        d1 = 0.0
        d2 = 0.0
        for j, page in enumerate(m.pages):
            srv = m.servers[page.server]
            marks = alloc.page_comp_marks(j)
            lb = sum(
                m.objects[k].size for k, mk in zip(page.compulsory, marks) if mk
            )
            rb = sum(
                m.objects[k].size
                for k, mk in zip(page.compulsory, marks)
                if not mk
            )
            tl = srv.overhead + srv.spb * (page.html_size + lb)
            tr = srv.repo_overhead + srv.repo_spb * rb
            d1 += page.frequency * max(tl, tr)
            omarks = alloc.page_opt_marks(j)
            ot = 0.0
            for k, mk in zip(page.optional, omarks):
                size = m.objects[k].size
                if mk:
                    ot += page.optional_prob * (srv.overhead + srv.spb * size)
                else:
                    ot += page.optional_prob * (
                        srv.repo_overhead + srv.repo_spb * size
                    )
            d2 += page.frequency * page.optional_rate_scale * ot
        assert cost.D1(alloc) == pytest.approx(d1, rel=1e-10)
        assert cost.D2(alloc) == pytest.approx(d2, rel=1e-10)
        assert cost.D(alloc) == pytest.approx(2 * d1 + d2, rel=1e-10)
