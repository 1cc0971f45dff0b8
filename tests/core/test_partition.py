"""Tests for repro.core.partition — the PARTITION algorithm.

Hand-traced expectations on the micro model:

Page 3 @ S1 (spb 0.2 / repo 1.0, html 300): objects sorted 3(400),
2(300), 0(100).  Greedy: 3 -> local (141.5 vs 402.5), 2 -> local
(201.5 vs 302.5), 0 -> remote (102.5 vs 221.5).
"""

import re

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.cost_model import CostModel
from repro.core.partition import (
    optional_marks_batched,
    partition_all,
    partition_page,
    partition_pages_batched,
)


class TestPartitionPage:
    def test_page3_trace(self, micro_model):
        marks, _, local_t, (remote_t,) = partition_page(micro_model, 3)
        # compulsory order is (0, 2, 3): object 0 remote, 2 and 3 local
        assert marks.tolist() == [False, True, True]
        assert local_t == pytest.approx(201.5)
        assert remote_t == pytest.approx(102.5)

    def test_page0_all_local(self, micro_model):
        marks, _, local_t, (remote_t,) = partition_page(micro_model, 0)
        assert marks.tolist() == [True, True]
        assert local_t == pytest.approx(41.0)
        assert remote_t == pytest.approx(2.0)

    def test_page1(self, micro_model):
        marks, _, local_t, (remote_t,) = partition_page(micro_model, 1)
        assert marks.tolist() == [True]
        assert local_t == pytest.approx(51.0)

    def test_page2(self, micro_model):
        marks, _, _, _ = partition_page(micro_model, 2)
        assert marks.tolist() == [True, True]

    def test_allowed_restriction(self, micro_model):
        # page 3 with only object 2 allowed: 3 and 0 forced remote
        marks, _, local_t, (remote_t,) = partition_page(micro_model, 3, allowed={2})
        assert marks.tolist() == [False, True, False]
        # remote carries 400+100, local carries 300:
        assert remote_t == pytest.approx(2.5 + 500.0)
        assert local_t == pytest.approx(61.5 + 60.0)

    def test_allowed_empty_all_remote(self, micro_model):
        marks, _, local_t, (remote_t,) = partition_page(micro_model, 3, allowed=set())
        assert not marks.any()
        assert remote_t == pytest.approx(802.5)

    def test_streams_balanced_invariant(self, small_model):
        """PARTITION may not leave a move that reduces the page max.

        Greedy balancing guarantee: flipping any single object cannot
        reduce max(local, remote) by construction on sorted sizes is NOT
        a theorem, but the final max must never exceed the one-stream
        extremes.
        """
        for j in range(0, small_model.n_pages, 7):
            marks, _, lt, (rt,) = partition_page(small_model, j)
            page = small_model.pages[j]
            srv = small_model.servers[page.server]
            total = sum(small_model.objects[k].size for k in page.compulsory)
            all_local = srv.overhead + srv.spb * (page.html_size + total)
            all_remote = max(
                srv.overhead + srv.spb * page.html_size,
                srv.repo_overhead + srv.repo_spb * total,
            )
            assert max(lt, rt) <= max(all_local, all_remote) + 1e-9

    def test_empty_page(self):
        from tests.conftest import build_micro_model
        from repro.core.types import PageSpec, SystemModel

        base = build_micro_model()
        pages = list(base.pages) + [PageSpec(4, 0, 150, 1.0)]
        m = SystemModel(base.servers, base.repository, pages, base.objects)
        marks, _, lt, (rt,) = partition_page(m, 4)
        assert len(marks) == 0
        assert lt == pytest.approx(1.0 + 0.1 * 150)
        assert rt == pytest.approx(2.0)


class TestPartitionAll:
    def test_marks_match_per_page(self, micro_model):
        alloc = partition_all(micro_model)
        for j in range(micro_model.n_pages):
            marks, _, _, _ = partition_page(micro_model, j)
            assert np.array_equal(alloc.page_comp_marks(j), marks)

    def test_optional_all_policy(self, micro_model):
        alloc = partition_all(micro_model, optional_policy="all")
        assert alloc.opt_local.all()

    def test_optional_none_policy(self, micro_model):
        alloc = partition_all(micro_model, optional_policy="none")
        assert not alloc.opt_local.any()

    def test_optional_beneficial_policy(self, micro_model):
        # on the micro model local is faster for both optional objects
        alloc = partition_all(micro_model, optional_policy="beneficial")
        assert alloc.opt_local.all()

    def test_beneficial_skips_bad_local(self):
        """A region whose repository link beats its local link keeps
        optional objects remote under 'beneficial' but not under 'all'."""
        from repro.core.types import (
            ObjectSpec,
            PageSpec,
            RepositorySpec,
            ServerSpec,
            SystemModel,
        )

        m = SystemModel(
            [
                ServerSpec(
                    0, np.inf, np.inf, rate=1.0, overhead=5.0,
                    repo_rate=100.0, repo_overhead=0.1,
                )
            ],
            RepositorySpec(),
            [
                PageSpec(
                    0, 0, 100, 1.0, compulsory=(), optional=(0,), optional_prob=0.5
                )
            ],
            [ObjectSpec(0, 1000)],
        )
        assert partition_all(m, optional_policy="all").opt_local.all()
        assert not partition_all(m, optional_policy="beneficial").opt_local.any()

    def test_replicas_are_marked_union(self, micro_model):
        alloc = partition_all(micro_model)
        for i in range(micro_model.n_servers):
            marked = {
                int(micro_model.comp_objects[e])
                for e in np.flatnonzero(alloc.comp_local)
                if micro_model.page_server[micro_model.comp_pages[e]] == i
            } | {
                int(micro_model.opt_objects[e])
                for e in np.flatnonzero(alloc.opt_local)
                if micro_model.page_server[micro_model.opt_pages[e]] == i
            }
            assert alloc.replicas[i] == marked

    def test_partition_beats_extremes_on_objective(self, small_model):
        """PARTITION's D must not exceed either all-local or all-remote."""
        from repro.baselines.local import LocalPolicy
        from repro.baselines.remote import RemotePolicy

        cost = CostModel(small_model)
        ours = cost.D(partition_all(small_model))
        assert ours <= cost.D(LocalPolicy().allocate(small_model)) + 1e-9
        assert ours <= cost.D(RemotePolicy().allocate(small_model)) + 1e-9

    def test_deterministic(self, small_model):
        a = partition_all(small_model)
        b = partition_all(small_model)
        assert a == b


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda m: partition_all(m, order="sideways"), "'sideways'"),
        (lambda m: partition_page(m, 0, order="sideways"), "'sideways'"),
        (lambda m: partition_pages_batched(m, order="sideways"), "'sideways'"),
        (lambda m: partition_all(m, optional_policy="some"), "'some'"),
        (lambda m: optional_marks_batched(m, "some"), "'some'"),
        (
            lambda m: partition_pages_batched(m, page_ids=np.zeros((2, 2), int)),
            "(2, 2)",
        ),
    ],
    ids=[
        "order-partition_all",
        "order-partition_page",
        "order-partition_pages_batched",
        "policy-partition_all",
        "policy-optional_marks_batched",
        "page_ids-2d",
    ],
)
def test_rejects_bad_input(micro_model, call, bad):
    # an optional policy is only read where there are optional entries
    assert len(micro_model.opt_objects) > 0
    with pytest.raises(ValueError, match=re.escape(bad)):
        call(micro_model)
