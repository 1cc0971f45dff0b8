"""Tests for the f(W_j, M) multiplier (optional_rate_scale) plumbing.

The paper's Eq. 6 carries an explicit per-page optional-request rate
``f(W_j, M)``; we default it to 1 (folded into ``U'``) but the field is
live — these tests pin down every place it must appear: optional times,
D2, the Eq. 8/9 optional workload terms, and greedy deltas.
"""

import math

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, repository_load
from repro.core.cost_model import CostModel
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from tests.oracles.scalar_greedy import optional_entry_delta


def _model(scale: float) -> SystemModel:
    server = ServerSpec(
        0, math.inf, math.inf, rate=10.0, overhead=1.0, repo_rate=2.0, repo_overhead=2.0
    )
    page = PageSpec(
        0,
        0,
        100,
        2.0,
        compulsory=(0,),
        optional=(1,),
        optional_prob=0.5,
        optional_rate_scale=scale,
    )
    return SystemModel(
        [server], RepositorySpec(), [page], [ObjectSpec(0, 100), ObjectSpec(1, 50)]
    )


class TestOptionalRateScale:
    def test_optional_time_scales(self):
        base = CostModel(_model(1.0))
        doubled = CostModel(_model(2.0))
        a0 = Allocation(base.model)
        a1 = Allocation(doubled.model)
        assert doubled.optional_times(a1)[0] == pytest.approx(
            2.0 * base.optional_times(a0)[0]
        )

    def test_d2_scales(self):
        base = CostModel(_model(1.0))
        tripled = CostModel(_model(3.0))
        assert tripled.D2(Allocation(tripled.model)) == pytest.approx(
            3.0 * base.D2(Allocation(base.model))
        )

    def test_d1_unchanged(self):
        base = CostModel(_model(1.0))
        tripled = CostModel(_model(3.0))
        assert tripled.D1(Allocation(tripled.model)) == pytest.approx(
            base.D1(Allocation(base.model))
        )

    def test_local_processing_load_scales_optional_term(self):
        m = _model(4.0)
        alloc = Allocation(m)
        alloc.set_opt_local(0, True)
        # load = f*(1 + 0 comp) + f*scale*U' = 2 + 2*4*0.5 = 6
        assert local_processing_load(alloc)[0] == pytest.approx(6.0)

    def test_repository_load_scales_optional_term(self):
        m = _model(4.0)
        alloc = Allocation(m)
        # repo load = f*U_remote + f*scale*U'_remote = 2 + 2*4*0.5 = 6
        assert repository_load(alloc) == pytest.approx(6.0)

    def test_optional_entry_delta_scales(self):
        base = CostModel(_model(1.0))
        doubled = CostModel(_model(2.0))
        assert optional_entry_delta(doubled, 0, to_local=True) == pytest.approx(
            2.0 * optional_entry_delta(base, 0, to_local=True)
        )

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="optional_rate_scale"):
            PageSpec(0, 0, 100, 1.0, optional_rate_scale=-1.0)
