"""Edge cases of the restoration loops (Eq. 8/10 boundaries).

Companion to :mod:`tests.core.test_restoration`, focused on the corners
the greedy sweeps historically got wrong:

* a processing capacity landing *exactly* on the post-switch load — the
  running-load accumulator drifts by one floating subtraction per switch,
  so the loop must trust only an exact recomputation to terminate;
* eviction of an object whose only marks are optional (no compulsory
  flip, no re-partition);
* the infeasibility frontier for both constraints: capacity exactly at
  the HTML floor restores (by shedding everything), one byte / one
  request below it raises :class:`InfeasibleError`.
"""

import math

import numpy as np
import pytest

from repro.core.constraints import (
    evaluate_constraints,
    local_processing_load,
    storage_used,
)
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import (
    InfeasibleError,
    restore_processing_capacity,
    restore_storage_capacity,
)
from tests.conftest import build_micro_model

# micro-model floors (see tests.conftest.build_micro_model):
# S0 hosts pages 0, 1 -> 300 B of HTML, 3.0 req/s of HTML load
# S1 hosts pages 2, 3 -> 400 B of HTML, 1.5 req/s of HTML load
S0_HTML_BYTES = 300.0
S1_HTML_BYTES = 400.0
S0_HTML_LOAD = 3.0
S1_HTML_LOAD = 1.5


def _partition(storage=(math.inf, math.inf), processing=(math.inf, math.inf)):
    m = build_micro_model(storage=storage, processing=processing)
    return m, partition_all(m), CostModel(m)


class TestExactCapacityBoundary:
    """Capacity equal to the post-switch load terminates cleanly."""

    def _final_load(self, capacity: float) -> tuple[float, int]:
        m, alloc, cost = _partition(processing=(capacity, math.inf))
        stats = restore_processing_capacity(alloc, cost, servers=0)
        return float(local_processing_load(alloc)[0]), stats.switches

    @pytest.mark.parametrize("capacity", [5.0, 4.0, 3.5])
    def test_capacity_exactly_at_post_switch_load(self, capacity):
        """Re-running with C == the realised load must not over-shed.

        Pass 1 restores at ``capacity`` and records the exact load L the
        sweep ends on.  Pass 2 restores a fresh partition with C(S0) = L:
        the greedy replays the same switch sequence and its accumulator
        lands (up to drift) exactly on the capacity — the drift fix must
        recompute, accept, and stop rather than shed one more pair or
        spuriously raise.
        """
        load, switches = self._final_load(capacity)
        assert load <= capacity + 1e-9

        m2, alloc2, cost2 = _partition(processing=(load, math.inf))
        stats2 = restore_processing_capacity(alloc2, cost2, servers=0)
        final = float(local_processing_load(alloc2)[0])
        assert final == pytest.approx(load, abs=1e-9)
        assert stats2.switches == switches
        alloc2.check_invariants()

    def test_capacity_exactly_at_full_local_load(self):
        """C equal to the unconstrained load means zero switches."""
        m, alloc, cost = _partition()
        full = float(local_processing_load(alloc)[0])
        m2, alloc2, cost2 = _partition(processing=(full, math.inf))
        stats = restore_processing_capacity(alloc2, cost2, servers=0)
        assert stats.switches == 0
        assert float(local_processing_load(alloc2)[0]) == pytest.approx(full)


class TestOptionalOnlyEviction:
    """Evicting an object whose only marks are optional downloads."""

    def _optional_only_alloc(self, capacity: float):
        """S0 allocation reduced to: HTML + object 4, marked optional-only.

        Object 4 (50 B) appears in the model solely as page 0's optional
        object, so after clearing S0's compulsory marks it is the one
        replica whose eviction exercises the no-compulsory-flip path.
        """
        m, alloc, cost = _partition(storage=(capacity, math.inf))
        for e in np.flatnonzero(m.page_server[m.comp_pages] == 0):
            alloc.set_comp_local(int(e), False)
        for k in list(alloc.replicas[0]):
            if k != 4:
                alloc.deallocate(0, k)
        sl = m.opt_slice(0)  # page 0's optional entries = (object 4,)
        e4 = sl.start
        if not alloc.opt_local[e4]:
            alloc.store(0, 4)
            alloc.set_opt_local(e4, True)
        alloc.check_invariants()
        assert alloc.replicas[0] == {4}
        assert alloc.mark_count(0, 4) >= 1
        return m, alloc, cost, e4

    def test_evicts_optional_only_object(self):
        # HTML (300 B) + object 4 (50 B) > 330 B forces the eviction
        m, alloc, cost, e4 = self._optional_only_alloc(capacity=330.0)
        stats = restore_storage_capacity(alloc, cost, servers=0)
        assert stats.evictions == 1
        assert stats.evicted_objects == [(0, 4)]
        assert stats.bytes_freed == pytest.approx(50.0)
        assert not alloc.opt_local[e4]
        assert alloc.replicas[0] == set()
        # no compulsory mark flipped, so nothing was re-partitioned
        assert stats.repartitioned_pages == 0
        alloc.check_invariants()

    def test_optional_only_object_survives_when_it_fits(self):
        m, alloc, cost, e4 = self._optional_only_alloc(capacity=350.0)
        stats = restore_storage_capacity(alloc, cost, servers=0)
        assert stats.evictions == 0
        assert alloc.opt_local[e4]
        assert alloc.replicas[0] == {4}


class TestInfeasibilityFrontier:
    """Both constraints: restorable exactly at the HTML floor, raising
    just below it."""

    def test_storage_at_html_floor_evicts_everything(self):
        m, alloc, cost = _partition(
            storage=(S0_HTML_BYTES, S1_HTML_BYTES)
        )
        stats = restore_storage_capacity(alloc, cost)
        assert evaluate_constraints(alloc).storage_ok
        assert alloc.replicas[0] == set() and alloc.replicas[1] == set()
        used = storage_used(alloc)
        assert used[0] == pytest.approx(S0_HTML_BYTES)
        assert used[1] == pytest.approx(S1_HTML_BYTES)
        assert stats.evictions > 0

    @pytest.mark.parametrize(
        "storage",
        [(S0_HTML_BYTES - 1.0, math.inf), (math.inf, S1_HTML_BYTES - 1.0)],
        ids=["server0", "server1"],
    )
    def test_storage_below_html_floor_raises(self, storage):
        m, alloc, cost = _partition(storage=storage)
        with pytest.raises(InfeasibleError, match="HTML"):
            restore_storage_capacity(alloc, cost)

    def test_processing_at_html_floor_sheds_everything(self):
        m, alloc, cost = _partition(processing=(S0_HTML_LOAD, S1_HTML_LOAD))
        restore_processing_capacity(alloc, cost)
        assert evaluate_constraints(alloc).local_ok
        assert not alloc.comp_local.any()
        assert not alloc.opt_local.any()
        load = local_processing_load(alloc)
        assert load[0] == pytest.approx(S0_HTML_LOAD)
        assert load[1] == pytest.approx(S1_HTML_LOAD)

    @pytest.mark.parametrize(
        "processing",
        [(S0_HTML_LOAD - 0.1, math.inf), (math.inf, S1_HTML_LOAD - 0.1)],
        ids=["server0", "server1"],
    )
    def test_processing_below_html_floor_raises(self, processing):
        m, alloc, cost = _partition(processing=processing)
        with pytest.raises(InfeasibleError, match="HTML"):
            restore_processing_capacity(alloc, cost)

    def test_full_pipeline_at_both_floors(self):
        """Storage then processing at their exact floors compose."""
        m = build_micro_model(
            storage=(S0_HTML_BYTES, S1_HTML_BYTES),
            processing=(S0_HTML_LOAD, S1_HTML_LOAD),
        )
        alloc = partition_all(m)
        cost = CostModel(m)
        restore_storage_capacity(alloc, cost)
        restore_processing_capacity(alloc, cost)
        rep = evaluate_constraints(alloc)
        assert rep.storage_ok and rep.local_ok
        alloc.check_invariants()
