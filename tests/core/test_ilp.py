"""Tests for repro.core.ilp — the exact MILP reference solver."""

import functools
import math

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.ilp import lp_lower_bound, solve_optimal_allocation
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.core.constraints import evaluate_constraints
from repro.experiments.scaling import (
    clone_with_capacities,
    storage_capacities_for_fraction,
)
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.conftest import build_micro_model


class TestOptimality:
    def test_unconstrained_beats_or_matches_greedy(self, micro_model):
        cost = CostModel(micro_model)
        greedy = cost.D(partition_all(micro_model))
        sol = solve_optimal_allocation(micro_model)
        assert sol.objective <= greedy + 1e-6

    def test_objective_matches_cost_model(self, micro_model):
        sol = solve_optimal_allocation(micro_model)
        cost = CostModel(micro_model)
        assert cost.D(sol.allocation) == pytest.approx(sol.objective, rel=1e-6)

    def test_greedy_gap_is_small_unconstrained(self, micro_model):
        """On the micro model PARTITION should be near-optimal."""
        cost = CostModel(micro_model)
        greedy = cost.D(partition_all(micro_model))
        opt = solve_optimal_allocation(micro_model).objective
        assert greedy <= opt * 1.10  # within 10%

    def test_constrained_storage_optimum_feasible(self):
        m = build_micro_model(storage=(800.0, 1000.0))
        sol = solve_optimal_allocation(m)
        rep = evaluate_constraints(sol.allocation)
        assert rep.storage_ok

    def test_constrained_optimum_bounds_greedy(self):
        m = build_micro_model(storage=(800.0, 1000.0))
        result = RepositoryReplicationPolicy().run(m)
        sol = solve_optimal_allocation(m)
        assert sol.objective <= result.objective + 1e-6

    def test_processing_constraint_respected(self):
        m = build_micro_model(processing=(5.0, 4.0))
        sol = solve_optimal_allocation(m)
        rep = evaluate_constraints(sol.allocation)
        assert rep.local_ok

    def test_repo_constraint_respected(self):
        m = build_micro_model(repo_capacity=3.0)
        sol = solve_optimal_allocation(m)
        rep = evaluate_constraints(sol.allocation)
        assert rep.repo_ok


class TestGuards:
    def test_k_stream_mesh_rejected(self):
        """The program puts every remote entry on the repository stream,
        so on a mesh its "optimum" would be the k=2 problem's."""
        params = WorkloadParams.tiny().with_(n_streams=3, n_repositories=2)
        m = generate_workload(params, seed=0)
        for solve in (solve_optimal_allocation, lp_lower_bound):
            with pytest.raises(NotImplementedError, match="k=2 topology only"):
                solve(m)

    def test_weights_passed_through(self, micro_model):
        a = solve_optimal_allocation(micro_model, alpha1=1.0, alpha2=1.0)
        b = solve_optimal_allocation(micro_model, alpha1=4.0, alpha2=1.0)
        assert b.objective > a.objective


class TestTinyGenerated:
    def test_greedy_gap_on_generated(self, tiny_model):
        cost = CostModel(tiny_model)
        greedy = cost.D(partition_all(tiny_model))
        opt = solve_optimal_allocation(tiny_model).objective
        assert opt <= greedy + 1e-6
        # greedy should be within 25% of optimal on tiny instances
        assert greedy <= opt * 1.25


#: (unconstrained, 60% storage) optima of the A3 tiny seeds, as solved by
#: the dense per-row assembly this module's sparse one replaced.
A3_OPTIMA = {
    0: (8649.88600323132, 10796.141797014345),
    1: (10019.88474581261, 14124.840636550383),
    2: (15452.336468015614, 17987.020366614157),
    3: (7081.87996465825, 18714.99854057035),
    4: (7294.988005437348, 10134.743798774634),
    5: (12757.06008654326, 21936.110738515443),
    6: (16100.464396475216, 20965.57872803935),
    7: (9289.75535953112, 17252.084101606448),
}

MICRO_VARIANTS = [
    {},
    {"storage": (800.0, 1000.0)},
    {"processing": (5.0, 4.0)},
    {"repo_capacity": 3.0},
]


@functools.lru_cache(maxsize=None)
def _a3_instance(seed: int, constrained: bool):
    """Ablation A3's tiny instance and its MILP solution."""
    model = generate_workload(WorkloadParams.tiny(), seed=seed)
    if constrained:
        caps = storage_capacities_for_fraction(model, partition_all(model), 0.6)
        model = clone_with_capacities(model, storage=caps)
    return model, solve_optimal_allocation(model)


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "storage60"])
@pytest.mark.parametrize("seed", sorted(A3_OPTIMA))
class TestA3Optima:
    def test_objective_pinned(self, seed, constrained):
        _, sol = _a3_instance(seed, constrained)
        expected = A3_OPTIMA[seed][constrained]
        assert sol.objective == pytest.approx(expected, rel=1e-4)

    def test_objective_is_cost_model_D(self, seed, constrained):
        model, sol = _a3_instance(seed, constrained)
        D = CostModel(model).D(sol.allocation)
        assert sol.objective == pytest.approx(D, rel=1e-9)

    def test_lp_bound_below_optimum(self, seed, constrained):
        model, sol = _a3_instance(seed, constrained)
        assert lp_lower_bound(model) <= sol.objective * (1 + 1e-9)


class TestLpLowerBound:
    @pytest.mark.parametrize("kw", MICRO_VARIANTS, ids=lambda kw: ",".join(kw) or "free")
    def test_below_micro_optimum(self, kw):
        m = build_micro_model(**kw)
        opt = solve_optimal_allocation(m).objective
        assert lp_lower_bound(m) <= opt * (1 + 1e-9)

    def test_bounds_policy_above_old_size_cap(self, small_model):
        """Instances of any size can be stated now (this one has more
        than 2,000 matrix entries)."""
        assert len(small_model.comp_objects) + len(small_model.opt_objects) > 2000
        bound = lp_lower_bound(small_model)
        result = RepositoryReplicationPolicy().run(small_model)
        assert math.isfinite(bound)
        assert bound <= result.objective

    def test_infeasible_returns_inf(self):
        """Server 0's HTML requests alone (3 req/s) exceed its capacity."""
        m = build_micro_model(processing=(2.0, math.inf))
        assert lp_lower_bound(m) == math.inf
        with pytest.raises(RuntimeError, match="MILP failed"):
            solve_optimal_allocation(m)
