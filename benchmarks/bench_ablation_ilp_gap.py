"""Ablation A3 — greedy vs the exact ILP optimum on small instances.

The paper argues the allocation problem is NP-complete and solves it
greedily.  This bench quantifies the optimality gap of PARTITION (and of
the full constrained pipeline) against :mod:`repro.core.ilp` on tiny
generated universes — the greedy is typically within a few percent.

With ``REPRO_BENCH_SCALE=paper`` it also bounds the greedy on the
paper-scale north-star instance (seed 0; storage 0.6, processing 0.6,
repository 0.7 of the unconstrained footprint), where the exact MILP is
out of reach, by the LP relaxation (:func:`repro.core.ilp.lp_lower_bound`):
once with Eq. 9 dropped, and once in full.
"""

import math
import os

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.ilp import lp_lower_bound, solve_optimal_allocation
from repro.core.partition import partition_all
from repro.core.policy import RepositoryReplicationPolicy
from repro.experiments.scaling import (
    clone_with_capacities,
    processing_capacities_for_fraction,
    repo_capacity_for_fraction,
    storage_capacities_for_fraction,
)
from repro.util.tables import format_table
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams

N_INSTANCES = 8
PAPER = os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "paper"


def north_star_bounds(params):
    """``(setting, greedy D, greedy feasible, LP bound)`` on the north-star
    instance, with Eq. 9 dropped and in full."""
    model = generate_workload(params.with_(storage_capacity=np.inf), seed=0)
    reference = partition_all(model)
    caps = {
        "storage": storage_capacities_for_fraction(model, reference, 0.6),
        "processing": processing_capacities_for_fraction(model, 0.6, reference),
    }
    repo = repo_capacity_for_fraction(reference, 0.7)
    policy = RepositoryReplicationPolicy(alpha1=params.alpha1, alpha2=params.alpha2)
    rows = []
    for setting, clone in (
        ("north star, Eq. 9 dropped", clone_with_capacities(model, **caps)),
        ("north star", clone_with_capacities(model, **caps, repo_capacity=repo)),
    ):
        result = policy.run(clone)
        bound = lp_lower_bound(clone, params.alpha1, params.alpha2)
        rows.append((setting, result.objective, result.feasible, bound))
    return rows


@pytest.fixture(scope="module")
def paper_rows(bench_config):
    return north_star_bounds(bench_config.params) if PAPER else None


@pytest.fixture(scope="module")
def gaps(save_artifact, paper_rows):
    params = WorkloadParams.tiny()
    unconstrained, constrained = [], []
    for seed in range(N_INSTANCES):
        model = generate_workload(params, seed=seed)
        cost = CostModel(model)
        greedy = cost.D(partition_all(model))
        opt = solve_optimal_allocation(model).objective
        unconstrained.append(greedy / opt - 1.0)

        ref = partition_all(model)
        caps = storage_capacities_for_fraction(model, ref, 0.6)
        clone = clone_with_capacities(model, storage=caps)
        result = RepositoryReplicationPolicy().run(clone)
        opt_c = solve_optimal_allocation(clone).objective
        constrained.append(result.objective / opt_c - 1.0)
    table = format_table(
        ["setting", "mean gap", "max gap"],
        [
            (
                "unconstrained PARTITION",
                f"{np.mean(unconstrained):+.2%}",
                f"{np.max(unconstrained):+.2%}",
            ),
            (
                "60% storage, full pipeline",
                f"{np.mean(constrained):+.2%}",
                f"{np.max(constrained):+.2%}",
            ),
        ],
        title=f"Ablation A3: greedy vs ILP optimum ({N_INSTANCES} tiny instances)",
    )
    if paper_rows is not None:
        table += "\n\n" + format_table(
            ["setting", "greedy D", "greedy feasible", "LP bound", "gap"],
            [
                (
                    setting,
                    f"{d:,.0f}",
                    "yes" if feasible else "no",
                    f"{bound:,.0f}" if math.isfinite(bound) else "LP infeasible",
                    f"{d / bound - 1.0:+.2%}" if math.isfinite(bound) else "-",
                )
                for setting, d, feasible, bound in paper_rows
            ],
            title="Paper scale (seed 0): greedy vs LP lower bound",
        )
    save_artifact("ablation_ilp_gap", table)
    return unconstrained, constrained


def test_bench_greedy_near_optimal_unconstrained(gaps):
    unconstrained, _ = gaps
    assert all(g >= -1e-6 for g in unconstrained)  # ILP is a lower bound
    assert np.mean(unconstrained) < 0.05

def test_bench_greedy_reasonable_constrained(gaps):
    _, constrained = gaps
    assert all(g >= -1e-6 for g in constrained)
    assert np.mean(constrained) < 0.25


def test_bench_paper_lp_bound(paper_rows):
    if paper_rows is None:
        pytest.skip("the north-star rows run at REPRO_BENCH_SCALE=paper only")
    (_, relaxed_d, _, relaxed_bound), (_, _, _, full_bound) = paper_rows
    assert relaxed_bound <= relaxed_d
    assert full_bound == math.inf  # no plan meets Eq. 8-10


def test_bench_ilp_solver_timing(benchmark, gaps):
    model = generate_workload(WorkloadParams.tiny(), seed=0)
    benchmark(solve_optimal_allocation, model)
