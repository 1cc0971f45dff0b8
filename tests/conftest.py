"""Shared fixtures.

Three tiers of models:

* ``micro_model`` — a hand-built 2-server universe with round numbers,
  used wherever a test asserts *exact* cost-model values against
  hand-computed Eq. 3-10 arithmetic.
* ``tiny_model`` — generated :meth:`WorkloadParams.tiny` (2 servers,
  ~12 pages), cheap enough for per-test mutation.
* ``small_model`` / ``small_trace`` — generated
  :meth:`WorkloadParams.small`, session-scoped, for integration tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from repro.workload.trace import generate_trace


def build_micro_model(
    storage: tuple[float, float] = (math.inf, math.inf),
    processing: tuple[float, float] = (math.inf, math.inf),
    repo_capacity: float = math.inf,
) -> SystemModel:
    """Two servers, four pages, six objects — all sizes round numbers.

    Server 0: rate 10 B/s (spb 0.1), overhead 1 s, repo rate 2 B/s
    (spb 0.5), repo overhead 2 s.
    Server 1: rate 5 B/s, overhead 1.5 s, repo rate 1 B/s, repo
    overhead 2.5 s.

    Objects: sizes 100, 200, 300, 400, 50, 60 bytes.

    Pages (html size, freq, compulsory, optional):
      0 @S0: (100, 1.0, [0, 1], [4])   optional_prob 0.1
      1 @S0: (200, 2.0, [2], [])
      2 @S1: (100, 0.5, [1, 3], [5])   optional_prob 0.2
      3 @S1: (300, 1.0, [0, 2, 3], [])
    """
    servers = [
        ServerSpec(
            server_id=0,
            storage_capacity=storage[0],
            processing_capacity=processing[0],
            rate=10.0,
            overhead=1.0,
            repo_rate=2.0,
            repo_overhead=2.0,
            name="s0",
        ),
        ServerSpec(
            server_id=1,
            storage_capacity=storage[1],
            processing_capacity=processing[1],
            rate=5.0,
            overhead=1.5,
            repo_rate=1.0,
            repo_overhead=2.5,
            name="s1",
        ),
    ]
    objects = [
        ObjectSpec(object_id=k, size=s)
        for k, s in enumerate([100, 200, 300, 400, 50, 60])
    ]
    pages = [
        PageSpec(
            page_id=0,
            server=0,
            html_size=100,
            frequency=1.0,
            compulsory=(0, 1),
            optional=(4,),
            optional_prob=0.1,
        ),
        PageSpec(
            page_id=1,
            server=0,
            html_size=200,
            frequency=2.0,
            compulsory=(2,),
        ),
        PageSpec(
            page_id=2,
            server=1,
            html_size=100,
            frequency=0.5,
            compulsory=(1, 3),
            optional=(5,),
            optional_prob=0.2,
        ),
        PageSpec(
            page_id=3,
            server=1,
            html_size=300,
            frequency=1.0,
            compulsory=(0, 2, 3),
        ),
    ]
    return SystemModel(servers, RepositorySpec(repo_capacity), pages, objects)


@pytest.fixture
def micro_model() -> SystemModel:
    return build_micro_model()


@pytest.fixture
def micro_cost(micro_model: SystemModel) -> CostModel:
    return CostModel(micro_model, alpha1=2.0, alpha2=1.0)


@pytest.fixture
def tiny_params() -> WorkloadParams:
    return WorkloadParams.tiny()


@pytest.fixture
def tiny_model(tiny_params: WorkloadParams) -> SystemModel:
    return generate_workload(tiny_params, seed=5)


@pytest.fixture(scope="session")
def small_params() -> WorkloadParams:
    return WorkloadParams.small()


@pytest.fixture(scope="session")
def small_model(small_params: WorkloadParams) -> SystemModel:
    return generate_workload(small_params, seed=7)


@pytest.fixture(scope="session")
def small_trace(small_model, small_params):
    return generate_trace(small_model, small_params, seed=1)


@pytest.fixture(scope="session")
def l2_swap_world():
    """``(model, allocation)`` just before OFF_LOADING, in the shape where
    L2 servers must swap: the small preset with storage at 0.6 of the
    unconstrained replica bytes, processing at 0.8 of the all-local
    load, and ``C(R)`` at 0.9 of the repository load left after
    restoration.  Copy the allocation before mutating it."""
    from repro.core.allocation import transplant_allocation
    from repro.core.constraints import repository_load
    from repro.core.partition import partition_all
    from repro.core.policy import RepositoryReplicationPolicy
    from repro.experiments.scaling import (
        clone_with_capacities,
        processing_capacities_for_fraction,
        storage_capacities_for_fraction,
    )

    model = generate_workload(
        WorkloadParams.small().with_(storage_capacity=math.inf), seed=0
    )
    storage = storage_capacities_for_fraction(model, partition_all(model), 0.6)
    processing = processing_capacities_for_fraction(model, 0.8)
    restored = RepositoryReplicationPolicy().run(
        clone_with_capacities(model, storage=storage, processing=processing)
    )
    constrained = clone_with_capacities(
        model,
        storage=storage,
        processing=processing,
        repo_capacity=0.9 * repository_load(restored.allocation),
    )
    return constrained, transplant_allocation(restored.allocation, constrained)
