"""The paper's primary contribution: cost model, PARTITION, restoration,
off-loading, and the end-to-end replication policy.

Module map (paper section → module):

* Section 3 (system + cost model)  → :mod:`repro.core.types`,
  :mod:`repro.core.matrices`, :mod:`repro.core.cost_model`,
  :mod:`repro.core.constraints`
* Section 4.2 PARTITION            → :mod:`repro.core.partition`
* Section 4.2 constraint restoration → :mod:`repro.core.restoration`
* Section 4.2 OFF_LOADING_REPOSITORY → :mod:`repro.core.offload`
* End-to-end pipeline              → :mod:`repro.core.policy`
* Allocation state                 → :mod:`repro.core.allocation`
* ILP optimum, LP bound (validation only) → :mod:`repro.core.ilp`
"""

from repro.core.allocation import Allocation
from repro.core.constraints import (
    ConstraintReport,
    evaluate_constraints,
    local_processing_load,
    repository_load,
    storage_used,
)
from repro.core.cost_model import CostModel, PageTimes
from repro.core.matrices import MatrixSet
from repro.core.offload import OffloadConfig, OffloadOutcome, offload_repository
from repro.core.partition import (
    partition_all,
    partition_page,
    partition_pages_batched,
)
from repro.core.policy import PolicyResult, RepositoryReplicationPolicy
from repro.core.restoration import (
    restore_processing_capacity,
    restore_storage_capacity,
)
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)

__all__ = [
    "Allocation",
    "ConstraintReport",
    "CostModel",
    "MatrixSet",
    "ObjectSpec",
    "OffloadConfig",
    "OffloadOutcome",
    "PageSpec",
    "PageTimes",
    "PolicyResult",
    "RepositoryReplicationPolicy",
    "RepositorySpec",
    "ServerSpec",
    "SystemModel",
    "evaluate_constraints",
    "local_processing_load",
    "offload_repository",
    "partition_all",
    "partition_page",
    "partition_pages_batched",
    "repository_load",
    "restore_processing_capacity",
    "restore_storage_capacity",
    "storage_used",
]
