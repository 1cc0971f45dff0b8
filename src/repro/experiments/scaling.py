"""Capacity-percentage definitions for the Figure 1-3 x-axes.

The paper sweeps "storage capacity", "local processing capacity" and
"central processing capacity" as percentages without defining the
normalisation.  We pin them down (documented in DESIGN.md) so that the
stated endpoint behaviours hold:

* **p% storage** (Figure 1) — server ``i`` gets
  ``html_bytes(i) + p x stored_bytes_unconstrained(i)``: at 100% the
  unconstrained PARTITION replica set just fits ("our policy ... is
  optimized since no constraints are imposed"), at 0% no MO can be
  replicated and the policy degenerates to Remote.
* **p% local processing** (Figures 2, 3) — server ``i`` gets
  ``html_load(i) + p x (all_local_load(i) - html_load(i))`` where the
  all-local load is the Eq. 8 LHS of the Local policy (every referenced
  MO served locally).  This mirrors Table 1, whose absolute
  ``C(S_i) = 150`` req/s sits at the all-local operating point: at 100%
  any allocation fits *with slack* (the slack is what lets servers
  absorb off-loaded repository work in Figure 3), at 0% the HTML-only
  load forces every MO download to the repository (the paper: response
  time "becomes equal to the value of the remote policy for 0%
  processing capacity"), and the constraint starts to bite only below
  the unconstrained allocation's ~80-85% utilisation — producing the
  flat-then-steep ("double exponential") Figure 2 shape the paper
  describes.
* **q% central capacity** (Figure 3) — ``C(R) = q x P(R)`` where
  ``P(R)`` is the repository workload imposed by the allocation *after*
  local restoration but *before* off-loading ("the repository can only
  serve q% of the requests" addressed to it).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import (
    html_request_load,
    local_processing_load,
    repository_load,
)
from repro.core.types import RepositorySpec, ServerSpec, SystemModel

__all__ = [
    "clone_with_capacities",
    "storage_capacities_for_fraction",
    "processing_capacities_for_fraction",
    "repo_capacity_for_fraction",
]


def clone_with_capacities(
    model: SystemModel,
    storage: np.ndarray | float | None = None,
    processing: np.ndarray | float | None = None,
    repo_capacity: float | None = None,
) -> SystemModel:
    """Copy ``model`` with replaced capacity fields.

    Pages, objects and the stream topology are shared (they are
    immutable); only the server / repository specs change, so the clone
    costs one ``SystemModel`` construction.
    """
    n = model.n_servers
    storage_arr = (
        None if storage is None else np.broadcast_to(np.asarray(storage, float), (n,))
    )
    processing_arr = (
        None
        if processing is None
        else np.broadcast_to(np.asarray(processing, float), (n,))
    )
    servers = [
        ServerSpec(
            server_id=s.server_id,
            name=s.name,
            storage_capacity=(
                s.storage_capacity if storage_arr is None else float(storage_arr[i])
            ),
            processing_capacity=(
                s.processing_capacity
                if processing_arr is None
                else float(processing_arr[i])
            ),
            rate=s.rate,
            overhead=s.overhead,
            repo_rate=s.repo_rate,
            repo_overhead=s.repo_overhead,
        )
        for i, s in enumerate(model.servers)
    ]
    repo = (
        model.repository
        if repo_capacity is None
        else RepositorySpec(processing_capacity=float(repo_capacity))
    )
    return SystemModel(servers, repo, model.pages, model.objects, model.topology)


def storage_capacities_for_fraction(
    model: SystemModel, reference: Allocation, fraction: float
) -> np.ndarray:
    """Per-server Eq. 10 capacities granting ``fraction`` of the reference
    allocation's replica bytes (HTML always fits)."""
    if fraction < 0:
        raise ValueError(f"storage fraction must be >= 0, got {fraction}")
    return model.html_bytes_by_server() + fraction * reference.stored_bytes_all()


def processing_capacities_for_fraction(
    model: SystemModel,
    fraction: float,
    reference: Allocation | None = None,
) -> np.ndarray:
    """Per-server Eq. 8 capacities granting ``fraction`` of the reference
    MO-download workload (HTML requests always fit).

    ``reference`` defaults to the **all-local** allocation (see module
    docstring); pass a different allocation to normalise against e.g.
    the unconstrained PARTITION load instead.
    """
    if fraction < 0:
        raise ValueError(f"processing fraction must be >= 0, got {fraction}")
    if reference is None:
        from repro.baselines.local import LocalPolicy

        reference = LocalPolicy().allocate(model)
    html_load = html_request_load(model)
    ref_load = local_processing_load(reference)
    return html_load + fraction * np.maximum(ref_load - html_load, 0.0)


def repo_capacity_for_fraction(alloc: Allocation, fraction: float) -> float:
    """``C(R) = fraction x`` the repository workload ``alloc`` imposes."""
    if fraction <= 0:
        raise ValueError(f"central capacity fraction must be > 0, got {fraction}")
    return fraction * repository_load(alloc)
