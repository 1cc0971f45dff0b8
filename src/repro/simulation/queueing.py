"""Utilisation-dependent processing delay (extension E3).

Section 3's caveat: "Another assumption made, is that the processing
time for an HTTP request is constant.  Since we assumed peak hours,
i.e., almost fixed server utilization, the above approximation is
realistic."  This module relaxes the assumption with the standard M/M/1
waiting-time blow-up: a server at utilisation ``rho`` serves each
request's processing component ``1/(1 - rho)`` times slower.

Utilisation is the allocation-induced Eq. 8/9 request load over the
respective capacity; the multiplier feeds the simulator's
``local_overhead_scale`` / ``repo_slowdown`` hooks (connection overheads
carry the processing time in the paper's latency decomposition, so the
blow-up lands there).

The E3 finding: relaxing the assumption *widens* the proposed policy's
margin over the Local policy — all-local allocations run servers near
capacity while PARTITION sheds load to the repository's idle cycles.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import local_processing_load, repository_load
from repro.simulation.engine import simulate_partition_masks
from repro.simulation.metrics import SimulationResult
from repro.simulation.perturbation import PAPER_PERTURBATION, PerturbationModel
from repro.workload.trace import RequestTrace

__all__ = ["utilisation_slowdowns", "simulate_with_queueing"]

#: Utilisation cap keeping the M/M/1 factor finite for overloaded servers.
MAX_UTILISATION = 0.98


def utilisation_slowdowns(
    alloc: Allocation,
    repo_capacity: float | None = None,
    max_utilisation: float = MAX_UTILISATION,
) -> tuple[np.ndarray, float]:
    """``(per-server local factors, repository factor)`` for ``alloc``.

    Factors are ``1 / (1 - min(rho, max_utilisation))`` with ``rho`` the
    Eq. 8 (resp. Eq. 9) load over capacity; infinite capacities yield a
    factor of 1 (the constant-time regime).
    """
    if not 0.0 < max_utilisation < 1.0:
        raise ValueError(
            f"max_utilisation must be in (0, 1), got {max_utilisation}"
        )
    m = alloc.model
    load = local_processing_load(alloc)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(
            np.isfinite(m.server_capacity), load / m.server_capacity, 0.0
        )
    rho = np.clip(rho, 0.0, max_utilisation)
    local = 1.0 / (1.0 - rho)

    cap_r = (
        m.repository.processing_capacity if repo_capacity is None else repo_capacity
    )
    if np.isfinite(cap_r) and cap_r > 0:
        rho_r = min(repository_load(alloc) / cap_r, max_utilisation)
        repo = 1.0 / (1.0 - rho_r)
    else:
        repo = 1.0
    return local, float(repo)


def simulate_with_queueing(
    alloc: Allocation,
    trace: RequestTrace,
    perturbation: PerturbationModel = PAPER_PERTURBATION,
    seed: int | np.random.Generator | None = 2,
    repo_capacity: float | None = None,
    max_utilisation: float = MAX_UTILISATION,
) -> SimulationResult:
    """Replay ``trace`` under ``alloc`` with utilisation-scaled overheads."""
    local, repo = utilisation_slowdowns(
        alloc, repo_capacity=repo_capacity, max_utilisation=max_utilisation
    )
    _, entries = trace.comp_expansion(trace.model.comp_indptr)
    return simulate_partition_masks(
        trace,
        alloc.comp_local[entries],
        alloc.opt_local[trace.opt_entries],
        perturbation=perturbation,
        seed=seed,
        repo_slowdown=repo,
        local_overhead_scale=local,
    )
