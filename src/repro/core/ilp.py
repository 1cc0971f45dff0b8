"""Exact mixed-integer reference for the allocation problem, and its LP bound.

The paper notes the allocation decision problem is NP-complete (knapsack
reduction) and solves it greedily.  This module states the weighted
objective ``D`` (Eq. 7) under Eq. 8-10 as one sparse mixed-integer
program and hands it to HiGHS through ``scipy.optimize.milp``:

* :func:`solve_optimal_allocation` solves it exactly, which lets tests
  and the A3 ablation measure the greedy policy's optimality gap;
* :func:`lp_lower_bound` solves its LP relaxation: a lower bound on the
  ``D`` of every feasible plan, or ``math.inf`` when no plan meets
  Eq. 8-10 at all.

Formulation
-----------
Variables:

* ``x_e ∈ {0,1}``  — one per compulsory entry (``X_jk``),
* ``z_e ∈ {0,1}``  — one per optional entry (optional part of ``X'``),
* ``y_{ik} ∈ {0,1}`` — object ``k`` stored at server ``i`` (only pairs
  actually referenced by some hosted page are materialised),
* ``T_j ≥ 0``      — page response time, with ``T_j ≥`` both Eq. 3 and
  Eq. 4 stream times (linearising the max of Eq. 5; minimisation makes
  the bound tight whenever ``T_j`` carries positive weight).

Constraints: mark-implies-stored (``x_e ≤ y``, ``z_e ≤ y``), storage
(Eq. 10 with the union expressed through ``y``), local processing
(Eq. 8), repository processing (Eq. 9).

Each constraint family is one sparse block built from the
:class:`~repro.core.context.EvalContext` columns and pair table, so
assembly is linear in the entry count and any instance can be stated;
a paper-scale instance assembles in well under a second.  Its exact
solve can take arbitrarily long: ``time_limit`` bounds it, and a solve
that stops without proving optimality raises :class:`RuntimeError`.
The LP relaxation stays tractable at paper scale.

Only the paper's two-stream topology is modelled (every remote entry is
fetched over the repository stream), so both entry points refuse k>2
replica meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.types import SystemModel

__all__ = ["IlpSolution", "solve_optimal_allocation", "lp_lower_bound"]


@dataclass(frozen=True)
class IlpSolution:
    """Optimal allocation plus the solver's objective value."""

    allocation: Allocation
    objective: float
    status: int
    message: str


def _solve(
    m: SystemModel,
    alpha1: float,
    alpha2: float,
    integral: bool,
    time_limit: float | None,
):
    """Assemble and solve the program; returns ``(ctx, res, const)``.

    The variable vector is ``[x (n_comp), z (n_opt), y (n_pairs),
    T (n_pages)]`` and ``res.fun + const`` is ``D``.
    """
    ctx = EvalContext.for_model(m)
    if ctx.n_streams > 2:
        raise NotImplementedError(
            f"the ILP supports the k=2 topology only, got n_streams="
            f"{ctx.n_streams} (per-stream T-rows for the k-stream replica "
            "mesh are a planned follow-up)"
        )
    n_comp, n_opt = len(ctx.comp_pages), len(ctx.opt_pages)
    n_pages, n_srv, n_pairs = ctx.n_pages, ctx.n_servers, ctx.n_pairs
    cp = ctx.comp_pages

    def block(rows, vals, n_rows):
        """``n_rows × len(vals)``, holding ``vals[e]`` at ``(rows[e], e)``."""
        cols = np.arange(len(vals))
        return sparse.csr_array((vals, (rows, cols)), shape=(n_rows, len(vals)))

    def stored(pair):  # entry e's row holds -1 at y of its pair
        return block(pair, -np.ones(len(pair)), n_pairs).T

    t_rows = sparse.eye_array(n_pages)
    A = sparse.block_array(
        [
            # T_j - spb_S * sum_e x_e size_e >= ovhd_S + spb_S * html  (Eq. 3)
            [block(cp, -ctx.page_spb_local[cp] * ctx.comp_sizes, n_pages),
             None, None, t_rows],
            # T_j + spb_R * sum_e x_e size_e >= ovhd_R + spb_R * bytes  (Eq. 4)
            [block(cp, ctx.page_spb_repo[cp] * ctx.comp_sizes, n_pages),
             None, None, t_rows],
            # mark implies stored
            [sparse.eye_array(n_comp), None, stored(ctx.comp_pair), None],
            [None, sparse.eye_array(n_opt), stored(ctx.opt_pair), None],
            # Eq. 10
            [None, None, block(ctx.pair_server, m.sizes[ctx.pair_object], n_srv),
             None],
            # Eq. 8
            [block(ctx.comp_server, ctx.comp_freq, n_srv),
             block(ctx.opt_server, ctx.opt_freq_weight, n_srv), None, None],
            # Eq. 9: the repository serves every unmarked entry
            [block(np.zeros(n_comp, int), -ctx.comp_freq, 1),
             block(np.zeros(n_opt, int), -ctx.opt_freq_weight, 1), None, None],
        ],
        format="csr",
    )
    page_bytes = np.bincount(cp, weights=ctx.comp_sizes, minlength=n_pages)
    lb = np.concatenate([
        ctx.page_ovhd_local + ctx.page_spb_local * ctx.html_sizes,
        ctx.page_ovhd_repo + ctx.page_spb_repo * page_bytes,
        np.full(n_comp + n_opt + 2 * n_srv + 1, -np.inf),
    ])
    repo_cap = m.repository.processing_capacity
    ub = np.concatenate([
        np.full(2 * n_pages, np.inf),
        np.zeros(n_comp + n_opt),
        m.server_storage - ctx.html_bytes_by_server,
        m.server_capacity - ctx.html_request_load,
        [repo_cap - ctx.comp_freq.sum() - ctx.opt_freq_weight.sum()],
    ])
    # Uncapacitated servers and the repository get no row, nor does a
    # server that stores no object.
    keep = np.concatenate([
        np.ones(2 * n_pages + n_comp + n_opt, dtype=bool),
        np.isfinite(m.server_storage) & (np.diff(ctx.pair_indptr) > 0),
        np.isfinite(m.server_capacity),
        [np.isfinite(repo_cap)],
    ])

    # optional term: w_e [z t_loc + (1-z) t_rep] = const + w_e (t_loc - t_rep) z
    w = alpha2 * ctx.opt_freq_weight
    c = np.concatenate([
        np.zeros(n_comp),
        w * (ctx.opt_time_local - ctx.opt_time_repo),
        np.zeros(n_pairs),
        alpha1 * ctx.frequencies,
    ])
    n_bin = n_comp + n_opt + n_pairs
    res = milp(
        c,
        constraints=LinearConstraint(A[keep], lb[keep], ub[keep]),
        integrality=np.repeat([int(integral), 0], [n_bin, n_pages]),
        bounds=Bounds(0, np.repeat([1.0, np.inf], [n_bin, n_pages])),
        options={} if time_limit is None else {"time_limit": time_limit},
    )
    return ctx, res, float(w @ ctx.opt_time_repo)


def solve_optimal_allocation(
    model: SystemModel,
    alpha1: float = 2.0,
    alpha2: float = 1.0,
    time_limit: float | None = 60.0,
) -> IlpSolution:
    """Solve for the exact optimum of ``D``.

    Raises
    ------
    NotImplementedError
        If ``model`` is a k>2 replica mesh.
    RuntimeError
        If the MILP terminates without an optimal solution (infeasible,
        or ``time_limit`` seconds ran out first).
    """
    ctx, res, const = _solve(model, alpha1, alpha2, True, time_limit)
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"MILP failed: status={res.status}, {res.message}")

    n_comp, n_opt = len(ctx.comp_pages), len(ctx.opt_pages)
    on = res.x > 0.5
    y = on[n_comp + n_opt : n_comp + n_opt + ctx.n_pairs]
    ptr = ctx.pair_indptr
    replicas = [
        set(ctx.pair_object[lo:hi][y[lo:hi]].tolist())
        for lo, hi in zip(ptr[:-1], ptr[1:])
    ]
    alloc = Allocation(model, on[:n_comp], on[n_comp : n_comp + n_opt], replicas)
    return IlpSolution(
        allocation=alloc,
        objective=float(res.fun + const),
        status=int(res.status),
        message=str(res.message),
    )


def lp_lower_bound(
    model: SystemModel, alpha1: float = 2.0, alpha2: float = 1.0
) -> float:
    """The LP relaxation's optimum: a lower bound on every plan's ``D``.

    Returns ``math.inf`` when the relaxation is infeasible, which
    certifies that no allocation meets Eq. 8-10.

    Raises
    ------
    NotImplementedError
        If ``model`` is a k>2 replica mesh.
    RuntimeError
        If HiGHS stops for any other reason than optimality or
        infeasibility.
    """
    _, res, const = _solve(model, alpha1, alpha2, False, None)
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"LP failed: status={res.status}, {res.message}")
    return float(res.fun + const)
