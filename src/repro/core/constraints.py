"""The constraint system of Section 3 (Eq. 8, 9, 10), vectorised.

* **Eq. 8** — local processing: each page view costs its server one HTML
  request, one request per locally-downloaded compulsory MO, and the
  expected number of locally-downloaded optional MOs:

  .. math::

     \\sum_j A_{ij} f(W_j)\\Big(1 + \\sum_k X_{jk} +
     f(W_j, M) \\sum_k U'_{jk} X'_{jk}\\Big) \\le C(S_i)

* **Eq. 9** — repository processing: every compulsory MO *not* marked
  local plus every optional MO expected to be fetched remotely:

  .. math::

     \\sum_j f(W_j)\\Big(\\sum_k U_{jk}(1 - X_{jk}) +
     \\sum_k U'_{jk}(1 - X'_{jk})\\Big) \\le C(R)

* **Eq. 10** — storage: hosted HTML plus the *set union* of MOs stored at
  the server:

  .. math::

     \\sum_j A_{ij} Size(H_j) + \\sum_k \\{Size(M_k) \\mid \\exists W_j:
     A_{ij} = 1 \\wedge X'_{jk} = 1\\} \\le Size(S_i)

  We use the replica set (which may strictly contain the marked set, see
  :mod:`repro.core.allocation`) — a stored-but-unmarked object still
  occupies disk.

Note: the paper's Eq. 9 weighs optional remote requests by ``U'_jk``
(expected requests per page view); for symmetry we also weight by the
page's ``f(W_j, M)`` scale, matching Eq. 8's optional term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Allocation
from repro.core.context import EvalContext
from repro.core.types import SystemModel

__all__ = [
    "local_processing_load",
    "repository_load",
    "remote_stream_loads",
    "storage_used",
    "ConstraintReport",
    "evaluate_constraints",
    "html_request_load",
]


def html_request_load(model: SystemModel) -> np.ndarray:
    """Per-server HTML-request load: :math:`\\sum_{j on i} f(W_j)`.

    This is the irreducible part of Eq. 8's LHS — serving pages at all
    costs one request per view regardless of replication decisions.
    The scatter-add is computed once per model (cached in the shared
    :class:`~repro.core.context.EvalContext`); callers get a copy they
    may accumulate into.
    """
    return EvalContext.for_model(model).html_request_load.copy()


def local_processing_load(alloc: Allocation) -> np.ndarray:
    """Eq. 8 LHS per server (HTTP requests/second)."""
    ctx = alloc.ctx
    # one HTML request per page view
    load = html_request_load(alloc.model)
    # one request per locally downloaded compulsory MO per view
    sel = alloc.comp_local
    np.add.at(load, ctx.comp_server[sel], ctx.comp_freq[sel])
    # expected locally downloaded optional MOs per view
    selo = alloc.opt_local
    np.add.at(load, ctx.opt_server[selo], ctx.opt_freq_weight[selo])
    return load


def repository_load(alloc: Allocation) -> float:
    """Eq. 9 LHS (HTTP requests/second hitting the repository).

    The repository is stream 1 of the k-stream topology: only remote
    entries *assigned to stream 1*, and optional entries whose cheapest
    stream is the repository, load it.  In the paper's two-stream model
    that is every remote entry.
    """
    ctx = alloc.ctx
    sel = ~alloc.comp_local & (alloc.comp_stream == 1)
    selo = ~alloc.opt_local & (ctx.opt_best_stream == 1)
    return float(ctx.comp_freq[sel].sum()) + float(ctx.opt_freq_weight[selo].sum())


def remote_stream_loads(alloc: Allocation) -> np.ndarray:
    """Per-remote-stream request loads (length ``n_streams - 1``).

    Element 0 equals :func:`repository_load`; elements ``r-1 >= 1`` are
    the Eq. 9 analogs for the extra replica-site streams — reporting
    aid for the replica-mesh scenarios.
    """
    ctx = alloc.ctx
    out = np.zeros(ctx.n_streams - 1)
    rem = ~alloc.comp_local
    remo = ~alloc.opt_local
    for r in range(1, ctx.n_streams):
        sel = rem & (alloc.comp_stream == r)
        selo = remo & (ctx.opt_best_stream == r)
        out[r - 1] = float(ctx.comp_freq[sel].sum()) + float(
            ctx.opt_freq_weight[selo].sum()
        )
    return out


def repository_load_by_server(alloc: Allocation) -> np.ndarray:
    """Eq. 9 LHS decomposed by originating local server.

    ``P(S_i, R)`` of Section 4.2 — the repository workload that server
    ``S_i``'s current assignment imposes.  Sums to
    :func:`repository_load`.
    """
    ctx = alloc.ctx
    out = np.zeros(alloc.model.n_servers)
    sel = ~alloc.comp_local & (alloc.comp_stream == 1)
    selo = ~alloc.opt_local & (ctx.opt_best_stream == 1)
    np.add.at(out, ctx.comp_server[sel], ctx.comp_freq[sel])
    np.add.at(out, ctx.opt_server[selo], ctx.opt_freq_weight[selo])
    return out


def storage_used(alloc: Allocation) -> np.ndarray:
    """Eq. 10 LHS per server (bytes): HTML + stored-replica union."""
    return alloc.ctx.html_bytes_by_server + alloc.stored_bytes_all()


@dataclass(frozen=True)
class ConstraintReport:
    """Snapshot of all three constraint families for one allocation.

    ``slack`` entries are ``capacity - load``; negative slack means the
    constraint is violated by that amount.
    """

    local_load: np.ndarray
    local_capacity: np.ndarray
    repo_load: float
    repo_capacity: float
    storage_load: np.ndarray
    storage_capacity: np.ndarray

    @property
    def local_slack(self) -> np.ndarray:
        """Per-server Eq. 8 slack (requests/second)."""
        return self.local_capacity - self.local_load

    @property
    def repo_slack(self) -> float:
        """Eq. 9 slack (requests/second)."""
        return self.repo_capacity - self.repo_load

    @property
    def storage_slack(self) -> np.ndarray:
        """Per-server Eq. 10 slack (bytes)."""
        return self.storage_capacity - self.storage_load

    @property
    def local_ok(self) -> bool:
        """Whether every server satisfies Eq. 8."""
        return bool(np.all(self.local_slack >= -1e-9 * np.maximum(self.local_capacity, 1.0)))

    @property
    def repo_ok(self) -> bool:
        """Whether Eq. 9 holds."""
        if np.isinf(self.repo_capacity):
            return True
        return self.repo_slack >= -1e-9 * max(self.repo_capacity, 1.0)

    @property
    def storage_ok(self) -> bool:
        """Whether every server satisfies Eq. 10."""
        return bool(
            np.all(
                self.storage_slack
                >= -1e-9 * np.maximum(self.storage_capacity, 1.0)
            )
        )

    @property
    def ok(self) -> bool:
        """Whether the allocation is feasible under all constraints."""
        return self.local_ok and self.repo_ok and self.storage_ok

    def violated_servers_storage(self) -> list[int]:
        """Server ids violating Eq. 10."""
        tol = 1e-9 * np.maximum(self.storage_capacity, 1.0)
        return np.flatnonzero(self.storage_slack < -tol).tolist()

    def violated_servers_processing(self) -> list[int]:
        """Server ids violating Eq. 8."""
        tol = 1e-9 * np.maximum(self.local_capacity, 1.0)
        return np.flatnonzero(self.local_slack < -tol).tolist()

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        parts = [
            f"storage: {'OK' if self.storage_ok else 'VIOLATED ' + str(self.violated_servers_storage())}",
            f"local processing: {'OK' if self.local_ok else 'VIOLATED ' + str(self.violated_servers_processing())}",
            f"repository processing: {'OK' if self.repo_ok else f'VIOLATED by {-self.repo_slack:.2f} req/s'}",
        ]
        return "; ".join(parts)


def evaluate_constraints(alloc: Allocation) -> ConstraintReport:
    """Evaluate Eq. 8-10 for ``alloc`` and return a report."""
    m = alloc.model
    return ConstraintReport(
        local_load=local_processing_load(alloc),
        local_capacity=m.server_capacity.copy(),
        repo_load=repository_load(alloc),
        repo_capacity=m.repository.processing_capacity,
        storage_load=storage_used(alloc),
        storage_capacity=m.server_storage.copy(),
    )
