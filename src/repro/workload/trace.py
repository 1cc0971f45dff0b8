"""Request traces for the evaluation (Section 5.1).

The paper generates **10,000 page requests at each server**; a request
for a page that carries optional objects turns, with probability 10%,
into an interested user who then requests 30% of the page's optional
links (each over a fresh TCP connection).

:class:`RequestTrace` stores the sampled trace in flat NumPy arrays so
the simulator can evaluate any allocation over it fully vectorised:

* ``page_of_request`` — page id per page request (grouped by server),
* ``server_of_request`` — hosting server per request,
* ``opt_entries`` — flat optional-entry indices (into the model's
  ``opt_objects``) of every optional download in the trace,
* ``opt_owner`` — the page-request index each optional download belongs
  to.

The same trace is reused across policies inside one experiment run, so
policy comparisons are paired (common random numbers) — this mirrors the
paper's setup where all policies face the same request stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import SystemModel, expand_rows
from repro.util.rng import as_generator
from repro.workload.params import WorkloadParams

__all__ = ["RequestTrace", "generate_trace"]


@dataclass(frozen=True)
class RequestTrace:
    """A sampled request stream over a :class:`SystemModel`."""

    model: SystemModel
    page_of_request: np.ndarray
    """Page id per page request, dtype intp."""
    server_of_request: np.ndarray
    """Hosting server per page request (redundant with page but cheap)."""
    opt_entries: np.ndarray
    """Flat optional-entry indices of every optional download requested."""
    opt_owner: np.ndarray
    """Index into ``page_of_request`` owning each optional download."""

    @property
    def n_requests(self) -> int:
        """Number of page requests in the trace."""
        return len(self.page_of_request)

    @property
    def n_optional_downloads(self) -> int:
        """Number of optional-object downloads in the trace."""
        return len(self.opt_entries)

    def requests_for_server(self, server_id: int) -> np.ndarray:
        """Indices of page requests hitting ``server_id``."""
        return np.flatnonzero(self.server_of_request == server_id)

    def comp_expansion(
        self, indptr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Memoised ragged expansion of the trace over ``indptr``.

        Returns the ``(owner, entries)`` pairs of
        :func:`repro.core.types.expand_rows` over the rows
        ``page_of_request``.  The expansion only depends on the trace and
        the CSR row pointers, and the simulator replays the *same* trace
        against many allocations per experiment — caching it here removes
        the dominant repeated setup cost of ``simulate_allocation``.  The
        cache is keyed by ``indptr`` identity so a trace replayed against
        a structurally different model never sees stale pairs.
        """
        cached = getattr(self, "_comp_expansion_cache", None)
        if cached is not None and cached[0] is indptr:
            return cached[1], cached[2]
        starts = indptr[self.page_of_request]
        owner, entries = expand_rows(
            starts, indptr[self.page_of_request + 1] - starts
        )
        # frozen dataclass: the cache is private mutable state, not a field
        object.__setattr__(
            self, "_comp_expansion_cache", (indptr, owner, entries)
        )
        return owner, entries

    def validate(self) -> None:
        """Sanity-check the trace's internal consistency (for tests)."""
        m = self.model
        assert self.page_of_request.min(initial=0) >= 0
        if self.n_requests:
            assert self.page_of_request.max() < m.n_pages
            expect_srv = m.page_server[self.page_of_request]
            assert np.array_equal(expect_srv, self.server_of_request)
        if self.n_optional_downloads:
            assert self.opt_entries.max() < len(m.opt_objects)
            owners = self.page_of_request[self.opt_owner]
            assert np.array_equal(m.opt_pages[self.opt_entries], owners)


def generate_trace(
    model: SystemModel,
    params: WorkloadParams | None = None,
    seed: int | np.random.Generator | None = 1,
    requests_per_server: int | None = None,
) -> RequestTrace:
    """Sample a request trace from the model's page frequencies.

    Page requests at each server are i.i.d. draws proportional to
    ``f(W_j)`` (the hot/cold skew realises itself in the trace).  For
    each request whose page has optional links, with probability
    ``optional_interest_prob`` the user requests
    ``round(optional_request_fraction x n_links)`` distinct optional
    objects chosen uniformly.

    Parameters
    ----------
    model:
        The universe to sample over.
    params:
        Supplies trace-shape knobs; default Table 1.
    seed:
        RNG seed or generator.
    requests_per_server:
        Override for ``params.requests_per_server``.
    """
    p = params or WorkloadParams.paper()
    rng = as_generator(seed)
    n_req = requests_per_server or p.requests_per_server

    pages_list: list[np.ndarray] = []
    for i in range(model.n_servers):
        page_ids = np.asarray(model.pages_by_server[i], dtype=np.intp)
        if len(page_ids) == 0:
            continue
        weights = model.frequencies[page_ids]
        total = weights.sum()
        if total <= 0:
            probs = np.full(len(page_ids), 1.0 / len(page_ids))
        else:
            probs = weights / total
        draws = rng.choice(page_ids, size=n_req, p=probs)
        pages_list.append(draws)
    page_of_request = (
        np.concatenate(pages_list) if pages_list else np.empty(0, dtype=np.intp)
    )
    server_of_request = model.page_server[page_of_request]

    # optional downloads -------------------------------------------------
    n_opt_links = np.diff(model.opt_indptr)
    has_optional = n_opt_links[page_of_request] > 0
    interested = has_optional & (
        rng.random(len(page_of_request)) < p.optional_interest_prob
    )
    opt_entries: list[np.ndarray] = []
    opt_owner: list[np.ndarray] = []
    for r in np.flatnonzero(interested):
        j = int(page_of_request[r])
        sl = model.opt_slice(j)
        n_links = sl.stop - sl.start
        n_take = max(1, int(round(p.optional_request_fraction * n_links)))
        n_take = min(n_take, n_links)
        chosen = rng.choice(n_links, size=n_take, replace=False) + sl.start
        opt_entries.append(np.sort(chosen))
        opt_owner.append(np.full(n_take, r, dtype=np.intp))
    return RequestTrace(
        model=model,
        page_of_request=page_of_request.astype(np.intp),
        server_of_request=server_of_request.astype(np.intp),
        opt_entries=(
            np.concatenate(opt_entries).astype(np.intp)
            if opt_entries
            else np.empty(0, dtype=np.intp)
        ),
        opt_owner=(
            np.concatenate(opt_owner)
            if opt_owner
            else np.empty(0, dtype=np.intp)
        ),
    )
