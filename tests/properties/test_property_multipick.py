"""Processing restoration's verified prefixes against the oracles.

Each lockstep step of :func:`restore_processing_batched` takes, per
server, a whole prefix of its candidates in ``(score, key)`` order and
applies it in bulk.  A prefix ends at the window's end or at one of
four cuts: a compulsory switch on a page an earlier switch moved
(``repeat``), a sibling whose fresh score comes before the next
candidate (``verify``), the running load reaching the capacity
(``stop``), and the periodic exact resync of the load (``resync``).
These tests force every cut, ``+inf`` scores from zero-frequency
entries and equal-score ties, and check that the engine still makes
the one-switch-at-a-time decisions: the decision log of the brute-force
argmin oracle, the scalar oracle's per-server stats bit for bit, and
the same marks, streams and replicas.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.restoration as fr
from repro.core.constraints import html_request_load, local_processing_load
from repro.core.cost_model import CostModel
from repro.core.partition import partition_all
from repro.core.restoration import InfeasibleError
from repro.core.types import SystemModel
from repro.experiments.scaling import clone_with_capacities
from repro.workload.generator import generate_workload
from repro.workload.params import WorkloadParams
from tests.oracles import argmin_greedy
from tests.oracles.argmin_greedy import processing_oracle
from tests.oracles.divergence import (
    assert_same_log,
    first_divergence,
    split_by_server,
)
from tests.oracles.scalar_greedy import restore_processing_scalar
from tests.properties.strategies import mesh_models, system_models

_KINDS = ("repeat", "verify", "stop", "resync", "inf", "tie")


def _kinds(args, out) -> set[str]:
    """The cuts that ended a step's prefixes, and whether a prefix took
    a ``+inf`` score or met an equal-score tie."""
    scorer, vals, keys, lens, load, bound, room = args
    nc = len(scorer.ctx.comp_pages)
    seen = set()
    for x, n in enumerate(out.n.tolist()):
        taken = keys[x, :n]
        if np.isinf(vals[x, :n]).any():
            seen.add("inf")
        near = vals[x, : min(n + 1, lens[x])]
        if len(np.unique(near)) < len(near) or np.isin(
            near, out.sibling_scores
        ).any():
            seen.add("tie")
        if n == lens[x]:
            continue
        if n == room[x]:
            seen.add("resync")
        elif out.loads[x, n] <= bound[x]:
            seen.add("stop")
        elif keys[x, n] < nc and scorer.page[keys[x, n]] in scorer.page[taken]:
            seen.add("repeat")
        else:
            seen.add("verify")
    return seen


@contextlib.contextmanager
def _recording(resync: int = fr._RESYNC_EVERY):
    """Count the kinds of cut the engine makes, with the load resynced
    every ``resync`` switches."""
    seen: collections.Counter = collections.Counter()
    real = fr._verified_prefixes

    def spy(*args):
        out = real(*args)
        seen.update(_kinds(args, out))
        return out

    with mock.patch.object(fr, "_verified_prefixes", spy), mock.patch.object(
        fr, "_RESYNC_EVERY", resync
    ):
        yield seen


def _bits(stats) -> dict:
    return {
        k: v.hex() if isinstance(v, float) else v for k, v in vars(stats).items()
    }


def _constrained(model: SystemModel, frac: float) -> SystemModel:
    html = html_request_load(model)
    load = local_processing_load(partition_all(model))
    caps = np.maximum(html + frac * np.maximum(load - html, 0.0) + 1e-9, 1e-6)
    return clone_with_capacities(model, processing=caps)


def _check(model: SystemModel) -> None:
    """The lockstep engine over every server against the argmin oracle's
    decision log and the scalar oracle's stats, server by server."""
    cost = CostModel(model)
    n = model.n_servers
    engine, argmin, scalar = (partition_all(model) for _ in range(3))
    log: list = []
    stats = fr.restore_processing_batched(engine, cost, range(n), decisions=log)
    assert_same_log(
        split_by_server(log, stats),
        {i: processing_oracle(argmin, cost, i) for i in range(n)},
    )
    for i in range(n):
        want = restore_processing_scalar(scalar, cost, server_id=i)
        assert _bits(stats[i]) == _bits(want), f"server {i}: stats diverge"
    for other in (argmin, scalar):
        assert np.array_equal(engine.comp_local, other.comp_local)
        assert np.array_equal(engine.opt_local, other.opt_local)
        assert np.array_equal(
            np.where(engine.comp_local, 0, engine.comp_stream),
            np.where(other.comp_local, 0, other.comp_stream),
        )
        assert engine.replicas == other.replicas
    engine.check_invariants()


def _with_copies(model: SystemModel, copies: int, zero_every: int) -> SystemModel:
    """``model`` plus ``copies`` copies of each page on its own server
    (equal scores across the copies), every ``zero_every``-th page
    requested at frequency 0 (``+inf`` scores)."""
    pages = list(model.pages) + [
        dataclasses.replace(p, page_id=len(model.pages) * (c + 1) + p.page_id)
        for c in range(copies)
        for p in model.pages
    ]
    if zero_every:
        pages = [
            dataclasses.replace(p, frequency=0.0) if j % zero_every == 0 else p
            for j, p in enumerate(pages)
        ]
    return SystemModel(
        model.servers, model.repository, pages, model.objects, topology=model.topology
    )


# ----------------------------------------------------------------------
# every cut, on generated universes
# ----------------------------------------------------------------------
def test_every_cut_on_generated_universes():
    seen: collections.Counter = collections.Counter()
    for seed, streams in ((0, 2), (1, 2), (2, 3)):
        params = WorkloadParams.tiny().with_(storage_capacity=np.inf)
        if streams > 2:
            params = params.with_(n_streams=streams, n_repositories=streams - 1)
        model = _with_copies(generate_workload(params, seed=seed), 1, 7)
        for frac, resync in ((0.0, 5), (0.4, 4096), (0.7, 3)):
            with _recording(resync) as kinds:
                _check(_constrained(model, frac))
            seen.update(kinds)
    missing = set(_KINDS) - {"inf"} - set(seen)
    assert not missing, f"never seen: {missing}"


def test_inf_scores_are_taken_in_key_order():
    """A load no switch can bring under the capacity (a phantom on
    server 0) makes the engine take every candidate, the zero-frequency
    ones (``+inf``) last and in key order, before it gives up."""
    base = generate_workload(
        WorkloadParams.tiny().with_(storage_capacity=np.inf), seed=0
    )
    model = _constrained(_with_copies(base, 0, 3), 0.5)
    cost = CostModel(model)
    phantom = np.zeros(model.n_servers)
    phantom[0] = 1e6

    def load(alloc):
        return local_processing_load(alloc) + phantom

    logs = []
    with mock.patch.object(fr, "local_processing_load", load), mock.patch.object(
        argmin_greedy, "local_processing_load", load
    ):
        logs.append([])
        with _recording() as kinds, pytest.raises(InfeasibleError):
            fr.restore_processing_batched(
                partition_all(model), cost, 0, decisions=logs[0]
            )
        logs.append(processing_oracle(partition_all(model), cost, 0))
    assert_same_log(*logs)
    assert kinds["inf"] and logs[0][-1][1] == np.inf


# ----------------------------------------------------------------------
# random universes: k=2 models and k=3/k=4 meshes
# ----------------------------------------------------------------------
_models = st.one_of(
    system_models(max_servers=2, max_pages=16, max_objects=16),
    mesh_models(min_streams=3, max_servers=2, max_pages=16, max_objects=16),
)


@given(
    _models,
    st.floats(0.0, 1.0),
    st.integers(0, 2),
    st.sampled_from((0, 3, 5)),
    st.sampled_from((2, 3, 7, 4096)),
)
@settings(max_examples=150, deadline=None)
def test_prefixes_match_the_oracles(model, frac, copies, zero_every, resync):
    with _recording(resync):
        _check(_constrained(_with_copies(model, copies, zero_every), frac))


# ----------------------------------------------------------------------
# the divergence report
# ----------------------------------------------------------------------
def test_first_divergence_names_server_step_and_scores():
    a = {0: [(3, 1.5), (4, 2.0)], 2: [(7, 0.25), (9, 0.5)]}
    b = {0: [(3, 1.5), (4, 2.0)], 2: [(7, 0.25), (8, 0.5)]}
    assert first_divergence(a, a) is None
    assert first_divergence(a, b) == (
        "server 2, step 1: (9, 0x1.0000000000000p-1) != (8, 0x1.0000000000000p-1)"
    )
    c = {0: [(3, 1.5)], 2: a[2]}
    assert first_divergence(a, c) == (
        "server 0, step 1: (4, 0x1.0000000000000p+1) != <end of log>"
    )
    # scores are compared bit for bit
    assert first_divergence([(1, 0.0)], [(1, -0.0)]) is not None
