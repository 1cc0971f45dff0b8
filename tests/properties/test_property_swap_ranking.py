"""The L2 swap's ranked victim table against a pure-Python oracle.

:func:`repro.core.offload._rank_victims` ranks a server's stored objects
with one ``np.bincount``, a ``lexsort`` and two ``cumsum`` prefix sums.
The oracle below is the per-replica tuple sort that ranking replaced:
it walks every replica, sums its local-mark workload entry by entry
through :class:`ReverseIndex`, and sorts ``(w_lost/size, k, size,
w_lost)`` tuples.  The table must agree with it **bit for bit** — the
victim order, both prefix sums, and every accept/reject decision — so
swapping the implementation cannot move a single OFF_LOADING decision.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.offload import _rank_victims, _try_make_room
from tests.conftest import build_micro_model
from tests.oracles.scalar_greedy import ReverseIndex
from tests.properties.strategies import system_models


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def oracle_victims(alloc: Allocation, server_id: int) -> list[tuple]:
    """``(w_lost/size, k, size, w_lost)`` per stored object, sorted."""
    m = alloc.model
    ctx = alloc.ctx
    rev = ReverseIndex.for_model(m)
    victims = []
    for k in alloc.replicas[server_id]:
        k = int(k)
        size = float(m.sizes[k])
        w_lost = 0.0
        if alloc.mark_count(server_id, k):
            comp_e, opt_e = rev.entries_for(server_id, k)
            for e in comp_e:
                if alloc.comp_local[e]:
                    w_lost += float(ctx.comp_freq[e])
            for e in opt_e:
                if alloc.opt_local[e]:
                    w_lost += float(ctx.opt_freq_weight[e])
        victims.append((w_lost / size, k, size, w_lost))
    victims.sort()
    return victims


def oracle_prefix_sums(victims: list[tuple]) -> tuple[list, list]:
    freed, lost = [0.0], [0.0]
    for _, _, size, w_lost in victims:
        freed.append(freed[-1] + size)
        lost.append(lost[-1] + w_lost)
    return freed, lost


def oracle_choose(victims: list[tuple], need: float, gain: float):
    """The victims a net-positive swap deallocates, or ``None``."""
    freed, lost, chosen = 0.0, 0.0, []
    for _, k, size, w_lost in victims:
        if freed >= need:
            break
        chosen.append(k)
        freed += size
        lost += w_lost
    if freed < need or lost >= gain:
        return None
    return chosen


def oracle_make_room(alloc, server_id, chosen, local_bytes, remote_bytes):
    """Deallocate ``chosen`` in order, flipping their local marks."""
    m = alloc.model
    rev = ReverseIndex.for_model(m)
    for k in chosen:
        comp_e, opt_e = rev.entries_for(server_id, k)
        for e in comp_e:
            if alloc.comp_local[e]:
                j = int(m.comp_pages[e])
                alloc.set_comp_local(e, False)
                local_bytes[j] -= float(m.sizes[k])
                remote_bytes[j] += float(m.sizes[k])
        for e in opt_e:
            if alloc.opt_local[e]:
                alloc.set_opt_local(e, False)
        alloc.replicas[server_id].discard(k)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def swap_states(draw):
    """``(allocation, server_id)``: random marks, plus random stored-but-
    unmarked replicas so some victims carry no workload at all."""
    model = draw(system_models(max_objects=16))
    n_c = len(model.comp_objects)
    n_o = len(model.opt_objects)
    comp = draw(st.lists(st.booleans(), min_size=n_c, max_size=n_c))
    opt = draw(st.lists(st.booleans(), min_size=n_o, max_size=n_o))
    marked = Allocation(model, np.array(comp, bool), np.array(opt, bool))
    objects = st.integers(0, model.n_objects - 1)
    replicas = [
        set(r) | draw(st.sets(objects, max_size=4)) for r in marked.replicas
    ]
    alloc = Allocation(model, marked.comp_local, marked.opt_local, replicas)
    server_id = draw(st.integers(0, model.n_servers - 1))
    return alloc, server_id


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(swap_states())
@settings(max_examples=150, deadline=None)
def test_table_matches_tuple_sort(state):
    alloc, i = state
    victims = oracle_victims(alloc, i)
    freed, lost = oracle_prefix_sums(victims)
    table = _rank_victims(alloc, i)
    assert table.objects.tolist() == [v[1] for v in victims]
    assert table.sizes.tolist() == [v[2] for v in victims]
    assert table.freed.tolist() == freed
    assert table.lost.tolist() == lost


@given(swap_states(), st.data())
@settings(max_examples=150, deadline=None)
def test_queries_match_oracle(state, data):
    alloc, i = state
    victims = oracle_victims(alloc, i)
    freed, lost = oracle_prefix_sums(victims)
    table = _rank_victims(alloc, i)
    total = freed[-1]
    needs = [
        -1.0,
        0.0,  # need <= 0: the empty prefix already suffices
        total,
        total + 1.0,  # more than every replica together frees
        data.draw(st.floats(-10.0, 2.0 * total + 10.0)),
    ]
    needs += freed  # exactly on a prefix boundary
    for need in needs:
        gains = [0.0, 1e-12, 1e9, data.draw(st.floats(0.0, 100.0))]
        c = oracle_choose(victims, need, np.inf)
        if c is not None:
            gains.append(lost[len(c)])  # lost == gain must reject
            assert oracle_choose(victims, need, lost[len(c)]) is None
        for gain in gains:
            want = oracle_choose(victims, need, gain)
            expected = None if want is None else len(want)
            assert table.prefix(need, gain) == expected, (need, gain)


@given(swap_states(), st.data())
@settings(max_examples=100, deadline=None)
def test_make_room_matches_oracle(state, data):
    alloc, i = state
    m = alloc.model
    victims = oracle_victims(alloc, i)
    freed, _ = oracle_prefix_sums(victims)
    need = data.draw(st.floats(0.0, freed[-1] + 1.0))
    gain = data.draw(st.floats(0.0, 50.0))
    chosen = oracle_choose(victims, need, gain)

    rng = np.random.default_rng(0)
    lb0 = rng.uniform(0.0, 1e4, m.n_pages)
    rb0 = rng.uniform(0.0, 1e4, m.n_pages)
    want, lb_want, rb_want = alloc.copy(), lb0.copy(), rb0.copy()
    if chosen is not None:
        oracle_make_room(want, i, chosen, lb_want, rb_want)

    got, lb, rb = alloc.copy(), lb0.copy(), rb0.copy()
    ok, freed_sizes, flip_c, flip_o, flip_pages = _try_make_room(
        got, i, _rank_victims(got, i), need, gain, lb, rb
    )
    assert ok == (chosen is not None)
    assert freed_sizes == [float(m.sizes[k]) for k in chosen or []]
    assert np.array_equal(got.comp_local, want.comp_local)
    assert np.array_equal(got.opt_local, want.opt_local)
    assert got.replicas == want.replicas
    assert lb.tolist() == lb_want.tolist()
    assert rb.tolist() == rb_want.tolist()
    flipped_c = (alloc.comp_local & ~got.comp_local).nonzero()[0]
    flipped_o = (alloc.opt_local & ~got.opt_local).nonzero()[0]
    assert sorted(flip_c) == flipped_c.tolist()
    assert sorted(flip_o) == flipped_o.tolist()
    assert flip_pages == [int(m.comp_pages[e]) for e in flip_c]
    got.check_invariants()


def test_empty_replica_set():
    m = build_micro_model()
    alloc = Allocation(
        m,
        np.zeros(len(m.comp_objects), dtype=bool),
        np.zeros(len(m.opt_objects), dtype=bool),
    )
    assert not alloc.replicas[0]
    table = _rank_victims(alloc, 0)
    assert table.objects.tolist() == []
    assert table.freed.tolist() == [0.0] and table.lost.tolist() == [0.0]
    assert table.prefix(0.0, 1.0) == 0
    assert table.prefix(1.0, 1.0) is None
    assert table.prefix(0.0, 0.0) is None  # lost == gain == 0 rejects
