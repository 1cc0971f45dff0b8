"""Property-based tests: ``LruCache.replay`` against the per-access oracle.

The oracle (:class:`tests.simulation.lru_reference.ReferenceLruCache`)
applies the LRU rule one access at a time.  ``replay`` must agree with
it bit for bit: hit flags, counters, the float byte count and the
recency order of the entries, also when a stream is cut into chunks
replayed by separate calls.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.lru_sim import LruCache
from tests.simulation.lru_reference import ReferenceLruCache

capacities = st.one_of(
    st.sampled_from([0.0, math.inf, 100.0]),
    st.floats(0.0, 500.0),
)
sizes = st.one_of(
    st.sampled_from([0.0, 1.0, 10.0, 50.0, 100.0, 120.0, 600.0]),
    st.floats(0.0, 700.0),
)
# few ids so ids repeat, and each access draws its own size so a hit
# may change an object's size
streams = st.lists(st.tuples(st.integers(0, 12), sizes), max_size=120)


def _state(cache):
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.used,
        list(cache._entries.items()),
    )


def _oracle_flags(oracle, stream):
    return bytearray(int(oracle.access(k, size)) for k, size in stream)


def _chunks(stream, cuts):
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@given(capacities, streams, st.lists(st.integers(0, 120), max_size=6))
@example(100.0, [(1, 50.0), (2, 30.0), (1, 150.0), (2, 30.0)], [])
@example(100.0, [(1, 60.0), (2, 30.0), (1, 90.0), (3, 10.0)], [2])
@example(0.0, [(1, 0.0), (1, 0.0), (2, 1.0), (1, 5.0)], [])
@example(math.inf, [(1, 600.0), (2, 0.0), (1, 1.0), (2, 700.0)], [1, 3])
@example(50.0, [(1, 600.0), (1, 600.0), (2, 50.0), (2, 50.0)], [])
@settings(max_examples=300, deadline=None)
def test_replay_matches_oracle(capacity, stream, cuts):
    oracle = ReferenceLruCache(capacity)
    expected = _oracle_flags(oracle, stream)

    cache = LruCache(capacity)
    flags = bytearray()
    for chunk in _chunks(stream, cuts):
        objects = [k for k, _ in chunk]
        flags += cache.replay(objects, [size for _, size in chunk])
    assert flags == expected
    assert _state(cache) == _state(oracle)
    assert cache.used <= capacity or not len(cache)


@given(capacities, streams)
@settings(max_examples=150, deadline=None)
def test_access_is_one_element_replay(capacity, stream):
    oracle = ReferenceLruCache(capacity)
    cache = LruCache(capacity)
    for k, size in stream:
        assert cache.access(k, size) is oracle.access(k, size)
    assert _state(cache) == _state(oracle)


@given(st.lists(st.tuples(st.integers(0, 12), sizes), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_refreshed_object_alone_over_budget_is_dropped(stream):
    """A hit that grows the object past the whole budget evicts every
    other entry, then the object itself."""
    capacity = 100.0
    k0 = stream[0][0]
    stream = [(k0, 40.0), *stream, (k0, 40.0), (k0, 150.0)]
    oracle = ReferenceLruCache(capacity)
    expected = _oracle_flags(oracle, stream)
    cache = LruCache(capacity)
    assert cache.replay([k for k, _ in stream], [s for _, s in stream]) == expected
    assert expected[-1] == 1
    assert len(cache) == 0
    assert _state(cache) == _state(oracle)
