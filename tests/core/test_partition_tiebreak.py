"""The PARTITION tie rule: equal stream candidates go LOCAL.

The greedy assigns an object to the repository stream only when
``cand_remote < cand_local`` holds **strictly** (Section 4.2 pseudocode:
both totals are tentatively incremented and the loser rolled back; on a
tie the local stream keeps the object).  Both kernels must encode the
identical predicate — a ``<=`` in either one silently flips tie objects
onto the repository stream, changing replica sets while leaving the page
max unchanged, which no balance-based test would catch.  This test pins
the tie behaviour explicitly.
"""

import math

import numpy as np
import pytest

from repro.core.partition import partition_page, partition_pages_batched
from repro.core.types import (
    ObjectSpec,
    PageSpec,
    RepositorySpec,
    ServerSpec,
    SystemModel,
)


@pytest.fixture
def tie_model() -> SystemModel:
    """Both streams start at exactly 100 s and every object costs exactly
    50 s on either stream, so every greedy step with balanced streams is
    an exact tie.

    Local: rate 1 B/s, overhead 0, HTML 100 B -> starts at 100.0.
    Repository: rate 1 B/s, overhead 100 s   -> starts at 100.0.
    """
    server = ServerSpec(
        server_id=0,
        storage_capacity=math.inf,
        processing_capacity=math.inf,
        rate=1.0,
        overhead=0.0,
        repo_rate=1.0,
        repo_overhead=100.0,
    )
    objects = [ObjectSpec(k, 50) for k in range(3)]
    page = PageSpec(
        page_id=0, server=0, html_size=100, frequency=1.0, compulsory=(0, 1, 2)
    )
    return SystemModel([server], RepositorySpec(), [page], objects)


class TestTieBreak:
    def test_scalar_ties_go_local(self, tie_model):
        """Step 1: 150 vs 150 -> tie -> LOCAL (local=150).
        Step 2: remote 150 < local 200 -> remote (remote=150).
        Step 3: 200 vs 200 -> tie -> LOCAL."""
        marks, _, local_t, (remote_t,) = partition_page(tie_model, 0)
        assert marks.tolist() == [True, False, True]
        assert local_t == 200.0
        assert remote_t == 150.0

    def test_batched_encodes_identical_predicate(self, tie_model):
        marks, streams, local_t, stream_t = partition_pages_batched(tie_model)
        assert marks.tolist() == [True, False, True]
        assert streams.tolist() == [1, 1, 1]
        assert local_t[0] == 200.0
        assert stream_t[0, 0] == 150.0

    def test_tie_with_whitelist(self, tie_model):
        """A whitelisted tie object still goes local; a non-whitelisted
        one is forced remote regardless of the tie."""
        marks, _, _, _ = partition_page(tie_model, 0, allowed={0, 1, 2})
        assert marks.tolist() == [True, False, True]
        # object 0 excluded -> forced remote (remote=150); object 1:
        # local 150 < remote 200 -> local; object 2: 200 vs 200 tie ->
        # LOCAL again.
        marks, _, local_t, (remote_t,) = partition_page(
            tie_model, 0, allowed={1, 2}
        )
        assert marks.tolist() == [False, True, True]
        assert local_t == 200.0
        assert remote_t == 150.0

        mask = np.array([False, True, True])
        bmarks, _, blt, bst = partition_pages_batched(tie_model, allowed_mask=mask)
        assert np.array_equal(bmarks, marks)
        assert blt[0] == local_t and bst[0, 0] == remote_t
