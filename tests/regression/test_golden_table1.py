"""Golden regression tests: seeded Table 1 results are pinned.

The snapshots in ``goldens.json`` record ``D``, ``D1``, ``D2`` and the
per-server replica-set sizes for the seeded workloads, computed once and
committed.  Every run recomputes them on the production engines and on
the scalar reference loops of :mod:`tests.oracles.scalar_greedy` (the
``compute_under`` fixture): a future perf PR that changes any
allocation — even one that leaves the balanced page max intact — fails
here instead of silently shifting the paper's figures.

To refresh after an *intentional* algorithmic change, see
``tests/regression/refresh_goldens.py``.
"""

import json

import pytest

from tests.regression.refresh_goldens import (
    GOLDEN_PATH,
    compute_small_constrained,
    compute_small_offload,
    compute_small_processing,
    compute_table1_unconstrained,
)

KERNELS = ("batched", "scalar")

#: Full-policy scenarios additionally run under the sharded
#: process-parallel kernel (``repro.core.shard``): its reconciled output
#: must be byte-identical to the batched goldens, so no separate
#: snapshots exist — a divergence fails against the same numbers.
POLICY_KERNELS = ("batched", "scalar", "sharded")

#: Objective values are deterministic given the seed; the loose relative
#: tolerance only absorbs float-summation differences across NumPy
#: versions, not algorithmic drift.
REL = 1e-9


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def assert_matches_golden(observed: dict, golden: dict) -> None:
    for key, want in golden.items():
        got = observed[key]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=REL), key
        else:
            assert got == want, key


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_table1_unconstrained_golden(goldens, kernel, compute_under):
    observed = compute_under(compute_table1_unconstrained)
    assert_matches_golden(observed, goldens["table1_unconstrained"])


@pytest.mark.parametrize("kernel", KERNELS)
def test_small_constrained_golden(goldens, kernel, compute_under):
    observed = compute_under(compute_small_constrained)
    assert_matches_golden(observed, goldens["small_constrained_frac50"])


@pytest.mark.parametrize("kernel", POLICY_KERNELS)
def test_small_processing_golden(goldens, kernel, compute_under):
    observed = compute_under(compute_small_processing)
    assert_matches_golden(observed, goldens["small_processing_frac50"])


@pytest.mark.parametrize("kernel", POLICY_KERNELS)
def test_small_offload_golden(goldens, kernel, compute_under):
    observed = compute_under(compute_small_offload)
    assert_matches_golden(observed, goldens["small_offload_frac50"])
