"""Shared fixture of the golden regressions: one arm per pipeline."""

import pytest

from tests.oracles.scalar_greedy import scalar_phases
from tests.regression import refresh_goldens


@pytest.fixture
def compute_under(kernel):
    """Run a golden scenario builder on the ``kernel`` arm.

    ``"batched"`` and ``"sharded"`` are policy kernels.  The
    ``"scalar"`` arm runs the batched policy with PARTITION, both
    restorations and OFF_LOADING routed to the reference loops of
    :mod:`tests.oracles.scalar_greedy`, the scenario's own reference
    PARTITION included.
    """

    def run(compute):
        if kernel != "scalar":
            return compute(kernel)
        with scalar_phases(refresh_goldens):
            return compute("batched")

    return run
