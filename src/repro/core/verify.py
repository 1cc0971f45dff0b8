"""Consolidated allocation/result verification.

One call that checks *everything* checkable about an allocation or a
policy result: structural invariants (marks ⊆ replicas, counts in sync),
constraint consistency (Eq. 8-10 against the model's capacities), and
cross-representation agreement (flat arrays vs sparse matrices).  Used
by the test-suite as a single acceptance gate and handy in notebooks
when building custom policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Allocation
from repro.core.constraints import evaluate_constraints
from repro.core.cost_model import CostModel
from repro.core.matrices import MatrixSet

__all__ = ["VerificationReport", "verify_allocation"]


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_allocation`."""

    passed: bool
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        """Raise :class:`AssertionError` listing every failure."""
        if not self.passed:
            raise AssertionError(
                "allocation verification failed:\n- " + "\n- ".join(self.failures)
            )


def verify_allocation(
    alloc: Allocation,
    expect_feasible: bool | None = None,
    cost: CostModel | None = None,
) -> VerificationReport:
    """Run every known consistency check against ``alloc``.

    Parameters
    ----------
    alloc:
        The allocation to verify.
    expect_feasible:
        ``True``/``False`` asserts the Eq. 8-10 feasibility outcome;
        ``None`` records it as a warning only.
    cost:
        Optional cost model (built on demand) for objective sanity.
    """
    failures: list[str] = []
    warnings: list[str] = []

    # 1. structural invariants
    try:
        alloc.check_invariants()
    except AssertionError as exc:
        failures.append(f"structural invariants: {exc}")

    # 2. matrix-representation agreement (also validates X ⊆ U etc.)
    try:
        ms = MatrixSet.from_allocation(alloc)
        back = ms.to_allocation(alloc.model)
        if not np.array_equal(back.comp_local, alloc.comp_local):
            failures.append("matrix round-trip changed compulsory marks")
        if not np.array_equal(back.opt_local, alloc.opt_local):
            failures.append("matrix round-trip changed optional marks")
    except ValueError as exc:
        failures.append(f"matrix validation: {exc}")

    # 3. constraints
    report = evaluate_constraints(alloc)
    if expect_feasible is True and not report.ok:
        failures.append(f"expected feasible, got: {report.summary()}")
    elif expect_feasible is False and report.ok:
        failures.append("expected infeasible, but all constraints hold")
    elif expect_feasible is None and not report.ok:
        warnings.append(f"constraints: {report.summary()}")

    # 4. objective sanity
    c = cost or CostModel(alloc.model)
    d = c.D(alloc)
    if not np.isfinite(d) or d < 0:
        failures.append(f"objective D is not a finite non-negative number: {d}")

    return VerificationReport(
        passed=not failures, failures=failures, warnings=warnings
    )
