"""Scalar Functional Unit (Section 3.1).

The SFU performs the scalar integer arithmetic (add, subtract) and compares
(equal, greater-than, not-equal) that support control flow — loop counters,
bounds, and branch predicates for the ``brn`` instruction.
"""

from __future__ import annotations

from repro.fixedpoint import FixedPointFormat
from repro.isa.opcodes import AluOp, BrnOp


class ScalarFunctionalUnit:
    """Executes ALUint operations and evaluates branch conditions."""

    def __init__(self, fmt: FixedPointFormat) -> None:
        self.fmt = fmt
        self.ops_executed = 0
        self._lo, self._hi = fmt.int_min, fmt.int_max

    def execute(self, op: AluOp, a: int, b: int) -> int:
        """Scalar integer operation; compares return 1 or 0."""
        self.ops_executed += 1
        # Saturate in Python ints: fmt.saturate's words, without an array.
        if op == AluOp.ADD:
            return min(max(a + b, self._lo), self._hi)
        if op == AluOp.SUB:
            return min(max(a - b, self._lo), self._hi)
        if op == AluOp.EQ:
            return int(a == b)
        if op == AluOp.GT:
            return int(a > b)
        if op == AluOp.NEQ:
            return int(a != b)
        raise ValueError(f"SFU cannot execute {op.name}")

    def branch_taken(self, op: BrnOp, a: int, b: int) -> bool:
        """Evaluate a ``brn`` condition."""
        self.ops_executed += 1
        if op == BrnOp.EQ:
            return a == b
        if op == BrnOp.NEQ:
            return a != b
        if op == BrnOp.LT:
            return a < b
        if op == BrnOp.LE:
            return a <= b
        if op == BrnOp.GT:
            return a > b
        if op == BrnOp.GE:
            return a >= b
        raise ValueError(f"unknown branch condition {op!r}")
