"""Processing elements (cells) of the systolic arrays.

Both of Kung's arrays are built from one kind of processing element: the
*inner product step* cell, which in one clock cycle computes
``y_out = y_in + a_in * x_in`` and passes its other operands through
unchanged.  The linear (matrix-vector) array and the hexagonal
(matrix-matrix) array differ only in how cells are interconnected and in
which operand moves along which link.

The register-level linear-array simulation instantiates
:class:`InnerProductStepCell` objects explicitly; the event-driven
hexagonal simulation accounts for the same operation through
:class:`MacEvent` records, so both share the definition of what a cell does
in a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["CellState", "InnerProductStepCell", "MacEvent", "mac"]


def mac(y: float, a: float, x: float) -> float:
    """One multiply-accumulate ``y + a * x`` under a fixed rule for NaNs.

    IEEE 754 leaves open which NaN an operation returns when two NaN
    operands meet, and so does CPython: its specializing interpreter
    switches float arithmetic to a fast path after warm-up, and that path
    can return the other operand's NaN.  So when the result is NaN:

    * in ``y + a * x``, a NaN accumulator ``y`` wins over a NaN product;
    * in ``a * x``, a NaN coefficient ``a`` wins over a NaN ``x``;
    * the result is quieted (``+ 0.0``).

    A NaN made from no NaN operand (``0 * inf``, ``inf - inf``) is the
    operation's own.  Where at most one NaN enters each operation the
    result is what plain ``y + a * x`` gives, and the check costs only
    the rare NaN branch: hot loops compute ``y + a * x`` themselves and
    call this only when the result is NaN.
    """
    result = y + a * x
    if result != result:
        for operand in (y, a, x):
            if operand != operand:
                return operand + 0.0
    return result


@dataclass
class CellState:
    """Latched operands held by a cell at the start of a cycle.

    ``None`` represents a bubble (no datum on that link this cycle); the
    ``*_tag`` fields carry the stream tags alongside the values so that the
    data-flow traces can name every datum they show.
    """

    y_value: Optional[float] = None
    y_tag: Optional[tuple] = None
    x_value: Optional[float] = None
    x_tag: Optional[tuple] = None


@dataclass(frozen=True)
class MacEvent:
    """One multiply-accumulate performed by one cell at one cycle."""

    cycle: int
    cell: tuple
    a_value: float
    x_value: float
    y_before: float
    y_after: float


class InnerProductStepCell:
    """The inner product step processing element of Kung's arrays.

    The cell holds the operand latches for the current cycle and exposes a
    single :meth:`step` that consumes a coefficient ``a`` arriving from the
    cell's vertical input and produces the value to forward on the ``y``
    link.  The ``x`` operand always passes through unchanged.
    """

    def __init__(self, index: int):
        self.index = index
        self.state = CellState()
        self.mac_count = 0
        self.busy_cycles = 0
        self.total_cycles = 0

    def load(
        self,
        y_value: Optional[float],
        y_tag: Optional[tuple],
        x_value: Optional[float],
        x_tag: Optional[tuple],
    ) -> None:
        """Latch the operands that arrive at the start of a cycle."""
        self.state = CellState(y_value=y_value, y_tag=y_tag, x_value=x_value, x_tag=x_tag)

    def step(self, a_value: Optional[float]) -> Optional[float]:
        """Execute one cycle and return the outgoing ``y`` value.

        A multiply-accumulate happens only when the coefficient, the ``x``
        operand and the accumulating ``y`` operand are all present; in
        every other case the ``y`` value (possibly a bubble) is forwarded
        untouched.  Where NaNs meet, :func:`mac`'s rule picks the result.
        The cell keeps activity counters used for the utilization reports.
        """
        self.total_cycles += 1
        y = self.state.y_value
        x = self.state.x_value
        if a_value is not None and x is not None and y is not None:
            result = y + a_value * x
            y = result if result == result else mac(y, a_value, x)
            self.mac_count += 1
            self.busy_cycles += 1
        return y

    @property
    def utilization(self) -> float:
        """Fraction of simulated cycles in which this cell performed a MAC."""
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles / self.total_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InnerProductStepCell(index={self.index}, macs={self.mac_count}, "
            f"busy={self.busy_cycles}/{self.total_cycles})"
        )
