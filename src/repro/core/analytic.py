"""Closed-form time, utilization and memory models from the paper.

These are the quantitative claims of Sections 2 and 3 (rows T1-T7 of the
experiment index in ``DESIGN.md``).  The benchmarks compare the values
measured by the cycle-accurate simulators against these expressions.

Notation: ``n_bar = ceil(n / w)`` etc., written ``n_bar`` / ``p_bar`` /
``m_bar`` below.  Two formulas deserve a remark:

* The matrix-vector utilization printed in the paper is partially garbled
  in the available scan; the expressions used here,
  ``1 / (2 + 2/(n_bar m_bar) - 3/(w n_bar m_bar))`` without overlapping and
  ``1 / (1 + 2/(n_bar m_bar) - 2/(w n_bar m_bar))`` with overlapping, are
  the unique forms consistent with the unambiguous step counts
  ``T = 2 w n_bar m_bar + 2w - 3`` and ``T = w n_bar m_bar + 2w - 2`` and
  with the limits (1/2 and 1) the paper states.
* The matrix-matrix expressions are printed clearly and are used verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..matrices.padding import block_count, validate_array_size

__all__ = [
    "matvec_steps",
    "matvec_utilization",
    "matvec_utilization_limit",
    "matvec_feedback_delay",
    "matvec_feedback_registers",
    "matmul_steps",
    "matmul_utilization",
    "matmul_utilization_limit",
    "matmul_regular_feedback_registers",
    "matmul_irregular_feedback_registers",
    "matmul_irregular_delay_first_row",
    "matmul_irregular_delay_wraparound",
    "MatVecModel",
    "MatMulModel",
]


# --------------------------------------------------------------------------- #
# Matrix-vector multiplication on the linear array (Section 2)
# --------------------------------------------------------------------------- #
def matvec_steps(n_bar: int, m_bar: int, w: int, overlapped: bool = False) -> int:
    """Number of array steps ``T`` for ``y = A~ x~ + b~``.

    ``T = 2 w n_bar m_bar + 2w - 3`` without overlapping and
    ``T = w n_bar m_bar + 2w - 2`` when two disjoint halves of the
    transformed problem are interleaved on the idle cycles.
    """
    w = validate_array_size(w)
    _check_bars(n_bar, m_bar)
    if overlapped:
        return w * n_bar * m_bar + 2 * w - 2
    return 2 * w * n_bar * m_bar + 2 * w - 3


def matvec_utilization(n_bar: int, m_bar: int, w: int, overlapped: bool = False) -> float:
    """Processing element utilization ``eta`` of the linear array."""
    w = validate_array_size(w)
    _check_bars(n_bar, m_bar)
    nm = n_bar * m_bar
    if overlapped:
        return 1.0 / (1.0 + 2.0 / nm - 2.0 / (w * nm))
    return 1.0 / (2.0 + 2.0 / nm - 3.0 / (w * nm))


def matvec_utilization_limit(overlapped: bool = False) -> float:
    """Utilization limit for large problems: 1/2, or 1 with overlapping."""
    return 1.0 if overlapped else 0.5


def matvec_feedback_delay(w: int) -> int:
    """Feedback delay of DBT-by-rows: exactly the array size ``w``."""
    return validate_array_size(w)


def matvec_feedback_registers(w: int) -> int:
    """Registers needed to implement the matrix-vector feedback: ``w``."""
    return validate_array_size(w)


# --------------------------------------------------------------------------- #
# Matrix-matrix multiplication on the hexagonal array (Section 3)
# --------------------------------------------------------------------------- #
def matmul_steps(n_bar: int, p_bar: int, m_bar: int, w: int) -> int:
    """Number of array steps ``T = 3 w p_bar n_bar m_bar + 4w - 5``."""
    w = validate_array_size(w)
    _check_bars(n_bar, p_bar, m_bar)
    return 3 * w * p_bar * n_bar * m_bar + 4 * w - 5


def matmul_utilization(n_bar: int, p_bar: int, m_bar: int, w: int) -> float:
    """Utilization ``eta = 1 / (3 + 4/(p n m) - 5/(w p n m))`` (bars implied)."""
    w = validate_array_size(w)
    _check_bars(n_bar, p_bar, m_bar)
    pnm = p_bar * n_bar * m_bar
    return 1.0 / (3.0 + 4.0 / pnm - 5.0 / (w * pnm))


def matmul_utilization_limit() -> float:
    """Utilization limit of the hexagonal array for large problems: 1/3."""
    return 1.0 / 3.0


def matmul_regular_feedback_registers(w: int) -> int:
    """Memory for constant-delay feedback: ``2w`` (main diagonal) + ``w`` per pair.

    The spiral topology has ``w - 1`` sub-diagonal pairs, so the total is
    ``2w + (w - 1) w``.
    """
    w = validate_array_size(w)
    return 2 * w + (w - 1) * w


def matmul_irregular_feedback_registers(w: int) -> int:
    """Extra memory for the irregular feedback delays: ``3 w (w - 1) / 2``."""
    w = validate_array_size(w)
    return 3 * w * (w - 1) // 2


def matmul_irregular_delay_first_row(n_bar: int, p_bar: int, w: int) -> int:
    """Irregular delay when the ``U_{0,j}`` blocks are fed back.

    The paper gives ``6 (w - 1)(n_bar - 1) p_bar + w`` for the last partial
    result of those blocks.
    """
    w = validate_array_size(w)
    _check_bars(n_bar, p_bar)
    return 6 * (w - 1) * (n_bar - 1) * p_bar + w


def matmul_irregular_delay_wraparound(n_bar: int, p_bar: int, m_bar: int, w: int) -> int:
    """Irregular delay of the global wrap-around (``L_{n_bar-1,0}`` feedback).

    The paper gives ``6 (n_bar p_bar)(m_bar - 1)(w - 1) + w``.
    """
    w = validate_array_size(w)
    _check_bars(n_bar, p_bar, m_bar)
    return 6 * (n_bar * p_bar) * (m_bar - 1) * (w - 1) + w


# --------------------------------------------------------------------------- #
# Convenience models bundling the formulas for one problem instance
# --------------------------------------------------------------------------- #
# The block counts and predictions are evaluated once per model: a plan's
# model is shared by every solution the plan returns, and each of them
# reports the predicted steps and utilization.
@dataclass(frozen=True)
class MatVecModel:
    """Analytic model of one ``y = A x + b`` problem on a ``w``-cell array."""

    n: int
    m: int
    w: int
    overlapped: bool = False

    @cached_property
    def n_bar(self) -> int:
        return block_count(self.n, self.w)

    @cached_property
    def m_bar(self) -> int:
        return block_count(self.m, self.w)

    @cached_property
    def steps(self) -> int:
        return matvec_steps(self.n_bar, self.m_bar, self.w, self.overlapped)

    @cached_property
    def utilization(self) -> float:
        return matvec_utilization(self.n_bar, self.m_bar, self.w, self.overlapped)

    @property
    def utilization_limit(self) -> float:
        return matvec_utilization_limit(self.overlapped)

    @property
    def feedback_delay(self) -> int:
        return matvec_feedback_delay(self.w)

    @property
    def feedback_registers(self) -> int:
        return matvec_feedback_registers(self.w)

    @property
    def processing_elements(self) -> int:
        return self.w


@dataclass(frozen=True)
class MatMulModel:
    """Analytic model of one ``C = A B + E`` problem on a ``w x w`` array."""

    n: int
    p: int
    m: int
    w: int

    @cached_property
    def n_bar(self) -> int:
        return block_count(self.n, self.w)

    @cached_property
    def p_bar(self) -> int:
        return block_count(self.p, self.w)

    @cached_property
    def m_bar(self) -> int:
        return block_count(self.m, self.w)

    @cached_property
    def steps(self) -> int:
        return matmul_steps(self.n_bar, self.p_bar, self.m_bar, self.w)

    @cached_property
    def utilization(self) -> float:
        return matmul_utilization(self.n_bar, self.p_bar, self.m_bar, self.w)

    @property
    def utilization_limit(self) -> float:
        return matmul_utilization_limit()

    @property
    def regular_feedback_registers(self) -> int:
        return matmul_regular_feedback_registers(self.w)

    @property
    def irregular_feedback_registers(self) -> int:
        return matmul_irregular_feedback_registers(self.w)

    @property
    def processing_elements(self) -> int:
        return self.w * self.w


def _check_bars(*bars: int) -> None:
    for value in bars:
        if value < 1:
            raise ValueError(f"block counts must be >= 1, got {value}")
