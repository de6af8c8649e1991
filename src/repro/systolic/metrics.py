"""Utilization and timing metrics shared by both array simulators.

The paper's quantitative claims are expressed through the processing
element utilization factor ``eta = N / (A * T)`` where ``N`` is the number
of operations required by the algorithm, ``A`` the number of processing
elements and ``T`` the number of steps the array needs (Section 1).  The
simulators report their measurements through :class:`UtilizationReport`
objects so that benchmarks can compare measured values against the paper's
closed forms without re-deriving anything; :class:`FeedbackStats` digests
the partial-result feedback traffic of one execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "FeedbackStats",
    "UtilizationReport",
    "regular_delay_threshold",
    "utilization",
]


def utilization(operations: int, processing_elements: int, steps: int) -> float:
    """The paper's utilization factor ``eta = N / (A * T)``."""
    if processing_elements <= 0:
        raise ValueError(f"processing_elements must be > 0, got {processing_elements}")
    if steps <= 0:
        raise ValueError(f"steps must be > 0, got {steps}")
    if operations < 0:
        raise ValueError(f"operations must be >= 0, got {operations}")
    return operations / (processing_elements * steps)


@dataclass(frozen=True)
class UtilizationReport:
    """Measured activity of one simulated array execution.

    Attributes
    ----------
    processing_elements:
        Number of PEs in the array (``A`` in the paper).
    steps:
        Number of clock steps from the first cycle in which data crossed
        an array boundary to the last cycle in which a cell computed,
        inclusive (``T`` in the paper).
    mac_operations:
        Multiply-accumulate operations actually executed by the array.
        For a DBT-transformed problem this counts the operations of the
        *padded* problem, because the transformed band is completely
        filled.
    useful_operations:
        Operations attributable to the original, unpadded problem.  Equals
        ``mac_operations`` when the problem dimensions are multiples of the
        array size.
    """

    processing_elements: int
    steps: int
    mac_operations: int
    useful_operations: Optional[int] = None

    @property
    def utilization(self) -> float:
        """Hardware utilization: executed MACs over array capacity."""
        return utilization(self.mac_operations, self.processing_elements, self.steps)

    @property
    def effective_utilization(self) -> float:
        """Utilization counting only operations of the original problem."""
        ops = (
            self.useful_operations
            if self.useful_operations is not None
            else self.mac_operations
        )
        return utilization(ops, self.processing_elements, self.steps)

    @property
    def capacity(self) -> int:
        """Total cell-cycles available during the execution (``A * T``)."""
        return self.processing_elements * self.steps

    def describe(self) -> str:
        """One-line human readable summary used by examples and reports.

        When ``useful_operations`` is set (a padded / transformed run),
        the effective utilization — operations of the *original* problem
        over array capacity — is reported next to the raw figure, so the
        padding never inflates the quoted number.
        """
        text = (
            f"A={self.processing_elements} PEs, T={self.steps} steps, "
            f"{self.mac_operations} MACs, utilization={self.utilization:.4f}"
        )
        if self.useful_operations is not None:
            text += f", effective_utilization={self.effective_utilization:.4f}"
        return text


def regular_delay_threshold(w: int) -> int:
    """Largest spiral feedback delay the constant-size register file serves.

    With the ``t = i + j + k`` schedule, partial results of adjacent band
    blocks re-enter the ``w x w`` hexagonal array after ``2w + |d|``
    cycles for a diagonal offset ``|d| < w``, so every delay up to ``3w``
    is *regular*; longer ones are the paper's irregular delays (Section 3).
    """
    return 3 * w


@dataclass(frozen=True)
class FeedbackStats:
    """Digest of the partial-result feedback traffic of one execution.

    ``count`` is the number of values that re-entered the array through a
    feedback path.  ``min_delay``/``max_delay`` bound the observed delays
    (``None`` when nothing was fed back); for the hexagonal array,
    ``regular``/``irregular`` split the delays per Section 3 of the paper.
    """

    count: int = 0
    min_delay: Optional[int] = None
    max_delay: Optional[int] = None
    regular: Optional[int] = None
    irregular: Optional[int] = None

    @classmethod
    def from_delays(
        cls, delays: Iterable[int], regular_threshold: Optional[int] = None
    ) -> "FeedbackStats":
        """Digest a sequence of delays.

        With ``regular_threshold`` (the hexagonal array's
        :func:`regular_delay_threshold`), delays at most the threshold
        count as regular and the rest as irregular; the split needs only
        the delay values.
        """
        delays = list(delays)
        regular: Optional[int] = None
        irregular: Optional[int] = None
        if regular_threshold is not None:
            regular = sum(1 for delay in delays if delay <= regular_threshold)
            irregular = len(delays) - regular
        if not delays:
            return cls(regular=regular, irregular=irregular)
        return cls(
            count=len(delays), min_delay=min(delays), max_delay=max(delays),
            regular=regular, irregular=irregular,
        )

    def describe(self) -> str:
        if self.count == 0:
            return "no values fed back"
        text = f"{self.count} values fed back, delays {self.min_delay}..{self.max_delay}"
        if self.regular is not None and self.irregular is not None:
            text += f" ({self.regular} regular, {self.irregular} irregular)"
        return text
