"""End-to-end size-independent matrix-matrix multiplication (Section 3).

:class:`MatMulSolution` is the result type shared by the plan/execute
engines in :mod:`repro.core.plans` and the unified :mod:`repro.api`
façade.  The pipeline itself lives in
:class:`~repro.core.plans.MatMulPlan`:

1. build the transformed operand bands ``A~`` and ``B~`` (structure once
   per shape, values streamed per solve),
2. derive the partial-result placement and the spiral feedback plan,
3. stream the bands through the cycle-accurate hexagonal simulator with
   the addend and all fed-back partial results entering through the ``C``
   input ports, so no arithmetic happens outside the array, and
4. read the finished ``C`` out of the output band and report measured
   time, utilization and feedback delays next to the paper's closed forms.

:class:`SizeIndependentMatMul` is kept as a thin deprecation shim over
:class:`~repro.core.plans.CachedMatMul`; new code should use
:class:`repro.api.Solver`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..matrices.padding import validate_array_size
from ..systolic.hex_array import HexRunResult
from ..systolic.metrics import FeedbackStats
from .analytic import MatMulModel
from .operands import MatMulOperands
from .recovery import FeedbackClassification, PartialResultMap, classify_feedback_delays

__all__ = ["MatMulSolution", "SizeIndependentMatMul"]


@dataclass
class MatMulSolution:
    """Result of one size-independent matrix-matrix execution.

    ``feedback`` digests the run's feedback delays, regular/irregular
    split included: the vectorized engine computes it once per plan,
    ``simulate`` measures it on every run.
    """

    c: np.ndarray
    w: int
    operands: MatMulOperands
    placement: PartialResultMap
    run: HexRunResult
    model: MatMulModel
    feedback: FeedbackStats

    @property
    def measured_steps(self) -> int:
        """Steps spanned by the C stream, the paper's ``T`` convention."""
        return self.run.c_stream_cycles

    @property
    def predicted_steps(self) -> int:
        return self.model.steps

    @property
    def measured_utilization(self) -> float:
        return self.run.report.utilization

    @property
    def predicted_utilization(self) -> float:
        return self.model.utilization

    @property
    def feedback_delays(self) -> Dict[Tuple[int, int], int]:
        return dict(self.run.feedback_delays)

    def feedback_classification(self) -> FeedbackClassification:
        """Measured feedback delays split into regular and irregular ones."""
        return classify_feedback_delays(
            self.run.feedback_delays, self.placement.feedback_targets(), self.w
        )

    def summary(self) -> str:
        """Short paper-vs-measured report used by the examples."""
        classification = self.feedback_classification()
        lines = [
            f"size-independent mat-mul on a {self.w}x{self.w} hexagonal array",
            f"  steps:       measured {self.measured_steps}, paper formula {self.predicted_steps}",
            f"  utilization: measured {self.measured_utilization:.4f}, "
            f"paper formula {self.predicted_utilization:.4f}",
            f"  feedback:    {classification.regular_count} regular values "
            f"(delay <= {classification.regular_threshold}), "
            f"{classification.irregular_count} irregular values "
            f"(max delay {classification.max_irregular_delay})",
        ]
        return "\n".join(lines)


class SizeIndependentMatMul:
    """Solve ``C = A B + E`` for arbitrary dense operands on a ``w x w`` array.

    .. deprecated::
        Thin shim over the shape-keyed execution plans; prefer
        ``repro.api.Solver(w).solve("matmul", a, b, e)``.
    """

    def __init__(self, w: int, verify_structure: bool = False):
        warnings.warn(
            "SizeIndependentMatMul is deprecated; use repro.api.Solver "
            "(plan/execute façade) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        self._w = validate_array_size(w)
        self._verify_structure = verify_structure
        from .plans import CachedMatMul  # deferred: plans imports this module

        self._engine = CachedMatMul(self._w, verify_structure=verify_structure)

    @property
    def w(self) -> int:
        return self._w

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray] = None,
    ) -> MatMulSolution:
        """Transform, simulate and recover ``C = A B + E``."""
        return self._engine.solve(a, b, e)
