"""End-to-end size-independent matrix-vector multiplication (Section 2).

:class:`MatVecSolution` is the result type shared by the plan/execute
engines in :mod:`repro.core.plans` and the unified :mod:`repro.api`
façade.  The pipeline itself lives in
:class:`~repro.core.plans.MatVecPlan` (and
:class:`~repro.core.plans.OverlappedMatVecPlan` for the split-and-overlap
execution); :class:`repro.api.Solver` caches those plans by shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..systolic.linear_array import LinearRunResult
from ..systolic.metrics import FeedbackStats
from ..systolic.trace import DataFlowTrace
from .analytic import MatVecModel
from .dbt import DBTByRowsTransform

if TYPE_CHECKING:  # pragma: no cover - typing only; plans imports this module
    from .plans import MatVecPlan

__all__ = ["MatVecSolution"]


@dataclass
class MatVecSolution:
    """Result of one size-independent matrix-vector execution.

    ``feedback`` digests the run's feedback traffic: the vectorized engine
    computes it once per plan, ``simulate`` measures it on every run.
    ``plans`` are the plans that ran, one per transformed problem.
    """

    y: np.ndarray
    w: int
    overlapped: bool
    run: LinearRunResult
    model: MatVecModel
    feedback: FeedbackStats
    plans: Sequence["MatVecPlan"]

    @property
    def transforms(self) -> List[DBTByRowsTransform]:
        """The structural template of each transformed problem.

        A vectorized plan builds its template on the first access, not
        at plan build: its sweep never reads it.
        """
        return [plan.transform for plan in self.plans]

    @property
    def measured_steps(self) -> int:
        return self.run.total_cycles

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
    def feedback_delays(self) -> List[int]:
        return self.run.feedback_delays()

    @property
    def trace(self) -> Optional[DataFlowTrace]:
        return self.run.trace

    def summary(self) -> str:
        """Short paper-vs-measured report used by the examples."""
        lines = [
            f"size-independent mat-vec on a {self.w}-cell linear array"
            + (" (overlapped)" if self.overlapped else ""),
            f"  steps:       measured {self.measured_steps}, paper formula {self.predicted_steps}",
            f"  utilization: measured {self.measured_utilization:.4f}, "
            f"paper formula {self.predicted_utilization:.4f}",
        ]
        feedback = self.feedback
        if feedback.count:
            lo, hi = feedback.min_delay, feedback.max_delay
            if lo == hi:
                delay_text = f"every delay = {lo} cycles" + (
                    " (= w)" if lo == self.w else ""
                )
            else:
                delay_text = f"delays {lo}..{hi} cycles (min..max)"
            lines.append(
                f"  feedback:    {feedback.count} values fed back, {delay_text}"
            )
        return "\n".join(lines)
