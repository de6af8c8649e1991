"""End-to-end size-independent matrix-vector multiplication (Section 2).

:class:`MatVecSolution` is the result of every mat-vec plan in
:mod:`repro.core.plans` and, being an api
:class:`~repro.api.solution.Solution`, the object a
:class:`repro.api.Solver` returns for a ``matvec`` solve: one object per
solve, whose ``raw`` is itself.  The pipeline itself lives in
:class:`~repro.core.plans.MatVecPlan` (and
:class:`~repro.core.plans.OverlappedMatVecPlan` for the split-and-overlap
execution); :class:`repro.api.Solver` caches those plans by shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..api.solution import Solution
from ..systolic.linear_array import LinearRunResult
from ..systolic.metrics import FeedbackStats
from ..systolic.trace import DataFlowTrace
from .analytic import MatVecModel
from .dbt import DBTByRowsTransform

if TYPE_CHECKING:  # pragma: no cover - typing only; plans imports this module
    from .plans import MatVecPlan

__all__ = ["MatVecSolution"]


class MatVecSolution(Solution):
    """Result of one size-independent matrix-vector execution.

    The measured steps and utilization are read from ``run`` and the
    paper's closed forms from ``model``, once, at construction.
    ``feedback`` digests the run's feedback traffic: the vectorized engine
    computes it once per plan, ``simulate`` measures it on every run.
    ``plans`` are the plans that ran, one per transformed problem.
    """

    def __init__(
        self,
        y: np.ndarray,
        w: int,
        overlapped: bool,
        run: LinearRunResult,
        model: MatVecModel,
        feedback: FeedbackStats,
        plans: Sequence["MatVecPlan"],
    ):
        super().__init__(
            "matvec", w, y, run.total_cycles, model.steps,
            run.report.utilization, model.utilization, feedback,
            {"overlapped": overlapped},
        )
        self.overlapped = overlapped
        self.run = run
        self.model = model
        self.plans = plans

    @property
    def raw(self) -> "MatVecSolution":
        """The solution itself: it is its own kind-specific result."""
        return self

    @property
    def y(self) -> np.ndarray:
        return self.values

    @property
    def transforms(self) -> List[DBTByRowsTransform]:
        """The structural template of each transformed problem.

        A vectorized plan builds its template on the first access, not
        at plan build: its sweep never reads it.
        """
        return [plan.transform for plan in self.plans]

    @property
    def feedback_delays(self) -> List[int]:
        return self.run.feedback_delays()

    @property
    def trace(self) -> Optional[DataFlowTrace]:
        return self.run.trace
