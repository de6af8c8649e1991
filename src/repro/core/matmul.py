"""End-to-end size-independent matrix-matrix multiplication (Section 3).

:class:`MatMulSolution` is the result of every mat-mul plan in
:mod:`repro.core.plans` and, being an api
:class:`~repro.api.solution.Solution`, the object a
:class:`repro.api.Solver` returns for a ``matmul`` solve: one object per
solve, whose ``raw`` is itself.  The pipeline itself lives in
:class:`~repro.core.plans.MatMulPlan`:

1. build the transformed operand bands ``A~`` and ``B~`` (structure once
   per shape, values streamed per solve) — on the ``simulate`` backend;
   the ``vectorized`` one builds them only when read,
2. derive the partial-result placement and the spiral feedback plan from
   the bands' provenance (``simulate``); the ``vectorized`` sweep plans
   the same chains in closed form from the DBT index maps
   (:func:`~repro.backends.vectorized.hex_fold_geometry`),
3. stream the bands through the cycle-accurate hexagonal simulator with
   the addend and all fed-back partial results entering through the ``C``
   input ports, so no arithmetic happens outside the array, and
4. read the finished ``C`` out of the output band and report measured
   time, utilization and feedback delays next to the paper's closed forms.

:class:`repro.api.Solver` caches those plans by shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..api.solution import Solution
from ..systolic.hex_array import HexRunResult
from ..systolic.metrics import FeedbackStats, regular_delay_threshold
from .analytic import MatMulModel
from .operands import MatMulOperands
from .recovery import FeedbackClassification, PartialResultMap, classify_feedback_delays

if TYPE_CHECKING:  # pragma: no cover - typing only; plans imports this module
    from .plans import MatMulPlan

__all__ = ["MatMulSolution"]


class MatMulSolution(Solution):
    """Result of one size-independent matrix-matrix execution.

    The measured steps (the ``C`` stream's span, the paper's ``T``
    convention) and utilization are read from ``run`` and the paper's
    closed forms from ``model``, once, at construction.  ``feedback``
    digests the run's feedback delays, regular/irregular split included:
    the vectorized engine computes it once per plan, ``simulate``
    measures it on every run.  ``plan`` is the plan that ran.
    """

    def __init__(
        self,
        c: np.ndarray,
        w: int,
        run: HexRunResult,
        model: MatMulModel,
        feedback: FeedbackStats,
        plan: "MatMulPlan",
    ):
        super().__init__(
            "matmul", w, c, run.c_stream_cycles, model.steps,
            run.report.utilization, model.utilization, feedback,
        )
        self.run = run
        self.model = model
        self.plan = plan

    @property
    def raw(self) -> "MatMulSolution":
        """The solution itself: it is its own kind-specific result."""
        return self

    @property
    def c(self) -> np.ndarray:
        return self.values

    @property
    def operands(self) -> MatMulOperands:
        """The plan's structural operand bands.

        A vectorized plan builds them on the first access: its sweep
        never reads them.
        """
        return self.plan.operands

    @property
    def placement(self) -> PartialResultMap:
        """The plan's partial-result placement, built like :attr:`operands`."""
        return self.plan.placement

    @property
    def feedback_delays(self) -> Dict[Tuple[int, int], int]:
        # Through the items view: a vectorized run's lazy map is no dict,
        # and dict() of it would make one __getitem__ call per entry.
        return dict(self.run.feedback_delays.items())

    def feedback_classification(self) -> FeedbackClassification:
        """Measured feedback delays split into regular and irregular ones.

        A vectorized run's delays are its plan's, split and labelled from
        the fold geometry with no operand band built; a simulated run's
        are labelled through the placement.
        """
        sweep = self.plan.sweep_plan
        if sweep is None:
            return classify_feedback_delays(
                self.run.feedback_delays, self.placement.feedback_targets(), self.w
            )
        regular, irregular = sweep.feedback_split()
        return FeedbackClassification(
            regular_threshold=regular_delay_threshold(self.w),
            regular_delays=regular,
            irregular=irregular,
        )
