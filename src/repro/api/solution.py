"""The common result protocol of the unified solver façade.

Every problem kind routed through :class:`~repro.api.solver.Solver`
returns a :class:`Solution`: the recovered values, the measured and (where
the paper gives a closed form) predicted step counts and utilizations, a
:class:`FeedbackStats` digest of the partial-result feedback traffic,
kind-specific extras in ``stats``, and the kind-specific result object in
``raw`` for callers that need full detail.

The array kinds build one object per solve: a mat-vec or mat-mul plan
returns a :class:`~repro.core.matvec.MatVecSolution` or
:class:`~repro.core.matmul.MatMulSolution`, both subclasses of
:class:`Solution` whose ``raw`` is the solution itself.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..systolic.metrics import FeedbackStats

__all__ = ["FeedbackStats", "Solution"]

_NO_FEEDBACK = FeedbackStats()


class Solution:
    """Uniform result of one :class:`~repro.api.solver.Solver` execution.

    A plain class, compared by identity: a subclass whose ``raw`` is
    itself would make a generated ``__eq__`` or ``__repr__`` recurse.
    ``plan_key`` is set by the :class:`~repro.api.plan.ExecutionPlan`
    that ran the solve and ``from_cache`` by the solver that looked it up.
    """

    def __init__(
        self,
        kind: str,
        w: int,
        values: Any,
        measured_steps: int,
        predicted_steps: Optional[int] = None,
        measured_utilization: Optional[float] = None,
        predicted_utilization: Optional[float] = None,
        feedback: FeedbackStats = _NO_FEEDBACK,
        stats: Optional[Dict[str, Any]] = None,
        raw: Any = None,
        plan_key: Optional[Tuple] = None,
        from_cache: bool = False,
    ):
        self.kind = kind
        self.w = w
        self.values = values
        self.measured_steps = measured_steps
        self.predicted_steps = predicted_steps
        self.measured_utilization = measured_utilization
        self.predicted_utilization = predicted_utilization
        self.feedback = feedback
        self.stats = {} if stats is None else stats
        self._raw = raw
        self.plan_key = plan_key
        self.from_cache = from_cache

    @property
    def raw(self) -> Any:
        """The kind-specific result object behind this solution."""
        return self._raw

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(kind={self.kind!r}, w={self.w}, "
            f"measured_steps={self.measured_steps}, plan_key={self.plan_key!r})"
        )

    def summary(self) -> str:
        """Uniform short report across all problem kinds."""
        header = f"repro.api {self.kind} on a w={self.w} systolic array"
        if self.from_cache:
            header += " [cached plan]"
        lines = [header]
        if self.predicted_steps is not None:
            lines.append(
                f"  steps:       measured {self.measured_steps}, "
                f"paper formula {self.predicted_steps}"
            )
        else:
            lines.append(f"  steps:       measured {self.measured_steps}")
        if self.measured_utilization is not None:
            if self.predicted_utilization is not None:
                lines.append(
                    f"  utilization: measured {self.measured_utilization:.4f}, "
                    f"paper formula {self.predicted_utilization:.4f}"
                )
            else:
                lines.append(
                    f"  utilization: measured {self.measured_utilization:.4f}"
                )
        lines.append(f"  feedback:    {self.feedback.describe()}")
        for name in sorted(self.stats):
            value = self.stats[name]
            if isinstance(value, float):
                value = f"{value:.4f}"
            lines.append(f"  {name + ':':<13}{value}")
        return "\n".join(lines)
