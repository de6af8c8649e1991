"""The common result protocol of the unified solver façade.

Every problem kind routed through :class:`~repro.api.solver.Solver`
returns a :class:`Solution`: the recovered values, the measured and (where
the paper gives a closed form) predicted step counts and utilizations, a
:class:`FeedbackStats` digest of the partial-result feedback traffic,
kind-specific extras in ``stats``, and the underlying kind-specific result
object in ``raw`` for callers that need full detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..systolic.metrics import FeedbackStats

__all__ = ["FeedbackStats", "Solution"]


@dataclass
class Solution:
    """Uniform result of one :class:`~repro.api.solver.Solver` execution."""

    kind: str
    w: int
    values: Any
    measured_steps: int
    predicted_steps: Optional[int] = None
    measured_utilization: Optional[float] = None
    predicted_utilization: Optional[float] = None
    feedback: FeedbackStats = field(default_factory=FeedbackStats)
    stats: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None
    plan_key: Optional[Tuple] = None
    from_cache: bool = False

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
