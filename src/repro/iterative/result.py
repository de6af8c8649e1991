"""The common result protocol of the iterative solvers.

Every :mod:`repro.iterative` solver returns an :class:`IterativeResult`:
the solution vector, the per-sweep residual history, convergence status,
the array step budget spent, and — the subsystem's reason to exist — the
solve's inner-plan lookups as :class:`~repro.instrumentation.CacheStats`
plus the cold/warm plan-build split, which together *prove* that a
k-sweep solve costs k warm plan executions and zero recompiles after the
first sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..instrumentation import CacheStats

__all__ = ["IterativeResult"]


@dataclass
class IterativeResult:
    """Outcome of one iterative solve.

    ``cache`` tallies this solve's inner-plan lookups: one per distinct
    inner shape against the solver's plan cache (a miss is a plan build),
    plus a hit for every later use.  ``plan_builds_first_sweep`` counts
    the inner plans built up to the end of the first sweep (setup work
    such as refine's factorization included); ``plan_builds_warm_sweeps``
    counts the plans built by every later sweep — by construction the
    subsystem keeps it at **zero**, and tests assert exactly that.
    """

    method: str
    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: List[float] = field(default_factory=list)
    array_steps: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    plan_builds_first_sweep: int = 0
    plan_builds_warm_sweeps: int = 0
    eigenvalue: Optional[float] = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")

    @property
    def residual_reduction(self) -> float:
        """``history[-1] / history[0]`` (1.0 for an empty history)."""
        if len(self.residual_history) < 2:
            return 1.0
        first = self.residual_history[0]
        return self.residual_history[-1] / first if first else 0.0

    def summary(self) -> str:
        """A short human-readable convergence report."""
        status = "converged" if self.converged else "did not converge"
        lines = [
            f"repro.iterative {self.method}: {status} after "
            f"{self.iterations} sweep(s)",
            f"  residual:    {self.residual_norm:.3e}"
            + (
                f" (reduced {self.residual_reduction:.2e}x from "
                f"{self.residual_history[0]:.3e})"
                if len(self.residual_history) >= 2
                else ""
            ),
            f"  array steps: {self.array_steps}",
            (
                f"  plan cache:  {self.cache.hits} hits / "
                f"{self.cache.misses} misses "
                f"(hit rate {self.cache.hit_rate:.3f}); plan builds: "
                f"{self.plan_builds_first_sweep} first sweep, "
                f"{self.plan_builds_warm_sweeps} warm sweeps"
            ),
        ]
        if self.eigenvalue is not None:
            lines.insert(1, f"  eigenvalue:  {self.eigenvalue:.6g}")
        return "\n".join(lines)
