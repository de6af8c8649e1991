"""Jacobi iteration driven by the cached matrix-vector plan.

The splitting is ``A = D + R`` (diagonal and off-diagonal parts); each
sweep computes

    ``x_{k+1} = D^{-1} (b - R x_k)``

with the dense product ``R x_k`` — the only O(n^2) work of the sweep —
executed on the linear systolic array through one cached
:class:`~repro.core.plans.MatVecPlan`.  The convergence residual
comes for free from the same product in O(n) host work
(``r(x_k) = b - R x_k - D x_k``), so the sweep judges the *current*
iterate and only applies the update when it has not converged yet.
Because ``R`` has the same shape as ``A``, a k-sweep solve is exactly
one plan lookup followed by k - 1 warm executions: the subsystem's
plan-cache story in its purest form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from .base import PlanCachedIterativeSolver
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["JacobiSolver"]


class JacobiSolver(PlanCachedIterativeSolver):
    """Jacobi solver whose sweep products run on the linear systolic array."""

    method = "jacobi"

    def solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> IterativeResult:
        """Iterate ``x_{k+1} = D^{-1} (b - R x_k)`` until the residual converges.

        The residual history records ``||b - A x_k||`` of the iterate each
        sweep *judged* (recovered in O(n) from the sweep's own product);
        on convergence ``x`` is that judged iterate, not a further update.
        """
        matrix, b, x = self._validate_system(matrix, b, x0)
        diagonal = self._require_nonzero_diagonal(matrix, self.method)
        off_diagonal = matrix - np.diagflat(diagonal)
        reference = float(np.linalg.norm(b))
        inner = self._inner_plans(plans)
        state: Dict[str, Any] = {"x": x, "steps": 0}

        def sweep(_iteration: int) -> float:
            product = inner.matvec(off_diagonal, state["x"])
            state["steps"] += product.measured_steps
            rhs = b - product.y  # b - R x_k: both the residual and the update
            residual = float(np.linalg.norm(rhs - diagonal * state["x"]))
            if not self._criteria.converged(residual, reference):
                state["x"] = rhs / diagonal
            return residual

        return self._iterate(sweep, reference, inner, state)
