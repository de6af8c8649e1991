"""Iterative refinement wrapped around the blocked systolic LU pipeline.

Classic Wilkinson refinement: factor ``A = L U`` once (trailing updates on
the hexagonal array via :class:`~repro.extensions.lu.SystolicLU`), then
repeat

    ``r_k = b - A x_k``  (product on the linear array)
    ``L U d_k = r_k``    (two plan-cached triangular solves)
    ``x_{k+1} = x_k + d_k``

until the residual converges.  The factorization is the expensive,
plan-warming first step; every refinement sweep after it reuses the
cached matvec plans of the residual product and the triangular block
pipeline, so the marginal cost of driving the error down is k warm
executions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..extensions.lu import SystolicLU
from ..extensions.triangular import SystolicTriangularSolver
from .base import PlanCachedIterativeSolver
from .criteria import ConvergenceCriteria
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["IterativeRefinementSolver"]


class IterativeRefinementSolver(PlanCachedIterativeSolver):
    """LU-based direct solve polished by plan-cached refinement sweeps."""

    method = "refine"

    def __init__(
        self,
        w: int,
        criteria: Optional[ConvergenceCriteria] = None,
        backend: str = "auto",
    ):
        super().__init__(w, criteria, backend)
        self._triangular = SystolicTriangularSolver(self._w, backend=backend)
        self._lu = SystolicLU(self._w, backend=backend)

    def solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> IterativeResult:
        """Factor once, then refine; ``x0`` seeds the first residual if given."""
        matrix, b, x = self._validate_system(matrix, b, x0)
        reference = float(np.linalg.norm(b))
        inner = self._inner_plans(plans)

        # The factorization happens before the sweep loop but is part of
        # the plan-warming cost: its plan builds count as cold.
        factorization = self._lu.factor(matrix, inner)
        state: Dict[str, Any] = {"x": x, "steps": factorization.array_steps}
        lower, upper = factorization.l, factorization.u

        def sweep(_iteration: int) -> float:
            # The residual product IS the sweep's convergence check: judge
            # the current iterate, and only correct it if still needed.
            product = inner.matvec(matrix, state["x"])
            state["steps"] += product.measured_steps
            residual_vector = b - product.y
            residual = float(np.linalg.norm(residual_vector))
            if not self._criteria.converged(residual, reference):
                forward = self._triangular.solve_lower(lower, residual_vector, inner)
                backward = self._triangular.solve_upper(upper, forward.x, inner)
                state["steps"] += forward.array_steps + backward.array_steps
                state["x"] = state["x"] + backward.x
            return residual

        return self._iterate(sweep, reference, inner, state)
