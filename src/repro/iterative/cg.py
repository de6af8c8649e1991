"""Conjugate gradient for SPD (banded or dense) systems on the array.

Each CG iteration needs exactly one matrix-vector product ``A p_k`` — the
O(n^2) bulk of the work — and a handful of O(n) host recurrences.  The
product runs on the linear systolic array through one cached
:class:`~repro.core.plans.MatVecPlan` (the same ``(n, n)`` plan every
iteration), so a k-iteration solve is one plan lookup plus k warm
executions.

The solver guards the method's preconditions: a visibly non-symmetric
operand raises :class:`~repro.errors.ShapeError` up front, and a
non-positive curvature ``p^T A p <= 0`` encountered mid-iteration raises
:class:`~repro.errors.ConvergenceError` (the matrix was not positive
definite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..errors import ConvergenceError, ShapeError
from .base import PlanCachedIterativeSolver
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["ConjugateGradientSolver"]


class ConjugateGradientSolver(PlanCachedIterativeSolver):
    """CG solver whose ``A p`` products run on the linear systolic array."""

    method = "cg"

    #: Relative asymmetry ``||A - A^T|| / ||A||`` beyond which the operand
    #: is rejected as not symmetric.
    SYMMETRY_RTOL = 1e-10

    def solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> IterativeResult:
        """Standard CG recurrences; the residual history is ``||r_k||``."""
        matrix, b, x = self._validate_system(matrix, b, x0)
        scale = float(np.linalg.norm(matrix))
        if float(np.linalg.norm(matrix - matrix.T)) > self.SYMMETRY_RTOL * max(
            scale, 1e-300
        ):
            raise ShapeError("cg needs a symmetric (SPD) matrix")
        reference = float(np.linalg.norm(b))
        inner = self._inner_plans(plans)

        # A nonzero start vector needs one residual product before the
        # loop; like refine's factorization, its plan build is part of
        # the cold (first-sweep) warming cost.
        if np.any(x):
            start = inner.matvec(matrix, x)
            residual = b - start.y
            initial_steps = start.measured_steps
        else:
            residual = b.copy()
            initial_steps = 0
        state: Dict[str, Any] = {
            "x": x,
            "r": residual,
            "p": residual.copy(),
            "rr": float(residual @ residual),
            "steps": initial_steps,
        }

        def sweep(iteration: int) -> float:
            if state["rr"] == 0.0:
                return 0.0  # already exact; converged on a zero residual
            product = inner.matvec(matrix, state["p"])
            state["steps"] += product.measured_steps
            curvature = float(state["p"] @ product.y)
            if curvature <= 0.0:
                raise ConvergenceError(
                    f"cg hit non-positive curvature p^T A p = {curvature:.6e} "
                    f"at iteration {iteration}; the matrix is not positive "
                    f"definite",
                    iterations=iteration,
                    residual_norm=float(np.sqrt(state["rr"])),
                )
            alpha = state["rr"] / curvature
            state["x"] = state["x"] + alpha * state["p"]
            state["r"] = state["r"] - alpha * product.y
            rr_next = float(state["r"] @ state["r"])
            beta = rr_next / state["rr"]
            state["p"] = state["r"] + beta * state["p"]
            state["rr"] = rr_next
            return float(np.sqrt(rr_next))

        return self._iterate(sweep, reference, inner, state)
