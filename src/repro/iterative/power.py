"""Power iteration for the dominant eigenpair, products on the array.

Each sweep is one matrix-vector product ``y = A x_k`` on the linear
systolic array (one cached plan, reused every sweep), followed by O(n)
host work: the Rayleigh quotient ``lambda_k = x_k^T y`` (exact for the
unit-norm iterate), the eigen-residual ``||y - lambda_k x_k||`` that
drives convergence, and the normalization ``x_{k+1} = y / ||y||``.

The start vector defaults to the deterministic constant vector
``(1, ..., 1) / sqrt(n)`` so repeated solves — and the simulate/vectorized
backends — are reproducible bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..errors import ConvergenceError, ShapeError
from ..matrices.dense import as_matrix, as_vector
from .base import PlanCachedIterativeSolver
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["PowerIterationSolver"]


class PowerIterationSolver(PlanCachedIterativeSolver):
    """Dominant-eigenpair iteration with array-executed products."""

    method = "power"

    def solve(
        self,
        matrix: np.ndarray,
        x0: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> IterativeResult:
        """Iterate to the dominant eigenpair; the result carries both.

        The residual judged against the criteria is the eigen-residual
        ``||A x - lambda x||``; the relative tolerance scales with
        ``|lambda|`` (the natural reference for an eigenproblem).
        """
        matrix = as_matrix(matrix, "matrix")
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"power iteration needs a square matrix, got {matrix.shape}")
        if x0 is None:
            x = np.full(n, 1.0 / np.sqrt(n))
        else:
            x = as_vector(x0, "x0").astype(float, copy=True)
            if x.shape[0] != n:
                raise ShapeError(f"x0 has length {x.shape[0]}, expected {n}")
            norm = float(np.linalg.norm(x))
            if norm == 0.0:
                raise ShapeError("power iteration needs a nonzero start vector")
            x = x / norm
        inner = self._inner_plans(plans)
        state: Dict[str, Any] = {"x": x, "eigenvalue": 0.0, "steps": 0}

        def sweep(iteration: int) -> float:
            product = inner.matvec(matrix, state["x"])
            state["steps"] += product.measured_steps
            y = product.y
            eigenvalue = float(state["x"] @ y)
            residual = float(np.linalg.norm(y - eigenvalue * state["x"]))
            norm = float(np.linalg.norm(y))
            if norm == 0.0:
                raise ConvergenceError(
                    f"power iteration collapsed to the zero vector at sweep "
                    f"{iteration}; the iterate lies in the null space",
                    iterations=iteration,
                    residual_norm=residual,
                )
            state["x"] = y / norm
            state["eigenvalue"] = eigenvalue
            return residual

        return self._iterate(
            sweep, lambda: abs(state["eigenvalue"]), inner, state
        )
