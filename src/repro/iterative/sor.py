"""Successive over-relaxation (SOR) on the DBT pipelines.

SOR generalizes the Gauss-Seidel iteration Section 4 of the paper lists
(Gauss-Seidel is exactly ``omega = 1``).  With ``A = D + L + U`` (diagonal,
strictly lower, strictly upper) the sweep solves

    ``(D + omega L) x_{k+1} = omega b - (omega U + (omega - 1) D) x_k``

in two plan-cached stages, exactly as the seed Gauss-Seidel extension
did: the dense product with the upper splitting runs on the linear array,
and the lower triangular solve goes through
:class:`~repro.extensions.triangular.SystolicTriangularSolver`, handed the
same inner plans — so every sweep after the first is pure warm plan
execution.

For ``omega == 1.0`` the splitting is computed on the seed Gauss-Seidel
code path (``b - U x`` with ``np.tril(A)``), keeping the ``gauss_seidel``
kind — this solver under the presets ``omega=1`` and the seed's stopping
rule — bit-identical to the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..extensions.triangular import SystolicTriangularSolver
from .base import PlanCachedIterativeSolver
from .criteria import ConvergenceCriteria
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["SORSolver"]


class SORSolver(PlanCachedIterativeSolver):
    """Weighted Gauss-Seidel (SOR) with array-executed sweep products."""

    method = "sor"

    def __init__(
        self,
        w: int,
        omega: float = 1.0,
        criteria: Optional[ConvergenceCriteria] = None,
        backend: str = "auto",
    ):
        super().__init__(w, criteria, backend)
        if not 0.0 < omega < 2.0:
            raise ValueError(
                f"SOR needs 0 < omega < 2 for convergence, got {omega}"
            )
        self._omega = float(omega)
        self._triangular = SystolicTriangularSolver(self._w, backend=backend)

    @property
    def omega(self) -> float:
        return self._omega

    def solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> IterativeResult:
        """Relaxed sweeps until the residual of ``A x = b`` converges."""
        matrix, b, x = self._validate_system(matrix, b, x0)
        diagonal = self._require_nonzero_diagonal(matrix, self.method)
        omega = self._omega
        if omega == 1.0:
            # Exact seed Gauss-Seidel arithmetic (no multiplies by 1/0).
            upper_split = np.triu(matrix, k=1)
            lower_solve = np.tril(matrix)
            scaled_b = b
        else:
            diagonal_matrix = np.diagflat(diagonal)
            upper_split = omega * np.triu(matrix, k=1) + (omega - 1.0) * diagonal_matrix
            lower_solve = diagonal_matrix + omega * np.tril(matrix, k=-1)
            scaled_b = omega * b
        reference = float(np.linalg.norm(b))
        inner = self._inner_plans(plans)
        state: Dict[str, Any] = {"x": x, "steps": 0}

        def sweep(_iteration: int) -> float:
            product = inner.matvec(upper_split, state["x"])
            state["steps"] += product.measured_steps
            solve = self._triangular.solve_lower(
                lower_solve, scaled_b - product.y, inner
            )
            state["steps"] += solve.array_steps
            state["x"] = solve.x
            return float(np.linalg.norm(matrix @ state["x"] - b))

        return self._iterate(sweep, reference, inner, state)
