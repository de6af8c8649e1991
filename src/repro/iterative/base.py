"""Shared machinery of the plan-cached iterative solvers.

Every solver in this subpackage follows the same contract:

* the heavy per-sweep product(s) run on the systolic array through the
  plans of the solver's plan cache (and, for the splitting methods, the
  blocked pipelines of :mod:`repro.extensions`, handed the same
  :class:`~repro.api.plan.InnerPlans`), so sweep k >= 2 is a pure warm
  plan execution — zero transform or plan construction;
* the convergence bookkeeping (residual norms, stopping rule,
  divergence guard) runs on the host — Jacobi, CG, refinement and power
  recover their residuals in O(n) from the sweep's own array product,
  while SOR keeps the seed Gauss-Seidel dense residual check so the
  ``gauss_seidel`` kind (SOR at ``omega = 1``) stays bit-identical to
  the seed;
* the loop accounting (sweep counter bumps, the cold/warm plan-build
  split read off the solve's own inner-plan tally) and the
  :class:`~repro.iterative.result.IterativeResult` are handled here,
  once, by :meth:`PlanCachedIterativeSolver._iterate`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.plans import InnerPlanExecutor
from ..errors import ConvergenceError, ShapeError
from ..instrumentation import counters
from ..matrices.dense import as_matrix, as_vector
from .criteria import ConvergenceCriteria
from .result import IterativeResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["PlanCachedIterativeSolver"]


class PlanCachedIterativeSolver(InnerPlanExecutor):
    """Base class: array size, criteria, backend, and the sweep loop."""

    #: Registry/display name of the method ("jacobi", "sor", ...).
    method: str = ""

    def __init__(
        self,
        w: int,
        criteria: Optional[ConvergenceCriteria] = None,
        backend: str = "auto",
    ):
        super().__init__(w, backend)
        self._criteria = criteria if criteria is not None else ConvergenceCriteria()

    # -- introspection ----------------------------------------------------------
    @property
    def criteria(self) -> ConvergenceCriteria:
        return self._criteria

    # -- shared validation -------------------------------------------------------
    def _validate_system(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        x0: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check a square system ``A x = b`` and materialize the start vector."""
        matrix = as_matrix(matrix, "matrix")
        b = as_vector(b, "b")
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"{self.method} needs a square matrix, got {matrix.shape}"
            )
        if b.shape[0] != n:
            raise ShapeError(f"b has length {b.shape[0]}, expected {n}")
        x = np.zeros(n, dtype=float) if x0 is None else as_vector(x0, "x0").copy()
        if x.shape[0] != n:
            raise ShapeError(f"x0 has length {x.shape[0]}, expected {n}")
        return matrix, b, x

    @staticmethod
    def _require_nonzero_diagonal(matrix: np.ndarray, method: str) -> np.ndarray:
        diagonal = np.diag(matrix)
        if np.any(np.abs(diagonal) < 1e-300):
            raise ShapeError(f"{method} needs nonzero diagonal entries")
        return diagonal

    # -- the sweep loop ----------------------------------------------------------
    def _iterate(
        self,
        sweep: Callable[[int], float],
        reference: "float | Callable[[], float]",
        plans: "InnerPlans",
        state: Dict[str, Any],
    ) -> IterativeResult:
        """Run ``sweep`` under the criteria and report the solve.

        ``sweep(iteration)`` performs one full sweep — updating
        ``state["x"]``, ``state["steps"]`` and, for power iteration,
        ``state["eigenvalue"]`` — and returns the residual norm to judge.
        ``reference`` scales the relative tolerance — usually ``||b||``;
        a callable is re-evaluated every sweep (power iteration judges
        against the moving ``|lambda_k|``).  The cold/warm plan-build
        split reads ``plans``, the solve's own tally: every inner plan
        built up to the end of sweep 1 (a setup product or refine's
        factorization included) is cold.
        """
        criteria = self._criteria
        history: List[float] = []
        iterations = 0
        converged = False
        builds_first = plans.misses
        initial_residual: Optional[float] = None
        for iteration in range(1, criteria.max_iter + 1):
            iterations = iteration
            residual = float(sweep(iteration))
            counters.bump("iterative_sweeps")
            if iteration == 1:
                builds_first = plans.misses
            history.append(residual)
            if initial_residual is None:
                initial_residual = residual
            if criteria.diverged(residual, initial_residual):
                raise ConvergenceError(
                    f"{self.method} diverged at sweep {iteration}: residual "
                    f"{residual:.6e} (started at {initial_residual:.6e}, "
                    f"guard ratio {criteria.divergence_ratio:g})",
                    iterations=iteration,
                    residual_norm=residual,
                )
            scale = reference() if callable(reference) else reference
            if criteria.converged(residual, scale):
                converged = True
                break
        return IterativeResult(
            method=self.method,
            x=state["x"],
            iterations=iterations,
            converged=converged,
            residual_norm=history[-1] if history else float("inf"),
            residual_history=history,
            array_steps=state["steps"],
            cache=plans.stats,
            plan_builds_first_sweep=builds_first,
            plan_builds_warm_sweeps=plans.misses - builds_first,
            eigenvalue=state.get("eigenvalue"),
        )
