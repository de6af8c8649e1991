"""Triangular system solution built on the DBT matrix-vector pipeline.

Section 4 of the paper reports that the same methodology was applied to
"triangular systems of linear and matrix equations" in the authors'
technical report /8/, which is not publicly available.  This module
re-derives the application from what the ISCA paper does make available:

* the system ``L x = b`` (or ``U x = b``) is processed by blocks of the
  array size ``w``;
* all block matrix-vector products — the bulk of the arithmetic — are
  executed on the linear systolic array, each through the cached
  :class:`~repro.core.plans.MatVecPlan` of its block shape;
* only the ``w x w`` triangular solves on the diagonal blocks are done by
  a scalar routine, standing in for the specialised boundary cell that a
  hardware triangular solver array would provide (documented as a
  substitution in ``DESIGN.md``).

The per-solve report keeps track of how many operations ran on the array
versus on the host so that examples and tests can show the array carries
the dominant share as the problem grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import ShapeError
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import block_count
from ..core.plans import InnerPlanExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["TriangularSolveResult", "SystolicTriangularSolver"]


@dataclass
class TriangularSolveResult:
    """Solution of one triangular system plus the array/host work split."""

    x: np.ndarray
    array_steps: int
    array_operations: int
    host_operations: int
    block_solves: int
    matvec_calls: int = 0
    residual_norm: float = field(default=0.0)

    @property
    def array_share(self) -> float:
        """Fraction of arithmetic executed on the systolic array."""
        total = self.array_operations + self.host_operations
        if total == 0:
            return 0.0
        return self.array_operations / total


class SystolicTriangularSolver(InnerPlanExecutor):
    """Solve ``T x = b`` for dense triangular ``T`` using the array for products.

    Each per-block product runs through ``plans`` (see
    :class:`~repro.core.plans.InnerPlanExecutor`), so the block shapes —
    which repeat across solves — reuse their execution plans.  A passed
    ``plans`` carries its own backend; ``backend`` (``"auto"`` runs the
    vectorized diagonal-sweep engine) only applies to standalone solves.
    """

    def solve_lower(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        plans: "Optional[InnerPlans]" = None,
    ) -> TriangularSolveResult:
        """Forward substitution for a lower triangular system."""
        return self._solve(matrix, b, True, plans)

    def solve_upper(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        plans: "Optional[InnerPlans]" = None,
    ) -> TriangularSolveResult:
        """Backward substitution for an upper triangular system."""
        return self._solve(matrix, b, False, plans)

    def _solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        lower: bool,
        plans: "Optional[InnerPlans]",
    ) -> TriangularSolveResult:
        matrix = as_matrix(matrix, "matrix")
        b = as_vector(b, "b")
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"triangular solve needs a square matrix, got {matrix.shape}")
        if b.shape[0] != n:
            raise ShapeError(f"b has length {b.shape[0]}, expected {n}")
        if np.any(np.abs(np.diag(matrix)) < 1e-300):
            raise ShapeError("triangular matrix has a (numerically) zero diagonal entry")

        w = self._w
        blocks = block_count(n, w)
        inner = self._inner_plans(plans)
        x = np.zeros(n, dtype=float)
        array_steps = 0
        array_operations = 0
        host_operations = 0
        matvec_calls = 0
        block_solves = 0

        order: List[int] = list(range(blocks)) if lower else list(range(blocks - 1, -1, -1))
        for index in order:
            row_lo = index * w
            row_hi = min(n, (index + 1) * w)
            rhs = b[row_lo:row_hi].copy()

            # Subtract the contribution of the already-solved blocks; this is
            # the part that runs on the systolic array.
            solved_cols = (
                slice(0, row_lo) if lower else slice(row_hi, n)
            )
            solved = x[solved_cols]
            if solved.size > 0:
                off_diagonal = matrix[row_lo:row_hi, solved_cols]
                solution = inner.matvec(off_diagonal, solved)
                rhs -= solution.y
                array_steps += solution.measured_steps
                array_operations += off_diagonal.shape[0] * off_diagonal.shape[1]
                host_operations += row_hi - row_lo  # the subtraction itself
                matvec_calls += 1

            # Solve the diagonal block with a scalar routine (the boundary
            # cell substitution).
            diag_block = matrix[row_lo:row_hi, row_lo:row_hi]
            x[row_lo:row_hi] = self._solve_block(diag_block, rhs, lower)
            size = row_hi - row_lo
            host_operations += size * (size + 1) // 2
            block_solves += 1

        residual = float(np.linalg.norm(matrix @ x - b))
        return TriangularSolveResult(
            x=x,
            array_steps=array_steps,
            array_operations=array_operations,
            host_operations=host_operations,
            block_solves=block_solves,
            matvec_calls=matvec_calls,
            residual_norm=residual,
        )

    @staticmethod
    def _solve_block(block: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
        """Scalar forward/backward substitution for one diagonal block."""
        size = block.shape[0]
        out = np.zeros(size, dtype=float)
        indices = range(size) if lower else range(size - 1, -1, -1)
        for i in indices:
            if lower:
                acc = rhs[i] - block[i, :i] @ out[:i]
            else:
                acc = rhs[i] - block[i, i + 1 :] @ out[i + 1 :]
            out[i] = acc / block[i, i]
        return out
