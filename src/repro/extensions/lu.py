"""Blocked LU decomposition and triangular inversion on the DBT pipelines.

The last applications Section 4 attributes to the methodology are "L-U
decomposition and inverses of triangular and dense matrices".  This module
implements right-looking blocked LU factorization (without pivoting, as in
the systolic literature of the period) and triangular/dense inversion where

* every trailing-submatrix update ``A_22 <- A_22 - A_21 A_12`` — the cubic
  part of the work — runs on the hexagonal array, through the cached
  :class:`~repro.core.plans.MatMulPlan` of its shape,
* the panel factorizations and small triangular solves (the quadratic
  part) run on the host, standing in for the specialised boundary cells of
  a hardware LU array.

The results report the array/host split so that the examples can show the
array's share approaching 1 as the problem grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..matrices.dense import as_matrix
from ..matrices.padding import block_count
from ..core.plans import InnerPlanExecutor
from .triangular import SystolicTriangularSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["LUResult", "InverseResult", "SystolicLU"]


@dataclass
class LUResult:
    """Blocked LU factorization ``A = L U`` plus work accounting."""

    l: np.ndarray  # noqa: E741 - the L factor, named for the math
    u: np.ndarray
    array_steps: int
    array_operations: int
    host_operations: int
    update_calls: int

    @property
    def array_share(self) -> float:
        total = self.array_operations + self.host_operations
        if total == 0:
            return 0.0
        return self.array_operations / total

    def residual(self, matrix: np.ndarray) -> float:
        """``||A - L U||`` for the matrix the factorization was computed from."""
        return float(np.linalg.norm(np.asarray(matrix, dtype=float) - self.l @ self.u))


@dataclass
class InverseResult:
    """Matrix inverse plus work accounting."""

    inverse: np.ndarray
    array_steps: int
    array_operations: int
    host_operations: int

    @property
    def array_share(self) -> float:
        total = self.array_operations + self.host_operations
        if total == 0:
            return 0.0
        return self.array_operations / total


class SystolicLU(InnerPlanExecutor):
    """Blocked LU factorization and inversion using the systolic pipelines.

    The trailing updates and the triangular solves' block products run
    through ``plans`` (see :class:`~repro.core.plans.InnerPlanExecutor`);
    one solve passes the same ``plans`` down to its triangular solves.
    """

    def __init__(self, w: int, backend: str = "auto"):
        super().__init__(w, backend)
        self._triangular = SystolicTriangularSolver(self._w, backend=backend)

    # -- factorization --------------------------------------------------------------
    def factor(
        self, matrix: np.ndarray, plans: "Optional[InnerPlans]" = None
    ) -> LUResult:
        """Right-looking blocked LU without pivoting.

        The matrix must be square and have nonsingular leading blocks (the
        usual requirement for unpivoted LU); diagonally dominant and
        symmetric positive definite matrices qualify.
        """
        matrix = as_matrix(matrix, "matrix")
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"LU needs a square matrix, got {matrix.shape}")

        inner = self._inner_plans(plans)
        w = self._w
        blocks = block_count(n, w)
        work = matrix.copy()
        lower = np.eye(n, dtype=float)
        upper = np.zeros((n, n), dtype=float)
        array_steps = 0
        array_operations = 0
        host_operations = 0
        update_calls = 0

        for step in range(blocks):
            lo = step * w
            hi = min(n, (step + 1) * w)
            pivot = work[lo:hi, lo:hi]
            l_block, u_block = self._factor_block(pivot)
            host_operations += (hi - lo) ** 3 // 3 + (hi - lo) ** 2
            lower[lo:hi, lo:hi] = l_block
            upper[lo:hi, lo:hi] = u_block

            if hi < n:
                # Panel solves: L21 U11 = A21 and L11 U12 = A12.
                a21 = work[hi:, lo:hi]
                a12 = work[lo:hi, hi:]
                l21 = self._solve_right_upper(a21, u_block)
                u12 = self._solve_left_lower(a12, l_block)
                host_operations += a21.size * (hi - lo) + a12.size * (hi - lo)
                lower[hi:, lo:hi] = l21
                upper[lo:hi, hi:] = u12

                # Trailing update on the hexagonal array:
                # A22 <- A22 - L21 U12 = (-L21) U12 + A22.
                update = inner.matmul(-l21, u12, work[hi:, hi:])
                array_steps += update.measured_steps
                array_operations += l21.shape[0] * l21.shape[1] * u12.shape[1]
                update_calls += 1
                work[hi:, hi:] = update.c

        return LUResult(
            l=lower,  # noqa: E741
            u=upper,
            array_steps=array_steps,
            array_operations=array_operations,
            host_operations=host_operations,
            update_calls=update_calls,
        )

    # -- inversion ---------------------------------------------------------------------
    def invert_triangular(
        self,
        matrix: np.ndarray,
        lower: bool = True,
        plans: "Optional[InnerPlans]" = None,
    ) -> InverseResult:
        """Invert a triangular matrix by solving ``T X = I`` column block by block."""
        matrix = as_matrix(matrix, "matrix")
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"inversion needs a square matrix, got {matrix.shape}")
        inner = self._inner_plans(plans)
        identity = np.eye(n, dtype=float)
        inverse = np.zeros((n, n), dtype=float)
        array_steps = 0
        array_operations = 0
        host_operations = 0
        for column in range(n):
            solve = (
                self._triangular.solve_lower(matrix, identity[:, column], inner)
                if lower
                else self._triangular.solve_upper(matrix, identity[:, column], inner)
            )
            inverse[:, column] = solve.x
            array_steps += solve.array_steps
            array_operations += solve.array_operations
            host_operations += solve.host_operations
        return InverseResult(
            inverse=inverse,
            array_steps=array_steps,
            array_operations=array_operations,
            host_operations=host_operations,
        )

    def invert(
        self, matrix: np.ndarray, plans: "Optional[InnerPlans]" = None
    ) -> InverseResult:
        """Invert a dense matrix as ``A^{-1} = U^{-1} L^{-1}`` via blocked LU."""
        matrix = as_matrix(matrix, "matrix")
        inner = self._inner_plans(plans)
        factorization = self.factor(matrix, inner)
        inv_l = self.invert_triangular(factorization.l, True, inner)
        inv_u = self.invert_triangular(factorization.u, False, inner)
        product = inner.matmul(inv_u.inverse, inv_l.inverse)
        array_steps = (
            factorization.array_steps
            + inv_l.array_steps
            + inv_u.array_steps
            + product.measured_steps
        )
        array_operations = (
            factorization.array_operations
            + inv_l.array_operations
            + inv_u.array_operations
            + matrix.shape[0] ** 3
        )
        host_operations = (
            factorization.host_operations
            + inv_l.host_operations
            + inv_u.host_operations
        )
        return InverseResult(
            inverse=product.c,
            array_steps=array_steps,
            array_operations=array_operations,
            host_operations=host_operations,
        )

    # -- small host kernels ---------------------------------------------------------------
    @staticmethod
    def _factor_block(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Unblocked LU of one ``w x w`` (or smaller) pivot block."""
        size = block.shape[0]
        l_block = np.eye(size, dtype=float)
        u_block = block.copy()
        for k in range(size):
            pivot = u_block[k, k]
            if abs(pivot) < 1e-300:
                raise ShapeError(
                    "zero pivot encountered; unpivoted LU needs nonsingular leading blocks"
                )
            for i in range(k + 1, size):
                factor = u_block[i, k] / pivot
                l_block[i, k] = factor
                u_block[i, k:] -= factor * u_block[k, k:]
                u_block[i, k] = 0.0
        return l_block, u_block

    @staticmethod
    def _solve_right_upper(a21: np.ndarray, u11: np.ndarray) -> np.ndarray:
        """Solve ``X U11 = A21`` for ``X`` (U11 upper triangular)."""
        return np.linalg.solve(u11.T, a21.T).T

    @staticmethod
    def _solve_left_lower(a12: np.ndarray, l11: np.ndarray) -> np.ndarray:
        """Solve ``L11 X = A12`` for ``X`` (L11 unit lower triangular)."""
        return np.linalg.solve(l11, a12)
