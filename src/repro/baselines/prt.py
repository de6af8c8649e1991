"""The PRT transformation of Priester, Whitehouse, Bromley and Clary (1981).

Reference /6/ of the paper transforms a single dense ``w x w`` matrix into
a band matrix of bandwidth ``w`` (instead of the naive ``2w - 1``),
halving the required array size.  Section 2 of the paper observes that PRT
"is a particular case of the DBT-by-rows when ``n_bar = m_bar = 1``", so
this baseline is implemented literally that way: it accepts only matrices
that fit in a single ``w x w`` block and delegates to the DBT machinery,
which both documents the relationship and lets the tests verify the claim
(T4) by comparing the two transformations block against block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ShapeError
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import validate_array_size
from ..systolic.linear_array import LinearRunResult
from ..core.dbt import DBTByRowsTransform
from ..core.matvec import MatVecSolution
from ..core.plans import InnerPlanExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.plan import InnerPlans

__all__ = ["PRTTransform", "PRTMatVec"]


class PRTTransform(DBTByRowsTransform):
    """PRT as the single-block special case of DBT-by-rows.

    The constructor refuses matrices larger than one ``w x w`` block,
    because PRT — unlike DBT — has no rule for chaining several blocks
    through the array.
    """

    def __init__(self, matrix: np.ndarray, w: int):
        w = validate_array_size(w)
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape[0] > w or matrix.shape[1] > w:
            raise ShapeError(
                f"PRT only handles one {w} x {w} block; got shape {matrix.shape}. "
                f"Use DBTByRowsTransform for larger problems."
            )
        super().__init__(matrix, w)
        if self.n_bar != 1 or self.m_bar != 1:
            raise ShapeError("PRT requires n_bar == m_bar == 1")


@dataclass
class PRTSolution:
    """Result of a PRT execution on the linear array."""

    y: np.ndarray
    w: int
    transform: PRTTransform
    run: LinearRunResult

    @property
    def measured_steps(self) -> int:
        return self.run.total_cycles

    @property
    def measured_utilization(self) -> float:
        return self.run.report.utilization


class PRTMatVec(InnerPlanExecutor):
    """``y = A x + b`` for one ``w x w`` dense block via the PRT transformation.

    The product runs through ``plans`` (see
    :class:`~repro.core.plans.InnerPlanExecutor`).
    """

    def __init__(self, w: int, backend: str = "simulate"):
        super().__init__(w, backend)

    @property
    def array_size(self) -> int:
        """Cells required: ``w`` — half of the naive ``2w - 1`` requirement."""
        return self._w

    def solve(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
        plans: "Optional[InnerPlans]" = None,
    ) -> PRTSolution:
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape[0] > self._w or matrix.shape[1] > self._w:
            raise ShapeError(
                f"PRT only handles one {self._w} x {self._w} block; "
                f"got shape {matrix.shape}"
            )
        x = as_vector(x, "x")
        solution: MatVecSolution = self._inner_plans(plans).matvec(matrix, x, b)
        transform = PRTTransform(matrix, self._w)
        return PRTSolution(
            y=solution.y, w=self._w, transform=transform, run=solution.run
        )
