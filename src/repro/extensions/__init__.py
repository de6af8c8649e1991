"""Applications of the DBT methodology listed in Section 4 of the paper."""

from .lu import InverseResult, LUResult, SystolicLU
from .sparse import (
    BlockSparseDBTTransform,
    BlockSparseMatVec,
    SparseMatVecSolution,
)
from .triangular import SystolicTriangularSolver, TriangularSolveResult

__all__ = [
    "BlockSparseDBTTransform",
    "BlockSparseMatVec",
    "InverseResult",
    "LUResult",
    "SparseMatVecSolution",
    "SystolicLU",
    "SystolicTriangularSolver",
    "TriangularSolveResult",
]
