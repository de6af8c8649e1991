"""Block partitioning with accumulation outside the array.

Hwang and Cheng (reference /2/ of the paper) proposed partitioned matrix
algorithms in which a fixed-size arithmetic array processes one operand
block at a time and a host accumulates the partial results.  Transferred to
Kung's linear array, the strategy becomes: transform every ``w x w`` block
independently (each block is exactly the PRT special case, so the array
size stays ``w``), run the blocks one after another, and let the host add
the per-block partial results together.

Compared with DBT-by-rows this keeps the small array but gives up the two
things the paper's transformation provides:

* chaining — the array drains between blocks, so the pipeline fill/drain
  overhead is paid ``n_bar * m_bar`` times instead of once, and
* in-array accumulation — the host performs ``(m_bar - 1) * n`` additions
  that DBT's feedback performs inside the array.

The benchmark X1 uses this baseline to isolate the value of the feedback
mechanism from the value of the triangular re-packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..backends.registry import VECTORIZED, resolve_backend
from ..backends.vectorized import LinearSweepPlan, linear_total_cycles
from ..errors import ShapeError
from ..matrices.blocks import BlockGrid
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import validate_array_size
from ..systolic.feedback import ExternalSource
from ..systolic.linear_array import LinearContraflowArray, LinearProblem
from ..core.dbt import DBTByRowsTransform

__all__ = ["BlockPartitionedResult", "BlockPartitionedMatVec"]


@dataclass
class BlockPartitionedResult:
    """Aggregate measurements of a block-partitioned execution."""

    result: np.ndarray
    processing_elements: int
    total_steps: int
    mac_operations: int
    external_additions: int
    block_runs: int

    @property
    def utilization(self) -> float:
        if self.total_steps == 0:
            return 0.0
        return self.mac_operations / (self.processing_elements * self.total_steps)


class BlockPartitionedMatVec:
    """``y = A x + b`` block by block on a ``w`` cell array, host accumulation."""

    def __init__(self, w: int, backend: str = "simulate"):
        self._w = validate_array_size(w)
        self._backend = resolve_backend(backend)
        # One shape-keyed sweep skeleton serves every w x w block.
        self._sweep: Optional[LinearSweepPlan] = None
        if self._backend == VECTORIZED:
            self._sweep = LinearSweepPlan(
                w=self._w, n=self._w, m=self._w, n_bar=1, m_bar=1,
                useful_operations=self._w * self._w,
            )

    @property
    def w(self) -> int:
        return self._w

    @property
    def array_size(self) -> int:
        return self._w

    def solve(
        self, matrix: np.ndarray, x: np.ndarray, b: Optional[np.ndarray] = None
    ) -> BlockPartitionedResult:
        matrix = as_matrix(matrix, "matrix")
        x = as_vector(x, "x")
        if x.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {matrix.shape[1]} columns"
            )
        n, m = matrix.shape
        w = self._w
        grid = BlockGrid(matrix, w)
        x_padded = np.zeros(grid.block_cols * w, dtype=float)
        x_padded[:m] = x
        y_padded = np.zeros(grid.block_rows * w, dtype=float)
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != n:
                raise ShapeError(f"b has length {b.shape[0]}, expected {n}")
            y_padded[:n] = b

        array = LinearContraflowArray(w)
        total_steps = 0
        total_macs = 0
        external_additions = 0
        runs = 0
        for i in range(grid.block_rows):
            for j in range(grid.block_cols):
                if self._sweep is not None:
                    _outputs, partial = self._sweep.sweep(
                        grid.block(i, j), x_padded[j * w : (j + 1) * w], None
                    )
                    total_steps += linear_total_cycles(w, self._sweep.band_rows)
                    total_macs += self._sweep.mac_operations
                else:
                    transform = DBTByRowsTransform(grid.block(i, j), w)
                    sources: List[object] = [
                        ExternalSource(value=0.0, tag=("b", i * w + offset))
                        for offset in range(w)
                    ]
                    problem = LinearProblem(
                        band=transform.band,
                        x=transform.transform_x(x_padded[j * w : (j + 1) * w]),
                        y_sources=sources,
                        x_tags=transform.x_tags(),
                        output_tags=transform.output_tags(),
                    )
                    run = array.run(problem)
                    total_steps += run.total_cycles
                    total_macs += run.report.mac_operations
                    partial = transform.recover_y(run.y_per_problem[0])
                runs += 1
                y_padded[i * w : (i + 1) * w] += partial
                external_additions += w

        return BlockPartitionedResult(
            result=y_padded[:n].copy(),
            processing_elements=w,
            total_steps=total_steps,
            mac_operations=total_macs,
            external_additions=external_additions,
            block_runs=runs,
        )
