"""Block-sparse DBT: skipping zero blocks of the dense operand.

The conclusions of the paper point out the natural refinement of DBT for
matrices "of a known degree of sparsity": "transformation algorithms can be
devised and developed, to exclude the need of zero-valued elements
sub-matrices.  A reduction of computational time would be the consequence."
The same section also notes (for the matrix-matrix case) that chaining
independent pieces sometimes needs "separation of subproblems with zero
value blocks".

This module implements that refinement for the matrix-vector pipeline:

* the operand is partitioned into ``w x w`` blocks as usual and the blocks
  that are entirely zero are never streamed into the array;
* within one original block row, the nonzero blocks are chained exactly as
  DBT-by-rows chains all blocks: the upper triangles walk the nonzero
  columns in order and each strictly-lower triangle is paired with the next
  nonzero column (wrapping to the first one), so every nonzero triangle
  enters the array exactly once and the band remains completely filled with
  *useful* data;
* between two consecutive non-empty block rows one zero *separator* block
  row is inserted.  The separator decouples the ``x`` block needed by the
  previous row's wrap-around triangle from the ``x`` block needed by the
  next row's first triangle (the two original block columns generally
  differ for a sparse pattern), and it keeps the feedback chain intact with
  the same constant delay ``w`` — it is precisely the "separation by zero
  value blocks" device the paper describes;
* original block rows that are entirely zero never enter the array at all:
  their result is just the corresponding ``b`` block.

For a matrix with ``z`` nonzero blocks out of ``n_bar * m_bar`` the
transformed band has ``z + (r - 1)`` block rows (``r`` = number of
non-empty block rows) instead of ``n_bar * m_bar``, and the execution time
shrinks accordingly:  ``T = 2 w (z + r - 1) + 2w - 3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.registry import VECTORIZED, resolve_backend
from ..backends.vectorized import _has_nan, build_banded_linear_run
from ..errors import TransformError
from ..instrumentation import counters
from ..matrices.banded import BandMatrix
from ..matrices.blocks import BlockGrid
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import pad_vector, validate_array_size
from ..systolic.cell import mac
from ..systolic.feedback import ExternalSource, FeedbackSource
from ..systolic.linear_array import LinearContraflowArray, LinearProblem, LinearRunResult
from ..core.analytic import matvec_steps
from ..matrices.padding import block_count

__all__ = ["BandRowPlan", "BlockSparseDBTTransform", "BlockSparseMatVec", "SparseMatVecSolution"]


@dataclass(frozen=True)
class BandRowPlan:
    """One band block row of the sparse transformation.

    ``upper_source`` / ``lower_source`` are original block indices, or
    ``None`` for the zero triangles of a separator row.  ``x_block`` is the
    original block column whose ``x`` block feeds this band block row, and
    ``is_final`` marks the band block row whose output is the finished
    result of original block row ``original_row``.
    """

    original_row: int
    upper_source: Optional[Tuple[int, int]]
    lower_source: Optional[Tuple[int, int]]
    x_block: int
    is_first: bool
    is_final: bool
    is_separator: bool = False


class BlockSparseDBTTransform:
    """DBT-by-rows restricted to the nonzero blocks of the operand."""

    def __init__(self, matrix: np.ndarray, w: int, tolerance: float = 0.0):
        counters.bump("transform_constructions")
        self._w = validate_array_size(w)
        if tolerance < 0.0:
            raise TransformError(f"tolerance must be >= 0, got {tolerance}")
        matrix = as_matrix(matrix, "matrix")
        self._original_shape = matrix.shape
        self._tolerance = float(tolerance)
        self._grid = BlockGrid(matrix, self._w)
        self._nonzero_columns = self._find_nonzero_columns()
        self._plans = self._build_plans()
        self._band, self._x_tail_block = self._assemble_band()

    # -- pattern analysis -----------------------------------------------------------
    def _find_nonzero_columns(self) -> List[List[int]]:
        columns: List[List[int]] = []
        for r in range(self._grid.block_rows):
            present = [
                s
                for s in range(self._grid.block_cols)
                if np.max(np.abs(self._grid.block(r, s))) > self._tolerance
            ]
            columns.append(present)
        return columns

    def _build_plans(self) -> List[BandRowPlan]:
        plans: List[BandRowPlan] = []
        included = [r for r, cols in enumerate(self._nonzero_columns) if cols]
        for position, r in enumerate(included):
            columns = self._nonzero_columns[r]
            count = len(columns)
            # A separator is only needed when the wrap-around column of this
            # row differs from the first column of the next included row;
            # when they coincide (always the case for a fully dense pattern)
            # the plain DBT-by-rows chaining already works.
            needs_separator = (
                position < len(included) - 1
                and self._nonzero_columns[included[position + 1]][0] != columns[0]
            )
            for index, s in enumerate(columns):
                next_column = columns[(index + 1) % count]
                is_last_real = index == count - 1
                plans.append(
                    BandRowPlan(
                        original_row=r,
                        upper_source=(r, s),
                        lower_source=(r, next_column),
                        x_block=s,
                        is_first=index == 0,
                        is_final=is_last_real and not needs_separator,
                    )
                )
            if needs_separator:
                # The separator carries the x block the wrap-around lower
                # triangle needs, computes nothing, and delivers the row's
                # final result through the regular feedback path.
                plans.append(
                    BandRowPlan(
                        original_row=r,
                        upper_source=None,
                        lower_source=None,
                        x_block=columns[0],
                        is_first=False,
                        is_final=True,
                        is_separator=True,
                    )
                )
        return plans

    # -- band assembly -----------------------------------------------------------------
    def _assemble_band(self) -> Tuple[BandMatrix, int]:
        w = self._w
        rows = len(self._plans) * w
        if rows == 0:
            # Entirely zero matrix: nothing enters the array.
            return BandMatrix(1, 1, 0, 0), 0
        band = BandMatrix(rows, rows + w - 1, lower=0, upper=w - 1)
        for k, plan in enumerate(self._plans):
            base = k * w
            upper = (
                np.triu(self._grid.block(*plan.upper_source))
                if plan.upper_source is not None
                else np.zeros((w, w))
            )
            lower = (
                np.tril(self._grid.block(*plan.lower_source), k=-1)
                if plan.lower_source is not None
                else np.zeros((w, w))
            )
            for a in range(w):
                for b in range(a, w):
                    band.set(base + a, base + b, upper[a, b])
                for b in range(a):
                    band.set(base + a, base + w + b, lower[a, b])
        tail_block = self._plans[-1].lower_source[1] if self._plans[-1].lower_source else 0
        return band, tail_block

    # -- geometry ------------------------------------------------------------------------
    @property
    def w(self) -> int:
        return self._w

    @property
    def original_shape(self) -> Tuple[int, int]:
        return self._original_shape

    @property
    def plans(self) -> Sequence[BandRowPlan]:
        return tuple(self._plans)

    @property
    def band(self) -> BandMatrix:
        return self._band.copy()

    @property
    def block_row_count(self) -> int:
        """Band block rows actually streamed (nonzero blocks + separators)."""
        return len(self._plans)

    @property
    def nonzero_block_count(self) -> int:
        return sum(len(cols) for cols in self._nonzero_columns)

    @property
    def separator_count(self) -> int:
        return sum(1 for plan in self._plans if plan.is_separator)

    @property
    def skipped_block_count(self) -> int:
        """Original blocks excluded from the band (the paper's time saving)."""
        total = self._grid.block_rows * self._grid.block_cols
        return total - self.nonzero_block_count

    @property
    def empty_rows(self) -> List[int]:
        """Original block rows that never enter the array."""
        return [r for r, cols in enumerate(self._nonzero_columns) if not cols]

    def dense_block_row_count(self) -> int:
        """Band block rows the plain (dense) DBT would stream."""
        return self._grid.block_rows * self._grid.block_cols

    # -- transformed data -----------------------------------------------------------------
    def transform_x(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x, "x")
        if x.shape[0] != self._original_shape[1]:
            raise TransformError(
                f"x has length {x.shape[0]}, expected {self._original_shape[1]}"
            )
        padded = pad_vector(x, self._w)
        w = self._w
        if not self._plans:
            return np.zeros(0)
        out = np.zeros(len(self._plans) * w + w - 1, dtype=float)
        for k, plan in enumerate(self._plans):
            source = plan.x_block * w
            out[k * w : (k + 1) * w] = padded[source : source + w]
        tail_source = self._x_tail_block * w
        out[len(self._plans) * w :] = padded[tail_source : tail_source + w - 1]
        return out

    def x_tags(self) -> List[tuple]:
        w = self._w
        tags: List[tuple] = []
        for plan in self._plans:
            base = plan.x_block * w
            tags.extend(("x", base + offset) for offset in range(w))
        tags.extend(("x", self._x_tail_block * w + offset) for offset in range(w - 1))
        return tags

    def build_y_sources(self, b: Optional[np.ndarray]) -> List[object]:
        n = self._original_shape[0]
        if b is None:
            b_vec = np.zeros(n, dtype=float)
        else:
            b_vec = as_vector(b, "b")
            if b_vec.shape[0] != n:
                raise TransformError(f"b has length {b_vec.shape[0]}, expected {n}")
        padded = pad_vector(b_vec, self._w)
        w = self._w
        sources: List[object] = []
        for plan in self._plans:
            for offset in range(w):
                element = plan.original_row * w + offset
                if plan.is_first:
                    sources.append(
                        ExternalSource(value=float(padded[element]), tag=("b", element))
                    )
                else:
                    sources.append(FeedbackSource(tag=("y", element)))
        return sources

    def output_tags(self) -> List[tuple]:
        w = self._w
        tags: List[tuple] = []
        pass_counter: Dict[int, int] = {}
        for plan in self._plans:
            for offset in range(w):
                element = plan.original_row * w + offset
                if plan.is_final:
                    tags.append(("y", element))
                else:
                    index = pass_counter.get(element, 0)
                    tags.append(("y", element, index))
            if not plan.is_final:
                for offset in range(w):
                    element = plan.original_row * w + offset
                    pass_counter[element] = pass_counter.get(element, 0) + 1
        return tags

    def recover_y(self, band_outputs: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
        """Rebuild ``y``: array outputs for non-empty rows, ``b`` for empty ones."""
        w = self._w
        n = self._original_shape[0]
        if b is None:
            b_vec = np.zeros(n, dtype=float)
        else:
            b_vec = as_vector(b, "b")
        padded_b = pad_vector(b_vec, w)
        band_outputs = np.asarray(band_outputs, dtype=float)
        expected = len(self._plans) * w
        if band_outputs.shape != (expected,):
            raise TransformError(
                f"expected {expected} band outputs, got {band_outputs.shape}"
            )
        out = padded_b.copy()[: self._grid.block_rows * w]
        for k, plan in enumerate(self._plans):
            if not plan.is_final:
                continue
            r = plan.original_row
            out[r * w : (r + 1) * w] = band_outputs[k * w : (k + 1) * w]
        return out[:n].copy()


@dataclass
class SparseMatVecSolution:
    """Result of a block-sparse size-independent matrix-vector execution."""

    y: np.ndarray
    w: int
    transform: BlockSparseDBTTransform
    run: Optional[LinearRunResult]

    @property
    def measured_steps(self) -> int:
        """Array steps spent (zero when the whole operand is zero)."""
        return self.run.total_cycles if self.run is not None else 0

    @property
    def dense_steps(self) -> int:
        """Steps the plain dense DBT would need on the same problem."""
        n, m = self.transform.original_shape
        return matvec_steps(
            block_count(n, self.w), block_count(m, self.w), self.w
        )

    @property
    def saving(self) -> float:
        """Fraction of the dense execution time saved by skipping zero blocks."""
        if self.dense_steps == 0:
            return 0.0
        return 1.0 - self.measured_steps / self.dense_steps

    @property
    def measured_utilization(self) -> float:
        return self.run.report.utilization if self.run is not None else 0.0


class BlockSparseMatVec:
    """``y = A x + b`` for block-sparse dense-stored ``A`` on a ``w``-cell array.

    The transformation is value dependent (it follows the sparsity
    pattern), so it is rebuilt per solve on either backend; ``backend``
    only selects how the resulting band problem executes — the
    cycle-accurate simulator or the vectorized diagonal sweeps (the
    ``"auto"`` default).
    """

    def __init__(self, w: int, tolerance: float = 0.0, backend: str = "auto"):
        self._w = validate_array_size(w)
        self._tolerance = tolerance
        self._backend = resolve_backend(backend)
        self._array = LinearContraflowArray(self._w)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        return self._backend

    def solve(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> SparseMatVecSolution:
        matrix = as_matrix(matrix, "matrix")
        x = as_vector(x, "x")
        if x.shape[0] != matrix.shape[1]:
            raise TransformError(
                f"x has length {x.shape[0]} but the matrix has {matrix.shape[1]} columns"
            )
        transform = BlockSparseDBTTransform(matrix, self._w, tolerance=self._tolerance)
        if transform.block_row_count == 0:
            y = np.zeros(matrix.shape[0]) if b is None else as_vector(b, "b").copy()
            return SparseMatVecSolution(y=y, w=self._w, transform=transform, run=None)

        if self._backend == VECTORIZED:
            run = self._sweep(transform, x, b)
        else:
            problem = LinearProblem(
                band=transform.band,
                x=transform.transform_x(x),
                y_sources=transform.build_y_sources(b),
                x_tags=transform.x_tags(),
                output_tags=transform.output_tags(),
                useful_operations=transform.nonzero_block_count * self._w * self._w,
            )
            run = self._array.run(problem)
        y = transform.recover_y(run.y_per_problem[0], b)
        return SparseMatVecSolution(y=y, w=self._w, transform=transform, run=run)

    def _sweep(
        self,
        transform: BlockSparseDBTTransform,
        x: np.ndarray,
        b: Optional[np.ndarray],
    ) -> LinearRunResult:
        """Diagonal-sweep execution of the sparse band problem.

        Each band block row folds its ``w`` diagonal segments in cell
        order on top of its initial value (its ``b`` block for the first
        row of an original block row, the previous row's output — the
        ``w``-register feedback value — otherwise), reproducing the
        simulator's per-row accumulation order exactly.  A row that ends
        NaN is folded again through :func:`~repro.systolic.cell.mac`, so
        where two NaNs meet it keeps the simulated cell's NaN.
        """
        w = self._w
        plans = transform.plans
        band = transform.band
        band_rows = len(plans) * w
        diagonals = [band.diagonal(d) for d in range(w)]
        x_t = transform.transform_x(x)
        n = transform.original_shape[0]
        b_vec = np.zeros(n) if b is None else as_vector(b, "b")
        padded_b = pad_vector(b_vec, w)
        outputs = np.empty(band_rows, dtype=float)
        feedback_rows: List[int] = []
        previous: Optional[np.ndarray] = None
        for k, plan in enumerate(plans):
            base = k * w
            segment = outputs[base : base + w]
            if plan.is_first:
                start = plan.original_row * w
                initial = padded_b[start : start + w]
            else:
                initial = previous
                feedback_rows.extend(range(base, base + w))
            segment[:] = initial
            for d in range(w):
                segment += diagonals[d][base : base + w] * x_t[base + d : base + d + w]
            if _has_nan(segment):
                for r in np.flatnonzero(np.isnan(segment)).tolist():
                    acc = float(initial[r])
                    for d in range(w):
                        acc = mac(
                            acc,
                            float(diagonals[d][base + r]),
                            float(x_t[base + r + d]),
                        )
                    segment[r] = acc
            previous = segment
        return build_banded_linear_run(
            w,
            band_rows,
            outputs,
            useful_operations=transform.nonzero_block_count * w * w,
            feedback_rows=feedback_rows,
        )
