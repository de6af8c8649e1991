"""Unit tests for the block-sparse DBT extension (Section 4 conclusions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plans import MatVecPlan
from repro.errors import TransformError
from repro.extensions.sparse import BlockSparseDBTTransform, BlockSparseMatVec


def block_sparse_matrix(rng, block_rows, block_cols, w, density, pattern=None):
    """Dense-stored matrix with a given pattern of nonzero w x w blocks."""
    matrix = np.zeros((block_rows * w, block_cols * w))
    for i in range(block_rows):
        for j in range(block_cols):
            keep = pattern[i][j] if pattern is not None else rng.uniform() < density
            if keep:
                matrix[i * w : (i + 1) * w, j * w : (j + 1) * w] = rng.uniform(
                    -1.0, 1.0, size=(w, w)
                )
    return matrix


class TestTransformStructure:
    def test_fully_dense_pattern_matches_plain_dbt(self, rng):
        matrix = rng.uniform(-1.0, 1.0, size=(6, 9))
        sparse = BlockSparseDBTTransform(matrix, 3)
        assert sparse.separator_count == 0
        assert sparse.block_row_count == 6
        assert sparse.skipped_block_count == 0
        assert sparse.dense_block_row_count() == 6

    def test_zero_blocks_are_skipped(self, rng):
        pattern = [[True, False, True], [False, False, True]]
        matrix = block_sparse_matrix(rng, 2, 3, 3, 0.0, pattern)
        transform = BlockSparseDBTTransform(matrix, 3)
        assert transform.nonzero_block_count == 3
        assert transform.skipped_block_count == 3
        # Row 0 visits columns 0 and 2; row 1 visits column 2; one separator
        # is needed because the wrap column of row 0 (0) differs from the
        # first column of row 1 (2).
        assert transform.separator_count == 1
        assert transform.block_row_count == 4

    def test_separator_skipped_when_columns_align(self, rng):
        pattern = [[True, True, False], [True, False, False]]
        matrix = block_sparse_matrix(rng, 2, 3, 3, 0.0, pattern)
        transform = BlockSparseDBTTransform(matrix, 3)
        # Row 0 wraps to column 0, row 1 starts at column 0: no separator.
        assert transform.separator_count == 0
        assert transform.block_row_count == 3

    def test_empty_rows_never_enter_the_array(self, rng):
        pattern = [[False, False], [True, True], [False, False]]
        matrix = block_sparse_matrix(rng, 3, 2, 2, 0.0, pattern)
        transform = BlockSparseDBTTransform(matrix, 2)
        assert transform.empty_rows == [0, 2]
        assert all(plan.original_row == 1 for plan in transform.plans)

    def test_entirely_zero_matrix(self, rng):
        transform = BlockSparseDBTTransform(np.zeros((6, 6)), 3)
        assert transform.block_row_count == 0
        assert transform.nonzero_block_count == 0
        assert transform.empty_rows == [0, 1]

    def test_tolerance_controls_what_counts_as_zero(self, rng):
        matrix = np.full((3, 3), 1e-9)
        assert BlockSparseDBTTransform(matrix, 3).nonzero_block_count == 1
        assert (
            BlockSparseDBTTransform(matrix, 3, tolerance=1e-6).nonzero_block_count == 0
        )
        with pytest.raises(TransformError):
            BlockSparseDBTTransform(matrix, 3, tolerance=-1.0)

    def test_band_contains_only_nonzero_block_triangles(self, rng):
        pattern = [[True, False], [False, True]]
        matrix = block_sparse_matrix(rng, 2, 2, 3, 0.0, pattern)
        transform = BlockSparseDBTTransform(matrix, 3)
        real_rows = [p for p in transform.plans if not p.is_separator]
        assert [p.upper_source for p in real_rows] == [(0, 0), (1, 1)]
        assert [p.lower_source for p in real_rows] == [(0, 0), (1, 1)]


class TestSolverCorrectness:
    @pytest.mark.parametrize("density", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_matches_reference_across_densities(self, rng, density):
        matrix = block_sparse_matrix(rng, 4, 5, 3, density)
        x = rng.uniform(-1.0, 1.0, size=15)
        b = rng.uniform(-1.0, 1.0, size=12)
        solution = BlockSparseMatVec(3).solve(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)

    def test_non_aligned_shapes(self, rng):
        matrix = block_sparse_matrix(rng, 3, 3, 3, 0.5)[:8, :7]
        x = rng.uniform(size=7)
        b = rng.uniform(size=8)
        solution = BlockSparseMatVec(3).solve(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)

    def test_zero_matrix_returns_b_without_array_time(self, rng):
        b = rng.uniform(size=6)
        solution = BlockSparseMatVec(3).solve(np.zeros((6, 6)), rng.uniform(size=6), b)
        assert np.array_equal(solution.y, b)
        assert solution.measured_steps == 0
        assert solution.saving == 1.0

    def test_shape_validation(self, rng):
        with pytest.raises(TransformError):
            BlockSparseMatVec(3).solve(rng.uniform(size=(3, 4)), rng.uniform(size=3))


class TestTimeSaving:
    def test_sparse_is_never_slower_than_dense_dbt(self, rng):
        for density in (0.1, 0.4, 0.7, 1.0):
            matrix = block_sparse_matrix(rng, 4, 4, 3, density)
            x = rng.uniform(size=12)
            sparse = BlockSparseMatVec(3).solve(matrix, x)
            dense = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
            assert np.allclose(sparse.y, dense.y)
            assert sparse.measured_steps <= dense.measured_steps
            assert sparse.dense_steps == dense.measured_steps

    def test_saving_grows_as_density_drops(self, rng):
        savings = []
        for density in (0.9, 0.5, 0.2):
            matrix = block_sparse_matrix(rng, 5, 5, 3, density)
            x = rng.uniform(size=15)
            savings.append(BlockSparseMatVec(3).solve(matrix, x).saving)
        assert savings == sorted(savings)

    def test_feedback_delay_still_w(self, rng):
        matrix = block_sparse_matrix(rng, 4, 4, 3, 0.5)
        x = rng.uniform(size=12)
        solution = BlockSparseMatVec(3).solve(matrix, x)
        if solution.run is not None and solution.run.feedback_events:
            assert set(solution.run.feedback_delays()) == {3}
