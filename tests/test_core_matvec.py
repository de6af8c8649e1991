"""Integration-level tests of the size-independent matrix-vector pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matvec import MatVecSolution
from repro.core.plans import MatVecPlan, OverlappedMatVecPlan
from repro.errors import ShapeError


class TestCorrectness:
    @pytest.mark.parametrize(
        "n,m,w",
        [
            (6, 9, 3),   # the paper's running example
            (3, 3, 3),   # single block (the PRT case)
            (5, 7, 3),   # padding in both dimensions
            (1, 6, 2),   # a single row
            (7, 1, 2),   # a single column
            (8, 8, 4),
            (2, 2, 5),   # array larger than the problem
            (10, 4, 1),  # degenerate single-cell array
        ],
    )
    def test_matches_reference(self, rng, n, m, w):
        matrix = rng.uniform(-1.0, 1.0, size=(n, m))
        x = rng.uniform(-1.0, 1.0, size=m)
        b = rng.uniform(-1.0, 1.0, size=n)
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)

    def test_without_bias(self, rng):
        matrix = rng.uniform(size=(4, 6))
        x = rng.uniform(size=6)
        solution = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert np.allclose(solution.y, matrix @ x)

    def test_special_matrices(self, rng):
        x = rng.uniform(size=6)
        identity = np.eye(6)
        assert np.allclose(MatVecPlan(*identity.shape, 3).execute(identity, x).y, x)
        zeros = np.zeros((6, 6))
        assert np.allclose(MatVecPlan(*zeros.shape, 3).execute(zeros, x).y, 0.0)

    def test_shape_validation(self, rng):
        plan = MatVecPlan(3, 4, 3)
        with pytest.raises(ShapeError):
            plan.execute(rng.uniform(size=(3, 4)), rng.uniform(size=3))
        with pytest.raises(ShapeError):
            plan.execute(
                rng.uniform(size=(3, 4)), rng.uniform(size=4), rng.uniform(size=2)
            )


class TestTimingAgainstPaper:
    @pytest.mark.parametrize("n,m,w", [(6, 9, 3), (8, 8, 4), (9, 12, 3), (5, 5, 5)])
    def test_measured_steps_equal_t1(self, rng, n, m, w):
        matrix = rng.uniform(size=(n, m))
        x = rng.uniform(size=m)
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
        assert solution.measured_steps == solution.predicted_steps

    @pytest.mark.parametrize("n,m,w", [(6, 9, 3), (8, 8, 4), (12, 6, 3)])
    def test_measured_utilization_equals_t2(self, rng, n, m, w):
        matrix = rng.uniform(size=(n, m))
        x = rng.uniform(size=m)
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
        assert solution.measured_utilization == pytest.approx(
            solution.predicted_utilization
        )

    def test_feedback_delay_is_w(self, rng):
        for w in (2, 3, 4):
            matrix = rng.uniform(size=(2 * w, 3 * w))
            x = rng.uniform(size=3 * w)
            solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
            delays = solution.feedback_delays
            assert delays, "multi-block problems must use feedback"
            assert set(delays) == {w}

    def test_single_block_column_needs_no_feedback(self, rng):
        matrix = rng.uniform(size=(9, 3))
        x = rng.uniform(size=3)
        solution = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert solution.feedback_delays == []

    def test_trace_recording(self, rng):
        matrix = rng.uniform(size=(6, 9))
        x = rng.uniform(size=9)
        solution = MatVecPlan(*matrix.shape, 3, record_trace=True).execute(matrix, x)
        assert solution.trace is not None
        assert solution.trace.total_cycles >= solution.measured_steps
        # The x input row carries 20 values (Fig. 3).
        assert len(solution.trace.rows["x in"]) == 20

    def test_summary_mentions_measured_and_paper_values(self, rng):
        matrix = rng.uniform(size=(6, 9))
        x = rng.uniform(size=9)
        solution = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        text = solution.summary()
        assert "39" in text
        assert "measured" in text


class TestOverlappedPipeline:
    @pytest.mark.parametrize("n,m,w", [(6, 9, 3), (8, 8, 4), (12, 5, 3), (7, 7, 3)])
    def test_overlapped_matches_reference(self, rng, n, m, w):
        matrix = rng.uniform(size=(n, m))
        x = rng.uniform(size=m)
        b = rng.uniform(size=n)
        solution = OverlappedMatVecPlan(*matrix.shape, w).execute(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)
        assert solution.overlapped
        assert len(solution.transforms) == 2

    def test_overlapped_steps_match_t1_for_even_block_rows(self, rng):
        matrix = rng.uniform(size=(6, 9))
        x = rng.uniform(size=9)
        solution = OverlappedMatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert solution.measured_steps == solution.predicted_steps == 22

    def test_overlapped_utilization_approaches_one(self, rng):
        matrix = rng.uniform(size=(24, 24))
        x = rng.uniform(size=24)
        solution = OverlappedMatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert solution.measured_utilization > 0.85

    def test_overlapped_beats_plain_utilization(self, rng):
        matrix = rng.uniform(size=(12, 12))
        x = rng.uniform(size=12)
        plain = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        overlapped = OverlappedMatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert overlapped.measured_utilization > 1.7 * plain.measured_utilization

    def test_solution_type(self, rng):
        matrix = rng.uniform(size=(6, 6))
        x = rng.uniform(size=6)
        solution = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert isinstance(solution, MatVecSolution)
        assert solution.w == 3
        assert not solution.overlapped
