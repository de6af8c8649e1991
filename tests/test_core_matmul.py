"""Integration-level tests of the size-independent matrix-matrix pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matmul import MatMulSolution
from repro.core.plans import MatMulPlan
from repro.errors import ShapeError


class TestCorrectness:
    @pytest.mark.parametrize(
        "n,p,m,w",
        [
            (3, 3, 3, 3),   # single block in every dimension
            (6, 6, 9, 3),   # the Fig. 4 block structure
            (4, 5, 7, 3),   # padding in every dimension
            (2, 2, 2, 2),
            (6, 3, 3, 3),
            (4, 4, 4, 2),
            (5, 2, 3, 2),
            (3, 3, 3, 4),   # array larger than the problem
        ],
    )
    def test_matches_reference(self, rng, n, p, m, w):
        a = rng.uniform(-1.0, 1.0, size=(n, p))
        b = rng.uniform(-1.0, 1.0, size=(p, m))
        e = rng.uniform(-1.0, 1.0, size=(n, m))
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b, e)
        assert np.allclose(solution.c, a @ b + e)

    def test_without_addend(self, rng):
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        solution = MatMulPlan(*a.shape, b.shape[1], 2).execute(a, b)
        assert np.allclose(solution.c, a @ b)

    def test_identity_and_zero_operands(self, rng):
        a = rng.uniform(size=(6, 6))
        plan = MatMulPlan(6, 6, 6, 3)
        assert np.allclose(plan.execute(a, np.eye(6)).c, a)
        assert np.allclose(plan.execute(a, np.zeros((6, 6))).c, 0.0)

    def test_structure_verification_path(self, rng):
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        plan = MatMulPlan(4, 4, 4, 2, verify_structure=True)
        solution = plan.execute(a, b)
        assert np.allclose(solution.c, a @ b)

    def test_shape_validation(self, rng):
        plan = MatMulPlan(3, 4, 5, 3)
        with pytest.raises(ShapeError):
            plan.execute(rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4)))
        with pytest.raises(ShapeError):
            plan.execute(
                rng.uniform(size=(3, 4)),
                rng.uniform(size=(4, 5)),
                rng.uniform(size=(3, 4)),
            )


class TestTimingAgainstPaper:
    @pytest.mark.parametrize(
        "n,p,m,w", [(3, 3, 3, 3), (6, 6, 9, 3), (4, 4, 4, 2), (8, 4, 4, 4), (6, 6, 6, 2)]
    )
    def test_measured_steps_equal_t5(self, rng, n, p, m, w):
        a = rng.uniform(size=(n, p))
        b = rng.uniform(size=(p, m))
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b)
        assert solution.measured_steps == solution.predicted_steps

    def test_utilization_tracks_t6_within_tail_overhead(self, rng):
        # The measured MAC count additionally includes the duplicated tail
        # corner, so the measured utilization sits slightly above the paper's
        # closed form and converges to it as the problem grows.
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 9))
        solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
        assert solution.measured_utilization == pytest.approx(
            solution.predicted_utilization, rel=0.05
        )
        assert solution.measured_utilization >= solution.predicted_utilization

    def test_utilization_stays_below_one_third(self, rng):
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
        assert solution.measured_utilization < 1.0 / 3.0 + 0.02

    def test_feedback_is_used_and_recorded(self, rng):
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
        assert len(solution.feedback_delays) > 0
        classification = solution.feedback_classification()
        assert classification.regular_count > 0

    def test_summary_reports_key_numbers(self, rng):
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
        text = solution.summary()
        assert str(solution.predicted_steps) in text
        assert "feedback" in text

    def test_solution_type(self, rng):
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        solution = MatMulPlan(*a.shape, b.shape[1], 2).execute(a, b)
        assert isinstance(solution, MatMulSolution)
        assert solution.w == 2


class TestFeedbackStructure:
    def test_regular_delays_do_not_grow_with_problem_size(self, rng):
        """T7: the regular feedback delay depends only on the array size."""
        maxima = []
        for m in (3, 6, 9):
            a = rng.uniform(size=(6, 6))
            b = rng.uniform(size=(6, m))
            solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
            classification = solution.feedback_classification()
            maxima.append(classification.max_regular_delay)
        assert maxima[0] == maxima[1] == maxima[2]

    def test_irregular_delays_grow_with_problem_size(self, rng):
        """T7: the irregular delays grow with the number of blocks."""
        small = MatMulPlan(6, 6, 6, 3).execute(
            rng.uniform(size=(6, 6)), rng.uniform(size=(6, 6))
        )
        large = MatMulPlan(6, 6, 12, 3).execute(
            rng.uniform(size=(6, 6)), rng.uniform(size=(6, 12))
        )
        assert (
            large.feedback_classification().max_irregular_delay
            > small.feedback_classification().max_irregular_delay
        )
