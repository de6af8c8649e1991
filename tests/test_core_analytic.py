"""Unit tests for the closed-form models of Sections 2 and 3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.core import analytic
from repro.core.analytic import (
    MatMulModel,
    MatVecModel,
    matmul_irregular_delay_first_row,
    matmul_irregular_delay_wraparound,
    matmul_irregular_feedback_registers,
    matmul_regular_feedback_registers,
    matmul_steps,
    matmul_utilization,
    matmul_utilization_limit,
    matvec_feedback_delay,
    matvec_feedback_registers,
    matvec_steps,
    matvec_utilization,
    matvec_utilization_limit,
)


class TestMatVecFormulas:
    def test_paper_example_steps(self):
        # n=6, m=9, w=3: n_bar*m_bar = 6 and T = 2*3*6 + 2*3 - 3 = 39 (Fig. 3).
        assert matvec_steps(2, 3, 3) == 39

    def test_overlapped_steps(self):
        assert matvec_steps(2, 3, 3, overlapped=True) == 3 * 6 + 2 * 3 - 2 == 22

    def test_utilization_consistent_with_steps(self):
        # eta == (n_bar m_bar w^2) / (w T) == n_bar m_bar w / T by construction.
        for n_bar, m_bar, w in [(2, 3, 3), (4, 4, 5), (1, 1, 3), (7, 2, 4)]:
            steps = matvec_steps(n_bar, m_bar, w)
            expected = (w * n_bar * m_bar) / steps
            assert matvec_utilization(n_bar, m_bar, w) == pytest.approx(expected)

    def test_overlapped_utilization_consistent_with_steps(self):
        for n_bar, m_bar, w in [(2, 3, 3), (4, 4, 5), (6, 1, 2)]:
            steps = matvec_steps(n_bar, m_bar, w, overlapped=True)
            expected = (w * n_bar * m_bar) / steps
            assert matvec_utilization(n_bar, m_bar, w, overlapped=True) == pytest.approx(
                expected
            )

    def test_limits(self):
        assert matvec_utilization_limit() == 0.5
        assert matvec_utilization_limit(overlapped=True) == 1.0
        # Large problems approach the limits.
        assert matvec_utilization(100, 100, 8) == pytest.approx(0.5, abs=1e-3)
        assert matvec_utilization(100, 100, 8, overlapped=True) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_feedback_constants(self):
        assert matvec_feedback_delay(7) == 7
        assert matvec_feedback_registers(7) == 7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            matvec_steps(0, 1, 3)
        with pytest.raises(ValueError):
            matvec_utilization(1, -1, 3)


class TestMatMulFormulas:
    def test_steps_formula(self):
        assert matmul_steps(2, 2, 3, 3) == 3 * 3 * 2 * 2 * 3 + 4 * 3 - 5

    def test_utilization_consistent_with_steps(self):
        for n_bar, p_bar, m_bar, w in [(2, 2, 3, 3), (1, 1, 1, 4), (3, 2, 2, 5)]:
            steps = matmul_steps(n_bar, p_bar, m_bar, w)
            expected = (w * n_bar * p_bar * m_bar) / steps
            assert matmul_utilization(n_bar, p_bar, m_bar, w) == pytest.approx(expected)

    def test_limit(self):
        assert matmul_utilization_limit() == pytest.approx(1.0 / 3.0)
        assert matmul_utilization(50, 50, 50, 6) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_feedback_register_counts(self):
        assert matmul_regular_feedback_registers(3) == 2 * 3 + 2 * 3
        assert matmul_irregular_feedback_registers(3) == 9
        assert matmul_irregular_feedback_registers(1) == 0

    def test_irregular_delay_formulas(self):
        assert matmul_irregular_delay_first_row(2, 2, 3) == 6 * 2 * 1 * 2 + 3
        assert matmul_irregular_delay_wraparound(2, 2, 3, 3) == 6 * 4 * 2 * 2 + 3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            matmul_steps(1, 0, 1, 3)


class TestModels:
    def test_matvec_model_bundles_formulas(self):
        model = MatVecModel(n=6, m=9, w=3)
        assert (model.n_bar, model.m_bar) == (2, 3)
        assert model.steps == 39
        assert model.processing_elements == 3
        assert model.feedback_delay == 3
        assert model.feedback_registers == 3
        assert model.utilization == matvec_utilization(2, 3, 3)
        assert model.utilization_limit == 0.5

    def test_matvec_model_overlapped(self):
        model = MatVecModel(n=6, m=9, w=3, overlapped=True)
        assert model.steps == 22
        assert model.utilization_limit == 1.0

    def test_matvec_model_rounds_up_blocks(self):
        model = MatVecModel(n=7, m=10, w=3)
        assert (model.n_bar, model.m_bar) == (3, 4)

    def test_matmul_model_bundles_formulas(self):
        model = MatMulModel(n=6, p=6, m=9, w=3)
        assert (model.n_bar, model.p_bar, model.m_bar) == (2, 2, 3)
        assert model.steps == matmul_steps(2, 2, 3, 3)
        assert model.processing_elements == 9
        assert model.regular_feedback_registers == matmul_regular_feedback_registers(3)
        assert model.irregular_feedback_registers == 9
        assert model.utilization_limit == pytest.approx(1.0 / 3.0)


class TestPredictionsOncePerPlan:
    """Every solution of a plan shares the plan's model, and the model
    evaluates its block counts and predictions once: a warm solve reports
    them without evaluating any formula."""

    FORMULAS = (
        "block_count", "validate_array_size", "matvec_steps",
        "matvec_utilization", "matmul_steps", "matmul_utilization",
    )

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    def test_warm_solve_evaluates_no_analytic_formula(self, backend, monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 5))
        cases = [
            ("matvec", (a, rng.normal(size=5)), {}),
            ("matvec", (rng.normal(size=(9, 9)), rng.normal(size=9)),
             {"overlapped": True}),
            ("matmul", (a, rng.normal(size=(5, 7))), {}),
        ]
        solver = Solver(ArraySpec(w=3), options=ExecutionOptions(backend=backend))
        cold = [
            solver.solve(kind, *operands, **kwargs)
            for kind, operands, kwargs in cases
        ]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a warm solve evaluated an analytic formula")

        for name in self.FORMULAS:
            monkeypatch.setattr(analytic, name, forbidden)
        for (kind, operands, kwargs), first in zip(cases, cold):
            warm = solver.solve(kind, *operands, **kwargs)
            assert warm.predicted_steps == first.predicted_steps
            assert warm.predicted_utilization == first.predicted_utilization
            assert warm.raw.model is first.raw.model
