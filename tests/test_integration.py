"""End-to-end integration tests crossing module boundaries.

These tests tie the whole stack together the way the paper's system would
be used: dense problems of awkward sizes flowing through transformation,
cycle-accurate simulation with feedback, and recovery — and the measured
quantities being compared against the closed forms and against the
baseline strategies, all in one scenario.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import ExperimentReport
from repro.api import ArraySpec, Solver
from repro.baselines.block_partition import BlockPartitionedMatVec
from repro.baselines.naive_band import NaiveBlockMatVec
from repro.core.analytic import MatVecModel, matmul_steps, matvec_steps
from repro.core.plans import MatMulPlan, MatVecPlan, OverlappedMatVecPlan
from repro.extensions.lu import SystolicLU
from repro.graph import GaussSeidel
from repro.matrices.padding import block_count


class TestPaperRunningExample:
    """The n=6, m=9, w=3 example that Figs. 2 and 3 are built on."""

    def test_full_story(self, rng, paper_example_problem):
        matrix, x, b = paper_example_problem
        plan = MatVecPlan(*matrix.shape, 3, record_trace=True)
        solution = plan.execute(matrix, x, b)

        # Numerical correctness.
        assert np.allclose(solution.y, matrix @ x + b)
        # 39 computation steps, exactly as Fig. 3 shows.
        assert solution.measured_steps == 39
        # The x stream carries 20 values: x twice plus the first two elements.
        assert len(solution.trace.rows["x in"]) == 20
        # 12 partial results are fed back (block rows 1, 2, 4, 5), each after
        # exactly w = 3 cycles.
        assert len(solution.feedback_delays) == 12
        assert set(solution.feedback_delays) == {3}
        # Utilization matches the closed form and is below the 1/2 limit.
        assert solution.measured_utilization == pytest.approx(
            solution.predicted_utilization
        )
        assert solution.measured_utilization < 0.5

    def test_overlapped_variant_fills_the_idle_cycles(self, rng, paper_example_problem):
        matrix, x, b = paper_example_problem
        plain = MatVecPlan(*matrix.shape, 3).execute(matrix, x, b)
        overlapped = OverlappedMatVecPlan(*matrix.shape, 3).execute(matrix, x, b)
        assert np.allclose(overlapped.y, plain.y)
        assert overlapped.measured_steps == 22
        assert overlapped.measured_utilization > 0.8


class TestCrossStrategyComparison:
    def test_dbt_dominates_both_baselines(self, rng):
        matrix = rng.uniform(-1, 1, size=(12, 15))
        x = rng.uniform(-1, 1, size=15)
        b = rng.uniform(-1, 1, size=12)

        dbt = MatVecPlan(*matrix.shape, 3).execute(matrix, x, b)
        naive = NaiveBlockMatVec(3).solve(matrix, x, b)
        partitioned = BlockPartitionedMatVec(3).solve(matrix, x, b)

        for result in (dbt.y, naive.result, partitioned.result):
            assert np.allclose(result, matrix @ x + b)

        # DBT needs the smallest array, performs no external additions and
        # achieves the highest utilization.
        assert dbt.w <= partitioned.processing_elements < naive.processing_elements
        assert dbt.measured_utilization > partitioned.utilization
        assert dbt.measured_utilization > naive.utilization
        assert naive.external_additions > 0 and partitioned.external_additions > 0


class TestScalingBehaviour:
    def test_matvec_utilization_approaches_half(self, rng):
        utilizations = []
        for blocks in (1, 3, 6):
            n = m = 3 * blocks
            matrix = rng.uniform(size=(n, m))
            x = rng.uniform(size=m)
            solution = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
            utilizations.append(solution.measured_utilization)
        assert utilizations == sorted(utilizations)
        assert utilizations[-1] > 0.45

    def test_matmul_utilization_approaches_one_third(self, rng):
        utilizations = []
        for blocks in (1, 2, 3):
            size = 3 * blocks
            a = rng.uniform(size=(size, size))
            b = rng.uniform(size=(size, size))
            solution = MatMulPlan(*a.shape, b.shape[1], 3).execute(a, b)
            utilizations.append(solution.measured_utilization)
        assert utilizations[-1] > 0.3
        assert abs(utilizations[-1] - 1.0 / 3.0) < abs(utilizations[0] - 1.0 / 3.0)

    def test_step_counts_scale_linearly_in_block_count(self, rng):
        w = 3
        for n, m in [(6, 6), (6, 12), (12, 12)]:
            matrix = rng.uniform(size=(n, m))
            x = rng.uniform(size=m)
            solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
            n_bar, m_bar = block_count(n, w), block_count(m, w)
            assert solution.measured_steps == matvec_steps(n_bar, m_bar, w)


class TestApplicationsOnTopOfThePipelines:
    def test_linear_solver_stack(self, rng):
        """LU factorization + triangular solves reproduce a dense solve."""
        n = 9
        matrix = rng.uniform(-1, 1, size=(n, n))
        np.fill_diagonal(matrix, n + np.abs(matrix).sum(axis=1))
        b = rng.uniform(-1, 1, size=n)

        lu = SystolicLU(3)
        factorization = lu.factor(matrix)
        assert factorization.residual(matrix) < 1e-8

        rule = GaussSeidel.presets["criteria"].merged(atol=1e-11)
        gs = Solver(ArraySpec(3)).solve("gauss_seidel", matrix, b, criteria=rule)
        assert gs.stats["converged"]
        direct = np.linalg.solve(matrix, b)
        assert np.allclose(gs.values, direct, atol=1e-8)

    def test_report_assembly_for_a_small_sweep(self, rng):
        """The reporting helper consumes measured data from real runs."""
        report = ExperimentReport("T1", "matrix-vector time formula")
        for n, m, w in [(6, 9, 3), (8, 8, 4), (10, 5, 5)]:
            matrix = rng.uniform(size=(n, m))
            x = rng.uniform(size=m)
            solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
            report.add(f"T(n={n}, m={m}, w={w})", solution.predicted_steps, solution.measured_steps)
        assert report.all_match
        model = MatVecModel(n=6, m=9, w=3)
        assert report.rows[0].paper == model.steps

    def test_matmul_report(self, rng):
        report = ExperimentReport("T5", "matrix-matrix time formula")
        for n, p, m, w in [(6, 6, 6, 3), (4, 4, 4, 2)]:
            a = rng.uniform(size=(n, p))
            b = rng.uniform(size=(p, m))
            solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b)
            expected = matmul_steps(
                block_count(n, w), block_count(p, w), block_count(m, w), w
            )
            report.add(f"T(n={n}, p={p}, m={m}, w={w})", expected, solution.measured_steps)
        assert report.all_match
