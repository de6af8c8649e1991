"""T5/T6 — matrix-matrix time and utilization formulas (Section 3).

Sweeps problem shapes, measures the step count (the span of the C stream,
the paper's convention) and the utilization of the ``w x w`` hexagonal
array, and checks them against

    T   = 3 w p_bar n_bar m_bar + 4w - 5
    eta = 1 / (3 + 4/(p n m) - 5/(w p n m))  ->  1/3.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.analytic import matmul_steps, matmul_utilization
from repro.core.plans import MatMulPlan
from repro.matrices.padding import block_count

SWEEP = [
    (3, 3, 3, 3),
    (6, 3, 3, 3),
    (6, 6, 6, 3),
    (6, 6, 9, 3),
    (4, 4, 4, 2),
    (8, 8, 8, 2),
    (8, 4, 8, 4),
]


def run_sweep(rng):
    rows = []
    for n, p, m, w in SWEEP:
        a = rng.uniform(-1.0, 1.0, size=(n, p))
        b = rng.uniform(-1.0, 1.0, size=(p, m))
        e = rng.uniform(-1.0, 1.0, size=(n, m))
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b, e)
        assert np.allclose(solution.c, a @ b + e)
        rows.append((n, p, m, w, solution))
    return rows


def test_t5_step_counts(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng,), rounds=1, iterations=1)
    report = ExperimentReport("T5", "matrix-matrix steps: T = 3 w pnm + 4w - 5")
    for n, p, m, w, solution in rows:
        expected = matmul_steps(
            block_count(n, w), block_count(p, w), block_count(m, w), w
        )
        report.add(f"T(n={n}, p={p}, m={m}, w={w})", expected, solution.measured_steps)
    assert report.all_match
    show_report(report)


def test_t6_utilization(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng,), rounds=1, iterations=1)
    report = ExperimentReport(
        "T6",
        "matrix-matrix utilization -> 1/3 (measured includes the duplicated tail corner)",
    )
    for n, p, m, w, solution in rows:
        expected = matmul_utilization(
            block_count(n, w), block_count(p, w), block_count(m, w), w
        )
        report.add(
            f"eta(n={n}, p={p}, m={m}, w={w})",
            expected,
            solution.measured_utilization,
            "within tail-corner overhead" if not np.isclose(expected, solution.measured_utilization, rtol=0.01) else "",
        )
    # The closed form is a lower bound of the measured value (the array also
    # executes the discarded tail-corner products) and the two converge as
    # the problem grows.
    for n, p, m, w, solution in rows:
        expected = matmul_utilization(
            block_count(n, w), block_count(p, w), block_count(m, w), w
        )
        assert solution.measured_utilization >= expected - 1e-12
        assert solution.measured_utilization <= expected * 1.25
    largest = rows[3][4]
    assert abs(largest.measured_utilization - 1.0 / 3.0) < 0.03
    show_report(report)


def test_t6_utilization_never_exceeds_one_third_asymptote_by_much(benchmark, rng, show_report):
    a = rng.uniform(-1.0, 1.0, size=(9, 9))
    b = rng.uniform(-1.0, 1.0, size=(9, 9))
    plan = MatMulPlan(*a.shape, b.shape[1], 3)
    solution = benchmark.pedantic(plan.execute, args=(a, b), rounds=1, iterations=1)
    report = ExperimentReport("T6b", "utilization of a 3x3-block problem, w=3")
    report.add("eta", matmul_utilization(3, 3, 3, 3), solution.measured_utilization,
               "measured includes tail corner")
    assert solution.measured_utilization < 1.0 / 3.0 + 0.02
    show_report(report)
