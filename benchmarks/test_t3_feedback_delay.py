"""T3 — the DBT-by-rows feedback delay equals the array size ``w``.

Section 2: "In a DBT-by-rows, the number of steps to have the required
feedback equals the array size, w, and can be implemented with w
registers."  The benchmark measures, for a range of array sizes and problem
shapes, the delay between every partial result leaving the array and
re-entering it, and the peak occupancy of the register chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import ExperimentReport
from repro.core.analytic import matvec_feedback_delay, matvec_feedback_registers
from repro.core.plans import MatVecPlan


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6])
def test_t3_feedback_delay_equals_w(benchmark, rng, w, show_report):
    n, m = 4 * w, 3 * w
    matrix = rng.uniform(-1.0, 1.0, size=(n, m))
    x = rng.uniform(-1.0, 1.0, size=m)
    b = rng.uniform(-1.0, 1.0, size=n)

    plan = MatVecPlan(*matrix.shape, w)
    solution = benchmark(plan.execute, matrix, x, b)
    assert np.allclose(solution.y, matrix @ x + b)

    delays = solution.feedback_delays
    report = ExperimentReport("T3", f"feedback delay and registers, w={w}")
    report.add("feedback delay (every value)", matvec_feedback_delay(w), max(delays))
    report.add("feedback delay (minimum)", matvec_feedback_delay(w), min(delays))
    report.add(
        "registers occupied at peak (<= w)",
        matvec_feedback_registers(w),
        solution.run.feedback_register_peak,
        "peak occupancy; w registers suffice",
    )
    report.add("values fed back", 4 * (3 - 1) * w, len(delays))
    assert set(delays) == {w}
    assert solution.run.feedback_register_peak <= w
    assert report.rows[0].matches and report.rows[1].matches
    show_report(report)


def test_t3_delay_independent_of_problem_size(benchmark, rng, show_report):
    """Growing the problem changes nothing about the feedback delay."""
    w = 3

    def sweep():
        results = []
        for scale in (1, 2, 4):
            n = m = 3 * w * scale
            matrix = rng.uniform(-1.0, 1.0, size=(n, m))
            x = rng.uniform(-1.0, 1.0, size=m)
            solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
            results.append((n, solution))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = ExperimentReport("T3b", "feedback delay vs problem size (w=3)")
    for n, solution in results:
        report.add(f"delay at n=m={n}", w, max(solution.feedback_delays))
    assert report.all_match
    show_report(report)
