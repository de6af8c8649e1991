"""T8 — the transformed band is completely filled and every computation
happens inside the array.

Section 2: "Maximum efficiency is obtained because every array operation
cycle is useful, due to the fact that the transformed matrix band is filled
(no empty position) with elements from the original matrix", and "By using
this type of feedback, final results are obtained without need of any
calculation external to the array processor."

The benchmark checks both halves of the claim on randomized problems:

* structurally — every in-band position of ``A~`` (and of the matrix-matrix
  operand bands) maps to exactly one element of the padded original;
* operationally — the recovered results are bit-for-bit the values carried
  out of the simulated arrays, with zero host-side arithmetic, and they
  match the dense reference.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.dbt import DBTByRowsTransform
from repro.core.plans import MatMulPlan, MatVecPlan
from repro.core.operands import MatMulOperands


def test_t8_matvec_band_fill_and_in_array_computation(benchmark, rng, show_report):
    shapes = [(6, 9), (7, 11), (12, 5), (10, 10)]
    w = 3

    def run():
        results = []
        for n, m in shapes:
            matrix = rng.uniform(-1.0, 1.0, size=(n, m))
            x = rng.uniform(-1.0, 1.0, size=m)
            b = rng.uniform(-1.0, 1.0, size=n)
            transform = DBTByRowsTransform(matrix, w)
            solution = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
            results.append((n, m, matrix, x, b, transform, solution))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport("T8", "band fill and in-array computation (mat-vec)")
    for n, m, matrix, x, b, transform, solution in results:
        filled, total = transform.band_fill_report()
        report.add(f"band positions filled ({n}x{m})", total, filled)
        assert np.allclose(solution.y, matrix @ x + b)
        # Every recovered element is literally one of the array's outputs.
        outputs = {round(item.value, 12) for item in solution.run.output_stream}
        assert all(round(value, 12) in outputs for value in solution.y)
    assert report.all_match
    show_report(report)


def test_t8_matmul_band_fill_and_in_array_accumulation(benchmark, rng, show_report):
    w = 3
    a = rng.uniform(-1.0, 1.0, size=(6, 6))
    b = rng.uniform(-1.0, 1.0, size=(6, 9))
    e = rng.uniform(-1.0, 1.0, size=(6, 9))

    def run():
        operands = MatMulOperands(a, b, w)
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b, e)
        return operands, solution

    operands, solution = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport("T8b", "band fill and in-array accumulation (mat-mat)")
    report.add(
        "A~ positions filled",
        operands.a_operand.band.band_positions(),
        len(operands.a_operand.provenance),
    )
    report.add(
        "B~ positions filled",
        operands.b_operand.band.band_positions(),
        len(operands.b_operand.provenance),
    )
    # All partial sums are combined through the feedback plan, never by the
    # host: the number of fed-back values equals the number of non-head
    # chain positions.
    expected_feedback = sum(
        chain.length - 1 for chain in solution.placement.chains.values()
    )
    report.add("values accumulated via feedback", expected_feedback, len(solution.feedback_delays))
    assert np.allclose(solution.c, a @ b + e)
    assert report.all_match
    show_report(report)
