"""T1/T2 — matrix-vector time and utilization formulas (Section 2).

Sweeps problem shapes and array sizes, measures ``T`` (steps) and ``eta``
(utilization) on the cycle-accurate linear array, and checks them against
the paper's closed forms:

    T  = 2 w n_bar m_bar + 2w - 3          (no overlapping)
    T  =   w n_bar m_bar + 2w - 2          (overlapped halves)
    eta -> 1/2 without overlapping, -> 1 with overlapping.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.analytic import matvec_steps, matvec_utilization
from repro.core.plans import MatVecPlan, OverlappedMatVecPlan
from repro.matrices.padding import block_count

SWEEP = [
    (6, 9, 3),
    (9, 9, 3),
    (12, 12, 3),
    (8, 8, 4),
    (16, 8, 4),
    (10, 15, 5),
    (24, 24, 3),
]


def run_sweep(rng, overlapped: bool):
    rows = []
    for n, m, w in SWEEP:
        if overlapped and block_count(n, w) < 2:
            continue
        matrix = rng.uniform(-1.0, 1.0, size=(n, m))
        x = rng.uniform(-1.0, 1.0, size=m)
        plan_type = OverlappedMatVecPlan if overlapped else MatVecPlan
        solution = plan_type(n, m, w).execute(matrix, x)
        assert np.allclose(solution.y, matrix @ x)
        rows.append((n, m, w, solution))
    return rows


def test_t1_step_counts(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng, False), rounds=1, iterations=1)
    report = ExperimentReport("T1", "matrix-vector steps: T = 2 w nm + 2w - 3")
    for n, m, w, solution in rows:
        n_bar, m_bar = block_count(n, w), block_count(m, w)
        report.add(
            f"T(n={n:>2}, m={m:>2}, w={w})",
            matvec_steps(n_bar, m_bar, w),
            solution.measured_steps,
        )
    assert report.all_match
    show_report(report)


def test_t1_overlapped_step_counts(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng, True), rounds=1, iterations=1)
    report = ExperimentReport("T1b", "overlapped steps: T = w nm + 2w - 2 (even n_bar)")
    for n, m, w, solution in rows:
        n_bar, m_bar = block_count(n, w), block_count(m, w)
        if n_bar % 2 == 0:
            expected = matvec_steps(n_bar, m_bar, w, overlapped=True)
            note = ""
        else:
            # With an odd number of block rows the larger (first) half
            # dominates the schedule and the smaller half hides behind it.
            expected = 2 * w * ((n_bar + 1) // 2) * m_bar + 2 * w - 3
            note = "odd n_bar: larger half dominates"
        report.add(f"T(n={n:>2}, m={m:>2}, w={w})", expected, solution.measured_steps, note)
    assert report.all_match
    show_report(report)


def test_t2_utilization(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng, False), rounds=1, iterations=1)
    report = ExperimentReport(
        "T2", "matrix-vector utilization: eta = 1 / (2 + 2/nm - 3/wnm) -> 1/2"
    )
    for n, m, w, solution in rows:
        n_bar, m_bar = block_count(n, w), block_count(m, w)
        report.add(
            f"eta(n={n:>2}, m={m:>2}, w={w})",
            matvec_utilization(n_bar, m_bar, w),
            solution.measured_utilization,
        )
    assert report.all_match
    # The largest problem sits within 10% of the 1/2 limit.
    largest = rows[-1][3]
    assert largest.measured_utilization > 0.45
    show_report(report)


def test_t2_overlapped_utilization(benchmark, rng, show_report):
    rows = benchmark.pedantic(run_sweep, args=(rng, True), rounds=1, iterations=1)
    report = ExperimentReport("T2b", "overlapped utilization -> 1")
    for n, m, w, solution in rows:
        n_bar, m_bar = block_count(n, w), block_count(m, w)
        if n_bar % 2 != 0:
            continue
        report.add(
            f"eta(n={n:>2}, m={m:>2}, w={w})",
            matvec_utilization(n_bar, m_bar, w, overlapped=True),
            solution.measured_utilization,
        )
    assert report.all_match
    assert rows[-1][3].measured_utilization > 0.85
    show_report(report)
