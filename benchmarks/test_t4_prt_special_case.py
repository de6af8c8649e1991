"""T4 — the PRT transformation is DBT-by-rows with n_bar = m_bar = 1.

Section 2: "The PRT transformation proposed by R.W. Priester et al. is a
particular case of the DBT-by-rows when n_bar = m_bar = 1."  The benchmark
compares the two transformations on single-block problems (identical band,
identical schedule, identical result) and contrasts the array sizes of PRT
and of the naive full-band strategy it improves on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import ExperimentReport
from repro.baselines.naive_band import NaiveBlockMatVec
from repro.baselines.prt import PRTMatVec, PRTTransform
from repro.core.dbt import DBTByRowsTransform
from repro.core.plans import MatVecPlan


@pytest.mark.parametrize("w", [2, 3, 4, 6])
def test_t4_prt_equals_single_block_dbt(benchmark, rng, w, show_report):
    matrix = rng.uniform(-1.0, 1.0, size=(w, w))
    x = rng.uniform(-1.0, 1.0, size=w)
    b = rng.uniform(-1.0, 1.0, size=w)

    def both():
        prt = PRTTransform(matrix, w)
        dbt = DBTByRowsTransform(matrix, w)
        prt_solution = PRTMatVec(w).solve(matrix, x, b)
        dbt_solution = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
        return prt, dbt, prt_solution, dbt_solution

    prt, dbt, prt_solution, dbt_solution = benchmark(both)

    assert np.allclose(prt.band.to_dense(), dbt.band.to_dense())
    assert np.allclose(prt_solution.y, dbt_solution.y)
    assert np.allclose(prt_solution.y, matrix @ x + b)

    report = ExperimentReport("T4", f"PRT vs single-block DBT, w={w}")
    report.add("steps (PRT)", dbt_solution.measured_steps, prt_solution.measured_steps)
    report.add("array cells (PRT = w)", w, PRTMatVec(w).array_size)
    report.add(
        "array cells (naive full band = 2w-1)",
        2 * w - 1,
        NaiveBlockMatVec(w).array_size,
        "PRT halves the array, as Priester et al. report",
    )
    assert report.all_match
    show_report(report)


def test_t4_dbt_extends_prt_beyond_one_block(benchmark, rng, show_report):
    """What DBT adds on top of PRT: arbitrary sizes on the same w cells."""
    w = 3
    matrix = rng.uniform(-1.0, 1.0, size=(9, 12))
    x = rng.uniform(-1.0, 1.0, size=12)

    plan = MatVecPlan(*matrix.shape, w)
    solution = benchmark(plan.execute, matrix, x, None)
    assert np.allclose(solution.y, matrix @ x)

    report = ExperimentReport("T4b", "DBT on a multi-block problem, same w cells")
    report.add("array cells", w, solution.w)
    report.add("steps", solution.predicted_steps, solution.measured_steps)
    assert report.all_match
    show_report(report)
