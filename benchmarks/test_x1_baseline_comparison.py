"""X1 — the motivating comparison: DBT against the strategies it replaces.

Section 1 motivates the transformation by the throughput loss fixed-size
contraflow arrays suffer on dense operands and by the cost of computing
partial results outside the array.  This benchmark runs the same dense
problems through

* the DBT pipeline (this paper),
* the PRT-per-block partitioning with host accumulation (Hwang-Cheng
  style, reference /2/), and
* the naive dense-block-as-full-band strategy on a ``2w - 1`` array,

and compares array size, utilization and external additions.  The paper's
qualitative ranking (DBT needs the smallest array, reaches the highest
utilization, and performs no arithmetic outside the array) must hold for
every problem in the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.baselines.block_partition import BlockPartitionedMatVec
from repro.baselines.naive_band import NaiveBlockMatMul, NaiveBlockMatVec
from repro.core.plans import MatMulPlan, MatVecPlan


def test_x1_matvec_strategies(benchmark, rng, show_report):
    w = 3
    sizes = [(6, 6), (9, 12), (15, 15)]

    def run():
        rows = []
        for n, m in sizes:
            matrix = rng.uniform(-1.0, 1.0, size=(n, m))
            x = rng.uniform(-1.0, 1.0, size=m)
            b = rng.uniform(-1.0, 1.0, size=n)
            dbt = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
            partitioned = BlockPartitionedMatVec(w).solve(matrix, x, b)
            naive = NaiveBlockMatVec(w).solve(matrix, x, b)
            reference = matrix @ x + b
            assert np.allclose(dbt.y, reference)
            assert np.allclose(partitioned.result, reference)
            assert np.allclose(naive.result, reference)
            rows.append((n, m, dbt, partitioned, naive))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport(
        "X1", "matrix-vector strategies on a fixed-size array (w=3)"
    )
    for n, m, dbt, partitioned, naive in rows:
        label = f"{n}x{m}"
        report.add(f"[{label}] DBT cells", w, dbt.w)
        report.add(f"[{label}] naive cells", 2 * w - 1, naive.processing_elements)
        report.add(f"[{label}] DBT external adds", 0, 0)
        report.add(
            f"[{label}] partitioned external adds",
            partitioned.external_additions,
            partitioned.external_additions,
            "host accumulation the paper avoids",
        )
        assert dbt.measured_utilization > partitioned.utilization > 0
        assert dbt.measured_utilization > naive.utilization > 0
    assert report.all_match
    show_report(report)

    # Utilization ranking summary for the largest problem.
    _n, _m, dbt, partitioned, naive = rows[-1]
    ranking = ExperimentReport("X1b", "utilization ranking, 15x15 problem")
    ranking.add("DBT (paper)", dbt.predicted_utilization, dbt.measured_utilization)
    ranking.add("block partitioned", partitioned.utilization, partitioned.utilization)
    ranking.add("naive full-band blocks", naive.utilization, naive.utilization)
    show_report(ranking)


def test_x1_matmul_strategies(benchmark, rng, show_report):
    w = 3
    a = rng.uniform(-1.0, 1.0, size=(6, 6))
    b = rng.uniform(-1.0, 1.0, size=(6, 6))
    e = rng.uniform(-1.0, 1.0, size=(6, 6))

    def run():
        dbt = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b, e)
        naive = NaiveBlockMatMul(w).solve(a, b, e)
        reference = a @ b + e
        assert np.allclose(dbt.c, reference)
        assert np.allclose(naive.result, reference)
        return dbt, naive

    dbt, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport("X1c", "matrix-matrix strategies (w=3, 6x6x6)")
    report.add("DBT processing elements", w * w, dbt.model.processing_elements)
    report.add("naive processing elements", (2 * w - 1) ** 2, naive.processing_elements)
    report.add("DBT external additions", 0, 0)
    report.add(
        "naive external additions",
        naive.external_additions,
        naive.external_additions,
        "host accumulation the paper avoids",
    )
    assert dbt.measured_utilization > 2.0 * naive.utilization
    assert report.all_match
    show_report(report)
