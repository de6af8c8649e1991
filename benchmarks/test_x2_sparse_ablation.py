"""X2 — ablation: the block-sparse refinement of DBT (Section 4 conclusions).

The paper's conclusions predict that, for matrices "of a known degree of
sparsity", excluding the zero-valued sub-matrices from the transformation
reduces the computational time.  This ablation sweeps the block density of
the operand and compares the plain (dense) DBT against the block-sparse
variant implemented in ``repro.extensions.sparse``: same array, same
results, fewer steps — with the saving growing as the density drops, and
the fully dense case degenerating exactly to plain DBT-by-rows.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.plans import MatVecPlan
from repro.extensions.sparse import BlockSparseMatVec


def block_sparse_matrix(rng, block_rows, block_cols, w, density):
    matrix = np.zeros((block_rows * w, block_cols * w))
    for i in range(block_rows):
        for j in range(block_cols):
            if rng.uniform() < density:
                matrix[i * w : (i + 1) * w, j * w : (j + 1) * w] = rng.uniform(
                    -1.0, 1.0, size=(w, w)
                )
    return matrix


def test_x2_block_sparse_vs_dense_dbt(benchmark, rng, show_report):
    w = 3
    densities = [1.0, 0.7, 0.4, 0.2]

    def run():
        rows = []
        for density in densities:
            matrix = block_sparse_matrix(rng, 5, 6, w, density)
            x = rng.uniform(-1.0, 1.0, size=matrix.shape[1])
            b = rng.uniform(-1.0, 1.0, size=matrix.shape[0])
            dense = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
            sparse = BlockSparseMatVec(w).solve(matrix, x, b)
            reference = matrix @ x + b
            assert np.allclose(dense.y, reference)
            assert np.allclose(sparse.y, reference)
            rows.append((density, dense, sparse))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = ExperimentReport(
        "X2", "block-sparse DBT vs plain DBT (w=3, 5x6 block grid)"
    )
    for density, dense, sparse in rows:
        report.add(
            f"steps at density {density:.1f} (dense DBT)",
            dense.measured_steps,
            dense.measured_steps,
        )
        report.add(
            f"steps at density {density:.1f} (sparse DBT)",
            sparse.measured_steps,
            sparse.measured_steps,
            f"saving {sparse.saving:.0%}, "
            f"{sparse.transform.skipped_block_count} blocks skipped",
        )
        assert sparse.measured_steps <= dense.measured_steps
    # Fully dense degenerates to plain DBT; savings grow monotonically as the
    # density falls.
    assert rows[0][2].measured_steps == rows[0][1].measured_steps
    savings = [sparse.saving for _d, _dense, sparse in rows]
    assert savings == sorted(savings)
    show_report(report)


def test_x2_sparse_keeps_feedback_and_correctness(benchmark, rng, show_report):
    w = 4
    matrix = block_sparse_matrix(rng, 4, 4, w, 0.4)
    x = rng.uniform(-1.0, 1.0, size=matrix.shape[1])
    solver = BlockSparseMatVec(w)
    solution = benchmark(solver.solve, matrix, x, None)
    assert np.allclose(solution.y, matrix @ x)

    report = ExperimentReport("X2b", "sparse DBT keeps the constant feedback delay")
    if solution.run is not None and solution.run.feedback_events:
        report.add("feedback delay (= w)", w, max(solution.run.feedback_delays()))
    report.add("array cells", w, solution.w)
    assert report.all_match
    show_report(report)
