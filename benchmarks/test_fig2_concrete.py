"""F2 — Fig. 2: the concrete case n=6, m=9, w=3, with the overlap partition.

Regenerates the block structures of Fig. 2.a/2.b and the optimal
partitioning (the dotted line) that splits the transformed problem into two
disjoint sub-problems of three band block rows each.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures import render_fig2_concrete_case
from repro.analysis.report import ExperimentReport
from repro.core.dbt import DBTByRowsTransform
from repro.core.plans import MatVecPlan
from repro.core.schedule import plan_overlap_partition


def test_fig2_block_structure_and_partition(benchmark, rng, show_report):
    n, m, w = 6, 9, 3

    def build():
        matrix = rng.uniform(-1.0, 1.0, size=(n, m))
        transform = DBTByRowsTransform(matrix, w)
        partition = plan_overlap_partition(n, m, w)
        return transform, partition, render_fig2_concrete_case(n, m, w)

    transform, partition, text = benchmark(build)

    report = ExperimentReport("F2", "Fig. 2 — concrete case n=6, m=9, w=3")
    report.add("band block rows", 6, transform.block_row_count)
    report.add("x~ elements", 20, transform.band_cols)
    report.add("cut position (band block rows in first half)", 3, partition.cut_band_block_row)
    report.add("original block rows per half", 1, partition.first_block_rows)
    assert report.all_match
    assert "cut after band block row 2" in text
    show_report(report)


def test_fig2_partitioned_halves_run_independently(benchmark, rng):
    """The two halves of the cut share no feedback, so each solves alone."""
    n, m, w = 6, 9, 3
    matrix = rng.uniform(-1.0, 1.0, size=(n, m))
    x = rng.uniform(-1.0, 1.0, size=m)
    b = rng.uniform(-1.0, 1.0, size=n)

    def run_halves():
        top = MatVecPlan(3, m, w).execute(matrix[:3], x, b[:3])
        bottom = MatVecPlan(n - 3, m, w).execute(matrix[3:], x, b[3:])
        return np.concatenate([top.y, bottom.y])

    y = benchmark(run_halves)
    assert np.allclose(y, matrix @ x + b)
