"""Regeneration of the paper's figures as text artifacts.

Each ``render_figN`` function returns a string with the same structural
content as the corresponding figure of the paper (block placement tables,
cycle-by-cycle data flow, topology descriptions).  The figure benchmarks
call these functions and check the invariants the figures illustrate; the
``examples/figure_gallery.py`` script prints them for visual inspection.
"""

from __future__ import annotations


import numpy as np

from ..core.dbt import DBTByRowsTransform
from ..core.plans import MatVecPlan
from ..core.operands import MatMulOperands
from ..core.recovery import PartialResultMap
from ..core.schedule import plan_overlap_partition
from ..matrices.dense import random_matvec_problem
from ..systolic.feedback import SpiralFeedbackTopology
from ..systolic.trace import render_dataflow_table

__all__ = [
    "render_fig1_block_structure",
    "render_fig2_concrete_case",
    "render_fig3_dataflow",
    "render_fig4_matmul_blocks",
    "render_fig5_spiral_topology",
    "render_fig6_recovery_map",
]


def render_fig1_block_structure(n_bar: int, m_bar: int, w: int = 3) -> str:
    """Fig. 1: symbolic block structure of the transformed mat-vec problem.

    The table lists, for every band block row ``k``, which original
    triangles it holds and where its ``x``, initial-``y`` and output blocks
    come from — the information Fig. 1.b conveys graphically.
    """
    matrix = np.arange(1, n_bar * w * m_bar * w + 1, dtype=float).reshape(
        (n_bar * w, m_bar * w)
    )
    transform = DBTByRowsTransform(matrix, w)
    lines = [
        f"Transformed problem structure for n_bar={n_bar}, m_bar={m_bar}, w={w}",
        f"band: {transform.band_rows} x {transform.band_cols}, bandwidth {w}",
        "band block row |  U block  |  L block  | x block | initial y     | output",
        "-" * 78,
    ]
    for assignment in transform.assignments:
        k = assignment.k
        r, s = assignment.upper_source
        lr, ls = assignment.lower_source
        x_block = k % m_bar
        if k % m_bar == 0:
            initial = f"b_{r} (external)"
        else:
            initial = f"y_{r} pass {k % m_bar - 1} (feedback)"
        if (k + 1) % m_bar == 0:
            output = f"y_{r} (final)"
        else:
            output = f"y_{r} pass {k % m_bar} (partial)"
        lines.append(
            f"{k:>14} | U_{r},{s:<5} | L_{lr},{ls:<5} | x_{x_block:<5} | {initial:<13} | {output}"
        )
    lines.append("-" * 78)
    lines.append(
        f"x~ = ({', '.join(f'x_{k % m_bar}' for k in range(n_bar * m_bar))}, x'_0)"
        "   (x'_0 = first w-1 elements of x_0)"
    )
    return "\n".join(lines)


def render_fig2_concrete_case(n: int = 6, m: int = 9, w: int = 3) -> str:
    """Fig. 2: the concrete ``n=6, m=9, w=3`` case, with the overlap cut."""
    base = render_fig1_block_structure((n + w - 1) // w, (m + w - 1) // w, w)
    partition = plan_overlap_partition(n, m, w)
    lines = [
        f"Concrete case n={n}, m={m}, w={w} (Fig. 2)",
        base,
        "",
        "Optimal partitioning for overlapping (the dotted line of Fig. 2.b):",
        f"  cut after band block row {partition.cut_band_block_row - 1} "
        f"(original block rows {partition.first_block_rows} | {partition.second_block_rows})",
    ]
    return "\n".join(lines)


def render_fig3_dataflow(n: int = 6, m: int = 9, w: int = 3, seed: int = 0) -> str:
    """Fig. 3: cycle-by-cycle input/output data flow of the linear array."""
    problem = random_matvec_problem(n, m, seed=seed)
    plan = MatVecPlan(n, m, w, record_trace=True)
    solution = plan.execute(problem.matrix, problem.x, problem.b)
    header = (
        f"Data flow for n={n}, m={m}, w={w}: "
        f"{solution.measured_steps} steps "
        f"(paper: 2*w*n_bar*m_bar + 2w - 3 = {solution.predicted_steps})"
    )
    table = render_dataflow_table(solution.trace)
    return header + "\n" + table


def render_fig4_matmul_blocks(
    n_bar: int = 2, p_bar: int = 2, m_bar: int = 3, w: int = 3
) -> str:
    """Fig. 4: block structure of the transformed matrix-matrix problem."""
    n, p, m = n_bar * w, p_bar * w, m_bar * w
    a = np.arange(1, n * p + 1, dtype=float).reshape((n, p))
    b = np.arange(1, p * m + 1, dtype=float).reshape((p, m))
    operands = MatMulOperands(a, b, w)
    lines = [
        f"Transformed operands for n_bar={n_bar}, p_bar={p_bar}, m_bar={m_bar}, w={w}",
        f"A~ and B~ are {operands.dimension} x {operands.dimension} bands of width {w}",
        "band block | A~ diag (U of A) | A~ super (L of A) | B~ diag (low of B) | B~ sub (up of B)",
        "-" * 95,
    ]
    copy = operands.copy_block_count
    for block in range(operands.full_block_count):
        within = block % copy
        r, s = within // p_bar, within % p_bar
        s_next = (s + 1) % p_bar
        strip = block // copy
        q = within % p_bar
        q_next = (q + 1) % p_bar
        lines.append(
            f"{block:>10} | U^A_{r},{s:<11} | L^A_{r},{s_next:<12} | "
            f"low(B_{q},{strip})      | up(B_{q_next},{strip})"
        )
    lines.append("-" * 95)
    lines.append(
        "tail: U' = leading (w-1)x(w-1) of U^A_0,0 ; L' = leading (w-1)x(w-1) of low(B_0,0)"
    )
    return "\n".join(lines)


def render_fig5_spiral_topology(w: int = 3) -> str:
    """Fig. 5: the spiral feedback interconnection of the hexagonal array."""
    return SpiralFeedbackTopology(w).describe()


def render_fig6_recovery_map(
    n_bar: int = 2, p_bar: int = 2, m_bar: int = 2, w: int = 3
) -> str:
    """Fig. 6 / appendix: where each result block leaves the output band."""
    n, p, m = n_bar * w, p_bar * w, m_bar * w
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, (n, p))
    b = rng.uniform(-1.0, 1.0, (p, m))
    operands = MatMulOperands(a, b, w)
    placement = PartialResultMap(operands)
    lengths = placement.chain_lengths()
    finals = placement.final_positions()
    lines = [
        f"Output-band recovery map for n_bar={n_bar}, p_bar={p_bar}, m_bar={m_bar}, w={w}",
        f"accumulation chain lengths (partials per C element): "
        + ", ".join(f"{count} elements x {length} partials" for length, count in sorted(lengths.items())),
        "C block (i, j) | band block holding its final diagonal element",
        "-" * 60,
    ]
    for i in range(n_bar):
        for j in range(m_bar):
            alpha, gamma = i * w, j * w
            position = finals[(alpha, gamma)]
            lines.append(
                f"      ({i}, {j})      | band block {position[0] // w} "
                f"(band position {position})"
            )
    return "\n".join(lines)
