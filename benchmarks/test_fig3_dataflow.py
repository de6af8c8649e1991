"""F3 — Fig. 3: input/output data flow of the linear array, 39 cycles.

The paper tabulates the data entering and leaving the array for the
``n=6, m=9, w=3`` problem over its 39 computation steps.  This benchmark
re-runs that exact problem on the cycle-accurate simulator with trace
recording and checks the quantities the figure shows: the step count, the
20-element ``x`` stream (x_0..x_8 twice plus x_0, x_1), the alternation of
``b`` elements and fed-back partial results on the ``y`` input, and the
partial/final structure of the ``y`` output.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.plans import MatVecPlan


def test_fig3_dataflow_table(benchmark, rng, show_report):
    n, m, w = 6, 9, 3
    matrix = rng.uniform(-1.0, 1.0, size=(n, m))
    x = rng.uniform(-1.0, 1.0, size=m)
    b = rng.uniform(-1.0, 1.0, size=n)

    plan = MatVecPlan(n, m, w, record_trace=True)
    solution = benchmark(plan.execute, matrix, x, b)
    assert np.allclose(solution.y, matrix @ x + b)

    trace = solution.trace
    x_stream = trace.rows["x in"]
    y_in_stream = trace.rows["y/b in"]
    y_out_stream = trace.rows["y out"]

    # Labels of the x stream: x0..x8, x0..x8, x0, x1 — exactly as printed in
    # the figure.
    x_labels = trace.row_labels("x in")
    expected_x = [f"x{j}" for j in range(9)] * 2 + ["x0", "x1"]
    assert x_labels == expected_x

    # The y-input stream alternates external b blocks and fed-back partials:
    # b0 b1 b2, then partial passes of y0..y2, then b3 b4 b5, ...
    y_in_labels = trace.row_labels("y/b in")
    assert y_in_labels[:3] == ["b0", "b1", "b2"]
    assert y_in_labels[3:6] == ["y0^0", "y1^0", "y2^0"]
    assert y_in_labels[9:12] == ["b3", "b4", "b5"]

    # The output stream produces two partial passes and one final value per
    # original element; the final values are y0..y5.
    finals = [item for item in y_out_stream if len(item.tag) == 2]
    assert [item.tag[1] for item in finals] == [0, 1, 2, 3, 4, 5]

    report = ExperimentReport("F3", "Fig. 3 — data flow for n=6, m=9, w=3")
    report.add("computation steps", 39, solution.measured_steps)
    report.add("x stream length", 20, len(x_stream))
    report.add("y-input stream length", 18, len(y_in_stream))
    report.add("y-output stream length", 18, len(y_out_stream))
    report.add("values fed back", 12, len(solution.feedback_delays))
    report.add("feedback delay (= w)", 3, max(solution.feedback_delays))
    assert report.all_match
    show_report(report)


def test_fig3_inputs_arrive_every_other_cycle(benchmark, rng):
    matrix = rng.uniform(-1.0, 1.0, size=(6, 9))
    x = rng.uniform(-1.0, 1.0, size=9)
    plan = MatVecPlan(6, 9, 3, record_trace=True)
    solution = benchmark(plan.execute, matrix, x, None)
    cycles = solution.trace.rows["x in"].cycles()
    assert all(later - earlier == 2 for earlier, later in zip(cycles, cycles[1:]))
    out_cycles = solution.trace.rows["y out"].cycles()
    assert all(later - earlier == 2 for earlier, later in zip(out_cycles, out_cycles[1:]))
