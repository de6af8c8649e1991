"""Compiled pipeline graphs vs. per-stage string-kind calls.

The claim the :mod:`repro.graph` redesign exists to win: a chained
workload ``refine(M, A @ (B @ x))`` expressed as a compiled pipeline
executes faster than the same computation issued as three separate
``Solver.solve`` calls.  Two effects stack:

* the program is compiled once — warm re-executions stream values
  through resolved plans with zero plan builds, no per-call shape
  re-validation and no cache probes;
* under ``fuse=True`` the compiler applies the associativity rewrite
  ``(A B) x -> A (B x)``, replacing the O(n^3) matmul stage with a second
  O(n^2) matvec (the rewrite changes floating-point association, so the
  benchmark checks the result against numpy rather than bit-identity —
  the *unfused* program is asserted bit-identical to the per-stage calls
  separately).

The gate is the counters: warm runs build no plan and construct no
transform.  The wall-clock floor is loose on purpose.  A warm 64x64
mat-mul is one step-major fold of about 2 ms, so the rewrite saves
about that against a refine stage that dominates both sides: over 47
runs on a shared 2-core x86-64 host the medians of interleaved
repetitions read 1.02–1.39x (median 1.2x), and the floor is 1.0x —
the fused pipeline is never the slower one.

With ``REPRO_BENCH_RECORD=1`` set, results are recorded in
``BENCH_pipeline.json`` at the repository root (git-sha-keyed
trajectory point; CI uploads it as an artifact).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.analysis.trajectory import record_trajectory_point
from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.graph import Graph, GraphCompiler, MatMul, MatVec, Refine
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria

N = 64
W = 4
#: Interleaved separate/fused repetitions; each side's time is the median.
REPS = 7
SWEEPS = 3
#: Wall-clock floor, under the 1.02–1.39x the medians read.
FLOOR = 1.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def _workload(rng):
    a = rng.normal(size=(N, N))
    b = rng.normal(size=(N, N))
    z = rng.normal(size=N)
    matrix = rng.normal(size=(N, N)) + N * np.eye(N)
    return a, b, z, matrix


def _options() -> ExecutionOptions:
    return ExecutionOptions(
        criteria=ConvergenceCriteria(atol=1e-280, max_iter=SWEEPS)
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class TestPipelineFusion:
    def test_fused_graph_at_least_1_5x_three_separate_solves(self, rng, show_report):
        from repro.analysis.report import ExperimentReport

        a, b, z, matrix = _workload(rng)

        # -- the unfused baseline: three separate string-kind calls -------
        solver = Solver(ArraySpec(W), options=_options())

        def separate():
            product = solver.solve("matmul", a, b).values
            projected = solver.solve("matvec", product, z).values
            return solver.solve("refine", matrix, projected).values

        unfused_x = separate()  # warm every plan

        # -- the pipeline: compile once, execute warm ---------------------
        graph = Graph(
            Refine(
                matrix,
                MatVec(MatMul(a, b, name="product"), z, name="projected"),
                name="refined",
            )
        )
        graph_solver = Solver(ArraySpec(W), options=_options())
        unfused_program = GraphCompiler(graph_solver).compile(graph)
        assert np.array_equal(
            unfused_program.run().output("refined"), unfused_x
        ), "the unfused pipeline must be bit-identical to per-stage solves"

        fused_program = GraphCompiler(graph_solver, fuse=True).compile(graph)
        assert fused_program.fused_rewrites == 1
        fused_program.run()  # warm the fused matvec plans
        before = counters.snapshot()
        unfused_times, fused_times = [], []
        for _ in range(REPS):  # interleaved, so host noise hits both sides
            unfused_times.append(_timed(separate)[0])
            fused_time, result = _timed(fused_program.run)
            fused_times.append(fused_time)
        delta = counters.delta(before)

        assert delta.plan_builds == 0, "warm runs must build nothing"
        assert delta.transform_constructions == 0
        assert result.warm
        expected = np.linalg.solve(matrix, a @ (b @ z))
        assert np.allclose(result.output("refined"), expected, atol=1e-8)

        unfused_time = statistics.median(unfused_times)
        fused_time = statistics.median(fused_times)
        speedup = unfused_time / fused_time
        assert speedup >= FLOOR, (
            f"compiled+fused pipeline gave only {speedup:.2f}x over three "
            f"separate solve calls ({fused_time * 1e3:.2f} ms vs "
            f"{unfused_time * 1e3:.2f} ms for n={N}); the graph layer's "
            f"fusion/plan-reuse advantage regressed"
        )

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "pipeline_fusion",
                "unix_time": time.time(),
                "workload": {
                    "stages": ["matmul", "matvec", "refine"],
                    "n": N,
                    "w": W,
                    "refine_sweeps": SWEEPS,
                    "reps": REPS,
                },
                "three_separate_solves": {"seconds": unfused_time},
                "fused_pipeline": {
                    "seconds": fused_time,
                    "plan_builds_warm": delta.plan_builds,
                    "fused_rewrites": fused_program.fused_rewrites,
                    "stages": len(fused_program.stages),
                },
                "speedup": speedup,
            },
        )

        report = ExperimentReport(
            experiment="pipeline graphs: fused compiled program vs separate solves",
            description=f"refine(M, A @ (B @ x)), n={N}, w={W}",
        )
        report.add(
            f"fused pipeline >= {FLOOR:g}x separate solves",
            1,
            int(speedup >= FLOOR),
            note=(
                f"separate {unfused_time * 1e3:.2f} ms, fused "
                f"{fused_time * 1e3:.2f} ms ({speedup:.1f}x)"
            ),
        )
        report.add(
            "plan builds during warm runs",
            0,
            delta.plan_builds,
            note=f"{REPS} warm executions of a {len(fused_program.stages)}-stage program",
        )
        show_report(report)
