"""Plan-cache speedup on repeated same-shape solves.

The api redesign's performance claim: because the DBT transformation
depends only on problem shape and array size ``w``, a warm
:class:`~repro.api.plan.ExecutionPlan` lets repeated same-shape solves —
the hot path of a serving workload — skip all transform construction and
only stream operand values.  This benchmark demonstrates the claim:

* a *cold* solve (plan compilation + execution) is measurably slower than
  a *warm* solve (execution only) of the same problem,
* the warm solve constructs zero transforms (instrumentation counter),
* cold and warm results are bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import ArraySpec, Solver
from repro.instrumentation import counters


def _best_of(callable_, repeats: int = 3) -> float:
    """Smallest wall-clock time of ``repeats`` calls (noise suppression)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


class TestPlanCacheSpeedup:
    def test_warm_solve_is_faster_and_identical(self, rng, show_report):
        from repro.analysis.report import ExperimentReport

        n, m, w = 24, 24, 4
        a = rng.normal(size=(n, m))
        x = rng.normal(size=m)
        b = rng.normal(size=n)

        # Cold: a fresh solver must compile the plan inside solve().
        cold_solver = Solver(ArraySpec(w=w))
        cold_start = time.perf_counter()
        cold = cold_solver.solve("matvec", a, x, b)
        cold_time = time.perf_counter() - cold_start
        assert not cold.from_cache

        # Warm: the same solver, same shape — values only.
        warm_results = []
        before = counters.snapshot()
        warm_time = _best_of(
            lambda: warm_results.append(cold_solver.solve("matvec", a, x, b))
        )
        delta = counters.delta(before)

        assert all(solution.from_cache for solution in warm_results)
        assert delta.transform_constructions == 0
        assert delta.plan_builds == 0
        for solution in warm_results:
            assert np.array_equal(solution.values, cold.values)
        assert warm_time < cold_time, (
            f"warm solve ({warm_time:.6f}s) not faster than cold ({cold_time:.6f}s)"
        )

        report = ExperimentReport(
            experiment="plan cache: cold vs warm matvec solve",
            description=f"n=m={n}, w={w}; warm = best of 3",
        )
        report.add(
            "warm faster",
            1,
            int(warm_time < cold_time),
            note=(
                f"cold {cold_time * 1e3:.2f} ms, warm {warm_time * 1e3:.2f} ms, "
                f"speedup {cold_time / warm_time:.2f}x"
            ),
        )
        report.add(
            "transforms built during warm solves",
            0,
            delta.transform_constructions,
            note="plan reuse streams values only",
        )
        show_report(report)

    def test_warm_matmul_solve_skips_operand_construction(self, rng):
        w = 3
        a = rng.normal(size=(6, 9))
        b = rng.normal(size=(9, 6))
        solver = Solver(ArraySpec(w=w))
        cold = solver.solve("matmul", a, b)

        before = counters.snapshot()
        warm = solver.solve("matmul", a, b)
        delta = counters.delta(before)
        assert warm.from_cache
        assert delta.transform_constructions == 0
        assert np.array_equal(warm.values, cold.values)

    def test_batch_reuses_one_plan(self, rng):
        solver = Solver(ArraySpec(w=4))
        batch = [
            (rng.normal(size=(12, 12)), rng.normal(size=12)) for _ in range(6)
        ]
        solver.solve_batch("matvec", batch)  # first entry compiles the plan
        stats = solver.cache_stats
        assert stats.misses == 1
        assert stats.hits == len(batch) - 1
