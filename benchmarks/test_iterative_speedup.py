"""Warm-plan iterative solving vs. per-sweep plan rebuilding.

The claim the :mod:`repro.iterative` subsystem exists to win: because
every sweep of an iterative method reuses the same ``(kind, shapes, w,
options)`` plan, a k-iteration solve costs one plan compilation plus k
warm vectorized executions.  The baseline is the same Jacobi arithmetic
with *no* plan reuse — a fresh :class:`~repro.api.solver.Solver` per
sweep, paying a plan build every time, which is what a stateless
per-request serving model would do.

The gate is the counters: the warm job builds no plan and constructs no
transform, and its values are bit-identical to the rebuild baseline.
The wall-clock floor is loose on purpose.  A vectorized plan build
computes geometry only (no DBT template), so the baseline's rebuilds
are cheap and the ratio is modest: over 10 runs on a shared 2-core
x86-64 host the medians of interleaved repetitions read 4.5–6.8x, and
the floor is 3x.

With ``REPRO_BENCH_RECORD=1`` set, results are recorded in
``BENCH_iterative.json`` at the repository root (git-sha-keyed
trajectory point; CI uploads it as an artifact).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.analysis.trajectory import record_trajectory_point
from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria

N = 64
W = 4
SWEEPS = 12
#: Interleaved cold/warm repetitions; each side's time is the median.
REPS = 5
#: Wall-clock floor, under the 4.5–6.8x the medians read.
FLOOR = 3.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_iterative.json"


def _system(rng: np.random.Generator):
    """A diagonally dominant SPD system (Jacobi-convergent, well scaled)."""
    a = rng.normal(size=(N, N))
    matrix = (a + a.T) / 2.0
    matrix += (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(N)
    return matrix, rng.normal(size=N)


def _jacobi_without_plan_reuse(matrix, b) -> "tuple[float, np.ndarray]":
    """K Jacobi sweeps where every sweep pays a fresh plan compilation."""
    diagonal = np.diag(matrix)
    off_diagonal = matrix - np.diagflat(diagonal)
    x = np.zeros(N)
    start = time.perf_counter()
    for _ in range(SWEEPS):
        product = Solver(ArraySpec(W)).solve("matvec", off_diagonal, x)
        x = (b - product.values) / diagonal
    return time.perf_counter() - start, x


class TestIterativeWarmSpeedup:
    def test_warm_jacobi_at_least_5x_per_sweep_rebuild(self, rng, show_report):
        from repro.analysis.report import ExperimentReport

        matrix, b = _system(rng)
        options = ExecutionOptions(
            criteria=ConvergenceCriteria(atol=1e-280, max_iter=SWEEPS)
        )
        solver = Solver(ArraySpec(W), options=options)
        solver.solve("jacobi", matrix, b)  # warm the engine's plans

        cold_times, warm_times = [], []
        for _ in range(REPS):  # interleaved, so host noise hits both sides
            cold_time, cold_x = _jacobi_without_plan_reuse(matrix, b)
            cold_times.append(cold_time)
            before = counters.snapshot()
            start = time.perf_counter()
            warm = solver.solve("jacobi", matrix, b)
            warm_times.append(time.perf_counter() - start)
            delta = counters.delta(before)

            assert warm.stats["iterations"] == SWEEPS
            # The whole warm job recompiled nothing — not even its first sweep.
            assert delta.plan_builds == 0
            assert delta.transform_constructions == 0
            assert delta.iterative_sweeps == SWEEPS
            assert np.array_equal(warm.values, cold_x)

        cold_time = statistics.median(cold_times)
        warm_time = statistics.median(warm_times)
        speedup = cold_time / warm_time
        assert speedup >= FLOOR, (
            f"plan-cached Jacobi gave only {speedup:.2f}x over per-sweep "
            f"rebuilding ({warm_time * 1e3:.2f} ms vs {cold_time * 1e3:.2f} ms "
            f"for {SWEEPS} sweeps on n={N}); the iterative subsystem's plan "
            f"reuse regressed"
        )

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "iterative_warm_speedup",
                "unix_time": time.time(),
                "workload": {"method": "jacobi", "n": N, "w": W, "sweeps": SWEEPS},
                "per_sweep_rebuild": {"seconds": cold_time},
                "warm_plan_cache": {
                    "seconds": warm_time,
                    "plan_builds": delta.plan_builds,
                    "cache_hits": warm.stats["cache"].hits,
                    "cache_misses": warm.stats["cache"].misses,
                },
                "speedup": speedup,
            },
        )

        report = ExperimentReport(
            experiment="iterative solving: warm plan cache vs per-sweep rebuild",
            description=f"jacobi, n={N}, w={W}, {SWEEPS} sweeps",
        )
        report.add(
            f"warm >= {FLOOR:g}x rebuild",
            1,
            int(speedup >= FLOOR),
            note=(
                f"rebuild {cold_time * 1e3:.2f} ms, warm {warm_time * 1e3:.2f} ms "
                f"({speedup:.1f}x)"
            ),
        )
        report.add(
            "plan builds during warm job",
            0,
            delta.plan_builds,
            note=f"{SWEEPS} sweeps, all warm executions",
        )
        show_report(report)
