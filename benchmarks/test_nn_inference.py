"""Quantized int8 vs float64 MLP inference on the vectorized backend.

The claim the :mod:`repro.nn` subsystem exists to win: an int8 forward
pass through the same compiled-pipeline machinery executes at least
**1.5x** faster than the float64 forward pass of the identical network.
Integer addition is exactly associative, so the int8 dense stages replay
the systolic accumulation as blocked int32 reductions instead of the
float path's timestep-ordered sweep loop — bit-identical to the
cycle-accurate simulator, but a fraction of the host work.

Both networks compile once; the measured runs are pure warm execution
(asserted: zero plan builds, zero transform constructions).  The cold
(compile) vs warm build split and both throughputs are recorded in
``BENCH_nn.json`` at the repository root (git-sha-keyed trajectory
point; CI uploads it as an artifact).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.analysis.trajectory import record_trajectory_point
from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.graph import GraphCompiler
from repro.instrumentation import counters
from repro.nn import MLP

SIZES = (1024, 512, 128, 16)  # 3 layers -> a 14-node quantized graph
W = 8
REPS = 20

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_nn.json"


def _network(rng) -> MLP:
    layers = [
        (
            rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in),
            rng.normal(size=fan_out) * 0.1,
        )
        for fan_in, fan_out in zip(SIZES, SIZES[1:])
    ]
    return MLP(layers)


class TestNNInference:
    def test_int8_forward_at_least_1_5x_float64(self, rng, show_report):
        from repro.analysis.report import ExperimentReport

        mlp = _network(rng)
        calibration = [rng.normal(size=SIZES[0]) for _ in range(4)]
        qmlp = mlp.quantized(calibration)
        x = calibration[0]
        solver = Solver(
            ArraySpec(W), options=ExecutionOptions(backend="vectorized")
        )
        compiler = GraphCompiler(solver)

        # -- compile both forward passes, splitting cold from warm --------
        # (Each layer's chain fuses into one stage whose plan key carries
        # its dtype, so every stage of both programs is its own plan.)
        int8_program = compiler.compile(qmlp.graph(x))
        float_program = compiler.compile(mlp.graph(x))
        int8_cold = int8_program.run()
        float_cold = float_program.run()
        cold_builds = (
            float_cold.compile_plan_builds + int8_cold.compile_plan_builds
        )
        assert int8_cold.compile_plan_builds == len(int8_program.stages)
        assert float_cold.compile_plan_builds == len(float_program.stages)

        # -- warm float64 forward -----------------------------------------
        start = time.perf_counter()
        for _ in range(REPS):
            float_result = float_program.run()
        float_time = (time.perf_counter() - start) / REPS

        # -- warm int8 forward --------------------------------------------
        before = counters.snapshot()
        start = time.perf_counter()
        for _ in range(REPS):
            int8_result = int8_program.run()
        int8_time = (time.perf_counter() - start) / REPS
        delta = counters.delta(before)

        assert delta.plan_builds == 0, "warm pipeline runs must build nothing"
        assert delta.transform_constructions == 0
        assert float_result.warm and int8_result.warm

        # Correctness alongside speed: the int8 logits stay within the
        # analytically derived quantization bound of the float logits.
        bounds = qmlp.error_bounds(x)["logits"]
        drift = np.abs(
            int8_result.output("logits") - float_result.output("logits")
        )
        assert np.all(drift <= bounds + 1e-9)

        speedup = float_time / int8_time
        assert speedup >= 1.5, (
            f"int8 inference gave only {speedup:.2f}x over float64 "
            f"({int8_time * 1e3:.2f} ms vs {float_time * 1e3:.2f} ms for "
            f"layers {SIZES}, w={W}); the quantized datapath's blocked "
            f"int32 accumulation advantage regressed"
        )

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "nn_inference",
                "unix_time": time.time(),
                "workload": {
                    "layer_sizes": list(SIZES),
                    "w": W,
                    "reps": REPS,
                    "float_stages": len(float_program.stages),
                    "int8_stages": len(int8_program.stages),
                },
                "float64_forward": {"seconds": float_time},
                "int8_forward": {
                    "seconds": int8_time,
                    "plan_builds_cold": cold_builds,
                    "plan_builds_warm": delta.plan_builds,
                    "max_logit_drift": float(drift.max()),
                    "logit_error_bound": float(bounds.max()),
                },
                "speedup": speedup,
            },
        )

        report = ExperimentReport(
            experiment="nn inference: int8 vs float64 compiled forward pass",
            description=f"{len(SIZES) - 1}-layer MLP {SIZES}, w={W}",
        )
        report.add(
            "int8 forward >= 1.5x float64",
            1,
            int(speedup >= 1.5),
            note=(
                f"float64 {float_time * 1e3:.2f} ms, int8 "
                f"{int8_time * 1e3:.2f} ms ({speedup:.1f}x)"
            ),
        )
        report.add(
            "plan builds during warm runs",
            0,
            delta.plan_builds,
            note=f"{REPS} warm executions, {cold_builds} cold compile builds",
        )
        report.add(
            "logits within quantization bound",
            1,
            int(np.all(drift <= bounds + 1e-9)),
            note=(
                f"max drift {drift.max():.3g} vs bound {bounds.max():.3g}"
            ),
        )
        show_report(report)
