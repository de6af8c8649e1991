"""The NN inference subsystem: quantization, registry, plans, MLP graphs.

The headline contract (ISSUE 6): a 3-layer int8 MLP forward pass compiles
to ONE plan-cached PipelineProgram — zero plan builds after warmup — and
matches the pure-float reference within the analytically derived
quantization bound on every layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArraySpec, ExecutionOptions, Graph, GraphCompiler, Solver
from repro.analysis.trajectory import record_trajectory_point
from repro.errors import ProblemKindError, ShapeError
from repro.graph import problem_types
from repro.instrumentation import counters
from repro.nn import (
    INT8_MAX,
    INT8_MIN,
    MLP,
    Bias,
    Dense,
    Dequantize,
    QuantParams,
    Quantize,
    QuantizedMLP,
    Relu,
)

NN_KINDS = ("dense", "bias", "relu", "quantize", "dequantize")


def make_mlp(rng, sizes=(6, 8, 5, 3)) -> MLP:
    """A small random MLP with the layer widths of ``sizes``."""
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        layers.append(
            (
                rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in),
                rng.normal(size=fan_out) * 0.1,
            )
        )
    return MLP(layers)


class TestQuantParams:
    def test_round_trip_within_half_step(self, rng):
        params = QuantParams.from_range(-2.0, 3.0)
        values = rng.uniform(-2.0, 3.0, size=100)
        recovered = params.dequantize(params.quantize(values))
        assert np.all(np.abs(recovered - values) <= params.step_error + 1e-12)
        assert np.all(params.round_trip_error(values) <= params.step_error)

    def test_saturation_clips_to_int8_range(self):
        params = QuantParams.from_range(-1.0, 1.0)
        codes = params.quantize(np.array([-100.0, 100.0, 0.0]))
        assert codes.dtype == np.int8
        assert codes[0] == INT8_MIN
        assert codes[1] == INT8_MAX

    def test_from_range_always_covers_zero(self):
        # A strictly positive calibration range must still represent 0.0
        # (ReLU outputs and zero-padding both rely on it).
        params = QuantParams.from_range(2.0, 6.0)
        assert params.dequantize(params.quantize(np.zeros(1)))[0] == pytest.approx(
            0.0, abs=params.step_error
        )

    def test_degenerate_range_is_identity_scale(self):
        params = QuantParams.from_range(0.0, 0.0)
        assert params.scale == 1.0
        assert params.zero_point == 0

    def test_symmetric_params(self):
        params = QuantParams.symmetric(4.0)
        assert params.zero_point == 0
        assert params.quantize(np.array([4.0]))[0] == INT8_MAX
        assert params.quantize(np.array([-4.0]))[0] == -INT8_MAX

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0)
        with pytest.raises(ValueError):
            QuantParams(scale=-1.0)
        with pytest.raises(ValueError):
            QuantParams(scale=1.0, zero_point=200)


class TestRegistry:
    """Satellite 1: one source of truth for the kind -> class mapping."""

    def test_nn_kinds_registered(self):
        from repro.api.registry import registered_kinds

        assert set(registered_kinds()) >= set(NN_KINDS)

    def test_problem_types_single_source_of_truth(self):
        types = Solver.problem_types()
        assert types == problem_types()
        assert types["dense"] is Dense
        assert types["bias"] is Bias
        assert types["relu"] is Relu
        assert types["quantize"] is Quantize
        assert types["dequantize"] is Dequantize

    def test_did_you_mean_suggests_dense(self):
        solver = Solver(ArraySpec(w=3))
        with pytest.raises(ProblemKindError, match="did you mean 'dense'"):
            solver.solve("dens", np.eye(3), np.ones(3))

    def test_handlers_expose_problem_classes(self):
        from repro.api.registry import get_handler

        for kind in NN_KINDS:
            handler = get_handler(kind)
            assert handler.problem_class is problem_types()[kind]


class TestDtypeMode:
    def test_invalid_dtype_mode_rejected(self):
        with pytest.raises(ValueError, match="dtype_mode"):
            ExecutionOptions(dtype_mode="int4")

    def test_dtype_mode_participates_in_plan_key(self):
        solver = Solver(ArraySpec(w=3))
        float_plan = solver.plan("dense", shape=(4, 6))
        int_plan = solver.plan("dense", shape=(4, 6), dtype_mode="int8")
        assert float_plan.key != int_plan.key
        assert "dtype_mode='int8'" in int_plan.describe()
        assert "dtype_mode" not in float_plan.describe()
        # Same options re-plan to the cached object, not a rebuild.
        assert solver.plan("dense", shape=(4, 6), dtype_mode="int8") is int_plan

    def test_int8_plan_requires_integer_operands(self, rng):
        solver = Solver(
            ArraySpec(w=3), options=ExecutionOptions(dtype_mode="int8")
        )
        with pytest.raises(TypeError, match="integer"):
            solver.solve("dense", rng.normal(size=(4, 4)), rng.normal(size=4))


class TestMLPFloat:
    def test_graph_matches_numpy_forward(self, rng):
        mlp = make_mlp(rng)
        x = rng.normal(size=mlp.input_size)
        result = GraphCompiler(Solver(ArraySpec(w=4))).run(mlp.graph(x))
        assert np.allclose(result.output("logits"), mlp.forward(x))

    def test_shape_validation(self, rng):
        mlp = make_mlp(rng)
        with pytest.raises(ShapeError):
            mlp.forward(np.zeros(mlp.input_size + 1))
        with pytest.raises(ShapeError):
            MLP([(np.zeros((3, 4)), np.zeros(2))])
        with pytest.raises(ShapeError):
            MLP([(np.zeros((3, 4)), np.zeros(3)), (np.zeros((2, 5)), np.zeros(2))])
        with pytest.raises(ShapeError):
            MLP([])


class TestQuantizedMLP:
    def test_three_layer_graph_is_fourteen_stages(self, rng):
        mlp = make_mlp(rng)  # 3 layers
        qmlp = mlp.quantized([rng.normal(size=mlp.input_size)])
        graph = qmlp.graph(rng.normal(size=mlp.input_size))
        assert len(graph.nodes) == 14
        program = GraphCompiler(Solver(ArraySpec(w=4))).compile(graph)
        # The input quantize, then one fused dense->...->quantize chain
        # per layer (the last one ends at the logits bias).
        assert [stage.kind for stage in program.stages] == [
            "quantize", "fused", "fused", "fused"
        ]
        assert program.fused_epilogues == 3
        assert program.n_levels == 4  # a pure chain: one stage per level

    def test_every_layer_within_analytic_bound(self, rng):
        mlp = make_mlp(rng)
        calibration = [rng.normal(size=mlp.input_size) for _ in range(8)]
        qmlp = mlp.quantized(calibration)
        # The default (fused) program keeps each layer's last stage; the
        # stage-by-stage simulator keeps every bounded stage.
        kept = {
            "auto": {"quant_0", "quant_1", "logits"},
            "simulate": set(qmlp.error_bounds(calibration[0])),
        }
        for backend, names in kept.items():
            solver = Solver(ArraySpec(w=4), ExecutionOptions(backend=backend))
            for x in calibration[:3]:
                result = GraphCompiler(solver).run(qmlp.graph(x))
                bounds = qmlp.error_bounds(x)
                outputs = qmlp.float_outputs(result)
                assert set(outputs) == names, backend
                pre, post = mlp.forward_trace(x)
                last = mlp.n_layers - 1
                reference = {}
                for index, (weights, _bias) in enumerate(mlp.layers):
                    h = x if index == 0 else post[index - 1]
                    reference[f"dequant_{index}"] = weights @ h
                    name = "logits" if index == last else f"bias_{index}"
                    reference[name] = pre[index]
                    if index != last:
                        reference[f"relu_{index}"] = post[index]
                        reference[f"quant_{index}"] = post[index]
                for name, values in outputs.items():
                    error = np.abs(values - reference[name])
                    assert np.all(error <= bounds[name] + 1e-9), name

    def test_warm_program_builds_zero_plans(self, rng):
        """The headline: one compiled program, zero builds after warmup."""
        mlp = make_mlp(rng)
        qmlp = mlp.quantized([rng.normal(size=mlp.input_size)])
        solver = Solver(ArraySpec(w=4))
        compiler = GraphCompiler(solver)
        # Warmup: compiles every stage plan once.
        warmup = compiler.run(qmlp.graph(rng.normal(size=mlp.input_size)))
        assert warmup.compile_plan_builds > 0
        # Fresh input, fresh graph, same shapes: every plan is cache-hot.
        x = rng.normal(size=mlp.input_size)
        before = counters.snapshot()
        result = compiler.run(qmlp.graph(x))
        delta = counters.delta(before)
        assert delta.plan_builds == 0
        assert delta.transform_constructions == 0
        assert result.warm
        assert result.compile_plan_builds == 0

    def test_simulate_and_vectorized_graphs_bit_identical(self, rng):
        mlp = make_mlp(rng, sizes=(5, 7, 4))
        qmlp = mlp.quantized([rng.normal(size=5) for _ in range(4)])
        x = rng.normal(size=5)
        results = {}
        for backend in ("simulate", "vectorized"):
            solver = Solver(
                ArraySpec(w=3), options=ExecutionOptions(backend=backend)
            )
            results[backend] = GraphCompiler(solver).run(qmlp.graph(x))
        simulated, vectorized = results["simulate"], results["vectorized"]
        # The vectorized program fuses each layer's chain into one stage
        # named after the chain's tail: every stage it keeps has a twin.
        assert set(vectorized.names) < set(simulated.names)
        for name in vectorized.names:
            sim, vec = simulated[name], vectorized[name]
            assert sim.values.dtype == vec.values.dtype
            assert np.array_equal(sim.values, vec.values)

    def test_weight_quantization_must_be_symmetric(self, rng):
        mlp = make_mlp(rng, sizes=(4, 3))
        with pytest.raises(ValueError, match="symmetric"):
            QuantizedMLP(
                mlp,
                input_params=QuantParams(scale=0.1),
                weight_params=[QuantParams(scale=0.1, zero_point=3)],
                activation_params=[],
            )

    def test_calibration_requires_inputs(self, rng):
        mlp = make_mlp(rng, sizes=(4, 3))
        with pytest.raises(ShapeError):
            mlp.quantized([])

    def test_quantize_params_sugar_matches_explicit(self, rng):
        x = rng.normal(size=5)
        params = QuantParams.from_range(-2.0, 2.0)
        solver = Solver(ArraySpec(w=3))
        sugar = GraphCompiler(solver).run(Graph(Quantize(x, params)))
        explicit = GraphCompiler(solver).run(
            Graph(Quantize(x, params.scale, params.zero_point))
        )
        assert np.array_equal(sugar.values, explicit.values)
        with pytest.raises(TypeError):
            Quantize(x, params, 3)


class TestTrajectoryFreshFile:
    """The appender stays idempotent on a fresh BENCH file."""

    @pytest.fixture(autouse=True)
    def _record(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RECORD", "1")

    def test_same_sha_updates_in_place(self, tmp_path):
        path = tmp_path / "BENCH_nn.json"
        first = record_trajectory_point(
            path, {"benchmark": "nn_inference", "git_sha": "abc", "speedup": 1.0}
        )
        assert len(first) == 1
        second = record_trajectory_point(
            path, {"benchmark": "nn_inference", "git_sha": "abc", "speedup": 2.0}
        )
        assert len(second) == 1
        assert second[0]["speedup"] == 2.0

    def test_new_sha_appends(self, tmp_path):
        path = tmp_path / "BENCH_nn.json"
        record_trajectory_point(
            path, {"benchmark": "nn_inference", "git_sha": "abc"}
        )
        trajectory = record_trajectory_point(
            path, {"benchmark": "nn_inference", "git_sha": "def"}
        )
        assert len(trajectory) == 2

    def test_missing_file_is_created(self, tmp_path):
        path = tmp_path / "nested" / "BENCH_nn.json"
        path.parent.mkdir()
        trajectory = record_trajectory_point(
            path, {"benchmark": "nn_inference", "git_sha": None}
        )
        assert path.exists()
        assert len(trajectory) == 1
