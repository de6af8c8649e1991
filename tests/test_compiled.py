"""Compiled plans: lowered sweep kernels, epilogue fusion, persistence.

Three layers of contract:

* **kernels** — the sweep skeleton a ``vectorized`` plan lowers at build
  time (:class:`~repro.backends.vectorized.LinearSweepPlan`) must
  reproduce the ``simulate`` oracle's band-row outputs and results bit
  for bit, for the float sweep and the int8 sweep alike, across a
  (w, shape) grid, and it must pickle small (geometry only, no gather
  tables);
* **fusion** — under the ``vectorized`` backend, head→epilogue chains
  collapse into single fused stages whose values are bit-identical to
  the stage-by-stage ``simulate`` pipeline, and the rewrite refuses
  every unsafe shape (multi-consumer heads, per-node options,
  intermediate outputs);

plus persistence: lowered and fused plans round-trip through
:class:`~repro.store.PlanStore` and fail open to recompilation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.backends.vectorized import LinearRunMetrics, LinearSweepPlan
from repro.core.plans import MatVecPlan
from repro.graph import Graph, GraphCompiler
from repro.graph.fusion import Fused, fuse_epilogue_chains
from repro.nn import Bias, Dense, Dequantize, Quantize, Relu
from repro.store import PlanStore


def solver_for(w: int, backend: str = "vectorized", **overrides) -> Solver:
    return Solver(
        ArraySpec(w=w),
        options=ExecutionOptions(backend=backend, **overrides),
    )


def staged(graph: Graph, w: int):
    """The oracle: ``graph`` run stage by stage on the simulator."""
    return GraphCompiler(solver_for(w, "simulate")).compile(graph).run()


def geometry(w: int, n: int, m: int):
    """(n_bar, m_bar) of the padded band geometry, as the plans compute it."""
    n_bar = -(-n // w)
    m_bar = -(-m // w)
    return n_bar, m_bar


def simulated_run(w: int, a, x, b):
    """``(band_outputs, y)`` of the cycle-accurate engine."""
    solution = MatVecPlan(*a.shape, w, backend="simulate").execute(a, x, b)
    return solution.run.y_per_problem[0], solution.y


SHAPES = [(1, 1), (3, 5), (7, 4), (16, 16), (33, 29)]


class TestCompiledLinearKernels:
    """The lowered sweeps against the simulate oracle, bit for bit."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("with_b", [False, True])
    def test_float_sweep_bit_identical(self, w, shape, with_b):
        n, m = shape
        plan = LinearSweepPlan(w, n, m, *geometry(w, n, m), n * m)
        rng = np.random.default_rng(n * 100 + m)
        a = rng.standard_normal((n, m))
        x = rng.standard_normal(m)
        b = rng.standard_normal(n) if with_b else None
        ref_bands, ref_y = simulated_run(w, a, x, b)
        got_bands, got_y = plan.sweep(a, x, b)
        assert np.array_equal(got_y[:n], ref_y)
        assert np.array_equal(got_bands, ref_bands)
        assert got_y.dtype == got_bands.dtype == np.float64

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_int_sweep_bit_identical(self, w, shape):
        n, m = shape
        plan = LinearSweepPlan(w, n, m, *geometry(w, n, m), n * m)
        rng = np.random.default_rng(n * 100 + m + 7)
        a = rng.integers(-128, 128, size=(n, m)).astype(np.int32)
        x = rng.integers(-128, 128, size=m).astype(np.int32)
        b = rng.integers(-1000, 1000, size=n).astype(np.int32)
        for bias in (None, b):
            # Exact: int8-range sums stay integers far below 2^53, so the
            # float simulation already holds the int32 accumulator values.
            ref_bands, ref_y = simulated_run(
                w, a.astype(float), x.astype(float),
                None if bias is None else bias.astype(float),
            )
            got_bands, got_y = plan.int_sweep(a, x, bias)
            assert np.array_equal(got_y[:n], ref_y)
            assert np.array_equal(got_bands, ref_bands)
            assert got_y.dtype == got_bands.dtype == np.int32

    def test_int_sweep_rejects_float_operands(self):
        plan = LinearSweepPlan(2, 4, 4, 2, 2, 16)
        with pytest.raises(TypeError, match="integer operands"):
            plan.int_sweep(np.ones((4, 4)), np.arange(4), None)

    def test_structural_metrics_match_parent(self):
        """The sweep's run metrics equal its parent plan's simulated run."""
        plan = LinearSweepPlan(3, 7, 5, 3, 2, 35)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        bands, _y = plan.sweep(a, x, None)
        run = LinearRunMetrics(3, [plan]).result([bands])
        parent = MatVecPlan(7, 5, 3, backend="simulate").execute(a, x).run
        assert run.total_cycles == parent.total_cycles
        assert run.report.mac_operations == parent.report.mac_operations
        assert run.cell_mac_counts == parent.cell_mac_counts
        assert run.feedback_register_peak == parent.feedback_register_peak
        assert [tuple(e) for e in run.feedback_events] == [
            tuple(e) for e in parent.feedback_events
        ]

    def test_compiled_plan_is_picklable(self):
        plan = MatVecPlan(256, 256, 4, backend="vectorized").sweep_plan
        blob = pickle.dumps(plan)
        # Geometry only: a (256, 256) gather table alone would be 512 KiB.
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((256, 256))
        x = rng.standard_normal(256)
        assert np.array_equal(clone.sweep(a, x, None)[1],
                              plan.sweep(a, x, None)[1])


class TestEpilogueFusion:
    """Graph-level fusion: value-exact, conservative, observable."""

    N, M = 24, 20

    def _operands(self, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((self.N, self.M)),
            rng.standard_normal(self.M),
            rng.standard_normal(self.N),
        )

    def _mlp(self, W, x, b):
        d = Dense(W, x, name="dense")
        return Graph(y=Relu(Bias(d, b, name="biased"), name="act"))

    def test_float_chain_fuses_and_matches_unfused(self):
        W, x, b = self._operands()
        program = GraphCompiler(solver_for(4)).compile(self._mlp(W, x, b))
        assert len(program.stages) == 1
        assert program.fused_epilogues == 1
        assert program.stages[0].kind == "fused"
        result = program.run()
        assert result.fused_epilogues == 1
        solution = result.solutions[0]
        assert solution.stats["fused_kinds"] == "dense+bias+relu"
        assert solution.stats["fused_stages"] == 3

        unfused = staged(self._mlp(W, x, b), 4)
        assert len(unfused.solutions) == 3 and unfused.fused_epilogues == 0
        assert np.array_equal(result.values, unfused.values)

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    def test_fused_matches_other_backends(self, backend):
        """The fused stage against separate solves of each member."""
        W, x, b = self._operands(1)
        fused = GraphCompiler(solver_for(3)).compile(self._mlp(W, x, b)).run()
        solver = solver_for(3, backend)
        y = solver.solve("dense", W, x).values
        y = solver.solve("bias", y, b).values
        y = solver.solve("relu", y).values
        assert np.array_equal(fused.values, y)

    def test_int8_datapath_fuses_whole_chain(self):
        rng = np.random.default_rng(3)
        Wq = rng.integers(-100, 100, size=(self.N, self.M)).astype(np.int8)
        xq = rng.integers(-100, 100, size=self.M).astype(np.int8)
        b = rng.standard_normal(self.N)

        def graph():
            d = Dense(Wq, xq, x_zero_point=2, dtype_mode="int8", name="dense")
            chain = Quantize(
                Relu(Bias(Dequantize(d, 0.03), b), name="act"), 0.1, 3,
                name="codes",
            )
            return Graph(out=chain)

        program = GraphCompiler(solver_for(4)).compile(graph())
        assert len(program.stages) == 1 and program.fused_epilogues == 1
        result = program.run()
        solution = result.solutions[0]
        assert solution.stats["fused_kinds"] == (
            "dense+dequantize+bias+relu+quantize"
        )
        assert solution.stats["dtype_mode"] == "int8"
        assert result.values.dtype == np.int8
        assert np.array_equal(result.values, staged(graph(), 4).values)

    def test_multi_consumer_head_does_not_fuse(self):
        W, x, b = self._operands(4)

        def graph():
            d = Dense(W, x, name="dense")
            return Graph(a=Relu(d, name="r"), c=Bias(d, b, name="bi"))

        program = GraphCompiler(solver_for(3)).compile(graph())
        assert program.fused_epilogues == 0 and len(program.stages) == 3
        result = program.run()
        reference = staged(graph(), 3)
        assert np.array_equal(result.output("a"), reference.output("a"))
        assert np.array_equal(result.output("c"), reference.output("c"))

    def test_intermediate_output_splits_chain(self):
        """An observed intermediate becomes a fused tail, never invisible."""
        W, x, b = self._operands(5)

        def graph():
            d = Dense(W, x, name="dense")
            bi = Bias(d, b, name="biased")
            return Graph(mid=bi, out=Relu(bi, name="act"))

        program = GraphCompiler(solver_for(3)).compile(graph())
        # dense->bias fuses (bias is the tail *and* an output); relu stays.
        assert program.fused_epilogues == 1 and len(program.stages) == 2
        result = program.run()
        reference = staged(graph(), 3)
        assert np.array_equal(result.output("mid"), reference.output("mid"))
        assert np.array_equal(result.output("out"), reference.output("out"))

    def test_per_node_options_block_fusion(self):
        W, x, b = self._operands(6)
        d = Dense(W, x, name="dense")
        bi = Bias(
            d, b, name="biased",
            options=ExecutionOptions(backend="simulate"),
        )
        program = GraphCompiler(solver_for(3)).compile(
            Graph(y=Relu(bi, name="act"))
        )
        assert program.fused_epilogues == 0 and len(program.stages) == 3

    def test_cross_chain_reference_remaps(self):
        """A bias vector produced by another fused chain's tail."""
        W, x, _b = self._operands(7)
        W2 = np.random.default_rng(17).standard_normal((self.N, self.N))

        def graph():
            r1 = Relu(Dense(W, x, name="d1"), name="r1")
            # r1 feeds d2 as well, so it precedes the second chain's head.
            b2 = Bias(Dense(W2, r1, name="d2"), r1, name="b2")
            return Graph(out=b2)

        program = GraphCompiler(solver_for(3)).compile(graph())
        assert program.fused_epilogues == 2 and len(program.stages) == 2
        result = program.run()
        assert np.array_equal(result.values, staged(graph(), 3).values)

    def test_epilogue_on_a_parallel_branch_ends_the_chain(self):
        """Fusion never makes a stage wait on a branch its head runs beside."""
        W, x, _b = self._operands(12)

        def graph():
            r1 = Relu(Dense(W, x, name="d1"), name="r1")
            b2 = Bias(Dense(W, x, name="d2"), r1, name="b2")
            return Graph(b2)

        program = GraphCompiler(solver_for(3)).compile(graph())
        # d1 -> r1 fuses; d2 -> b2 would make d2 wait on r1, so it stays.
        assert program.fused_epilogues == 1
        stages = {stage.name: stage for stage in program.stages}
        assert sorted(stages) == ["b2", "d2", "r1"]
        assert stages["r1"].kind == "fused" and stages["d2"].kind == "dense"
        # The fused r1 and d2 still run side by side on the first level.
        assert stages["r1"].level == stages["d2"].level == 0
        assert program.n_levels == 2
        result = program.run()
        assert np.array_equal(result.values, staged(graph(), 3).values)

    def test_fusion_follows_the_resolved_backend(self):
        """Fused whenever options resolve to vectorized; never on the oracle."""
        W, x, b = self._operands(8)
        fused = [
            GraphCompiler(Solver(ArraySpec(w=3), options=options)).compile(
                self._mlp(W, x, b)
            )
            for options in (
                ExecutionOptions(),  # auto -> vectorized
                ExecutionOptions(backend="vectorized"),
            )
        ]
        assert [program.fused_epilogues for program in fused] == [1, 1]
        for options in (
            ExecutionOptions(backend="simulate"),
            ExecutionOptions(record_trace=True),  # auto -> simulate
        ):
            program = GraphCompiler(
                Solver(ArraySpec(w=3), options=options)
            ).compile(self._mlp(W, x, b))
            assert program.fused_epilogues == 0 and len(program.stages) == 3
            assert np.array_equal(program.run().values, fused[0].run().values)

    def test_rewrite_returns_graph_unchanged_when_nothing_fuses(self):
        W, x, _b = self._operands(9)
        graph = Graph(y=Dense(W, x, name="dense"))
        rewritten, count = fuse_epilogue_chains(graph)
        assert rewritten is graph and count == 0

    def test_fused_node_plan_key_is_stable(self):
        W, x, b = self._operands(10)
        d = Dense(W, x, name="dense")
        bi = Bias(d, b)
        node = Fused((d, bi, Relu(bi)))
        # plan_shapes normalizes the composite spec through the handler
        assert node.plan_shapes() == (
            ("dense", (self.N, self.M)),
            ("bias", (self.N,)),
            ("relu", (self.N,)),
        )

    def test_describe_reports_fusion(self):
        W, x, b = self._operands(11)
        program = GraphCompiler(solver_for(3)).compile(self._mlp(W, x, b))
        assert "1 fused epilogue group(s)" in program.describe()
        assert "1 fused epilogue group(s)" in program.run().describe()


class TestCompiledPersistence:
    W = 3

    def test_compiled_plan_round_trips_through_store(self, tmp_path, rng):
        a = rng.standard_normal((9, 7))
        x = rng.standard_normal(7)
        writer = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=PlanStore(tmp_path),
        )
        first = writer.solve("matvec", a, x)
        reader = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=PlanStore(tmp_path, readonly=True),
        )
        second = reader.solve("matvec", a, x)
        assert np.array_equal(second.values, first.values)
        assert reader.store.stats.hits == 1

    def test_fused_plan_round_trips_through_store(self, tmp_path, rng):
        a = rng.standard_normal((12, 10))
        x = rng.standard_normal(10)
        b = rng.standard_normal(12)

        def graph():
            d = Dense(a, x, name="dense")
            return Graph(y=Relu(Bias(d, b), name="act"))

        writer = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=PlanStore(tmp_path),
        )
        first = GraphCompiler(writer).compile(graph()).run()
        store = PlanStore(tmp_path, readonly=True)
        assert any(key[0] == "fused" for key in store.keys())
        reader = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=store,
        )
        program = GraphCompiler(reader).compile(graph())
        assert program.compile_plan_builds == 0  # warm from the store
        assert np.array_equal(program.run().values, first.values)
        assert np.array_equal(first.values, staged(graph(), self.W).values)

    def test_corrupt_artifact_fails_open_to_recompile(self, tmp_path, rng):
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        store = PlanStore(tmp_path)
        writer = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=store,
        )
        expected = writer.solve("matvec", a, x)
        for artifact in tmp_path.iterdir():
            artifact.write_bytes(b"garbage")
        reader = Solver(
            ArraySpec(self.W),
            options=ExecutionOptions(backend="vectorized"),
            store=PlanStore(tmp_path),
        )
        solution = reader.solve("matvec", a, x)
        assert np.array_equal(solution.values, expected.values)
        assert reader.store.stats.errors >= 1
