"""Tests for the typed-problem / pipeline-graph layer (``repro.graph``).

Covers the api_redesign acceptance criteria at graph level: typed
problems derive the same plan keys as their string spellings, diamond
DAGs dedup shared stages to one plan build, cycles are rejected at build
time, cross-stage shape mismatches fail at compile time (not run time),
a warm 3-stage pipeline re-executes with zero plan builds, the
matmul→matvec fusion rewrite, same-plan matvec stage pairing, and the
composition sugar (``@``, ``.then()``, LU factor refs, kwarg refs).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.api.registry import get_handler
from repro.errors import (
    GraphCycleError,
    GraphError,
    ProblemKindError,
    ShapeError,
)
from repro.graph import (
    LU,
    PRT,
    GaussSeidel,
    Graph,
    GraphCompiler,
    Jacobi,
    MatMul,
    MatVec,
    NaiveMatMul,
    Power,
    Problem,
    Ref,
    Refine,
    SOR,
    Triangular,
    problem_types,
)
from repro.graph.problems import register_problem_type
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria

W = 4


@pytest.fixture
def solver() -> Solver:
    return Solver(ArraySpec(W))


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    return matrix + (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)


# --------------------------------------------------------------------------- #
# the kind -> problem class mapping and kind errors
# --------------------------------------------------------------------------- #
class TestProblemTypes:
    def test_mapping_is_stable_and_sorted(self):
        types = problem_types()
        assert list(types) == sorted(types)
        assert list(types) == list(problem_types())  # stable across calls

    def test_every_typed_kind_is_registered(self, solver):
        registered = set(solver.kinds())
        for kind, cls in problem_types().items():
            assert kind in registered
            assert cls.kind == kind

    def test_solver_exposes_the_mapping(self, solver):
        assert solver.problem_types() == problem_types()

    def test_handlers_link_back_to_problem_classes(self):
        assert get_handler("matvec").problem_class is MatVec
        assert get_handler("sor").problem_class is SOR
        assert get_handler("prt").problem_class is PRT
        assert get_handler("gauss_seidel").problem_class is GaussSeidel
        # Fused stages are compiler-generated: no class, no string call.
        assert get_handler("fused").problem_class is None

    def test_unknown_kind_suggests_nearest(self, solver, rng):
        with pytest.raises(ProblemKindError, match="did you mean 'matvec'"):
            solver.solve("matvce", rng.normal(size=(4, 4)), rng.normal(size=4))
        with pytest.raises(ProblemKindError, match="did you mean 'jacobi'"):
            get_handler("jacobbi")

    def test_unknown_kind_without_near_match_lists_kinds(self):
        with pytest.raises(ProblemKindError, match="registered kinds"):
            get_handler("zzzzzzzz")

    def test_every_typed_kind_declares_its_slots(self):
        """Graphs read operands through slots, so registration needs them."""
        for cls in problem_types().values():
            assert cls.slots and len(set(cls.slots)) == len(cls.slots)

        class Slotless(Problem):
            kind = "slotless"

        with pytest.raises(ValueError, match="declares no slots"):
            register_problem_type(Slotless)
        assert "slotless" not in problem_types()


# --------------------------------------------------------------------------- #
# typed problems: plan keys and options overrides
# --------------------------------------------------------------------------- #
class TestTypedPlanKeys:
    def test_typed_and_string_plan_keys_match(self, solver, rng):
        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        assert solver.plan_key(MatVec(a, x)) == solver.plan_key("matvec", a, x)

    def test_overrides_ride_in_the_key(self, solver, rng):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=8)
        plain = solver.plan_key(SOR(a, b))
        relaxed = solver.plan_key(SOR(a, b, omega=1.5))
        assert plain[3].omega == 1.0
        assert relaxed[3].omega == 1.5
        assert plain != relaxed
        criteria = ConvergenceCriteria(atol=1e-3, max_iter=7)
        assert solver.plan_key(Jacobi(a, b, criteria=criteria))[3].criteria == criteria

    def test_standalone_plan_key_matches_solver_key(self, solver, rng):
        a = rng.normal(size=(6, 9))
        x = rng.normal(size=9)
        problem = MatVec(a, x, overlapped=True)
        assert problem.plan_key(W, solver.options) == solver.plan_key(problem)

    def test_problem_with_refs_rejects_single_solve(self, solver, rng):
        a = rng.normal(size=(6, 6))
        chained = MatVec(a, MatVec(a, rng.normal(size=6)))
        with pytest.raises(GraphError, match="references other pipeline stages"):
            solver.solve(chained)

    def test_typed_solve_rejects_extra_operands(self, solver, rng):
        a = rng.normal(size=(6, 6))
        with pytest.raises(TypeError, match="carry their own operands"):
            solver.solve(MatVec(a, rng.normal(size=6)), a)


# --------------------------------------------------------------------------- #
# graph construction: sugar, naming, validation
# --------------------------------------------------------------------------- #
class TestGraphConstruction:
    def test_matmul_at_vector_builds_matvec_node(self, rng):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        y = MatMul(a, b) @ x
        assert isinstance(y, MatVec)
        graph = Graph(y=y)
        assert [node.kind for node in graph.nodes] == ["matmul", "matvec"]
        assert graph.outputs[0][0] == "y"

    def test_ndarray_at_problem_builds_matvec_node(self, rng):
        a = rng.normal(size=(5, 5))
        inner = MatVec(a, rng.normal(size=5))
        outer = a @ inner
        assert isinstance(outer, MatVec)
        assert isinstance(outer.x, Ref)
        assert outer.x.node is inner

    def test_matmul_at_matrix_chains_matmuls(self, rng):
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        chained = MatMul(a, b) @ c
        assert isinstance(chained, MatMul)

    def test_ndarray_at_matrix_producer_chains_matmuls(self, rng):
        """The sugar is symmetric: ndarray @ MatMul works like MatMul @ ndarray."""
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        chained = a @ MatMul(b, c)
        assert isinstance(chained, MatMul)
        result = GraphCompiler(Solver(ArraySpec(W))).run(Graph(y=chained))
        assert np.allclose(result.output("y"), a @ (b @ c))

    def test_then_binds_matrix_and_sequences(self, rng):
        matrix = _spd(rng, 6)
        b = rng.normal(size=6)
        refine = LU(matrix).then(Refine(b))
        assert refine.matrix is matrix
        graph = Graph(refine)
        assert [node.kind for node in graph.nodes] == ["lu", "refine"]
        # The ordering edge is real: refine sits a level below the LU.
        assert graph.levels == (0, 1)

    def test_then_without_forwardable_matrix_raises(self, rng):
        with pytest.raises(GraphError, match="no matrix bound"):
            Graph(Refine(rng.normal(size=6)))

    def test_reusing_a_partial_node_across_then_calls_raises(self, rng):
        """Regression: a second then() must not silently keep the first
        predecessor's matrix while sequencing after the second."""
        b = rng.normal(size=6)
        partial = Refine(b)
        LU(_spd(rng, 6)).then(partial)
        with pytest.raises(GraphError, match="already sequenced"):
            LU(_spd(rng, 6)).then(partial)

    def test_explicitly_bound_successor_can_still_be_sequenced(self, rng):
        matrix = _spd(rng, 6)
        explicit = Refine(matrix, rng.normal(size=6))
        sequenced = LU(matrix).then(explicit)
        assert sequenced is explicit
        assert len(Graph(sequenced)) == 2

    def test_string_call_missing_matrix_keeps_shape_error(self, rng):
        """Regression: the string shim must not leak the pipeline-partial
        form — a missing matrix stays a ShapeError, as in the legacy API."""
        solver = Solver(ArraySpec(W))
        with pytest.raises(ShapeError, match="square system matrix"):
            solver.solve("jacobi", rng.normal(size=6))
        with pytest.raises(ShapeError, match="square system matrix"):
            solver.solve("refine", rng.normal(size=6))

    def test_lu_factor_refs_feed_triangular(self, solver, rng):
        matrix = _spd(rng, 6)
        b = rng.normal(size=6)
        lu = LU(matrix)
        forward = Triangular(lu.lower, b, name="forward")
        backward = Triangular(lu.upper, forward, lower=False, name="backward")
        result = GraphCompiler(solver).run(Graph(backward))
        assert np.allclose(result.output("backward"), np.linalg.solve(matrix, b))

    def test_consuming_factor_pair_without_selection_fails(self, rng):
        lu = LU(_spd(rng, 6))
        with pytest.raises(GraphError, match="lower/.upper"):
            Graph(Triangular(Ref(lu), rng.normal(size=6)))

    def test_cycle_rejected_at_build_time(self, rng):
        a = rng.normal(size=(5, 5))
        first = MatVec(a, rng.normal(size=5))
        second = MatVec(a, first)
        first.x = Ref(second)  # close the loop
        before = counters.snapshot()
        with pytest.raises(GraphCycleError):
            Graph(second)
        delta = counters.delta(before)
        assert delta.plan_builds == 0 and delta.plan_executions == 0

    def test_shape_mismatch_fails_at_build_not_run(self, rng):
        producer = MatVec(rng.normal(size=(8, 8)), rng.normal(size=8))
        before = counters.snapshot()
        with pytest.raises(ShapeError, match="length 6"):
            Graph(MatVec(rng.normal(size=(4, 6)), producer))
        delta = counters.delta(before)
        # Nothing compiled, nothing executed: the mismatch is a
        # build/compile-time error, not a run-time one.
        assert delta.plan_builds == 0 and delta.plan_executions == 0

    def test_matmul_inner_dimension_checked_across_stages(self, rng):
        c = MatMul(rng.normal(size=(4, 5)), rng.normal(size=(5, 6)))
        with pytest.raises(ShapeError, match="cannot multiply"):
            Graph(MatMul(c, rng.normal(size=(7, 3))))

    def test_duplicate_names_rejected(self, rng):
        a = rng.normal(size=(4, 4))
        one = MatVec(a, rng.normal(size=4), name="stage")
        two = MatVec(a, one, name="stage")
        with pytest.raises(GraphError, match="duplicate node name"):
            Graph(two)

    def test_auto_names_step_around_user_names(self, rng):
        """Regression: an explicit name that collides with a would-be
        auto name must not reject a valid graph."""
        a = rng.normal(size=(4, 4))
        inner = MatVec(a, rng.normal(size=4), name="matvec_1")
        outer = MatVec(a, inner)  # would auto-name to matvec_1
        graph = Graph(outer)
        assert len(set(graph.names)) == 2
        assert "matvec_1" in graph.names

    def test_keyword_output_names_do_not_mutate_nodes(self, rng):
        """Regression: building a graph must not rename shared problems."""
        a = rng.normal(size=(4, 4))
        problem = MatVec(a, rng.normal(size=4))
        first = Graph(y=problem)
        second = Graph(z=problem)
        assert problem.name is None
        assert first.outputs[0][0] == "y"
        assert second.outputs[0][0] == "z"
        assert first.names[0] == "y"  # stage naming still sees the kwarg

    def test_graph_needs_an_output(self):
        with pytest.raises(GraphError, match="at least one output"):
            Graph()

    def test_describe_lists_levels_and_deps(self, rng):
        a = rng.normal(size=(5, 5))
        y = (MatMul(a, a) @ rng.normal(size=5)).named("y")
        text = Graph(y).describe()
        assert "matmul" in text and "y: matvec" in text and "outputs: y" in text


# --------------------------------------------------------------------------- #
# compilation: dedup, warm re-execution, pairing, fusion
# --------------------------------------------------------------------------- #
class TestGraphCompiler:
    def test_diamond_dedups_to_one_plan_build(self, rng):
        n = 8
        a, b, c, d = (rng.normal(size=(n, n)) for _ in range(4))
        x = rng.normal(size=n)
        source = MatVec(a, x, name="source")
        left = MatVec(b, source, name="left")
        right = MatVec(c, source, name="right")
        sink = MatVec(d, left, b=right, name="sink")
        solver = Solver(ArraySpec(W))
        before = counters.snapshot()
        program = GraphCompiler(solver).compile(Graph(sink))
        delta = counters.delta(before)
        # Four same-shape matvec stages share one compiled plan.
        assert delta.plan_builds == 1
        assert program.compile_plan_builds == 1
        assert len({id(stage.plan) for stage in program.stages}) == 1

    def test_independent_same_plan_stages_pair_bit_identically(self, rng):
        n = 8
        a, b, c, d = (rng.normal(size=(n, n)) for _ in range(4))
        x = rng.normal(size=n)
        source = MatVec(a, x, name="source")
        left = MatVec(b, source, name="left")
        right = MatVec(c, source, name="right")
        sink = MatVec(d, left, b=right, name="sink")
        solver = Solver(ArraySpec(W))
        before = counters.snapshot()
        program = GraphCompiler(solver).compile(Graph(sink))
        assert len(program.pairs) == 1  # left + right share one array run
        result = program.run()
        assert counters.delta(before).fused_matvec_pairs == 1
        assert result.fused_pairs == 1
        assert result["left"].stats.get("paired") is True

        reference = Solver(ArraySpec(W))
        s = reference.solve("matvec", a, x).values
        left = reference.solve("matvec", b, s).values
        right = reference.solve("matvec", c, s).values
        expected = reference.solve("matvec", d, left, right).values
        assert np.array_equal(result.output("sink"), expected)

    def test_pairing_defers_until_both_partners_inputs_exist(self, rng):
        """Regression: a pair member's deps may follow its partner in the
        graph's topological order; execution must walk dependency levels
        so the shared run never resolves an unexecuted stage's output."""
        n = 8
        matrix = _spd(rng, n)
        b = rng.normal(size=n)
        a, a2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        x = rng.normal(size=n)
        # Both level-1 matvecs share a plan, but their level-0 deps
        # (jacobi / matmul) interleave in topological order.
        s = MatVec(a, Jacobi(matrix, b), name="s")
        p = MatVec(MatMul(a, a2, name="prod"), x, name="p")
        solver = Solver(ArraySpec(W))
        result = GraphCompiler(solver).run(Graph(s, p))
        assert result.fused_pairs == 1
        reference = Solver(ArraySpec(W))
        j = reference.solve("jacobi", matrix, b).values
        prod = reference.solve("matmul", a, a2).values
        assert np.array_equal(result.output("s"), reference.solve("matvec", a, j).values)
        assert np.array_equal(result.output("p"), reference.solve("matvec", prod, x).values)

    def test_warm_three_stage_graph_reports_zero_plan_builds(self, rng):
        n = 8
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        z = rng.normal(size=n)
        matrix = _spd(rng, n)
        product = MatMul(a, b, name="product")
        projected = MatVec(product, z, name="projected")
        refined = Refine(matrix, projected, name="refined")
        solver = Solver(ArraySpec(W))
        compiler = GraphCompiler(solver)

        cold = compiler.run(Graph(refined))
        assert not cold.warm
        assert cold.compile_plan_builds + cold.plan_builds > 0

        before = counters.snapshot()
        warm = compiler.run(Graph(refined))
        delta = counters.delta(before)
        assert warm.warm
        assert warm.plan_builds == 0 and warm.compile_plan_builds == 0
        assert delta.plan_builds == 0
        assert delta.transform_constructions == 0
        assert np.array_equal(warm.output("refined"), cold.output("refined"))

    def test_three_stage_graph_bit_identical_to_stage_by_stage(self, rng):
        n = 8
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        z = rng.normal(size=n)
        matrix = _spd(rng, n)
        product = MatMul(a, b, name="product")
        projected = MatVec(product, z, name="projected")
        refined = Refine(matrix, projected, name="refined")
        result = GraphCompiler(Solver(ArraySpec(W))).run(Graph(refined))

        reference = Solver(ArraySpec(W))
        c = reference.solve("matmul", a, b).values
        y = reference.solve("matvec", c, z).values
        x = reference.solve("refine", matrix, y).values
        assert np.array_equal(result.output("refined"), x)
        assert np.array_equal(result["product"].values, c)
        assert np.array_equal(result["projected"].values, y)
        assert set(result.residuals) >= {"refined"}

    def test_fusion_rewrites_exclusive_matmul_chain(self, rng):
        n = 6
        a, b, c = (rng.normal(size=(n, n)) for _ in range(3))
        x = rng.normal(size=n)
        y = (MatMul(a, MatMul(b, c)) @ x).named("y")
        solver = Solver(ArraySpec(W))
        program = GraphCompiler(solver, fuse=True).compile(Graph(y))
        assert program.fused_rewrites == 2
        assert [stage.kind for stage in program.stages] == ["matvec"] * 3
        result = program.run()
        assert np.allclose(result.output("y"), a @ (b @ (c @ x)))

    def test_fusion_skips_matmul_that_is_an_output(self, rng):
        n = 5
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        product = MatMul(a, b, name="product")
        y = MatVec(product, x, name="y")
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(
            Graph(product, y)
        )
        assert program.fused_rewrites == 0
        assert [stage.kind for stage in program.stages] == ["matmul", "matvec"]

    def test_fusion_skips_matmul_with_ordering_consumers(self, rng):
        """Regression: a matmul referenced by a .then() ordering edge must
        keep executing — fusing it away would resurrect it through the
        stale edge (and collide on its inherited name)."""
        n = 5
        a, b, c = (rng.normal(size=(n, n)) for _ in range(3))
        x, z = rng.normal(size=n), rng.normal(size=n)
        product = MatMul(a, b, name="product")
        projected = MatVec(product, x, name="projected")
        sequenced = product.then(MatVec(c, z, name="sequenced"))
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(
            Graph(projected, sequenced)
        )
        assert program.fused_rewrites == 0
        assert sorted(stage.kind for stage in program.stages) == [
            "matmul", "matvec", "matvec",
        ]
        result = program.run()
        reference = Solver(ArraySpec(W))
        prod = reference.solve("matmul", a, b).values
        assert np.array_equal(
            result.output("projected"),
            reference.solve("matvec", prod, x).values,
        )

    def test_fusion_skips_matmul_with_accumulator(self, rng):
        n = 5
        a, b, e = (rng.normal(size=(n, n)) for _ in range(3))
        y = MatMul(a, b, e) @ rng.normal(size=n)
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(Graph(y))
        assert program.fused_rewrites == 0

    def test_fusion_skips_matmul_with_node_options(self, rng):
        """An explicit per-node option pins the stage; fusing would erase
        it silently, so such matmuls stay intact."""
        n = 5
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        pinned = MatMul(a, b, options=ExecutionOptions(backend="simulate"))
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(
            Graph(MatVec(pinned, rng.normal(size=n), name="y"))
        )
        assert program.fused_rewrites == 0
        matmul_stage = [s for s in program.stages if s.kind == "matmul"][0]
        assert matmul_stage.plan.key[3].backend == "simulate"

    def test_fusion_keeps_a_baseline_matmul_stage(self, rng):
        """A naive_matmul is a baseline to run, not a product to reassociate."""
        n = 5
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        y = MatVec(NaiveMatMul(a, b), x, name="y")
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(Graph(y))
        assert program.fused_rewrites == 0
        assert [stage.kind for stage in program.stages] == ["naive_matmul", "matvec"]
        assert np.allclose(program.run().output("y"), (a @ b) @ x)

    def test_fusion_reaches_matmuls_cloned_by_remapping(self, rng):
        """Regression: a matmul cloned during remapping (its .after edge
        pointed at a rewritten node) must still fuse when exclusive."""
        n = 5
        a, b, c, d = (rng.normal(size=(n, n)) for _ in range(4))
        x, y = rng.normal(size=n), rng.normal(size=n)
        first = MatVec(MatMul(a, b), x, name="first")
        second_mm = first.then(MatMul(c, d))
        out = MatVec(second_mm, y, name="out")
        program = GraphCompiler(Solver(ArraySpec(W)), fuse=True).compile(
            Graph(first, out)
        )
        assert program.fused_rewrites == 2
        assert all(stage.kind == "matvec" for stage in program.stages)
        result = program.run()
        assert np.allclose(result.output("first"), a @ (b @ x))
        assert np.allclose(result.output("out"), c @ (d @ y))

    def test_fusion_off_by_default_preserves_bit_identity(self, rng):
        n = 6
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        y = (MatMul(a, b) @ x).named("y")
        result = GraphCompiler(Solver(ArraySpec(W))).run(Graph(y))
        reference = Solver(ArraySpec(W))
        c = reference.solve("matmul", a, b).values
        expected = reference.solve("matvec", c, x).values
        assert np.array_equal(result.output("y"), expected)

    def test_kwarg_refs_flow_between_stages(self, rng):
        n = 6
        matrix = _spd(rng, n)
        b = rng.normal(size=n)
        start = Jacobi(matrix, b, name="start")
        eig = Power(matrix, x0=start, name="eig")
        result = GraphCompiler(Solver(ArraySpec(W))).run(Graph(eig))
        reference = Solver(ArraySpec(W))
        x0 = reference.solve("jacobi", matrix, b).values
        expected = reference.solve("power", matrix, x0=x0)
        assert np.array_equal(result.output("eig"), expected.values)
        assert result["eig"].stats["eigenvalue"] == expected.stats["eigenvalue"]

    def test_program_describe_reports_stages_and_pairs(self, rng):
        n = 6
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        graph = Graph(
            MatVec(a, x, name="left"), MatVec(b, x, name="right")
        )
        program = GraphCompiler(Solver(ArraySpec(W))).compile(graph)
        text = program.describe()
        assert "2 stage(s)" in text
        assert "paired with" in text
        result = program.run()
        described = result.describe()
        assert "overlapped pair" in described and "left" in described

    def test_result_lookup_errors_name_known_stages(self, rng):
        a = rng.normal(size=(4, 4))
        result = GraphCompiler(Solver(ArraySpec(W))).run(
            Graph(MatVec(a, rng.normal(size=4), name="only"))
        )
        with pytest.raises(KeyError, match="only"):
            result["missing"]
        with pytest.raises(KeyError, match="only"):
            result.output("missing")
        assert result.values is result.output("only")


def _same_bits(actual, expected) -> bool:
    """Equal values bit for bit (NaN signs and signed zeros included);
    factor pairs compare member by member."""
    if isinstance(expected, tuple):
        return len(actual) == len(expected) and all(
            _same_bits(a, e) for a, e in zip(actual, expected)
        )
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return False
    if actual.dtype.kind == "f":
        return np.array_equal(actual.view(np.uint64), expected.view(np.uint64))
    return np.array_equal(actual, expected)


def _pipeline_graph(rng, n=8):
    """matmul -> matvec, a same-plan matvec pair, a join, refine."""
    a, b, c, d = (rng.normal(size=(n, n)) for _ in range(4))
    x = rng.normal(size=n)
    product = MatMul(a, b, name="product")
    source = MatVec(product, x, name="source")
    left = MatVec(c, source, name="left")
    right = MatVec(d, source, name="right")
    join = MatVec(a, left, right, name="join")
    return Graph(Refine(_spd(rng, n), join, name="refined"))


def _chain_graph(rng, n=6):
    """``(A (B C)) x``: two matmul -> matvec rewrites under ``fuse=True``."""
    a, b, c = (rng.normal(size=(n, n)) for _ in range(3))
    return Graph((MatMul(a, MatMul(b, c)) @ rng.normal(size=n)).named("y"))


def _factor_graph(rng, n=6):
    """LU factor refs, a ``lower=`` kwarg and an ``x0=`` kwarg ref."""
    matrix = _spd(rng, n)
    lu = LU(matrix, name="lu")
    b = rng.normal(size=n)
    lower = Triangular(lu.lower, b, name="lower")
    upper = Triangular(lu.upper, lower, lower=False, name="upper")
    start = Jacobi(matrix, b, name="start")
    eig = Power(matrix, x0=start, name="eig")
    return Graph(upper, eig)


def _mlp_graph(rng, int8: bool):
    from repro.nn import MLP

    layers = [
        (rng.normal(size=(8, 10)) * 0.4, rng.normal(size=8) * 0.1),
        (rng.normal(size=(6, 8)) * 0.4, rng.normal(size=6) * 0.1),
    ]
    mlp = MLP(layers)
    x = rng.normal(size=10)
    if not int8:
        return mlp.graph(x)
    calibration = [rng.normal(size=10) for _ in range(3)]
    return mlp.quantized(calibration).graph(x)


#: ``(make_graph, fuse)``: graphs whose second build has the first's
#: signature and new values.
MEMO_GRAPHS = {
    "pipeline": (_pipeline_graph, False),
    "pipeline_fused": (_pipeline_graph, True),
    "chain_fused": (_chain_graph, True),
    "factors": (_factor_graph, False),
    "mlp_float": (lambda rng: _mlp_graph(rng, int8=False), False),
    "mlp_int8": (lambda rng: _mlp_graph(rng, int8=True), True),
}


def _assert_same_result(result, reference):
    assert result.names == reference.names
    assert result.kinds == reference.kinds
    assert result.levels == reference.levels
    assert result.fused_pairs == reference.fused_pairs
    assert result.fused_rewrites == reference.fused_rewrites
    assert result.fused_epilogues == reference.fused_epilogues
    assert [name for name, _values in result.outputs] == [
        name for name, _values in reference.outputs
    ]
    for (_name, values), (_ref_name, expected) in zip(
        result.outputs, reference.outputs
    ):
        assert _same_bits(values, expected)
    for solution, expected in zip(result.solutions, reference.solutions):
        assert _same_bits(solution.values, expected.values)


class TestCompileMemo:
    """One lowering per graph signature, bound to each graph's values."""

    @pytest.mark.parametrize("case", sorted(MEMO_GRAPHS))
    def test_warm_compile_matches_a_fresh_compiler(self, rng, case):
        make_graph, fuse = MEMO_GRAPHS[case]
        solver = Solver(ArraySpec(W))
        compiler = GraphCompiler(solver, fuse=fuse)
        compiler.run(make_graph(rng))
        memo = solver.lowered_graphs
        hits = memo.stats.hits
        graph = make_graph(rng)
        warm_program = compiler.compile(graph)
        assert memo.stats.hits == hits + 1 and len(memo) == 1
        fresh_program = GraphCompiler(Solver(ArraySpec(W)), fuse=fuse).compile(
            graph
        )
        assert warm_program.pairs == fresh_program.pairs
        assert warm_program.compile_plan_builds == 0
        warm = warm_program.run()
        assert warm.warm
        _assert_same_result(warm, fresh_program.run())
        # The resident program: a third same-signature graph shares the
        # second's stages and still binds its own values.
        third = make_graph(rng)
        resident = compiler.compile(third)
        assert resident.stages is compiler.compile(make_graph(rng)).stages
        _assert_same_result(
            resident.run(),
            GraphCompiler(Solver(ArraySpec(W)), fuse=fuse).run(third),
        )

    def test_warm_compile_lowers_nothing(self, rng, monkeypatch):
        solver = Solver(ArraySpec(W))
        compiler = GraphCompiler(solver, fuse=True)
        makers = [
            MEMO_GRAPHS[case][0]
            for case in ("pipeline", "chain_fused", "mlp_int8")
        ]
        for make_graph in makers:
            compiler.run(make_graph(rng))
        graphs = [make_graph(rng) for make_graph in makers for _ in range(2)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm compile lowered its graph again")

        monkeypatch.setattr("repro.graph.compiler.fuse_epilogue_chains", refuse)
        monkeypatch.setattr("repro.graph.compiler._fuse_matmul_chains", refuse)
        monkeypatch.setattr("repro.graph.compiler._mark_pairs", refuse)
        monkeypatch.setattr(Graph, "__init__", refuse)
        monkeypatch.setattr(ExecutionOptions, "merged", refuse)
        before = counters.snapshot()
        results = [compiler.run(graph) for graph in graphs]
        assert counters.delta(before).plan_builds == 0
        monkeypatch.undo()
        for graph, result in zip(graphs, results):
            assert result.warm
            _assert_same_result(
                result, GraphCompiler(Solver(ArraySpec(W)), fuse=True).run(graph)
            )

    def test_a_prefused_graph_binds_its_fused_slots(self, rng):
        """``Fused`` keeps its slots in two containers of its own."""
        from repro.graph.fusion import fuse_epilogue_chains

        solver = Solver(ArraySpec(W))
        for _round in range(2):
            graph = _mlp_graph(rng, int8=True)
            fused, chains = fuse_epilogue_chains(graph)
            assert chains == 2
            result = GraphCompiler(solver).run(fused)
            reference = GraphCompiler(Solver(ArraySpec(W))).run(graph)
            assert result.kinds == reference.kinds == ("quantize", "fused", "fused")
            assert _same_bits(result.values, reference.values)
        assert solver.lowered_graphs.stats.hits == 1

    def test_operands_bind_by_slot_not_by_identity(self, rng):
        """A template reusing one array in two slots must not alias the
        slots of a later graph that fills them with different arrays."""
        n = 6
        a, a1, a2 = (rng.normal(size=(n, n)) for _ in range(3))
        x = rng.normal(size=n)
        compiler = GraphCompiler(Solver(ArraySpec(W)))
        compiler.run(Graph(MatVec(a, MatVec(a, x))))
        result = compiler.run(Graph(MatVec(a2, MatVec(a1, x))))
        reference = Solver(ArraySpec(W))
        inner = reference.solve("matvec", a1, x).values
        expected = reference.solve("matvec", a2, inner).values
        assert _same_bits(result.values, expected)
        assert result.warm

    @staticmethod
    def _two_stage(rng, n=6, m=8, **changes):
        """``y = M2 (M1 x)`` with one structural change applied."""
        m1, m2 = rng.normal(size=(n, m)), rng.normal(size=(n, n))
        x = rng.normal(size=m)
        inner_name = changes.get("inner_name", "t")
        inner = MatVec(
            m1, x, name=inner_name,
            options=changes.get("inner_options"),
            overlapped=changes.get("overlapped"),
        )
        b = rng.normal(size=n) if changes.get("with_b") else None
        outer = MatVec(m2, inner, b, name="y")
        if changes.get("then"):
            side = MatVec(rng.normal(size=(n, n)), rng.normal(size=n), name="s")
            inner.then(side)
            return Graph(outer, side)
        if changes.get("two_outputs"):
            return Graph(outer, inner)
        if changes.get("renamed_output"):
            return Graph(out=outer)
        return Graph(outer)

    #: ``(graph changes, compiler arguments)`` each lowering differently
    #: from the plain two-stage graph.
    MISSES = {
        "b_set": ({"with_b": True}, {}),
        "shape": ({"m": 9}, {}),
        "stage_name": ({"inner_name": "t2"}, {}),
        "two_outputs": ({"two_outputs": True}, {}),
        "output_name": ({"renamed_output": True}, {}),
        "node_options": (
            {"inner_options": ExecutionOptions(backend="simulate")}, {}
        ),
        "override": ({"overlapped": True}, {}),
        "then_edge": ({"then": True}, {}),
        "fuse": ({}, {"fuse": True}),
        "base_options": (
            {}, {"options": ExecutionOptions(backend="simulate")}
        ),
    }

    @pytest.mark.parametrize("case", sorted(MISSES))
    def test_each_structural_change_is_a_memo_miss(self, rng, case):
        changes, arguments = self.MISSES[case]
        solver = Solver(ArraySpec(W))
        GraphCompiler(solver).run(self._two_stage(rng))
        GraphCompiler(solver).run(self._two_stage(rng))
        memo = solver.lowered_graphs
        assert (memo.stats.hits, memo.stats.misses, len(memo)) == (1, 1, 1)
        graph = self._two_stage(rng, **changes)
        result = GraphCompiler(solver, **arguments).run(graph)
        assert (memo.stats.misses, len(memo)) == (2, 2)
        fresh = GraphCompiler(Solver(ArraySpec(W)), **arguments).run(graph)
        _assert_same_result(result, fresh)

    def test_optional_accumulator_is_a_memo_miss_under_fuse(self, rng):
        n = 6
        solver = Solver(ArraySpec(W))
        compiler = GraphCompiler(solver, fuse=True)

        def graph(with_e: bool):
            a, b, e = (rng.normal(size=(n, n)) for _ in range(3))
            product = MatMul(a, b, e if with_e else None)
            return Graph((product @ rng.normal(size=n)).named("y"))

        plain = compiler.run(graph(False))
        with_e = compiler.run(graph(True))
        assert solver.lowered_graphs.stats.misses == 2
        assert (plain.fused_rewrites, with_e.fused_rewrites) == (1, 0)
        again = graph(True)
        _assert_same_result(
            compiler.run(again),
            GraphCompiler(Solver(ArraySpec(W)), fuse=True).run(again),
        )

    def test_evicted_stage_plan_rebuilds_as_a_cold_compile(self, rng):
        """Plan-cache accounting of a memo hit equals a cold compile's
        for the same cache state: here a size-1 cache holds one of the
        two stage plans, so each compile rebuilds both."""
        solvers = [Solver(ArraySpec(W), plan_cache_size=1) for _ in range(2)]
        for solver in solvers:
            GraphCompiler(solver).run(self._two_stage(rng))
        solvers[1].lowered_graphs.clear()
        graph = self._two_stage(rng)
        observed = []
        for solver in solvers:
            stats, before = solver.cache_stats, counters.snapshot()
            program = GraphCompiler(solver).compile(graph)
            after = solver.cache_stats
            observed.append((
                after.hits - stats.hits,
                after.misses - stats.misses,
                counters.delta(before).plan_builds,
                [stage.plan_cached for stage in program.stages],
                program.compile_plan_builds,
            ))
            result = program.run()
            assert not result.warm
        assert observed[0] == observed[1] == (0, 2, 2, [False, False], 2)
        assert solvers[0].lowered_graphs.stats.hits == 1

    def test_memo_keeps_no_evicted_plan_past_a_recompile(self, rng):
        solver = Solver(ArraySpec(W), plan_cache_size=1)
        compiler = GraphCompiler(solver)

        def graph():
            return Graph(MatVec(rng.normal(size=(6, 6)), rng.normal(size=6)))

        compiler.run(graph())
        plan = weakref.ref(compiler.compile(graph()).stages[0].plan.executor)
        solver.solve(MatVec(rng.normal(size=(5, 5)), rng.normal(size=5)))
        gc.collect()
        # Evicted from the cache, held by the resident program only.
        assert plan() is not None
        assert not compiler.run(graph()).warm
        gc.collect()
        assert plan() is None

    def test_memo_is_bounded_by_the_plan_cache_size_and_reset(self, rng):
        solver = Solver(ArraySpec(W), plan_cache_size=2)
        compiler = GraphCompiler(solver)
        for m in (5, 6, 7):
            compiler.run(self._two_stage(rng, m=m))
        memo = solver.lowered_graphs
        assert len(memo) == 2 and memo.stats.maxsize == 2
        assert memo.stats.evictions == 1
        solver.reset()
        assert len(memo) == 0
        compiler.run(self._two_stage(rng, m=7))
        assert memo.stats.misses == 4


class TestProgramSegments:
    """The level-aligned partition the cross-shard serving layer executes."""

    def _chain(self, rng, n=6):
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        z = rng.normal(size=n)
        product = MatMul(a, b, name="product")
        projected = MatVec(product, z, name="projected")
        return Graph(projected)

    def test_segments_partition_by_level(self, rng):
        program = GraphCompiler(Solver(ArraySpec(W))).compile(
            self._chain(rng)
        )
        # Unplaced, the whole program is one segment in level order.
        [whole] = program.segments()
        assert whole.level == 0 and whole.shard == 0
        assert [stage.level for stage in whole.stages] == [0, 1]
        # A placement alternating levels between shards: one per level.
        segments = program.segments(
            lambda key: 0 if key[0] == "matmul" else 1
        )
        assert [segment.level for segment in segments] == [0, 1]
        assert [segment.shard for segment in segments] == [0, 1]
        covered = [
            index for segment in segments for index in segment.stage_indices
        ]
        assert sorted(covered) == list(range(len(program.stages)))
        assert segments[0].plan_keys()[0][0] == "matmul"

    @staticmethod
    def _placed(program, shard_by_name):
        """Segments under a placement given per stage name (distinct keys)."""
        by_key = {
            stage.plan.key: shard_by_name[stage.name]
            for stage in program.stages
        }
        assert len(by_key) == len(program.stages)
        return program.segments(by_key.__getitem__)

    @staticmethod
    def _names(segment):
        return [stage.name for stage in segment.stages]

    def test_one_shard_chain_is_one_segment_in_level_order(self, rng):
        n = 6
        a, b, c, d = (rng.normal(size=(n, n)) for _ in range(4))
        x = rng.normal(size=n)
        left = MatVec(a, x, name="left")
        right = MatVec(b, x, name="right")
        join = MatVec(c, left, right, name="join")
        top = MatVec(d, join, name="top")
        program = GraphCompiler(Solver(ArraySpec(W))).compile(Graph(top))
        assert program.pairs  # left/right share one plan on level 0
        [whole] = program.segments(lambda key: 2)
        assert whole.level == 0 and whole.shard == 2
        assert whole.stages == tuple(
            sorted(program.stages, key=lambda s: (s.level, s.index))
        )
        assert self._names(whole)[2:] == ["join", "top"]
        assert whole.pairs == program.pairs

    def test_consecutive_levels_on_one_shard_merge(self, rng):
        # A@0 -> B@0 -> C@1 -> D@1: two runs, so two segments.
        x = rng.normal(size=6)
        a = MatVec(rng.normal(size=(5, 6)), x, name="A")
        b = MatVec(rng.normal(size=(4, 5)), a, name="B")
        c = MatVec(rng.normal(size=(3, 4)), b, name="C")
        d = MatVec(rng.normal(size=(2, 3)), c, name="D")
        program = GraphCompiler(Solver(ArraySpec(W))).compile(Graph(d))
        segments = self._placed(program, {"A": 0, "B": 0, "C": 1, "D": 1})
        assert [self._names(s) for s in segments] == [["A", "B"], ["C", "D"]]
        assert [s.level for s in segments] == [0, 2]
        assert [s.shard for s in segments] == [0, 1]
        n = len(program.stages)
        outputs, solutions, latencies = [None] * n, [None] * n, [0.0] * n
        for segment in segments:
            segment.execute(outputs, solutions, latencies)
        reference = GraphCompiler(Solver(ArraySpec(W))).run(Graph(d))
        for ours, theirs in zip(solutions, reference.solutions):
            assert np.array_equal(ours.values, theirs.values)

    def test_split_level_ends_the_run(self, rng):
        # A@0 | B@0, C@1 | D@0 | E@0: the split level keeps A and B apart,
        # and the one-shard levels after it start a new run.
        x = rng.normal(size=6)
        a = MatVec(rng.normal(size=(5, 6)), x, name="A")
        b = MatVec(rng.normal(size=(4, 5)), a, name="B")
        c = MatVec(rng.normal(size=(3, 5)), a, name="C")
        d = MatVec(rng.normal(size=(4, 3)), c, b, name="D")
        e = MatVec(rng.normal(size=(6, 4)), d, name="E")
        program = GraphCompiler(Solver(ArraySpec(W))).compile(Graph(e))
        segments = self._placed(
            program, {"A": 0, "B": 0, "C": 1, "D": 0, "E": 0}
        )
        assert [self._names(s) for s in segments] == [
            ["A"], ["B"], ["C"], ["D", "E"],
        ]
        assert [s.level for s in segments] == [0, 1, 1, 2]
        assert [s.shard for s in segments] == [0, 0, 1, 0]

    def test_placement_splits_levels_per_shard(self, rng):
        n = 6
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        # Level 0 holds two different-kind stages; a placement that
        # separates the kinds must split that level into two segments.
        graph = Graph(
            MatMul(a, b, name="product"), MatVec(a, x, name="projected")
        )
        program = GraphCompiler(Solver(ArraySpec(W))).compile(graph)
        by_kind = {"matmul": 0, "matvec": 1}
        segments = program.segments(lambda key: by_kind[key[0]])
        assert [segment.level for segment in segments] == [0, 0]
        assert [len(segment.stages) for segment in segments] == [1, 1]

    def test_pairs_stay_intra_segment_under_placement(self, rng):
        n = 6
        a, b = (rng.normal(size=(n, n)) for _ in range(2))
        x = rng.normal(size=n)
        graph = Graph(
            MatVec(a, x, name="left"), MatVec(b, x, name="right")
        )
        program = GraphCompiler(Solver(ArraySpec(W))).compile(graph)
        assert program.pairs  # the compiler paired the same-plan stages
        # Pair members share one plan, hence one placement: any key-based
        # placement keeps the pair inside a single segment.
        segments = program.segments(lambda key: 3)
        assert len(segments) == 1
        assert segments[0].pairs == program.pairs

    def test_placed_segment_execution_matches_run_bit_identically(self, rng):
        graph = self._chain(rng)
        solver = Solver(ArraySpec(W))
        program = GraphCompiler(solver).compile(graph)
        segments = program.segments(
            lambda key: 0 if key[0] == "matmul" else 1
        )
        n = len(program.stages)
        solutions = [None] * n
        outputs = [None] * n
        latencies = [0.0] * n
        for segment in segments:  # segment order == run()'s level order
            segment.execute(outputs, solutions, latencies)
        placements = [0] * n
        for segment in segments:
            shard = 0 if segment.plan_keys()[0][0] == "matmul" else 1
            for index in segment.stage_indices:
                placements[index] = shard
        result = program.assemble(
            solutions,
            outputs,
            latencies,
            total_seconds=0.0,
            compile_plan_builds=0,
            placements=tuple(placements),
        )
        reference = GraphCompiler(Solver(ArraySpec(W))).run(graph)
        for ours, theirs in zip(result.solutions, reference.solutions):
            assert np.array_equal(ours.values, theirs.values)
        assert result.placements == (0, 1)
        assert result.modeled_pipeline_steps() <= (
            result.modeled_sequential_steps()
        )

    def test_describe_reports_level_partition_and_placement(self, rng):
        program = GraphCompiler(Solver(ArraySpec(W))).compile(
            self._chain(rng)
        )
        text = program.describe()
        assert "levels:" in text
        assert "0: product | 1: projected" in text
        result = program.run()
        described = result.describe()
        assert "levels:" in described
        assert "@shard" not in described  # plain run: nothing was placed
        placed = program.assemble(
            list(result.solutions),
            [solution.values for solution in result.solutions],
            list(result.stage_seconds),
            total_seconds=result.total_seconds,
            compile_plan_builds=0,
            placements=(1, 0),
        )
        placed_text = placed.describe()
        assert "@shard 1" in placed_text and "@shard 0" in placed_text
        assert "placement: shards [0, 1]" in placed_text


# --------------------------------------------------------------------------- #
# the string shim
# --------------------------------------------------------------------------- #
class TestStringShim:
    def test_string_solve_builds_typed_problem_under_the_hood(self, rng):
        # Keyword execution args that only the typed constructors accept
        # now work through the string spelling too (the shim).
        solver = Solver(ArraySpec(W))
        matrix = _spd(rng, 6)
        b = rng.normal(size=6)
        typed = Solver(ArraySpec(W)).solve(SOR(matrix, b, omega=1.3))
        shimmed = solver.solve("sor", matrix, b, options=ExecutionOptions(omega=1.3))
        assert np.array_equal(typed.values, shimmed.values)

    def test_solve_batch_accepts_problem_class(self, rng):
        solver = Solver(ArraySpec(W))
        a = rng.normal(size=(6, 6))
        batch = [(a, rng.normal(size=6)) for _ in range(3)]
        typed = solver.solve_batch(MatVec, batch)
        legacy = Solver(ArraySpec(W)).solve_batch("matvec", batch)
        for lhs, rhs in zip(typed, legacy):
            assert np.array_equal(lhs.values, rhs.values)

    def test_malformed_string_calls_report_constructor_diagnostics(self, rng):
        """Regression: typed-constructor errors must surface directly, not
        be swallowed into whatever the legacy path does with bad input."""
        solver = Solver(ArraySpec(W))
        a = rng.normal(size=(6, 6))
        with pytest.raises(TypeError, match="options must be ExecutionOptions"):
            solver.solve("matvec", a, rng.normal(size=6), options={"backend": "simulate"})
        with pytest.raises(TypeError):
            solver.solve("matvec", a)  # missing x: clear arity error

    def test_baselines_still_dispatch_without_typed_classes(self, rng):
        """The baselines, once string-only, dispatch through typed classes."""
        solver = Solver(ArraySpec(W))
        matrix = rng.normal(size=(W, W))
        x = rng.normal(size=W)
        solution = solver.solve("prt", matrix, x)
        assert solution.kind == "prt"
        assert problem_types()["prt"] is PRT
        typed = Solver(ArraySpec(W)).solve(PRT(matrix, x))
        assert np.array_equal(typed.values, solution.values)
        assert typed.plan_key == solution.plan_key
