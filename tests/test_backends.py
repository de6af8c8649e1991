"""Cross-backend equivalence: the vectorized engine against the simulator.

The contract of the ``vectorized`` backend is *bit-identical outputs and
identical structural metrics* — not approximate agreement.  These tests
sweep (shape, w, seed) grids over all six primary problem kinds plus the
baselines, solving each instance on both backends and asserting exact
equality of values, step counts, utilizations and feedback statistics,
and feed the mat-vec sweep hostile operands (odd layouts, NaN/Inf,
signed zeros, degenerate shapes, integer dtypes).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.backends import available_backends, resolve_backend
from repro.core.plans import CachedMatVec, MatVecPlan
from repro.errors import BackendError, ShapeError
from repro.instrumentation import counters
from repro.systolic.linear_array import LinearContraflowArray


def solver_for(w: int, backend: str, **overrides) -> Solver:
    return Solver(
        ArraySpec(w=w), options=ExecutionOptions(backend=backend, **overrides)
    )


def both(kind: str, w: int, operands, **overrides):
    """Solve one instance on both backends; returns (simulated, vectorized)."""
    simulated = solver_for(w, "simulate", **overrides).solve(kind, *operands)
    vectorized = solver_for(w, "vectorized", **overrides).solve(kind, *operands)
    return simulated, vectorized


def cold_and_warm(kind: str, w: int, operands, **overrides):
    """The simulated solution and a cold then a warm vectorized one.

    The warm solve reuses the plan, so a value the plan computed once at
    build (run metrics, feedback digest) is checked against the oracle
    on a solve that did not build it.
    """
    simulated = solver_for(w, "simulate", **overrides).solve(kind, *operands)
    solver = solver_for(w, "vectorized", **overrides)
    return simulated, [solver.solve(kind, *operands) for _ in range(2)]


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _non_finite(rng):
    a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
    a[1, 2], a[3, 4], a[5, 6] = np.nan, np.inf, -np.inf
    a[0, 7], x[7] = 0.0, np.inf  # 0 * inf
    return a, x, rng.normal(size=8)


def _signed_zeros(rng):
    a, x, b = rng.normal(size=(8, 8)), rng.normal(size=8), rng.normal(size=8)
    a[2, :], a[4, :3] = -0.0, 0.0
    x[::3] = -0.0
    b[2] = b[4] = -0.0
    return a, x, b


#: Mat-vec operands the fast sweep must treat exactly like the simulator:
#: layouts it might be tempted to use without a copy, non-finite values,
#: signed zeros, shapes at or below the array size, integer dtypes.
HOSTILE = {
    "fortran": lambda rng: (
        np.asfortranarray(rng.normal(size=(8, 8))), rng.normal(size=8),
        rng.normal(size=8),
    ),
    "strided": lambda rng: (
        rng.normal(size=(16, 16))[::2, ::2], rng.normal(size=16)[::2],
        rng.normal(size=16)[::2],
    ),
    "read_only": lambda rng: _read_only(
        rng.normal(size=(8, 8)), rng.normal(size=8), rng.normal(size=8)
    ),
    "nan_inf": _non_finite,
    "signed_zero": _signed_zeros,
    "signed_zero_no_b": lambda rng: _signed_zeros(rng)[:2],
    "w_ge_n": lambda rng: (
        rng.normal(size=(3, 2)), rng.normal(size=2), rng.normal(size=3)
    ),
    "one_by_one": lambda rng: (
        rng.normal(size=(1, 1)), rng.normal(size=1), rng.normal(size=1)
    ),
    "integer": lambda rng: (
        rng.integers(-9, 10, size=(8, 7)), rng.integers(-9, 10, size=7),
        rng.integers(-9, 10, size=8),
    ),
}


def assert_metrics_match(simulated, vectorized):
    assert vectorized.measured_steps == simulated.measured_steps
    assert vectorized.predicted_steps == simulated.predicted_steps
    assert vectorized.measured_utilization == simulated.measured_utilization
    assert vectorized.predicted_utilization == simulated.predicted_utilization
    # count, min/max delay and (mat-mul) the regular/irregular split
    assert vectorized.feedback == simulated.feedback


class TestBackendRegistry:
    def test_backends_registered(self):
        assert available_backends() == ("simulate", "vectorized")

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            resolve_backend("quantum")
        with pytest.raises(BackendError):
            ExecutionOptions(backend="quantum")

    def test_compiled_is_not_a_backend(self):
        # Not an engine name: the lowered sweep kernels are the vectorized engine.
        assert "compiled" not in available_backends()
        with pytest.raises(BackendError):
            resolve_backend("compiled")
        with pytest.raises(BackendError):
            resolve_backend("compiled", record_trace=True)
        with pytest.raises(BackendError):
            ExecutionOptions(backend="compiled")

    def test_auto_resolution_rule(self):
        assert resolve_backend("auto") == "vectorized"
        assert resolve_backend("auto", record_trace=True) == "simulate"
        assert resolve_backend("simulate", record_trace=True) == "simulate"

    def test_vectorized_cannot_trace(self):
        with pytest.raises(BackendError):
            resolve_backend("vectorized", record_trace=True)
        with pytest.raises(BackendError):
            MatVecPlan(6, 6, 3, record_trace=True, backend="vectorized")

    def test_unknown_backend_suggests_nearest(self):
        with pytest.raises(BackendError, match="did you mean 'simulate'"):
            resolve_backend("simulat")
        with pytest.raises(BackendError, match="did you mean 'vectorized'"):
            ExecutionOptions(backend="vectorised")
        # A name close to nothing gets the plain listing, no suggestion.
        with pytest.raises(BackendError, match="available:") as excinfo:
            resolve_backend("quantum")
        assert "did you mean" not in str(excinfo.value)

    def test_auto_plans_use_vectorized_engine(self):
        solver = Solver(ArraySpec(w=3))  # default options: backend="auto"
        plan = solver.plan("matvec", shape=(6, 6))
        assert plan.executor.backend == "vectorized"
        traced = solver.plan("matvec", shape=(6, 6), record_trace=True)
        assert traced.executor.backend == "simulate"

    def test_trace_still_available_through_auto(self, rng):
        solver = Solver(ArraySpec(w=3))
        solution = solver.solve(
            "matvec",
            rng.normal(size=(6, 6)),
            rng.normal(size=6),
            options=ExecutionOptions(record_trace=True),
        )
        assert solution.raw.trace is not None


class TestMatVecEquivalence:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 4, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        m = n + (seed + 1) * 2 - 3  # exercise wide, square-ish and narrow shapes
        m = max(1, m)
        a = rng.normal(size=(n, m))
        x = rng.normal(size=m)
        b = rng.normal(size=n) if seed % 2 == 0 else None
        operands = (a, x, b) if b is not None else (a, x)
        simulated, solutions = cold_and_warm("matvec", w, operands)
        for vectorized in solutions:
            assert np.array_equal(vectorized.values, simulated.values)
            assert_metrics_match(simulated, vectorized)

    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("n", [8, 11])
    def test_overlapped_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n))
        x = rng.normal(size=n)
        b = rng.normal(size=n)
        simulated, solutions = cold_and_warm(
            "matvec", w, (a, x, b), overlapped=True
        )
        for vectorized in solutions:
            assert np.array_equal(vectorized.values, simulated.values)
            assert_metrics_match(simulated, vectorized)

    @pytest.mark.parametrize("w", [1, 3, 4, 8])
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_inputs_match_simulator(self, case, w):
        operands = HOSTILE[case](np.random.default_rng(w))
        with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
            simulated, solutions = cold_and_warm("matvec", w, operands)
        for vectorized in solutions:
            # Same bits, not just equal values: NaN payloads and signed
            # zeros included.
            assert vectorized.values.dtype == simulated.values.dtype
            assert np.array_equal(
                vectorized.values.view(np.uint64),
                simulated.values.view(np.uint64),
            )
            assert_metrics_match(simulated, vectorized)

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    def test_zero_row_matrix_is_a_typed_error(self, backend):
        with pytest.raises(ShapeError, match="must be non-empty"):
            solver_for(3, backend).solve("matvec", np.zeros((0, 3)), np.zeros(3))

    def test_paired_batch_matches_simulator(self, rng):
        batch = [
            (rng.normal(size=(9, 9)), rng.normal(size=9)) for _ in range(4)
        ]
        simulated = solver_for(3, "simulate").solve_batch("matvec", batch)
        solver = solver_for(3, "vectorized")
        for _cold_then_warm in range(2):
            solutions = solver.solve_batch("matvec", batch)
            for sim_solution, solution in zip(simulated, solutions):
                assert sim_solution.stats.get("paired")
                assert solution.stats.get("paired")
                assert np.array_equal(solution.values, sim_solution.values)
                assert solution.measured_steps == sim_solution.measured_steps
                assert solution.feedback == sim_solution.feedback


class TestMatMulEquivalence:
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 2), (5, 5, 5), (6, 3, 7)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_simulator(self, w, shape, seed):
        n, p, m = shape
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, p))
        b = rng.normal(size=(p, m))
        e = rng.normal(size=(n, m)) if seed % 2 == 0 else None
        operands = (a, b, e) if e is not None else (a, b)
        simulated, solutions = cold_and_warm("matmul", w, operands)
        # The digest's split is the paper's regular/irregular classification.
        classification = simulated.raw.feedback_classification()
        assert (simulated.feedback.regular, simulated.feedback.irregular) == (
            classification.regular_count, classification.irregular_count
        )
        for vectorized in solutions:
            assert np.array_equal(vectorized.values, simulated.values)
            assert_metrics_match(simulated, vectorized)


def _race(threads: int, fn):
    """``fn()`` called from ``threads`` threads released together.

    A tiny switch interval makes the threads interleave inside ``fn``.
    """
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def run(index):
        barrier.wait()
        try:
            results[index] = fn()
        except Exception as exc:  # re-raised below, on the test's thread
            errors.append(exc)

    workers = [
        threading.Thread(target=run, args=(index,)) for index in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    if errors:
        raise errors[0]
    return results


def _geometry(transform):
    """Everything structural a DBT template carries."""
    return (
        transform.original_shape, transform.n_bar, transform.m_bar,
        transform.band_rows, transform.band_cols, transform.band,
        transform.provenance(), transform.x_tags(), transform.output_tags(),
    )


class TestGeometryOncePerPlan:
    """Vectorized plans compute geometry at build and build no template."""

    def test_vectorized_matvec_solves_build_no_transform(self, rng):
        a, x, b = rng.normal(size=(10, 9)), rng.normal(size=9), rng.normal(size=10)
        codes = rng.integers(-128, 128, size=(10, 9)).astype(np.int8)
        code_x = rng.integers(-128, 128, size=9).astype(np.int8)
        overlapped = ExecutionOptions(backend="vectorized", overlapped=True)
        int8 = ExecutionOptions(backend="vectorized", dtype_mode="int8")
        before = counters.snapshot()
        solver = solver_for(4, "vectorized")
        solver.plan("matvec", shape=(10, 9))
        for _cold_then_warm in range(2):
            solver.solve("matvec", a, x, b)
            solver.solve("matvec", a, x, b, options=overlapped)
            paired = solver.solve_batch("matvec", [(a, x), (a, x, b)])
            solver.solve("dense", codes, code_x, x_zero_point=3, options=int8)
        delta = counters.delta(before)
        assert all(solution.stats.get("paired") for solution in paired)
        assert delta.plan_builds == 3  # plain, overlapped, int8 dense
        assert delta.transform_constructions == 0

    def test_vectorized_matmul_never_classifies(self, rng, monkeypatch):
        a, b = rng.normal(size=(9, 7)), rng.normal(size=(7, 10))
        expected = solver_for(3, "simulate").solve("matmul", a, b).feedback

        def refuse(*_args, **_kwargs):
            raise AssertionError("a vectorized solve classified its delays")

        monkeypatch.setattr("repro.core.recovery.classify_feedback_delays", refuse)
        monkeypatch.setattr("repro.core.matmul.classify_feedback_delays", refuse)
        solver = solver_for(3, "vectorized")
        cold = solver.solve("matmul", a, b)
        before = counters.snapshot()
        warm = solver.solve("matmul", a, b)
        assert counters.delta(before).transform_constructions == 0
        assert expected.regular + expected.irregular == expected.count > 0
        assert cold.feedback == warm.feedback == expected


class TestLazyTemplate:
    """The simulate-only template of a vectorized plan is built on demand.

    Its geometry must equal the simulate plan's, and threads racing the
    first access must all get the one template built once.
    """

    SHAPE = (40, 36)
    W = 4

    def test_plan_transform_matches_simulate_under_a_race(self):
        reference = MatVecPlan(*self.SHAPE, self.W, backend="simulate").transform
        plan = MatVecPlan(*self.SHAPE, self.W, backend="vectorized")
        before = counters.snapshot()
        templates = _race(8, lambda: plan.transform)
        assert counters.delta(before).transform_constructions == 1
        assert all(template is templates[0] for template in templates)
        assert _geometry(templates[0]) == _geometry(reference)
        assert not templates[0].band.to_dense().any()

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_solution_transforms_match_simulate_under_a_race(
        self, overlapped, rng
    ):
        a, x = rng.normal(size=self.SHAPE), rng.normal(size=self.SHAPE[1])
        options = {"overlapped": overlapped}
        reference = solver_for(self.W, "simulate", **options).solve(
            "matvec", a, x
        ).raw.transforms
        solution = solver_for(self.W, "vectorized", **options).solve(
            "matvec", a, x
        )
        before = counters.snapshot()
        results = _race(8, lambda: solution.raw.transforms)
        assert counters.delta(before).transform_constructions == len(reference)
        for transforms in results:
            assert [id(t) for t in transforms] == [id(t) for t in results[0]]
            assert [_geometry(t) for t in transforms] == [
                _geometry(t) for t in reference
            ]

    def test_build_problem_runs_on_the_simulator(self, rng):
        a, x, b = (
            rng.normal(size=self.SHAPE), rng.normal(size=self.SHAPE[1]),
            rng.normal(size=self.SHAPE[0]),
        )
        plan = MatVecPlan(*self.SHAPE, self.W, backend="vectorized")
        run = LinearContraflowArray(self.W).run(plan.build_problem(a, x, b))
        y = plan.transform.recover_y(run.y_per_problem[0])
        assert np.array_equal(y, plan.execute(a, x, b).y)


class TestBlockedPipelineEquivalence:
    """LU, triangular and Gauss-Seidel run many array products per solve;
    identical products imply identical pipelines, checked end to end."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_triangular(self, w, n, seed):
        rng = np.random.default_rng(seed)
        t = np.tril(rng.normal(size=(n, n))) + (n + 2) * np.eye(n)
        b = rng.normal(size=n)
        for lower, matrix in ((True, t), (False, t.T)):
            simulated = solver_for(w, "simulate").solve(
                "triangular", matrix, b, lower=lower
            )
            solution = solver_for(w, "vectorized").solve(
                "triangular", matrix, b, lower=lower
            )
            assert np.array_equal(solution.values, simulated.values)
            assert solution.measured_steps == simulated.measured_steps
            assert solution.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lu(self, w, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + (n + 3) * np.eye(n)
        simulated = solver_for(w, "simulate").solve("lu", a)
        solution = solver_for(w, "vectorized").solve("lu", a)
        for sim_factor, factor in zip(simulated.values, solution.values):
            assert np.array_equal(factor, sim_factor)
        assert solution.measured_steps == simulated.measured_steps
        assert solution.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 6])
    def test_gauss_seidel(self, w, n, rng):
        a = rng.normal(size=(n, n)) + (2 * n) * np.eye(n)
        b = rng.normal(size=n)
        simulated = solver_for(w, "simulate").solve("gauss_seidel", a, b)
        solution = solver_for(w, "vectorized").solve("gauss_seidel", a, b)
        assert np.array_equal(solution.values, simulated.values)
        assert solution.measured_steps == simulated.measured_steps
        assert solution.stats == simulated.stats


class TestSparseEquivalence:
    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        blocks = -(-n // w)
        for r in range(blocks):
            for s in range(blocks):
                if rng.random() < 0.5:
                    a[r * w : (r + 1) * w, s * w : (s + 1) * w] = 0.0
        x = rng.normal(size=n)
        b = rng.normal(size=n) if seed % 2 == 0 else None
        operands = (a, x, b) if b is not None else (a, x)
        simulated, vectorized = both("sparse", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization
        assert vectorized.stats == simulated.stats


class TestBaselineEquivalence:
    @pytest.mark.parametrize("kind", ["naive_matvec", "block_partitioned"])
    @pytest.mark.parametrize("w", [2, 3])
    def test_matvec_baselines(self, kind, w, rng):
        a = rng.normal(size=(7, 5))
        x = rng.normal(size=5)
        b = rng.normal(size=7)
        simulated, vectorized = both(kind, w, (a, x, b))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization
        assert vectorized.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    def test_naive_matmul(self, w, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 6))
        e = rng.normal(size=(5, 6))
        simulated, vectorized = both("naive_matmul", w, (a, b, e))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization

    @pytest.mark.parametrize("w", [2, 4])
    def test_prt(self, w, rng):
        a = rng.normal(size=(w, w))
        x = rng.normal(size=w)
        simulated, vectorized = both("prt", w, (a, x))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps


class TestNNEquivalence:
    """The NN kinds honour the same bit-identity contract as the rest.

    The int8 dense accumulator is additionally checked against the exact
    integer reference ``W @ (x - zero_point)`` — integer MACs are exact in
    float64 far beyond int8 ranges, so both backends must reproduce it
    bit for bit, not approximately.
    """

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 4, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_int8_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        m = max(1, n + (seed + 1) * 2 - 3)
        matrix = rng.integers(-128, 128, size=(n, m)).astype(np.int8)
        x = rng.integers(-128, 128, size=m).astype(np.int8)
        zero_point = int(rng.integers(-10, 11))
        simulated = solver_for(w, "simulate", dtype_mode="int8").solve(
            "dense", matrix, x, x_zero_point=zero_point
        )
        expected = matrix.astype(np.int64) @ (x.astype(np.int64) - zero_point)
        assert simulated.values.dtype == np.int32
        assert np.array_equal(simulated.values, expected)
        assert simulated.stats["dtype_mode"] == "int8"
        solution = solver_for(w, "vectorized", dtype_mode="int8").solve(
            "dense", matrix, x, x_zero_point=zero_point
        )
        assert solution.values.dtype == np.int32
        assert np.array_equal(solution.values, simulated.values)
        assert_metrics_match(simulated, solution)
        assert solution.stats["dtype_mode"] == "int8"

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [5, 9])
    def test_dense_float_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n + 1))
        x = rng.normal(size=n + 1)
        simulated, vectorized = both("dense", w, (a, x))
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)
        assert simulated.stats["dtype_mode"] == "float64"

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elementwise_kinds_match_simulator(self, w, seed):
        rng = np.random.default_rng(seed)
        n = 6 + seed
        accumulator = rng.integers(-(2**20), 2**20, size=n)
        cases = [
            ("bias", (rng.normal(size=n), rng.normal(size=n)), {}),
            ("relu", (rng.normal(size=n),), {}),
            ("quantize", (rng.normal(size=n),), {"scale": 0.1, "zero_point": 3}),
            ("dequantize", (accumulator,), {"scale": 0.03}),
        ]
        for kind, operands, kwargs in cases:
            simulated = solver_for(w, "simulate").solve(kind, *operands, **kwargs)
            solution = solver_for(w, "vectorized").solve(kind, *operands, **kwargs)
            assert np.array_equal(solution.values, simulated.values), kind
            assert solution.values.dtype == simulated.values.dtype, kind
            assert solution.stats == simulated.stats, kind

    @pytest.mark.parametrize("w", [2, 4])
    def test_relu_preserves_integer_dtype(self, w, rng):
        codes = rng.integers(-1000, 1000, size=7).astype(np.int32)
        simulated, vectorized = both("relu", w, (codes,))
        assert simulated.values.dtype == np.int32
        assert vectorized.values.dtype == np.int32
        assert np.array_equal(vectorized.values, simulated.values)
        assert np.array_equal(simulated.values, np.maximum(codes, 0))


class TestSharedEngineBackend:
    def test_shared_matvec_engine_overrides_pipeline_backend(self, rng):
        """An injected engine carries its own backend, as documented."""
        from repro.extensions.triangular import SystolicTriangularSolver

        engine = CachedMatVec(3, backend="simulate")
        solver = SystolicTriangularSolver(3, matvec=engine, backend="vectorized")
        t = np.tril(rng.normal(size=(5, 5))) + 6 * np.eye(5)
        result = solver.solve_lower(t, rng.normal(size=5))
        assert np.allclose(t @ result.x, t @ np.linalg.solve(t, t @ result.x))
        # the shared engine's plans are simulator plans
        assert engine.backend == "simulate"
