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

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.backends import available_backends, resolve_backend
from repro.core.plans import CachedMatVec, MatVecPlan
from repro.errors import BackendError, ShapeError


def solver_for(w: int, backend: str, **overrides) -> Solver:
    return Solver(
        ArraySpec(w=w), options=ExecutionOptions(backend=backend, **overrides)
    )


def both(kind: str, w: int, operands, **overrides):
    """Solve one instance on both backends; returns (simulated, vectorized)."""
    simulated = solver_for(w, "simulate", **overrides).solve(kind, *operands)
    vectorized = solver_for(w, "vectorized", **overrides).solve(kind, *operands)
    return simulated, vectorized


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
    assert vectorized.feedback.count == simulated.feedback.count
    assert vectorized.feedback.min_delay == simulated.feedback.min_delay
    assert vectorized.feedback.max_delay == simulated.feedback.max_delay


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
        simulated, vectorized = both("matvec", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)

    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("n", [8, 11])
    def test_overlapped_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n))
        x = rng.normal(size=n)
        b = rng.normal(size=n)
        simulated, vectorized = both("matvec", w, (a, x, b), overlapped=True)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)

    @pytest.mark.parametrize("w", [1, 3, 4, 8])
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_inputs_match_simulator(self, case, w):
        operands = HOSTILE[case](np.random.default_rng(w))
        with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
            simulated, vectorized = both("matvec", w, operands)
        # Same bits, not just equal values: NaN payloads and signed
        # zeros included.
        assert vectorized.values.dtype == simulated.values.dtype
        assert np.array_equal(
            vectorized.values.view(np.uint64), simulated.values.view(np.uint64)
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
        solutions = solver_for(3, "vectorized").solve_batch("matvec", batch)
        for sim_solution, solution in zip(simulated, solutions):
            assert sim_solution.stats.get("paired") and solution.stats.get("paired")
            assert np.array_equal(solution.values, sim_solution.values)
            assert solution.measured_steps == sim_solution.measured_steps


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
        simulated, vectorized = both("matmul", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)
        assert vectorized.feedback.regular == simulated.feedback.regular
        assert vectorized.feedback.irregular == simulated.feedback.irregular


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
