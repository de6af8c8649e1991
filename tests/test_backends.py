"""Cross-backend equivalence: the vectorized engine against the simulator.

The contract of the ``vectorized`` backend is *bit-identical outputs and
identical structural metrics* — not approximate agreement.  These tests
sweep (shape, w, seed) grids over all six primary problem kinds plus the
baselines, solving each instance on both backends and asserting exact
equality of values, step counts, utilizations and feedback statistics
(for mat-mul also the bits of every accumulation-chain value in
``run.c_band``), and feed the mat-vec and mat-mul sweeps hostile
operands (odd layouts, NaN/Inf, signed zeros, degenerate shapes, integer
dtypes).  Each plan picks a small or a large kernel body at build by its
size, and every grid runs on both: the shapes here are all small, and the
``*LargeBody`` classes rerun the grids with the bound patched to 0.  The
mat-mul folds rest on a geometric fact, checked here from the chains and
operand provenance alone: every padded ``C`` element folds the whole
padded inner range, cyclically from a start below ``w``.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.api import ArraySpec, ExecutionOptions, InnerPlans, Solver
from repro.backends import available_backends, resolve_backend, vectorized
from repro.backends.vectorized import (
    HexSweepPlan,
    LinearSweepPlan,
    hex_fold_geometry,
)
from repro.core.operands import MatMulOperands
from repro.core.plans import MatMulPlan, MatVecPlan
from repro.core.recovery import (
    AccumulationChain,
    PartialResultMap,
    fold_geometry_from_chains,
)
from repro.errors import BackendError, PlanError, ShapeError
from repro.instrumentation import counters
from repro.matrices.banded import BandMatrix
from repro.matrices.padding import block_count
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


def _nan_signs(rng):
    """Folds meeting NaNs of both signs: a NaN coefficient wins over a NaN
    ``x`` and a NaN accumulator over a NaN product, in the simulator, while
    NumPy's loops and CPython's float fast path may pick either NaN."""
    a, x, b = rng.normal(size=(8, 8)), rng.normal(size=8), rng.normal(size=8)
    negative_nan = np.copysign(np.nan, -1.0)
    a[:, 1], a[:, 6] = np.nan, negative_nan
    x[1], x[3], x[6] = negative_nan, negative_nan, np.nan
    a[2, 4], x[4] = 0.0, np.inf  # 0 * inf: the default NaN
    b[5] = negative_nan
    return a, x, b


def _clean_partners(rng):
    """NaN, +Inf, -Inf and -0.0 each in one row beside a clean one, with
    finite ``x`` and ``b``: the large body folds rows ``2q`` and ``2q + 1``
    in one complex accumulator, so a poisoned row must leave its
    partner's bits alone.  Rows 0 and 6 are even, rows 3 and 5 odd; at
    odd ``N_pad`` (w = 1, 3) the last padded row has no partner."""
    a, x, b = rng.normal(size=(7, 8)), rng.normal(size=8), rng.normal(size=7)
    a[0, 2], a[3, 5], a[5, 1] = np.nan, np.inf, -np.inf
    a[6], b[6] = np.copysign(0.0, -x), -0.0  # each real column's product is -0.0
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
    "nan_signs": _nan_signs,
    "clean_partners": _clean_partners,
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


def _matmul_non_finite(rng):
    a, b, e = (rng.normal(size=(8, 8)) for _ in range(3))
    a[1, 2], a[3, 4], b[5, 6], b[6, 1] = np.nan, np.inf, -np.inf, np.nan
    a[0, :4], b[:4, 7] = 0.0, np.inf  # 0 * inf
    e[2, 3], e[4, 5] = np.nan, -np.inf
    return a, b, e


def _matmul_nan_signs(rng):
    """Folds meeting NaNs of both signs: which one survives is the
    accumulator's in the simulator, and NumPy's vector loops may pick
    either when both operands are NaN."""
    a, b, e = (rng.normal(size=(8, 8)) for _ in range(3))
    negative_nan = np.copysign(np.nan, -1.0)
    a[:, 1], a[:, 6] = np.nan, negative_nan
    a[2, 4], b[4, :] = 0.0, np.inf  # 0 * inf: the default NaN
    b[3, ::2] = negative_nan
    e[5, :] = np.nan
    return a, b, e


def _matmul_signed_zeros(rng):
    a, b, e = (rng.normal(size=(8, 8)) for _ in range(3))
    a[2, :], a[4, :3] = -0.0, 0.0
    b[::3, :] = -0.0
    e[1, :], e[::2, 5] = -0.0, 0.0
    return a, b, e


#: Mat-mul operands ``(A, B, E)`` for the same contract: every layout,
#: non-finite value, signed zero, degenerate shape and dtype the mat-vec
#: grid has, with ``E = -0.0`` for the ``E + 0.0`` seed.
HOSTILE_MATMUL = {
    "fortran": lambda rng: tuple(
        np.asfortranarray(rng.normal(size=(8, 8))) for _ in range(3)
    ),
    "strided": lambda rng: tuple(
        rng.normal(size=(16, 16))[::2, ::2] for _ in range(3)
    ),
    "read_only": lambda rng: _read_only(
        *(rng.normal(size=(8, 8)) for _ in range(3))
    ),
    "nan_inf": _matmul_non_finite,
    "nan_signs": _matmul_nan_signs,
    "signed_zero": _matmul_signed_zeros,
    "signed_zero_no_e": lambda rng: _matmul_signed_zeros(rng)[:2],
    "e_negative_zero": lambda rng: (
        rng.normal(size=(6, 5)), rng.normal(size=(5, 7)),
        np.full((6, 7), -0.0),
    ),
    "w_ge_n": lambda rng: (
        rng.normal(size=(3, 2)), rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
    ),
    "one_by_one": lambda rng: tuple(rng.normal(size=(1, 1)) for _ in range(3)),
    "integer": lambda rng: (
        rng.integers(-9, 10, size=(7, 8)), rng.integers(-9, 10, size=(8, 5)),
        rng.integers(-9, 10, size=(7, 5)),
    ),
}


def assert_metrics_match(simulated, vectorized):
    assert vectorized.measured_steps == simulated.measured_steps
    assert vectorized.predicted_steps == simulated.predicted_steps
    assert vectorized.measured_utilization == simulated.measured_utilization
    assert vectorized.predicted_utilization == simulated.predicted_utilization
    # count, min/max delay and (mat-mul) the regular/irregular split
    assert vectorized.feedback == simulated.feedback


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_band_outputs_match(simulated, vectorized):
    """``run.y_per_problem`` holds the simulator's band-row outputs, bit
    for bit: every pass snapshot, padded rows included."""
    expected, outputs = simulated.raw.run.y_per_problem, vectorized.raw.run.y_per_problem
    assert len(outputs) == len(expected)
    for actual, wanted in zip(outputs, expected):
        assert_bits_equal(np.asarray(actual, dtype=float), wanted)


def assert_chain_values_match(simulated, vectorized):
    """``run.c_band`` holds the simulator's bits on every accumulation-chain
    position and +0.0 everywhere else (the tail corner the recovery drops)."""
    expected = simulated.raw.run.c_band.to_dense()
    band = vectorized.raw.run.c_band.to_dense()
    on_chain = np.zeros(band.shape, dtype=bool)
    for chain in vectorized.raw.placement.chains.values():
        on_chain[tuple(np.array(chain.positions).T)] = True
    assert np.array_equal(
        band[on_chain].view(np.uint64), expected[on_chain].view(np.uint64)
    )
    assert not band[~on_chain].view(np.uint64).any()


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
        traced = solver.plan(
            "matvec", shape=(6, 6), options=ExecutionOptions(record_trace=True)
        )
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
            assert_band_outputs_match(simulated, vectorized)

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
            assert_chain_values_match(simulated, vectorized)

    @pytest.mark.parametrize("w", [1, 3, 4, 8])
    @pytest.mark.parametrize("case", sorted(HOSTILE_MATMUL))
    def test_hostile_inputs_match_simulator(self, case, w):
        operands = HOSTILE_MATMUL[case](np.random.default_rng(w))
        with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
            simulated, solutions = cold_and_warm("matmul", w, operands)
        for vectorized in solutions:
            assert vectorized.values.dtype == simulated.values.dtype
            assert np.array_equal(
                vectorized.values.view(np.uint64),
                simulated.values.view(np.uint64),
            )
            assert_metrics_match(simulated, vectorized)
            assert_chain_values_match(simulated, vectorized)


NEGATIVE_NAN = np.copysign(np.nan, -1.0)


def _nan_collision_case(w: int, t: int):
    """Seeded mat-vec operands: ``n, m`` in 1..12 and NaNs of random sign
    on a random subset of ``A``, ``x`` and ``b`` (no ``b`` on even ``t``)."""
    rng = np.random.default_rng(1000 * w + t)
    n, m = (int(size) for size in rng.integers(1, 13, size=2))

    def spoil(values):
        hit = rng.random(values.shape) < 0.3
        signs = np.where(rng.random(values.shape) < 0.5, np.nan, NEGATIVE_NAN)
        values[hit] = signs[hit]
        return values

    a, x, b = (spoil(rng.normal(size=shape)) for shape in ((n, m), (m,), (n,)))
    return (a, x) if t % 2 == 0 else (a, x, b)


class TestNaNCollisions:
    """Where two NaNs meet, the simulator and both engines follow one rule
    (:func:`repro.systolic.cell.mac`): a NaN accumulator wins over a NaN
    product and a NaN coefficient over a NaN ``x``.  IEEE 754 fixes
    neither, and CPython's float fast path after warm-up picks the other
    operand, so without the rule the oracle's own answer changed with
    interpreter warm-up."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    def test_seeded_matvec_search_matches_simulator(self, w):
        with np.errstate(invalid="ignore"):
            for t in range(40):
                operands = _nan_collision_case(w, t)
                simulated, solutions = cold_and_warm("matvec", w, operands)
                for vectorized_solution in solutions:
                    assert_bits_equal(vectorized_solution.values, simulated.values)
                    assert_band_outputs_match(simulated, vectorized_solution)

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    @pytest.mark.parametrize(
        "kind, case", [("matvec", _nan_signs), ("matmul", _matmul_nan_signs)]
    )
    def test_repeat_solves_return_identical_bits(self, kind, case, backend):
        operands = case(np.random.default_rng(4))
        solver = solver_for(4, backend)
        with np.errstate(invalid="ignore"):
            solutions = [solver.solve(kind, *operands) for _repeat in range(3)]
        first = solutions[0]
        assert np.isnan(first.values).any()
        for repeat in solutions[1:]:
            assert_bits_equal(repeat.values, first.values)
            if kind == "matvec":
                assert_band_outputs_match(first, repeat)
            else:
                assert_bits_equal(
                    repeat.raw.run.c_band.to_dense(), first.raw.run.c_band.to_dense()
                )


# --------------------------------------------------------------------------- #
# The small and large kernel bodies, on both sides of the bound
# --------------------------------------------------------------------------- #
BOUND = vectorized._SMALL_BODY_ELEMENTS


def _bound(elements: int):
    """The body bound set to ``elements`` for the plans built inside."""
    return mock.patch.object(vectorized, "_SMALL_BODY_ELEMENTS", elements)


def _linear_sweep(n: int, m: int, w: int) -> LinearSweepPlan:
    return LinearSweepPlan(
        w, n, m, block_count(n, w), block_count(m, w), useful_operations=n * m
    )


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, NEGATIVE_NAN])
SIGNALING_NAN_BITS = 0x7FF0000000000001
SIGNALING_NAN = np.array([SIGNALING_NAN_BITS], dtype=np.uint64).view(np.float64)[0]


@contextlib.contextmanager
def _signaling_nan_blocks():
    """Free one block of every size below 1 KiB filled with signaling NaNs.

    NumPy keeps freed small blocks for reuse, so arrays allocated inside
    start out holding them, and an add that reads an element nothing
    wrote sets the invalid flag.  The blocks are zeroed on exit.
    """
    for size in range(1, 128):
        np.full(size, SIGNALING_NAN)
    try:
        yield
    finally:
        for size in range(1, 128):
            np.zeros(size)


def _hostile(rng, shape, share: float, nans: bool):
    """Normal values with a ``share`` of signed zeros, infinities and
    (when ``nans``) NaNs of both signs."""
    values = rng.normal(size=shape)
    specials = _SPECIALS if nans else _SPECIALS[:4]
    hit = rng.random(shape) < share
    values[hit] = rng.choice(specials, size=shape)[hit]
    return values


def _int8_extremes(rng, shape):
    """int8 codes with a third of them at -128 or 127."""
    codes = rng.integers(-128, 128, size=shape).astype(np.int8)
    hit = rng.random(shape) < 1 / 3
    codes[hit] = np.where(rng.random(shape) < 0.5, -128, 127)[hit]
    return codes


#: ``(w, shape, body)`` on each side of the bound.  Mat-vec counts the
#: ``(n_pad, m_pad + 1)`` accumulator, mat-mul the ``(p_pad + w, n_pad,
#: m_pad)`` term stack.
MATVEC_BOUND_SHAPES = [
    (8, (128, 120), "gather"),  # 128 x 121 = 15,488 elements
    (8, (128, 128), "lane"),  # 128 x 129 = 16,512
    (1, (128, 127), "gather"),  # 128 x 128 = 16,384: exactly the bound
    (1, (128, 128), "lane"),  # 128 x 129
    (8, (3, 2040), "gather"),  # w >= n: 8 x 2,041 = 16,328
    (8, (3, 2048), "lane"),  # 8 x 2,049 = 16,392
]
MATMUL_BOUND_SHAPES = [
    (4, (24, 24, 24), "stacked"),  # 28 x 24 x 24 = 16,128
    (4, (24, 28, 24), "step-major"),  # 32 x 24 x 24 = 18,432
    (2, (24, 26, 24), "stacked"),  # 28 x 24 x 24 = 16,128
    (2, (24, 28, 24), "step-major"),  # 30 x 24 x 24 = 17,280
    (8, (3, 248, 3), "stacked"),  # w >= n: 256 x 8 x 8 = 16,384
    (8, (3, 256, 3), "step-major"),  # 264 x 8 x 8 = 16,896
]


class TestBodyBound:
    """Each plan picks its body at build by one module bound; shapes just
    under and just over it match the simulator bit for bit."""

    @pytest.mark.parametrize("w, shape, body", MATVEC_BOUND_SHAPES)
    def test_matvec_shapes_at_the_bound_match_simulator(self, w, shape, body):
        n, m = shape
        rng = np.random.default_rng(n * m + w)
        operands = (
            _hostile(rng, (n, m), 0.01, nans=True),
            _hostile(rng, m, 0.01, nans=False),
            _hostile(rng, n, 0.05, nans=True),
        )
        solver = solver_for(w, "vectorized")
        assert solver.plan("matvec", shape=shape).executor.sweep_plan.body == body
        with np.errstate(invalid="ignore"):
            simulated = solver_for(w, "simulate").solve("matvec", *operands)
            solution = solver.solve("matvec", *operands)
        assert_bits_equal(solution.values, simulated.values)
        assert_band_outputs_match(simulated, solution)
        assert_metrics_match(simulated, solution)

    @pytest.mark.parametrize("w, shape, body", MATVEC_BOUND_SHAPES)
    def test_int8_shapes_at_the_bound_match_simulator(self, w, shape, body):
        n, m = shape
        rng = np.random.default_rng(n + m + w)
        matrix, x = _int8_extremes(rng, (n, m)), _int8_extremes(rng, m)
        zero_point = -128 if w == 1 else 127
        solution = solver_for(w, "vectorized", dtype_mode="int8").solve(
            "dense", matrix, x, x_zero_point=zero_point
        )
        expected = matrix.astype(np.int64) @ (x.astype(np.int64) - zero_point)
        assert solution.values.dtype == np.int32
        assert np.array_equal(solution.values, expected)
        # Both bodies give the same int32 band outputs: the check at w = 1,
        # where the simulator would take seconds.
        with _bound(0):
            lane = _linear_sweep(n, m, w)
        sweep = _linear_sweep(n, m, w)
        assert sweep.body == body
        shifted = x.astype(np.int32) - np.int32(zero_point)
        for got, want in zip(sweep.int_sweep(matrix, shifted, None),
                             lane.int_sweep(matrix, shifted, None)):
            assert np.array_equal(got, want)
        if w > 1:
            simulated = solver_for(w, "simulate", dtype_mode="int8").solve(
                "dense", matrix, x, x_zero_point=zero_point
            )
            assert np.array_equal(solution.values, simulated.values)
            assert_band_outputs_match(simulated, solution)

    @pytest.mark.parametrize(
        "w, shape, body", [case for case in MATVEC_BOUND_SHAPES if case[0] > 1]
    )
    def test_paired_shapes_at_the_bound_match_simulator(self, w, shape, body):
        n, m = shape
        rng = np.random.default_rng(n * w + m)
        batch = [
            (_hostile(rng, (n, m), 0.01, nans=True), rng.normal(size=m))
            for _pair in range(2)
        ]
        with np.errstate(invalid="ignore"):
            simulated = [
                solver_for(w, "simulate").solve("matvec", *operands)
                for operands in batch
            ]
            paired = solver_for(w, "vectorized").solve_batch("matvec", batch)
        for index, (expected, solution) in enumerate(zip(simulated, paired)):
            assert solution.stats.get("paired")
            assert_bits_equal(solution.values, expected.values)
            assert_bits_equal(
                np.asarray(solution.raw.run.y_per_problem[index]),
                expected.raw.run.y_per_problem[0],
            )

    @pytest.mark.parametrize("w, shape, body", MATMUL_BOUND_SHAPES)
    def test_matmul_shapes_at_the_bound_match_simulator(self, w, shape, body):
        n, p, m = shape
        rng = np.random.default_rng(n * p * m + w)
        operands = (
            _hostile(rng, (n, p), 0.01, nans=False),
            _hostile(rng, (p, m), 0.01, nans=False),
            _hostile(rng, (n, m), 0.05, nans=False),
        )
        solver = solver_for(w, "vectorized")
        assert solver.plan("matmul", shape=shape).executor.sweep_plan.body == body
        with np.errstate(invalid="ignore"):
            simulated = solver_for(w, "simulate").solve("matmul", *operands)
            solution = solver.solve("matmul", *operands)
        assert_bits_equal(solution.values, simulated.values)
        assert_metrics_match(simulated, solution)
        assert_chain_values_match(simulated, solution)

    def test_kernel_large_plans_keep_the_large_bodies(self):
        """The benchmark's large shapes (w=8) are far above the bound."""
        solver = Solver(ArraySpec(w=8), options=ExecutionOptions(backend="vectorized"))
        bodies = [
            solver.plan(kind, shape=shape).executor.sweep_plan.body
            for kind, shape in [
                ("matvec", (512, 512)), ("matvec", (1024, 1024)),
                ("matmul", (64, 64, 64)),
            ]
        ]
        assert bodies == ["lane", "lane", "step-major"]

    @pytest.mark.parametrize("w, n", [(1, 7), (1, 8), (3, 7), (3, 4), (8, 5)])
    def test_lane_sweep_of_finite_operands_raises_no_flag(self, w, n):
        """Finite operands set no floating-point flag on the large body at
        odd ``N_pad`` (w = 1, 3: the unpaired half of the last row pair)
        or even, though the memory it allocates holds signaling NaNs."""
        with _bound(0):
            lane = _linear_sweep(n, 5, w)
        assert lane.body == "lane"
        n_pad, m_pad = block_count(n, w) * w, block_count(5, w) * w
        accumulator = (n_pad + 1) // 2 * (m_pad + 1) * 2  # float64 elements
        rng = np.random.default_rng(n * w)
        a, x, b = rng.normal(size=(n, 5)), rng.normal(size=5), rng.normal(size=n)
        for seeds in (b, None):
            with _signaling_nan_blocks(), np.errstate(all="raise"):
                # The check means something only if a block of the
                # accumulator's size comes back holding signaling NaNs.
                probe = np.empty(accumulator)
                if not np.all(probe.view(np.uint64) == SIGNALING_NAN_BITS):
                    pytest.skip("NumPy handed back no freed block of the accumulator's size")
                del probe
                lane.sweep(a, x, seeds)

    def test_small_plan_holds_only_its_two_indices(self):
        """A gather plan's tables are its rotation index (at most the
        bound) and its band-output index; a lane plan holds no array."""
        small, large = _linear_sweep(128, 120, 8), _linear_sweep(128, 128, 8)
        arrays = [value for value in vars(small).values() if isinstance(value, np.ndarray)]
        assert sorted(array.size for array in arrays) == [128 * 15, 128 * 121]
        assert max(array.size for array in arrays) <= BOUND
        assert not any(isinstance(value, np.ndarray) for value in vars(large).values())

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from([1, 2, 3, 4, 8]),
        n=st.integers(1, 160),
        m=st.integers(1, 160),
        seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.02, 0.5]),
        nans=st.booleans(),
        with_b=st.booleans(),
    )
    def test_matvec_bodies_agree(self, w, n, m, seed, share, nans, with_b):
        """Gather and lane bodies give the same bits on any shape, either
        side of the bound, float and int8."""
        rng = np.random.default_rng(seed)
        with _bound(2**62):
            gather = _linear_sweep(n, m, w)
        with _bound(0):
            lane = _linear_sweep(n, m, w)
        assert (gather.body, lane.body) == ("gather", "lane")
        a = _hostile(rng, (n, m), share, nans)
        x = _hostile(rng, m, share, nans)
        b = _hostile(rng, n, share, nans) if with_b else None
        with np.errstate(invalid="ignore", over="ignore"):
            for got, want in zip(gather.sweep(a, x, b), lane.sweep(a, x, b)):
                assert_bits_equal(got, want)
        codes, x_codes = _int8_extremes(rng, (n, m)), _int8_extremes(rng, m)
        bias = rng.integers(-(2**20), 2**20, size=n) if with_b else None
        for got, want in zip(gather.int_sweep(codes, x_codes, bias),
                             lane.int_sweep(codes, x_codes, bias)):
            assert got.dtype == want.dtype == np.int32
            assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.sampled_from([1, 2, 3, 4, 8]),
        n=st.integers(1, 24),
        p=st.integers(1, 24),
        m=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.02, 0.5]),
        nans=st.booleans(),
        with_e=st.booleans(),
    )
    def test_matmul_bodies_agree(self, w, n, p, m, seed, share, nans, with_e):
        """Stacked and step-major bodies give the same ``C`` and chain
        values on any shape, either side of the bound."""
        rng = np.random.default_rng(seed)
        geometry = hex_fold_geometry(n, p, m, w)
        with _bound(2**62):
            stacked = HexSweepPlan(geometry)
        with _bound(0):
            step_major = HexSweepPlan(geometry)
        assert (stacked.body, step_major.body) == ("stacked", "step-major")
        a = _hostile(rng, (n, p), share, nans)
        b = _hostile(rng, (p, m), share, nans)
        e = _hostile(rng, (n, m), share, nans) if with_e else None
        with np.errstate(invalid="ignore", over="ignore"):
            c, run = stacked.execute(a, b, e)
            expected_c, expected_run = step_major.execute(a, b, e)
        assert_bits_equal(c, expected_c)
        assert_bits_equal(run.c_band.to_dense(), expected_run.c_band.to_dense())


def _band_terms(operands, i, j):
    """The inner band indices ``k`` of position ``(i, j)``'s products
    ``A~[i, k] B~[k, j]``: inside both bands, in increasing order."""
    a_band, b_band = operands.a_operand.band, operands.b_operand.band
    return range(
        max(0, i - a_band.lower, j - b_band.upper),
        min(operands.dimension, i + a_band.upper + 1, j + b_band.lower + 1),
    )


def fold_orders(n: int, p: int, m: int, w: int):
    """The inner index of every term each padded ``C`` element folds, in order.

    Read from the accumulation chains and the operand provenance maps
    only: a chain folds its positions in chain order, each position its
    band products in increasing ``k``.  A term whose band slot carries no
    original element (a structural zero) fails the lookup.
    """
    operands = MatMulOperands(np.zeros((n, p)), np.zeros((p, m)), w)
    a_origin = operands.a_operand.provenance
    b_origin = operands.b_operand.provenance
    orders = {}
    for target, chain in PartialResultMap(operands).chains.items():
        betas = orders[target] = []
        for i, j in chain.positions:
            for k in _band_terms(operands, i, j):
                (alpha, beta), (beta_b, gamma) = a_origin[(i, k)], b_origin[(k, j)]
                assert (alpha, gamma) == target and beta == beta_b
                betas.append(beta)
    return orders


def _first_term(operands, chain):
    """The A~ band key ``(i, k)`` of the first product ``chain`` folds."""
    return next(
        (i, k) for i, j in chain.positions for k in _band_terms(operands, i, j)
    )


def _drop_last_position(operands, chains):
    chains[(0, 0)] = AccumulationChain((0, 0), chains[(0, 0)].positions[:-1])


def _start_at_w(operands, chains):
    operands.a_operand.provenance[_first_term(operands, chains[(0, 0)])] = (
        0, operands.w,
    )


def _structural_zero(operands, chains):
    del operands.a_operand.provenance[_first_term(operands, chains[(0, 0)])]


def chains_and_starts(geometry):
    """``{(alpha, gamma): (chain positions in fold order, start)}``."""
    heads = np.cumsum(geometry.lengths) - geometry.lengths
    return {
        tuple(target): (
            tuple(map(tuple, geometry.positions[head : head + length].tolist())),
            start,
        )
        for target, head, length, start in zip(
            geometry.targets.tolist(), heads.tolist(),
            geometry.lengths.tolist(), geometry.starts.tolist(),
        )
    }


def assert_closed_form_matches_placement(n: int, p: int, m: int, w: int):
    operands = MatMulOperands(np.zeros((n, p)), np.zeros((p, m)), w)
    reference = fold_geometry_from_chains(operands, PartialResultMap(operands).chains)
    assert chains_and_starts(hex_fold_geometry(n, p, m, w)) == (
        chains_and_starts(reference)
    ), (n, p, m, w)


def assert_classification_matches_simulate(n: int, p: int, m: int, w: int):
    """A vectorized solution's feedback classification is the simulator's,
    labelled from the fold geometry with no transform built."""
    a, b = np.zeros((n, p)), np.zeros((p, m))
    simulated = MatMulPlan(n, p, m, w, backend="simulate").execute(a, b)
    solution = MatMulPlan(n, p, m, w, backend="vectorized").execute(a, b)
    before = counters.snapshot()
    classification = solution.feedback_classification()
    assert counters.delta(before).transform_constructions == 0, (n, p, m, w)
    assert classification == simulated.feedback_classification(), (n, p, m, w)


class TestMatMulFoldOrder:
    """The geometry the step-major fold relies on, and the plan's guard."""

    SIZES = (1, 2, 3, 5, 9)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_every_element_folds_the_padded_inner_range_cyclically(self, w):
        for n, p, m in itertools.product(self.SIZES, repeat=3):
            n_pad, p_pad, m_pad = (-(-size // w) * w for size in (n, p, m))
            orders = fold_orders(n, p, m, w)
            assert sorted(orders) == list(
                itertools.product(range(n_pad), range(m_pad))
            )
            for target, betas in orders.items():
                start = betas[0]
                assert start < w, (n, p, m, target)
                assert betas == [
                    (start + t) % p_pad for t in range(p_pad)
                ], (n, p, m, target)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_closed_form_geometry_matches_the_placement(self, w):
        """The plan's closed-form chains and starts are the ones read off
        the placement and ``A~``'s provenance, position by position."""
        for n, p, m in itertools.product(self.SIZES, repeat=3):
            assert_closed_form_matches_placement(n, p, m, w)

    @pytest.mark.parametrize("n, p, m, w", [(17, 33, 20, 4), (30, 7, 45, 6)])
    def test_closed_form_geometry_matches_on_uneven_shapes(self, n, p, m, w):
        assert_closed_form_matches_placement(n, p, m, w)

    @pytest.mark.parametrize("w", range(1, 9))
    def test_feedback_classification_matches_simulate(self, w):
        for n, p, m in itertools.product(self.SIZES, repeat=3):
            assert_classification_matches_simulate(n, p, m, w)

    def test_feedback_classification_matches_simulate_at_64_cubed(self):
        """448 irregular positions at 64x64x64, w=8, in the simulator's
        order, without the operand bands a placement needs."""
        assert_classification_matches_simulate(64, 64, 64, 8)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_drop_last_position, "folds .* terms, not the padded inner size 9"),
            (_start_at_w, "starts at inner index 3, not below w = 3"),
            (_structural_zero, "carries no element"),
        ],
        ids=["missing_terms", "late_start", "structural_zero"],
    )
    def test_plan_build_rejects_a_broken_fold(self, tamper, message):
        """The plan refuses a geometry whose folds miss terms or start late.

        The structural-zero lookup belongs to the per-position reference:
        a closed-form geometry reads no provenance, so only the reference
        can meet a band slot without an element.
        """
        operands = MatMulOperands(np.zeros((5, 9)), np.zeros((9, 4)), 3)
        chains = PartialResultMap(operands).chains
        tamper(operands, chains)
        with pytest.raises(PlanError, match=message):
            HexSweepPlan(fold_geometry_from_chains(operands, chains))


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

    # Daemon threads joined against one deadline: a deadlocked first read
    # fails the test within a minute instead of hanging the process.
    workers = [
        threading.Thread(target=run, args=(index,), daemon=True)
        for index in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 60.0
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
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

    def test_vectorized_matmul_solves_build_no_operands(self, rng):
        a, b, e = (
            rng.normal(size=(9, 7)), rng.normal(size=(7, 10)),
            rng.normal(size=(9, 10)),
        )
        before = counters.snapshot()
        solver = solver_for(3, "vectorized")
        for _cold_then_warm in range(2):
            solver.solve("matmul", a, b, e)
        delta = counters.delta(before)
        assert delta.plan_builds == 1
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

    @pytest.mark.parametrize(
        "bound, body", [(BOUND, "stacked"), (0, "step-major")]
    )
    def test_warm_matmul_band_reuses_the_plan_spans(self, rng, bound, body):
        a, b, e = (
            rng.normal(size=(8, 8)), rng.normal(size=(8, 8)),
            rng.normal(size=(8, 8)),
        )
        simulated = solver_for(4, "simulate").solve("matmul", a, b, e)
        solver = solver_for(4, "vectorized")
        with _bound(bound):
            plan = solver.plan("matmul", shape=(8, 8, 8))
        assert plan.executor.sweep_plan.body == body

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm solve recomputed a diagonal span")

        # Only around the solve: the check below builds simulate-side
        # bands (the placement) of its own.
        with mock.patch.object(BandMatrix, "diagonal_length", refuse):
            warm = solver.solve("matmul", a, b, e)
        assert_bits_equal(warm.values, simulated.values)
        assert_chain_values_match(simulated, warm)


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


def _operand_geometry(operands):
    """Everything structural a mat-mul operand template carries."""
    return [
        (band.band, band.provenance, band.row_origin.tolist(),
         band.col_origin.tolist())
        for band in (operands.a_operand, operands.b_operand)
    ]


class TestLazyMatMulState:
    """A vectorized mat-mul plan builds its operand bands and placement on
    demand: once, also when threads race the first read, and equal to a
    simulate plan's.  Building the placement reads the operands, so a
    first read of either must not take the plan's lock twice."""

    SHAPE = (9, 7, 10)
    W = 3

    @pytest.mark.parametrize("read", ["operands", "placement", "solution"])
    def test_state_matches_simulate_under_a_race(self, read, rng):
        n, p, m = self.SHAPE
        reference = MatMulPlan(n, p, m, self.W, backend="simulate")
        solution = solver_for(self.W, "vectorized").solve(
            "matmul", rng.normal(size=(n, p)), rng.normal(size=(p, m))
        )
        plan = solution.raw.plan
        first_read = {
            "operands": lambda: plan.operands,
            "placement": lambda: plan.placement,
            "solution": lambda: solution.raw.placement,
        }[read]
        before = counters.snapshot()
        results = _race(8, first_read)
        assert counters.delta(before).transform_constructions == 1
        assert all(result is results[0] for result in results)
        assert solution.raw.operands is plan.operands
        assert solution.raw.placement is plan.placement
        assert _operand_geometry(plan.operands) == _operand_geometry(
            reference.operands
        )
        assert plan.placement.chains == reference.placement.chains

    def test_lazy_delay_map_matches_simulate(self, rng):
        n, p, m = self.SHAPE
        operands = (
            rng.normal(size=(n, p)), rng.normal(size=(p, m)),
            rng.normal(size=(n, m)),
        )
        simulated, vectorized = both("matmul", self.W, operands)
        delays = vectorized.raw.run.feedback_delays
        assert len(delays) == vectorized.feedback.count
        assert dict(delays) == simulated.raw.run.feedback_delays
        assert vectorized.raw.feedback_delays == simulated.raw.feedback_delays


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
        """A passed ``plans`` carries its own backend, as documented."""
        from repro.extensions.triangular import SystolicTriangularSolver

        source = Solver(ArraySpec(3))
        plans = InnerPlans(source, "simulate")
        solver = SystolicTriangularSolver(3, backend="vectorized")
        t = np.tril(rng.normal(size=(5, 5))) + 6 * np.eye(5)
        b = rng.normal(size=5)
        result = solver.solve_lower(t, b, plans=plans)
        assert np.allclose(result.x, np.linalg.solve(t, b))
        # One block product, run on a simulator plan of the passed source.
        assert plans.stats.misses == plans.stats.size == 1
        plan = source.plan(
            "matvec", shape=(2, 3), options=ExecutionOptions(backend="simulate")
        )
        assert plan.executor.backend == "simulate"
        assert source.cache_stats.misses == 1  # the block's plan, already cached


@pytest.fixture
def large_bodies():
    """Every plan the test builds runs the large-n bodies: the lane
    mat-vec sweep and the step-major mat-mul fold."""
    with _bound(0):
        yield


# The grids above run every shape on the small bodies (all of them are
# below the bound); these run them again on the large ones.
@pytest.mark.usefixtures("large_bodies")
class TestMatVecEquivalenceLargeBody(TestMatVecEquivalence):
    pass


@pytest.mark.usefixtures("large_bodies")
class TestMatMulEquivalenceLargeBody(TestMatMulEquivalence):
    pass


@pytest.mark.usefixtures("large_bodies")
class TestNNEquivalenceLargeBody(TestNNEquivalence):
    pass
