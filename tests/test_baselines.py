"""Unit tests for the comparison strategies in ``repro.baselines``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.baselines.block_partition import BlockPartitionedMatVec
from repro.baselines.naive_band import NaiveBlockMatMul, NaiveBlockMatVec
from repro.baselines.prt import PRTMatVec, PRTTransform
from repro.baselines.reference import reference_matmul, reference_matvec
from repro.core.dbt import DBTByRowsTransform
from repro.core.plans import MatVecPlan
from repro.errors import ShapeError


class TestReference:
    def test_matvec_with_and_without_bias(self, rng):
        matrix = rng.uniform(size=(3, 4))
        x = rng.uniform(size=4)
        b = rng.uniform(size=3)
        assert np.allclose(reference_matvec(matrix, x), matrix @ x)
        assert np.allclose(reference_matvec(matrix, x, b), matrix @ x + b)

    def test_matmul_with_and_without_addend(self, rng):
        a = rng.uniform(size=(3, 4))
        b = rng.uniform(size=(4, 5))
        e = rng.uniform(size=(3, 5))
        assert np.allclose(reference_matmul(a, b), a @ b)
        assert np.allclose(reference_matmul(a, b, e), a @ b + e)


class TestNaiveBlockMatVec:
    def test_correctness(self, rng, small_matvec_problem):
        matrix, x, b = small_matvec_problem
        result = NaiveBlockMatVec(3).solve(matrix, x, b)
        assert np.allclose(result.result, matrix @ x + b)

    def test_needs_double_sized_array(self):
        assert NaiveBlockMatVec(3).array_size == 5
        assert NaiveBlockMatVec(5).array_size == 9

    def test_requires_external_additions(self, rng):
        matrix = rng.uniform(size=(6, 9))
        x = rng.uniform(size=9)
        result = NaiveBlockMatVec(3).solve(matrix, x)
        assert result.external_additions == result.block_runs * 3
        assert result.block_runs == 6

    def test_utilization_well_below_dbt(self, rng):
        matrix = rng.uniform(size=(9, 9))
        x = rng.uniform(size=9)
        naive = NaiveBlockMatVec(3).solve(matrix, x)
        dbt = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert naive.utilization < 0.6 * dbt.measured_utilization

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            NaiveBlockMatVec(3).solve(rng.uniform(size=(3, 4)), rng.uniform(size=3))
        with pytest.raises(ShapeError):
            NaiveBlockMatVec(3).solve(
                rng.uniform(size=(3, 4)), rng.uniform(size=4), rng.uniform(size=2)
            )


class TestNaiveBlockMatMul:
    def test_correctness(self, rng, small_matmul_problem):
        a, b, e = small_matmul_problem
        result = NaiveBlockMatMul(3).solve(a, b, e)
        assert np.allclose(result.result, a @ b + e)

    def test_array_and_accumulation_overheads(self, rng):
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        result = NaiveBlockMatMul(3).solve(a, b)
        assert result.processing_elements == 25  # (2w-1)^2
        assert result.block_runs == 8
        assert result.external_additions == 8 * 9

    def test_utilization_far_below_one_third(self, rng):
        a = rng.uniform(size=(6, 6))
        b = rng.uniform(size=(6, 6))
        result = NaiveBlockMatMul(3).solve(a, b)
        assert result.utilization < 0.15

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            NaiveBlockMatMul(2).solve(rng.uniform(size=(2, 3)), rng.uniform(size=(2, 3)))
        with pytest.raises(ShapeError):
            NaiveBlockMatMul(2).solve(
                rng.uniform(size=(2, 3)),
                rng.uniform(size=(3, 2)),
                rng.uniform(size=(3, 3)),
            )


class TestPRT:
    def test_prt_solves_single_block(self, rng):
        matrix = rng.uniform(size=(3, 3))
        x = rng.uniform(size=3)
        b = rng.uniform(size=3)
        solution = PRTMatVec(3).solve(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)
        assert solution.measured_steps == 2 * 3 * 1 + 2 * 3 - 3

    def test_prt_uses_half_the_cells_of_the_naive_strategy(self):
        assert PRTMatVec(4).array_size == 4
        assert NaiveBlockMatVec(4).array_size == 7

    def test_prt_transform_equals_dbt_special_case(self, rng):
        """T4: PRT is DBT-by-rows with n_bar = m_bar = 1."""
        matrix = rng.uniform(size=(4, 4))
        prt = PRTTransform(matrix, 4)
        dbt = DBTByRowsTransform(matrix, 4)
        assert np.allclose(prt.band.to_dense(), dbt.band.to_dense())
        assert prt.assignments == tuple(dbt.assignments)

    def test_prt_rejects_multi_block_problems(self, rng):
        with pytest.raises(ShapeError):
            PRTTransform(rng.uniform(size=(5, 3)), 3)
        with pytest.raises(ShapeError):
            PRTMatVec(3).solve(rng.uniform(size=(3, 5)), rng.uniform(size=5))

    def test_prt_pads_smaller_blocks(self, rng):
        matrix = rng.uniform(size=(2, 3))
        x = rng.uniform(size=3)
        solution = PRTMatVec(3).solve(matrix, x)
        assert np.allclose(solution.y, matrix @ x)


class TestBlockPartitioned:
    def test_correctness(self, rng, small_matvec_problem):
        matrix, x, b = small_matvec_problem
        result = BlockPartitionedMatVec(3).solve(matrix, x, b)
        assert np.allclose(result.result, matrix @ x + b)

    def test_uses_small_array_but_host_additions(self, rng):
        matrix = rng.uniform(size=(6, 9))
        x = rng.uniform(size=9)
        result = BlockPartitionedMatVec(3).solve(matrix, x)
        assert result.processing_elements == 3
        assert result.external_additions > 0
        assert result.block_runs == 6

    def test_dbt_beats_block_partitioning(self, rng):
        """Chaining plus feedback is what lifts utilization to the paper's 1/2."""
        matrix = rng.uniform(size=(12, 12))
        x = rng.uniform(size=12)
        partitioned = BlockPartitionedMatVec(3).solve(matrix, x)
        dbt = MatVecPlan(*matrix.shape, 3).execute(matrix, x)
        assert dbt.measured_utilization > 1.2 * partitioned.utilization
        assert partitioned.external_additions > 0
        assert dbt.feedback_delays  # DBT keeps the accumulation inside the array

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            BlockPartitionedMatVec(2).solve(rng.uniform(size=(2, 3)), rng.uniform(size=2))
        with pytest.raises(ShapeError):
            BlockPartitionedMatVec(2).solve(
                rng.uniform(size=(2, 3)), rng.uniform(size=3), rng.uniform(size=3)
            )


NEGATIVE_NAN = np.copysign(np.nan, -1.0)


def _spoiled(rng, shape):
    """Normal values with NaNs of random sign on a random 30% of them."""
    values = rng.normal(size=shape)
    hit = rng.random(shape) < 0.3
    signs = np.where(rng.random(shape) < 0.5, np.nan, NEGATIVE_NAN)
    values[hit] = signs[hit]
    return values


def _baseline_case(kind: str, w: int, t: int):
    """Seeded operands of one baseline kind: sizes in 1..8 (1..w for prt,
    which takes one block), NaNs of random sign on a random 30% of every
    operand, and no addend on even ``t``."""
    rng = np.random.default_rng(1000 * w + t)
    top = w if kind == "prt" else 8
    n, p, m = (int(size) for size in rng.integers(1, top + 1, size=3))
    if kind == "naive_matmul":
        shapes = ((n, p), (p, m), (n, m))
    else:
        shapes = ((n, m), (m,), (n,))
    operands = tuple(_spoiled(rng, shape) for shape in shapes)
    return operands[:2] if t % 2 == 0 else operands


def _solve_both(kind: str, w: int, operands):
    with np.errstate(invalid="ignore"):
        return tuple(
            Solver(ArraySpec(w), ExecutionOptions(backend=backend))
            .solve(kind, *operands)
            .values
            for backend in ("simulate", "vectorized")
        )


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestBaselineNaNCollisions:
    """The baselines' vectorized kernels keep the simulator's NaN where two
    NaNs meet (:func:`repro.systolic.cell.mac`), bit for bit."""

    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_naive_matvec_probe(self, w):
        rng = np.random.default_rng(w)
        a = rng.standard_normal((7, 7))
        a[:, 1], a[:, 5] = np.nan, NEGATIVE_NAN
        x = rng.standard_normal(7)
        x[0] = x[1] = NEGATIVE_NAN
        x[5] = np.nan
        simulated, vectorized = _solve_both("naive_matvec", w, (a, x))
        assert np.isnan(simulated).all()
        _assert_same_bits(vectorized, simulated)

    @pytest.mark.parametrize(
        "kind",
        ["naive_matvec", "naive_matmul", "block_partitioned", "sparse", "prt"],
    )
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_seeded_search_matches_simulator(self, kind, w):
        for t in range(12):
            operands = _baseline_case(kind, w, t)
            simulated, vectorized = _solve_both(kind, w, operands)
            _assert_same_bits(vectorized, simulated)
