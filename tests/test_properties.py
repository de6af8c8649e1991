"""Property-based tests (hypothesis) of the core invariants.

These tests exercise the transformations and simulators over randomly drawn
problem shapes and contents, checking the invariants the paper's
construction relies on:

* DBT band completeness and uniqueness of element placement,
* exact functional equivalence of the simulated pipelines with the dense
  reference for arbitrary shapes and values,
* the closed-form step counts for every shape, and
* structural properties of the band matrix type itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.analytic import matvec_steps
from repro.core.dbt import DBTByRowsTransform
from repro.core.operands import MatMulOperands
from repro.core.plans import MatMulPlan, MatVecPlan
from repro.matrices.banded import BandMatrix
from repro.matrices.blocks import split_udl, triangular_split
from repro.matrices.padding import block_count, pad_matrix

# Keep the deadline generous: every example runs a cycle-accurate simulation.
SIM_SETTINGS = settings(max_examples=25, deadline=None)
FAST_SETTINGS = settings(max_examples=100, deadline=None)


dimension = st.integers(min_value=1, max_value=12)
array_size = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


@st.composite
def matvec_instances(draw):
    n = draw(dimension)
    m = draw(dimension)
    w = draw(array_size)
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-10.0, 10.0, size=(n, m))
    x = rng.uniform(-10.0, 10.0, size=m)
    b = rng.uniform(-10.0, 10.0, size=n)
    return matrix, x, b, w


@st.composite
def matmul_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    w = draw(st.integers(min_value=1, max_value=3))
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, size=(n, p))
    b = rng.uniform(-5.0, 5.0, size=(p, m))
    e = rng.uniform(-5.0, 5.0, size=(n, m))
    return a, b, e, w


class TestTriangularSplitProperties:
    @FAST_SETTINGS
    @given(seed=seeds, size=st.integers(min_value=1, max_value=8))
    def test_split_partitions_block(self, seed, size):
        block = np.random.default_rng(seed).uniform(-1, 1, size=(size, size))
        upper, lower = triangular_split(block)
        assert np.array_equal(upper + lower, block)
        assert np.array_equal(upper, np.triu(upper))
        assert np.array_equal(lower, np.tril(lower, k=-1))

    @FAST_SETTINGS
    @given(seed=seeds, size=st.integers(min_value=1, max_value=8))
    def test_udl_partitions_block(self, seed, size):
        block = np.random.default_rng(seed).uniform(-1, 1, size=(size, size))
        u, d, l = split_udl(block)
        assert np.array_equal(u + d + l, block)


class TestBandMatrixProperties:
    @FAST_SETTINGS
    @given(
        seed=seeds,
        rows=st.integers(min_value=1, max_value=10),
        cols=st.integers(min_value=1, max_value=10),
        lower=st.integers(min_value=0, max_value=4),
        upper=st.integers(min_value=0, max_value=4),
    )
    def test_dense_roundtrip(self, seed, rows, cols, lower, upper):
        rng = np.random.default_rng(seed)
        dense = rng.uniform(-1, 1, size=(rows, cols))
        i = np.arange(rows)[:, None]
        j = np.arange(cols)[None, :]
        dense = dense * ((j - i >= -lower) & (j - i <= upper))
        band = BandMatrix.from_dense(dense, lower=lower, upper=upper)
        assert np.allclose(band.to_dense(), dense)
        assert np.allclose(band.transpose().to_dense(), dense.T)

    @SIM_SETTINGS
    @given(
        seed=seeds,
        size=st.integers(min_value=1, max_value=8),
        lower=st.integers(min_value=0, max_value=3),
        upper=st.integers(min_value=0, max_value=3),
    )
    def test_matvec_matches_dense(self, seed, size, lower, upper):
        rng = np.random.default_rng(seed)
        dense = rng.uniform(-1, 1, size=(size, size))
        i = np.arange(size)[:, None]
        j = np.arange(size)[None, :]
        dense = dense * ((j - i >= -lower) & (j - i <= upper))
        band = BandMatrix.from_dense(dense, lower=lower, upper=upper)
        x = rng.uniform(-1, 1, size=size)
        assert np.allclose(band.matvec(x), dense @ x)


class TestDBTStructuralProperties:
    @FAST_SETTINGS
    @given(
        seed=seeds,
        n=dimension,
        m=dimension,
        w=array_size,
    )
    def test_band_full_and_unique(self, seed, n, m, w):
        matrix = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
        transform = DBTByRowsTransform(matrix, w)
        transform.verify_conditions()
        filled, total = transform.band_fill_report()
        assert filled == total
        origins = list(transform.provenance().values())
        assert len(origins) == len(set(origins))
        padded = pad_matrix(matrix, w)
        assert len(origins) == padded.size

    @FAST_SETTINGS
    @given(seed=seeds, n=dimension, m=dimension, w=array_size)
    def test_band_dimensions_follow_block_counts(self, seed, n, m, w):
        matrix = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
        transform = DBTByRowsTransform(matrix, w)
        n_bar, m_bar = block_count(n, w), block_count(m, w)
        assert transform.band_rows == n_bar * m_bar * w
        assert transform.band_cols == transform.band_rows + w - 1
        assert transform.transform_x(np.zeros(m)).shape == (transform.band_cols,)


class TestPipelineProperties:
    @SIM_SETTINGS
    @given(instance=matvec_instances())
    def test_matvec_pipeline_equals_reference(self, instance):
        matrix, x, b, w = instance
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
        assert np.allclose(solution.y, matrix @ x + b)

    @SIM_SETTINGS
    @given(instance=matvec_instances())
    def test_matvec_steps_equal_closed_form(self, instance):
        matrix, x, _b, w = instance
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x)
        n_bar = block_count(matrix.shape[0], w)
        m_bar = block_count(matrix.shape[1], w)
        assert solution.measured_steps == matvec_steps(n_bar, m_bar, w)

    @SIM_SETTINGS
    @given(instance=matvec_instances())
    def test_matvec_feedback_delays_equal_w(self, instance):
        matrix, x, b, w = instance
        solution = MatVecPlan(*matrix.shape, w).execute(matrix, x, b)
        assert all(delay == w for delay in solution.feedback_delays)

    @settings(max_examples=15, deadline=None)
    @given(instance=matmul_instances())
    def test_matmul_pipeline_equals_reference(self, instance):
        a, b, e, w = instance
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b, e)
        assert np.allclose(solution.c, a @ b + e)

    @settings(max_examples=15, deadline=None)
    @given(instance=matmul_instances())
    def test_matmul_steps_equal_closed_form(self, instance):
        a, b, _e, w = instance
        solution = MatMulPlan(*a.shape, b.shape[1], w).execute(a, b)
        assert solution.measured_steps == solution.predicted_steps


class TestOperandProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        n=st.integers(min_value=1, max_value=5),
        p=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=5),
        w=st.integers(min_value=1, max_value=3),
    )
    def test_product_coverage_holds_for_all_shapes(self, seed, n, p, m, w):
        rng = np.random.default_rng(seed)
        operands = MatMulOperands(
            rng.uniform(size=(n, p)), rng.uniform(size=(p, m)), w
        )
        covered, duplicated = operands.verify_product_coverage()
        assert covered == block_count(n, w) * block_count(p, w) * block_count(m, w) * w ** 3
        assert duplicated <= max(0, (w - 1)) ** 3
        assert operands.inner_origins_consistent()
