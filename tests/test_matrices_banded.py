"""Unit tests for ``repro.matrices.banded``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BandwidthError, ShapeError
from repro.matrices.banded import BandMatrix


def make_band_dense(rows, cols, lower, upper, rng):
    """Random dense matrix with entries only inside the requested band."""
    dense = rng.uniform(-1.0, 1.0, size=(rows, cols))
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    mask = (j - i >= -lower) & (j - i <= upper)
    return dense * mask


class TestConstruction:
    def test_basic_geometry(self):
        band = BandMatrix(5, 7, lower=1, upper=2)
        assert band.shape == (5, 7)
        assert band.bandwidth == 4
        assert list(band.offsets()) == [-1, 0, 1, 2]

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ShapeError):
            BandMatrix(0, 3, 0, 0)
        with pytest.raises(BandwidthError):
            BandMatrix(3, 3, -1, 0)

    def test_storage_holds_the_diagonals_lowest_offset_first(self):
        storage = np.arange(1.0, 13.0)  # 3 + 4 + 3 + 2 positions
        band = BandMatrix(4, 4, lower=1, upper=2, storage=storage)
        assert np.array_equal(band.diagonal(-1), [1.0, 2.0, 3.0])
        assert np.array_equal(band.diagonal(2), [11.0, 12.0])
        band.set(0, 0, -5.0)  # a view, not a copy
        assert storage[3] == -5.0
        with pytest.raises(ShapeError, match="12 float64 values"):
            BandMatrix(4, 4, lower=1, upper=2, storage=np.zeros(11))

    def test_from_dense_roundtrip(self, rng):
        dense = make_band_dense(6, 6, 1, 2, rng)
        band = BandMatrix.from_dense(dense, lower=1, upper=2)
        assert np.allclose(band.to_dense(), dense)

    def test_from_dense_rejects_out_of_band(self, rng):
        dense = make_band_dense(5, 5, 0, 1, rng)
        dense[4, 0] = 3.0
        with pytest.raises(BandwidthError):
            BandMatrix.from_dense(dense, lower=0, upper=1)

    def test_from_dense_without_check_drops_outside(self, rng):
        dense = rng.uniform(1.0, 2.0, size=(4, 4))
        band = BandMatrix.from_dense(dense, lower=0, upper=0, check=False)
        recovered = band.to_dense()
        assert np.allclose(np.diag(recovered), np.diag(dense))
        assert recovered[1, 0] == 0.0

    def test_upper_and_lower_band_constructors(self, rng):
        dense = np.triu(rng.uniform(-1, 1, (5, 5)))
        dense = dense * (np.arange(5)[None, :] - np.arange(5)[:, None] <= 2)
        upper = BandMatrix.upper_band_from_dense(dense, bandwidth=3)
        assert upper.lower == 0 and upper.upper == 2
        lower = BandMatrix.lower_band_from_dense(dense.T, bandwidth=3)
        assert lower.lower == 2 and lower.upper == 0

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(BandwidthError):
            BandMatrix.upper_band_from_dense(np.eye(3), bandwidth=0)


class TestElementAccess:
    def test_get_set_in_band(self):
        band = BandMatrix(4, 4, lower=1, upper=1)
        band.set(2, 3, 5.0)
        assert band.get(2, 3) == 5.0

    def test_get_outside_band_is_zero(self):
        band = BandMatrix(4, 4, lower=0, upper=1)
        assert band.get(3, 0) == 0.0

    def test_set_outside_band_raises(self):
        band = BandMatrix(4, 4, lower=0, upper=1)
        with pytest.raises(BandwidthError):
            band.set(3, 0, 1.0)

    def test_out_of_shape_raises(self):
        band = BandMatrix(3, 3, lower=1, upper=1)
        with pytest.raises(ShapeError):
            band.get(3, 0)
        with pytest.raises(ShapeError):
            band.set(0, 5, 1.0)

    def test_in_band_predicate(self):
        band = BandMatrix(4, 6, lower=1, upper=2)
        assert band.in_band(2, 1)
        assert band.in_band(2, 4)
        assert not band.in_band(2, 0)
        assert not band.in_band(0, 3)
        assert not band.in_band(-1, 0)

    def test_diagonal_get_and_set(self, rng):
        band = BandMatrix(5, 5, lower=1, upper=1)
        values = rng.uniform(size=4)
        band.set_diagonal(-1, values)
        assert np.array_equal(band.diagonal(-1), values)
        with pytest.raises(BandwidthError):
            band.diagonal(3)
        with pytest.raises(ShapeError):
            band.set_diagonal(0, np.ones(3))

    def test_band_positions_count(self):
        band = BandMatrix(4, 4, lower=1, upper=1)
        # diag 4 + sub 3 + super 3
        assert band.band_positions() == 10
        assert band.band_mask().sum() == 10


class TestConversionsAndOps:
    def test_transpose_swaps_bands(self, rng):
        dense = make_band_dense(5, 7, 1, 2, rng)
        band = BandMatrix.from_dense(dense, lower=1, upper=2)
        transposed = band.transpose()
        assert transposed.shape == (7, 5)
        assert transposed.lower == 2 and transposed.upper == 1
        assert np.allclose(transposed.to_dense(), dense.T)

    def test_copy_and_equality(self, rng):
        dense = make_band_dense(5, 5, 1, 1, rng)
        band = BandMatrix.from_dense(dense, lower=1, upper=1)
        clone = band.copy()
        assert clone == band
        clone.set(0, 0, 99.0)
        assert clone != band
        assert band != "not a band"  # NotImplemented path falls back to False

    def test_matvec_matches_dense(self, rng):
        dense = make_band_dense(6, 8, 2, 1, rng)
        band = BandMatrix.from_dense(dense, lower=2, upper=1)
        x = rng.uniform(-1, 1, 8)
        b = rng.uniform(-1, 1, 6)
        assert np.allclose(band.matvec(x), dense @ x)
        assert np.allclose(band.matvec(x, b), dense @ x + b)

    def test_matvec_validates_shapes(self, rng):
        band = BandMatrix.from_dense(np.eye(4), lower=0, upper=0)
        with pytest.raises(ShapeError):
            band.matvec(np.ones(5))
        with pytest.raises(ShapeError):
            band.matvec(np.ones(4), np.ones(3))

    def test_matmul_matches_dense_and_band_grows(self, rng):
        a_dense = make_band_dense(6, 6, 0, 2, rng)
        b_dense = make_band_dense(6, 6, 2, 0, rng)
        a = BandMatrix.from_dense(a_dense, lower=0, upper=2)
        b = BandMatrix.from_dense(b_dense, lower=2, upper=0)
        c = a.matmul(b)
        assert np.allclose(c.to_dense(), a_dense @ b_dense)
        assert c.lower == 2 and c.upper == 2

    def test_matmul_validates_operands(self):
        a = BandMatrix.from_dense(np.eye(3), 0, 0)
        b = BandMatrix.from_dense(np.eye(4), 0, 0)
        with pytest.raises(ShapeError):
            a.matmul(b)
        with pytest.raises(ShapeError):
            a.matmul(np.eye(3))
