"""Band matrix storage and reference kernels.

Kung's systolic arrays operate on *band* matrices: the linear contraflow
array multiplies a band matrix by a vector, and the hexagonal array
multiplies two band matrices.  The DBT transformations of the paper turn a
dense matrix into a band matrix whose bandwidth equals the array size, so a
first-class band matrix type is the natural interchange format between the
transformation code (:mod:`repro.core`) and the simulator
(:mod:`repro.systolic`).

:class:`BandMatrix` stores one 1-D array per diagonal (diagonal-major
storage), which is exactly the order in which the systolic arrays consume
the data: each diagonal of the band feeds one input channel of the array.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import BandwidthError, ShapeError

__all__ = ["BandMatrix"]


class BandMatrix:
    """A rectangular matrix with entries restricted to a diagonal band.

    Parameters
    ----------
    rows, cols:
        Matrix dimensions.
    lower:
        Number of sub-diagonals in the band (entries with ``i - j`` in
        ``1..lower``).
    upper:
        Number of super-diagonals in the band (entries with ``j - i`` in
        ``1..upper``).

    storage:
        Optional flat float array holding the diagonals back to back,
        lowest offset first (:meth:`band_positions` values).  The band is
        then a view of it, not a copy; by default it is zero-filled.

    The main diagonal is always part of the band, so the bandwidth is
    ``lower + upper + 1``.  An upper-band matrix of bandwidth ``w`` (the
    shape produced by DBT-by-rows) has ``lower == 0`` and
    ``upper == w - 1``.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        lower: int,
        upper: int,
        storage: Optional[np.ndarray] = None,
    ):
        if rows < 1 or cols < 1:
            raise ShapeError(f"band matrix dimensions must be >= 1, got ({rows}, {cols})")
        if lower < 0 or upper < 0:
            raise BandwidthError(
                f"lower/upper band counts must be >= 0, got ({lower}, {upper})"
            )
        self._rows = int(rows)
        self._cols = int(cols)
        self._lower = int(lower)
        self._upper = int(upper)
        spans = []
        end = 0
        for offset in range(-self._lower, self._upper + 1):
            length = self.diagonal_length(offset)
            if length > 0:
                spans.append((offset, end, end + length))
                end += length
        #: Each diagonal's ``(offset, start, stop)`` in the flat storage.
        self._spans: Tuple[Tuple[int, int, int], ...] = tuple(spans)
        self._view(np.zeros(end, dtype=float) if storage is None else storage)

    def _view(self, storage: np.ndarray) -> None:
        """Point the diagonals at ``storage``, checked against the spans."""
        size = self._spans[-1][2] if self._spans else 0
        if storage.dtype != np.float64 or storage.shape != (size,):
            raise ShapeError(
                f"band storage must be {size} float64 values, got "
                f"{storage.dtype} of shape {storage.shape}"
            )
        self._diagonals: Dict[int, np.ndarray] = {
            offset: storage[start:stop] for offset, start, stop in self._spans
        }

    def with_storage(self, storage: np.ndarray) -> "BandMatrix":
        """A band of this one's geometry viewing ``storage`` (no copy).

        The diagonal spans are this band's, so nothing is recomputed: an
        engine that fills one flat storage per run builds the geometry
        once and views each run's values through it.
        """
        band = copy.copy(self)
        band._view(storage)
        return band

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        lower: int,
        upper: int,
        *,
        check: bool = True,
    ) -> "BandMatrix":
        """Build a band matrix from a dense array.

        When ``check`` is true (the default) any nonzero entry outside the
        declared band raises :class:`~repro.errors.BandwidthError`; with
        ``check=False`` out-of-band entries are silently dropped, which is
        occasionally useful for extracting a band from a dense operand.
        """
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2:
            raise ShapeError(f"from_dense expects a 2-D array, got ndim={dense.ndim}")
        rows, cols = dense.shape
        band = cls(rows, cols, lower, upper)
        if check:
            mask = band.band_mask()
            outside = dense.copy()
            outside[mask] = 0.0
            if np.any(outside != 0.0):
                bad = np.argwhere(outside != 0.0)[0]
                raise BandwidthError(
                    f"entry ({bad[0]}, {bad[1]}) is nonzero but outside the "
                    f"declared band (lower={lower}, upper={upper})"
                )
        for offset in band.offsets():
            band._diagonals[offset][:] = np.diagonal(dense, offset=offset)
        return band

    @classmethod
    def upper_band_from_dense(cls, dense: np.ndarray, bandwidth: int) -> "BandMatrix":
        """Upper-band matrix (main diagonal plus ``bandwidth - 1`` super-diagonals)."""
        if bandwidth < 1:
            raise BandwidthError(f"bandwidth must be >= 1, got {bandwidth}")
        return cls.from_dense(dense, lower=0, upper=bandwidth - 1)

    @classmethod
    def lower_band_from_dense(cls, dense: np.ndarray, bandwidth: int) -> "BandMatrix":
        """Lower-band matrix (main diagonal plus ``bandwidth - 1`` sub-diagonals)."""
        if bandwidth < 1:
            raise BandwidthError(f"bandwidth must be >= 1, got {bandwidth}")
        return cls.from_dense(dense, lower=bandwidth - 1, upper=0)

    # -- geometry ------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._rows, self._cols)

    @property
    def lower(self) -> int:
        """Number of sub-diagonals."""
        return self._lower

    @property
    def upper(self) -> int:
        """Number of super-diagonals."""
        return self._upper

    @property
    def bandwidth(self) -> int:
        """Total band width: ``lower + upper + 1``."""
        return self._lower + self._upper + 1

    def offsets(self) -> Iterator[int]:
        """Diagonal offsets present in the band, from lowest to highest."""
        return iter(sorted(self._diagonals))

    def diagonal_length(self, offset: int) -> int:
        """Number of matrix entries on the diagonal with offset ``j - i``."""
        if offset >= 0:
            return max(0, min(self._rows, self._cols - offset))
        return max(0, min(self._cols, self._rows + offset))

    def in_band(self, i: int, j: int) -> bool:
        """Whether position ``(i, j)`` lies inside the band."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            return False
        return -self._lower <= j - i <= self._upper

    def band_mask(self) -> np.ndarray:
        """Boolean mask of in-band positions, shape ``(rows, cols)``."""
        i = np.arange(self._rows)[:, None]
        j = np.arange(self._cols)[None, :]
        offset = j - i
        return (offset >= -self._lower) & (offset <= self._upper)

    def band_positions(self) -> int:
        """Number of storage positions inside the band."""
        return int(sum(len(d) for d in self._diagonals.values()))

    # -- element access --------------------------------------------------------
    def _locate(self, i: int, j: int) -> Tuple[int, int]:
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise ShapeError(
                f"index ({i}, {j}) out of range for shape {self.shape}"
            )
        offset = j - i
        if not (-self._lower <= offset <= self._upper):
            raise BandwidthError(
                f"position ({i}, {j}) lies outside the band "
                f"(lower={self._lower}, upper={self._upper})"
            )
        # Index along the diagonal: for offset >= 0 the diagonal starts at
        # row 0, for offset < 0 it starts at column 0.
        along = i if offset >= 0 else j
        return offset, along

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)``; zero if outside the band but inside the shape."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise ShapeError(
                f"index ({i}, {j}) out of range for shape {self.shape}"
            )
        if not self.in_band(i, j):
            return 0.0
        offset, along = self._locate(i, j)
        return float(self._diagonals[offset][along])

    def set(self, i: int, j: int, value: float) -> None:
        """Assign ``value`` at ``(i, j)``; raises if the position is out of band."""
        offset, along = self._locate(i, j)
        self._diagonals[offset][along] = float(value)

    def diagonal(self, offset: int) -> np.ndarray:
        """The diagonal with offset ``j - i`` as a copy."""
        if offset not in self._diagonals:
            raise BandwidthError(
                f"diagonal offset {offset} is outside the band "
                f"(lower={self._lower}, upper={self._upper})"
            )
        return self._diagonals[offset].copy()

    def set_diagonal(self, offset: int, values: np.ndarray) -> None:
        """Assign a full diagonal at once."""
        if offset not in self._diagonals:
            raise BandwidthError(
                f"diagonal offset {offset} is outside the band "
                f"(lower={self._lower}, upper={self._upper})"
            )
        values = np.asarray(values, dtype=float)
        expected = self.diagonal_length(offset)
        if values.shape != (expected,):
            raise ShapeError(
                f"diagonal {offset} expects {expected} values, got shape {values.shape}"
            )
        self._diagonals[offset][:] = values

    # -- conversions -----------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Expand to a dense :class:`numpy.ndarray`."""
        out = np.zeros(self.shape, dtype=float)
        for offset, values in self._diagonals.items():
            if offset >= 0:
                rows = np.arange(len(values))
                cols = rows + offset
            else:
                cols = np.arange(len(values))
                rows = cols - offset
            out[rows, cols] = values
        return out

    def transpose(self) -> "BandMatrix":
        """Transposed band matrix (lower and upper swap)."""
        transposed = BandMatrix(self._cols, self._rows, self._upper, self._lower)
        for offset, values in self._diagonals.items():
            transposed._diagonals[-offset][:] = values
        return transposed

    def copy(self) -> "BandMatrix":
        out = BandMatrix(self._rows, self._cols, self._lower, self._upper)
        for offset, values in self._diagonals.items():
            out._diagonals[offset][:] = values
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._lower == other._lower
            and self._upper == other._upper
            and all(
                np.array_equal(self._diagonals[o], other._diagonals[o])
                for o in self._diagonals
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandMatrix(shape={self.shape}, lower={self._lower}, "
            f"upper={self._upper})"
        )

    # -- reference kernels -------------------------------------------------------
    def matvec(self, x: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
        """Reference band matrix-vector product ``y = A x (+ b)``.

        This is the mathematical operation the linear systolic array
        computes; it is used as the functional oracle against which the
        cycle-accurate simulation is checked.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self._cols,):
            raise ShapeError(
                f"matvec expects a vector of length {self._cols}, got {x.shape}"
            )
        y = np.zeros(self._rows, dtype=float)
        for offset, values in self._diagonals.items():
            if offset >= 0:
                rows = np.arange(len(values))
                cols = rows + offset
            else:
                cols = np.arange(len(values))
                rows = cols - offset
            np.add.at(y, rows, values * x[cols])
        if b is not None:
            b = np.asarray(b, dtype=float)
            if b.shape != (self._rows,):
                raise ShapeError(
                    f"matvec expects b of length {self._rows}, got {b.shape}"
                )
            y = y + b
        return y

    def matmul(self, other: "BandMatrix") -> "BandMatrix":
        """Reference band matrix-matrix product.

        The product of a band matrix with ``lower1/upper1`` diagonals by one
        with ``lower2/upper2`` diagonals is itself a band matrix with at most
        ``lower1 + lower2`` sub-diagonals and ``upper1 + upper2``
        super-diagonals; the hexagonal array relies on exactly this fact.
        """
        if not isinstance(other, BandMatrix):
            raise ShapeError("matmul expects another BandMatrix")
        if self._cols != other._rows:
            raise ShapeError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        dense = self.to_dense() @ other.to_dense()
        lower = min(self._lower + other._lower, self._rows - 1)
        upper = min(self._upper + other._upper, other._cols - 1)
        return BandMatrix.from_dense(dense, lower=lower, upper=upper, check=True)
