"""Execution engines for the NN kinds, layered on the core plans.

:class:`DensePlan` wraps a :class:`~repro.core.plans.MatVecPlan`: the
band geometry, schedules and structural metrics are exactly the matvec
plan's, with the zero-point subtraction applied to the activation vector
before it enters the array.  Under ``dtype_mode="int8"`` the simulate
backend runs the cycle-accurate float engine on the integer operands —
every intermediate is an exact integer far below 2^53, so casting the
result to int32 loses nothing — while the vectorized backend runs the
dedicated :meth:`~repro.backends.vectorized.LinearSweepPlan.int_sweep`
int32-accumulate replay.  Exact integer arithmetic on both sides is what
keeps the cross-backend bit-identity contract for the quantized kinds.

:class:`ElementwisePlan` covers the host epilogue stations (bias, relu,
quantize, dequantize): O(n) casts and adds that a real accelerator fuses
into the output path; they execute identically on every backend and
report zero array steps.  Under the vectorized backend the graph
compiler additionally collapses whole head→epilogue chains into single
``fused`` stages (:mod:`repro.graph.fusion`) built from these same plans.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..backends.registry import SIMULATE, resolve_backend
from ..core.matvec import MatVecSolution
from ..core.plans import MatVecPlan
from ..errors import ShapeError
from .quantization import INT8_MAX, INT8_MIN

__all__ = ["DensePlan", "ElementwisePlan"]


def _require_integer(name: str, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(
            f"dtype_mode='int8' needs integer operands; {name} has dtype "
            f"{values.dtype} (quantize it first)"
        )
    return values


class DensePlan:
    """Shape-keyed plan for ``y = W (x - x_zero_point)``.

    Immutable once built; the zero point is an execution value, so one
    plan serves every calibration of the same layer shape.
    """

    supports_pairing = False

    def __init__(
        self,
        n: int,
        m: int,
        w: int,
        record_trace: bool = False,
        backend: str = SIMULATE,
        dtype_mode: str = "float64",
    ):
        if dtype_mode not in ("float64", "int8"):
            raise ValueError(
                f"dtype_mode must be 'float64' or 'int8', got {dtype_mode!r}"
            )
        self._inner = MatVecPlan(
            n, m, w, record_trace=record_trace, backend=backend
        )
        self._n = int(n)
        self._m = int(m)
        self._w = self._inner.w
        self._dtype_mode = dtype_mode

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        return self._inner.backend

    @property
    def dtype_mode(self) -> str:
        return self._dtype_mode

    @property
    def model(self):
        return self._inner.model

    def execute(
        self, matrix: np.ndarray, x: np.ndarray, x_zero_point: int = 0
    ) -> MatVecSolution:
        zero_point = int(x_zero_point)
        if self._dtype_mode == "int8":
            matrix = _require_integer("matrix", matrix)
            x = _require_integer("x", x)
            if matrix.shape != (self._n, self._m):
                raise ShapeError(
                    f"plan was built for shape {(self._n, self._m)}, "
                    f"got matrix of shape {matrix.shape}"
                )
            if x.shape != (self._m,):
                raise ShapeError(
                    f"x has length {np.shape(x)} but the matrix has "
                    f"{self._m} columns"
                )
            x_shifted = x.astype(np.int32) - np.int32(zero_point)
            sweep = self._inner.sweep_plan
            if sweep is not None:
                return self._inner.wrap_sweep(
                    *sweep.int_sweep(matrix, x_shifted, None)
                )
            solution = self._inner.execute(
                matrix.astype(float), x_shifted.astype(float), None
            )
            # Exact: int8-range products summed over m stay integers below
            # 2^53, so the float simulation is already the int32
            # accumulator's value.
            solution.values = solution.values.astype(np.int32)
            return solution
        matrix = np.asarray(matrix, dtype=float)
        x_shifted = np.asarray(x, dtype=float) - float(zero_point)
        return self._inner.execute(matrix, x_shifted, None)


class ElementwisePlan:
    """Host-epilogue plan for bias / relu / quantize / dequantize.

    Value streaming only — there is no band geometry to precompute — but
    the plan still pins the vector length and backend so the plan key
    discriminates shapes exactly like the array kinds.
    """

    supports_pairing = False

    def __init__(
        self,
        kind: str,
        n: int,
        w: int,
        backend: str = SIMULATE,
        dtype_mode: str = "float64",
    ):
        if n < 1:
            raise ShapeError(f"{kind} plan needs a positive length, got {n}")
        self._kind = kind
        self._n = int(n)
        self._w = int(w)
        self._backend = resolve_backend(backend)
        self._dtype_mode = dtype_mode

    @property
    def shape(self) -> Tuple[int]:
        return (self._n,)

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def dtype_mode(self) -> str:
        return self._dtype_mode

    def _check_length(self, name: str, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self._n,):
            raise ShapeError(
                f"plan was built for vectors of length {self._n}, "
                f"got {name} of shape {values.shape}"
            )
        return values

    def bias(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        x = self._check_length("x", x)
        b = self._check_length("b", b)
        return x + b

    def relu(self, x: np.ndarray) -> np.ndarray:
        x = self._check_length("x", x)
        return np.maximum(x, np.zeros((), dtype=x.dtype))

    def quantize(
        self, x: np.ndarray, scale: float, zero_point: int = 0
    ) -> np.ndarray:
        x = self._check_length("x", x)
        codes = np.rint(np.asarray(x, dtype=float) / float(scale))
        codes = np.clip(codes + int(zero_point), INT8_MIN, INT8_MAX)
        return codes.astype(np.int8)

    def dequantize(
        self, x: np.ndarray, scale: float, zero_point: int = 0
    ) -> np.ndarray:
        x = self._check_length("x", x)
        if not np.issubdtype(x.dtype, np.integer):
            raise TypeError(
                f"dequantize expects integer codes, got dtype {x.dtype}"
            )
        return float(scale) * (
            x.astype(np.int64) - int(zero_point)
        ).astype(float)
