"""Registry handlers wiring the NN kinds into the solver façade.

Imported for its side effects by :mod:`repro.api.problems` (and by
:mod:`repro.nn` itself): each handler registers under its kind, making
``solver.solve("dense", W, x)``, typed :class:`~repro.nn.problems.Dense`
nodes, graph compilation, and service routing all work through the same
machinery as the classic kinds — including did-you-mean suggestions and
``registered_kinds()``, which pick the five kinds up for free.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..api.config import ArraySpec, ExecutionOptions
from ..api.registry import ProblemHandler, _pair_shape, register
from ..api.solution import Solution
from ..errors import ShapeError
from .engine import DensePlan, ElementwisePlan

__all__ = ["NN_KINDS"]

NN_KINDS = ("dense", "bias", "relu", "quantize", "dequantize")


def _matrix_shape(value, name: str) -> Tuple[int, int]:
    # np.shape, not the api reader's as_matrix: that converts to float64,
    # a copy of every int8 weight matrix at the door.
    shape = tuple(int(d) for d in np.shape(value))
    if len(shape) != 2:
        raise ShapeError(f"{name} must be a matrix, got shape {shape}")
    return shape


def _vector_shape(shape, kind: str) -> Tuple[int]:
    if shape is None:
        raise ShapeError(f"{kind} needs shape=n (or an operand vector)")
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    shape = tuple(int(d) for d in shape)
    if len(shape) != 1:
        raise ShapeError(f"{kind} needs shape=(n,), got {shape}")
    return shape


class DenseHandler(ProblemHandler):
    """``y = W (x - x_zero_point)`` on the linear array (int8 or float64)."""

    kind = "dense"

    def shapes(self, *, operands=None, shape=None) -> Tuple[int, int]:
        if operands is not None:
            return _matrix_shape(operands[0], "matrix")
        return _pair_shape(shape, self.kind)

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        n, m = shapes
        return DensePlan(
            n, m, spec.w,
            record_trace=options.record_trace,
            backend=options.backend,
            dtype_mode=options.dtype_mode,
        )

    def execute(self, plan, matrix, x, x_zero_point: int = 0) -> Solution:
        solution = plan.executor.execute(matrix, x, x_zero_point=x_zero_point)
        solution.kind = self.kind
        solution.stats = {"dtype_mode": plan.executor.dtype_mode}
        return solution


class _ElementwiseHandler(ProblemHandler):
    """Shared adapter for the host-epilogue kinds (zero array steps)."""

    def shapes(self, *, operands=None, shape=None) -> Tuple[int]:
        if operands is not None:
            vec_shape = tuple(int(d) for d in np.shape(operands[0]))
            if len(vec_shape) != 1:
                raise ShapeError(
                    f"{self.kind} operand must be a vector, got shape "
                    f"{vec_shape}"
                )
            return vec_shape
        return _vector_shape(shape, self.kind)

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return ElementwisePlan(
            self.kind, shapes[0], spec.w,
            backend=options.backend,
            dtype_mode=options.dtype_mode,
        )

    def _wrap(self, plan, values: np.ndarray) -> Solution:
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=values,
            measured_steps=0,
            stats={
                "elements": int(np.shape(values)[0]),
                "dtype_mode": plan.executor.dtype_mode,
            },
            raw=values,
        )


class BiasHandler(_ElementwiseHandler):
    """``y = x + b`` host epilogue."""

    kind = "bias"

    def execute(self, plan, x, b) -> Solution:
        return self._wrap(plan, plan.executor.bias(x, b))


class ReluHandler(_ElementwiseHandler):
    """``y = max(x, 0)`` host epilogue."""

    kind = "relu"

    def execute(self, plan, x) -> Solution:
        return self._wrap(plan, plan.executor.relu(x))


class QuantizeHandler(_ElementwiseHandler):
    """Float to saturating int8 codes."""

    kind = "quantize"

    def execute(self, plan, x, scale: float, zero_point: int = 0) -> Solution:
        return self._wrap(plan, plan.executor.quantize(x, scale, zero_point))


class DequantizeHandler(_ElementwiseHandler):
    """Integer codes back to float64."""

    kind = "dequantize"

    def execute(self, plan, x, scale: float, zero_point: int = 0) -> Solution:
        return self._wrap(plan, plan.executor.dequantize(x, scale, zero_point))


for _handler_class in (
    DenseHandler,
    BiasHandler,
    ReluHandler,
    QuantizeHandler,
    DequantizeHandler,
):
    register(_handler_class())
