"""Typed NN problems: the inference stages as graph nodes.

Five kinds, mirroring the stations of a quantized accelerator datapath:

* :class:`Dense` — ``y = W (x - x_zero_point)`` on the linear systolic
  array (the matvec engine with the zero-point subtraction as an input
  prologue; int32 accumulation under ``dtype_mode="int8"``),
* :class:`Bias` — ``y = x + b`` (host epilogue),
* :class:`Relu` — ``y = max(x, 0)`` (host epilogue),
* :class:`Quantize` / :class:`Dequantize` — the affine int8 casts between
  the float and integer domains.

All five register through
:func:`repro.graph.problems.register_problem_type`, so they compose into
:class:`~repro.graph.graph.Graph` pipelines, carry
``(kind, shapes, w, options)`` plan keys, and serve through
:class:`~repro.service.SolverService` exactly like the classic kinds.
Scales and zero points are execution *values* (not key material): one
plan per shape serves every calibration.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from ..api.config import ExecutionOptions
from ..graph.problems import Problem, ShapeOf, _operand, register_problem_type
from .quantization import QuantParams

__all__ = ["Bias", "Dense", "Dequantize", "Quantize", "Relu"]


@register_problem_type
class Dense(Problem):
    """``y = W (x - x_zero_point)`` on the ``w``-cell linear array.

    The zero-point subtraction is the datapath's input station (the
    ``sub_zp`` stage of TPU-style designs), applied before the MACs so an
    affine-quantized activation vector feeds the array directly.  Under
    ``dtype_mode="int8"`` operands must be integer arrays and the
    accumulator is int32; under the default float64 mode this is a plain
    shifted matvec.
    """

    kind = "dense"
    produces = "vector"
    slots = ("matrix", "x", "x_zero_point")
    option_keywords = ("dtype_mode",)

    def __init__(
        self,
        matrix: Any,
        x: Any,
        *,
        x_zero_point: int = 0,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(options=options, name=name, **overrides)
        self.matrix = _operand(matrix)
        self.x = _operand(x)
        self.x_zero_point = int(x_zero_point)

    def operand_values(self) -> Tuple[Any, ...]:
        return (self.matrix, self.x)

    def execute_kwargs(self) -> Dict[str, Any]:
        return {"x_zero_point": self.x_zero_point}

    def spec_and_output(self, shape_of: ShapeOf):
        n, m = self._matrix_shape(shape_of, self.matrix, "matrix")
        self._vector_length(shape_of, self.x, "x", m)
        return (n, m), (n,)


class _ElementwiseProblem(Problem):
    """Shared slot/shape logic of the vector-in, vector-out stages."""

    produces = "vector"
    slots = ("x",)
    option_keywords = ("dtype_mode",)

    def __init__(
        self,
        x: Any,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(options=options, name=name, **overrides)
        self.x = _operand(x)

    def operand_values(self) -> Tuple[Any, ...]:
        return (self.x,)

    def spec_and_output(self, shape_of: ShapeOf):
        shape = shape_of(self.x, "x")
        if len(shape) != 1:
            from ..errors import ShapeError

            raise ShapeError(
                f"{self.kind} operand 'x' must be a vector, got shape {shape}"
            )
        return shape, shape


@register_problem_type
class Bias(_ElementwiseProblem):
    """``y = x + b`` — the accumulator's bias-add station."""

    kind = "bias"
    slots = ("x", "b")

    def __init__(
        self,
        x: Any,
        b: Any,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(x, options=options, name=name, **overrides)
        self.b = _operand(b)

    def operand_values(self) -> Tuple[Any, ...]:
        return (self.x, self.b)

    def spec_and_output(self, shape_of: ShapeOf):
        spec, output = super().spec_and_output(shape_of)
        self._vector_length(shape_of, self.b, "b", spec[0])
        return spec, output


@register_problem_type
class Relu(_ElementwiseProblem):
    """``y = max(x, 0)`` — saturating-at-zero activation."""

    kind = "relu"


def _unpack_params(
    scale: Union[QuantParams, float], zero_point: Optional[int]
) -> Tuple[float, int]:
    """Accept either ``(QuantParams,)`` or explicit ``(scale, zero_point)``."""
    if isinstance(scale, QuantParams):
        if zero_point is not None:
            raise TypeError(
                "pass either a QuantParams or explicit scale/zero_point, "
                "not both"
            )
        return scale.scale, scale.zero_point
    return float(scale), int(zero_point if zero_point is not None else 0)


@register_problem_type
class Quantize(_ElementwiseProblem):
    """Float to int8: ``q = clip(round(x / scale) + zero_point, -128, 127)``."""

    kind = "quantize"
    slots = ("x", "scale", "zero_point")
    option_keywords = ()

    def __init__(
        self,
        x: Any,
        scale: Union[QuantParams, float],
        zero_point: Optional[int] = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        super().__init__(x, options=options, name=name)
        self.scale, self.zero_point = _unpack_params(scale, zero_point)

    def execute_kwargs(self) -> Dict[str, Any]:
        return {"scale": self.scale, "zero_point": self.zero_point}


@register_problem_type
class Dequantize(_ElementwiseProblem):
    """Integer codes to float: ``v = scale * (q - zero_point)``.

    Accepts int8 activation codes and int32 dense accumulators alike —
    the latter is the datapath's requantization multiply (``scale`` then
    being the product of the weight and input scales).
    """

    kind = "dequantize"
    slots = ("x", "scale", "zero_point")
    option_keywords = ()

    def __init__(
        self,
        x: Any,
        scale: Union[QuantParams, float],
        zero_point: Optional[int] = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        super().__init__(x, options=options, name=name)
        self.scale, self.zero_point = _unpack_params(scale, zero_point)

    def execute_kwargs(self) -> Dict[str, Any]:
        return {"scale": self.scale, "zero_point": self.zero_point}
