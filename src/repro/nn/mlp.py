"""MLP builders: whole forward passes as compiled pipeline graphs.

:class:`MLP` is the pure-float reference network (dense layers with bias
and ReLU between them).  :meth:`MLP.quantized` calibrates it into a
:class:`QuantizedMLP` whose :meth:`~QuantizedMLP.graph` emits the full
quantized datapath as ONE typed-problem :class:`~repro.graph.graph.Graph`::

    x_q = Quantize(x)                                   # once, at entry
    per layer:  Dense(int8/int32) -> Dequantize -> Bias [-> Relu -> Quantize]

so a 3-layer forward pass compiles to a single plan-cached
:class:`~repro.graph.program.PipelineProgram` — warm re-executions build
zero plans — and serves through ``SolverService.solve_graph`` unchanged.

Weights are quantized *symmetrically* (zero_point 0), which keeps the
int32 accumulator an exact scaled dot product and makes
:meth:`QuantizedMLP.error_bounds` a rigorous elementwise bound rather
than a heuristic: all error enters through operand rounding, propagated
layer by layer (Bias adds exactly, ReLU is 1-Lipschitz, a requantization
step adds at most one scale step plus doubles the incoming error for
values inside the calibrated range).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from ..graph.graph import Graph
from .problems import Bias, Dense, Dequantize, Quantize, Relu
from .quantization import QuantParams

__all__ = ["MLP", "QuantizedMLP"]

#: Pipeline name of the final (logits) stage in every graph built here.
OUTPUT_NAME = "logits"


class MLP:
    """Float reference network: ``h_{i+1} = relu(W_i h_i + b_i)``, last layer linear."""

    def __init__(self, layers: Sequence[Tuple[np.ndarray, np.ndarray]]):
        if not layers:
            raise ShapeError("MLP needs at least one (weights, bias) layer")
        normalized: List[Tuple[np.ndarray, np.ndarray]] = []
        previous: Optional[int] = None
        for index, (weights, bias) in enumerate(layers):
            weights = np.asarray(weights, dtype=float)
            bias = np.asarray(bias, dtype=float)
            if weights.ndim != 2:
                raise ShapeError(
                    f"layer {index} weights must be a matrix, "
                    f"got shape {weights.shape}"
                )
            if bias.shape != (weights.shape[0],):
                raise ShapeError(
                    f"layer {index} bias must have length {weights.shape[0]}, "
                    f"got shape {bias.shape}"
                )
            if previous is not None and weights.shape[1] != previous:
                raise ShapeError(
                    f"layer {index} expects inputs of length {weights.shape[1]} "
                    f"but layer {index - 1} produces {previous}"
                )
            previous = weights.shape[0]
            normalized.append((weights, bias))
        self.layers: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(normalized)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_size(self) -> int:
        return self.layers[0][0].shape[1]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_size,):
            raise ShapeError(
                f"MLP expects an input of length {self.input_size}, "
                f"got shape {x.shape}"
            )
        return x

    def forward_trace(
        self, x: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """``(pre_activations, activations)`` per layer, pure numpy.

        The last layer's activation is its pre-activation (no ReLU on the
        output layer); both lists have one entry per layer.
        """
        h = self._check_input(x)
        pre: List[np.ndarray] = []
        post: List[np.ndarray] = []
        last = self.n_layers - 1
        for index, (weights, bias) in enumerate(self.layers):
            y = weights @ h + bias
            pre.append(y)
            h = y if index == last else np.maximum(y, 0.0)
            post.append(h)
        return pre, post

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The float logits for one input vector."""
        _pre, post = self.forward_trace(x)
        return post[-1]

    def graph(self, x: np.ndarray) -> Graph:
        """The float64 forward pass as one typed-problem pipeline graph.

        Stage names: ``dense_i`` / ``bias_i`` / ``relu_i`` per hidden
        layer, with the final bias stage named ``"logits"``.
        """
        h = self._check_input(x)
        node = None
        last = self.n_layers - 1
        for index, (weights, bias) in enumerate(self.layers):
            source = h if node is None else node
            dense = Dense(weights, source, name=f"dense_{index}")
            bias_name = OUTPUT_NAME if index == last else f"bias_{index}"
            node = Bias(dense, bias, name=bias_name)
            if index != last:
                node = Relu(node, name=f"relu_{index}")
        return Graph(node)

    def quantized(
        self, calibration: Sequence[np.ndarray]
    ) -> "QuantizedMLP":
        """Calibrate an int8 deployment of this network.

        ``calibration`` is a set of representative input vectors; input
        and hidden-activation ranges are taken from the float forward
        passes over it.  The error bounds of the result are rigorous for
        inputs whose activations stay inside these calibrated ranges.
        """
        return QuantizedMLP.from_calibration(self, calibration)


class QuantizedMLP:
    """An int8 deployment of an :class:`MLP`: codes, scales, and graphs."""

    def __init__(
        self,
        mlp: MLP,
        input_params: QuantParams,
        weight_params: Sequence[QuantParams],
        activation_params: Sequence[QuantParams],
    ):
        if len(weight_params) != mlp.n_layers:
            raise ShapeError(
                f"need one weight QuantParams per layer "
                f"({mlp.n_layers}), got {len(weight_params)}"
            )
        if len(activation_params) != mlp.n_layers - 1:
            raise ShapeError(
                f"need one activation QuantParams per hidden layer "
                f"({mlp.n_layers - 1}), got {len(activation_params)}"
            )
        for index, params in enumerate(weight_params):
            if params.zero_point != 0:
                raise ValueError(
                    f"weight quantization must be symmetric "
                    f"(zero_point 0), layer {index} has "
                    f"{params.zero_point}"
                )
        self.mlp = mlp
        self.input_params = input_params
        self.weight_params = tuple(weight_params)
        self.activation_params = tuple(activation_params)
        self.weight_codes: Tuple[np.ndarray, ...] = tuple(
            params.quantize(weights)
            for params, (weights, _bias) in zip(weight_params, mlp.layers)
        )

    @classmethod
    def from_calibration(
        cls, mlp: MLP, calibration: Sequence[np.ndarray]
    ) -> "QuantizedMLP":
        inputs = [mlp._check_input(x) for x in calibration]
        if not inputs:
            raise ShapeError("calibration needs at least one input vector")
        stacked = np.stack(inputs)
        input_params = QuantParams.from_range(stacked.min(), stacked.max())
        weight_params = [
            QuantParams.symmetric(np.abs(weights).max())
            for weights, _bias in mlp.layers
        ]
        activations: List[List[np.ndarray]] = [
            [] for _ in range(mlp.n_layers - 1)
        ]
        for x in inputs:
            _pre, post = mlp.forward_trace(x)
            for index in range(mlp.n_layers - 1):
                activations[index].append(post[index])
        activation_params = [
            QuantParams.from_range(
                np.stack(values).min(), np.stack(values).max()
            )
            for values in activations
        ]
        return cls(mlp, input_params, weight_params, activation_params)

    # -- the compiled datapath ---------------------------------------------------
    def graph(self, x: np.ndarray) -> Graph:
        """The whole int8 forward pass as one pipeline graph.

        Stage names per layer ``i``: ``dense_i`` (int32 accumulator),
        ``dequant_i``, ``bias_i`` (the last layer's is ``"logits"``),
        ``relu_i``, ``quant_i``; plus the entry stage ``x_q``.  A
        3-layer network is a 14-node graph that compiles to one
        :class:`~repro.graph.program.PipelineProgram`: 14 stages on
        ``simulate``, 4 on ``vectorized``, where each layer's chain
        fuses into one stage named after its last node.
        """
        x = self.mlp._check_input(x)
        node = Quantize(x, self.input_params, name="x_q")
        params = self.input_params
        last = self.mlp.n_layers - 1
        for index, (weights, bias) in enumerate(self.mlp.layers):
            accumulator = Dense(
                self.weight_codes[index],
                node,
                x_zero_point=params.zero_point,
                dtype_mode="int8",
                name=f"dense_{index}",
            )
            recovered = Dequantize(
                accumulator,
                self.weight_params[index].scale * params.scale,
                0,
                name=f"dequant_{index}",
            )
            bias_name = OUTPUT_NAME if index == last else f"bias_{index}"
            node = Bias(recovered, bias, name=bias_name)
            if index != last:
                node = Relu(node, name=f"relu_{index}")
                params = self.activation_params[index]
                node = Quantize(node, params, name=f"quant_{index}")
        return Graph(node)

    # -- analysis ------------------------------------------------------------------
    def error_bounds(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Elementwise |quantized - float| bounds per float-domain stage.

        Derivation (all elementwise, per layer ``i`` with true input
        activation ``h`` carrying accumulated bound ``e``):

        * the int32 accumulator dequantizes *exactly* to
          ``W~ @ h~`` with ``W~`` the dequantized weights and ``h~`` the
          dequantized activation codes (symmetric weights, so no
          zero-point cross terms), hence
          ``|W h - W~ h~| <= |W - W~| (|h| + e) + |W| e``;
        * Bias adds the same float vector on both sides (exact);
        * ReLU is 1-Lipschitz (bound unchanged);
        * requantization maps a value within ``e`` of ``h`` to within
          ``2 e + scale`` of ``h``, for ``h`` inside the calibrated range
          (one half step of rounding, at most half a step of boundary
          clipping, plus the incoming displacement counted twice).

        Keys: ``dequant_i``, ``bias_i`` / ``logits``, ``relu_i``,
        ``quant_i`` — the ``quant_i`` bound applies to the *dequantized*
        codes of that stage.  Rigorous when the input's activations stay
        inside the calibrated ranges (e.g. the input was calibrated on).
        """
        x = self.mlp._check_input(x)
        _pre, post = self.mlp.forward_trace(x)
        bounds: Dict[str, np.ndarray] = {}
        error = self.input_params.round_trip_error(x)
        h = x
        last = self.mlp.n_layers - 1
        for index, (weights, _bias) in enumerate(self.mlp.layers):
            dequantized = self.weight_params[index].dequantize(
                self.weight_codes[index]
            )
            delta = np.abs(weights - dequantized)
            error = delta @ (np.abs(h) + error) + np.abs(weights) @ error
            bounds[f"dequant_{index}"] = error
            name = OUTPUT_NAME if index == last else f"bias_{index}"
            bounds[name] = error
            if index != last:
                bounds[f"relu_{index}"] = error
                error = 2.0 * error + self.activation_params[index].scale
                bounds[f"quant_{index}"] = error
                h = post[index]
        return bounds

    def float_outputs(self, result) -> Dict[str, np.ndarray]:
        """Float-domain values of the bounded stages one pipeline run kept.

        Maps a :class:`~repro.graph.program.PipelineResult` of
        :meth:`graph` to arrays directly comparable against
        :meth:`error_bounds` (the ``quant_i`` codes are dequantized with
        their own parameters; stages already in the float domain pass
        through).

        Every layer's last stage — ``quant_i``, and ``logits`` — is always
        present.  ``dequant_i``, ``bias_i`` and ``relu_i`` are present when
        the graph ran stage by stage (``backend="simulate"``); on the
        ``vectorized`` backend they are fused into their layer's last
        stage, leave no values of their own, and are omitted.
        """
        kept = set(result.names)
        outputs: Dict[str, np.ndarray] = {}
        last = self.mlp.n_layers - 1
        for index in range(self.mlp.n_layers):
            name = OUTPUT_NAME if index == last else f"bias_{index}"
            for stage in (f"dequant_{index}", name, f"relu_{index}"):
                if stage in kept or stage == OUTPUT_NAME:
                    outputs[stage] = result[stage].values
            if index != last:
                outputs[f"quant_{index}"] = self.activation_params[
                    index
                ].dequantize(result[f"quant_{index}"].values)
        return outputs
