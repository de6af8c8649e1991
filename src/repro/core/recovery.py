"""Partial-result placement, spiral feedback planning and result recovery.

The appendix of the paper describes the input band ``I`` and output band
``O`` of the hexagonal array: both are bands of width ``2w - 1`` split into
``w x w`` square blocks, each further split into upper (``U``), diagonal
(``D``) and lower (``L``) triangular pieces (Fig. 6).  The input band is
assembled from the addend ``E`` and from fed-back output blocks; the result
blocks of ``C`` are read from specific output blocks.

Instead of transcribing the appendix index formulas (whose scan is partly
unreadable), this module *derives* the same information from the operand
provenance maps built by :class:`~repro.core.operands.MatMulOperands`:

* every in-band position of the product band accumulates partial sums of
  exactly one element of ``C`` (``alpha`` = row origin of the band row,
  ``gamma`` = column origin of the band column);
* grouping positions by that target element and ordering each group by the
  cycle at which its token enters the array yields the accumulation chain
  the spiral feedback realizes: the first position receives the ``E``
  element, every later position receives the value the previous one
  carried out of the array, and the last position carries the finished
  result.

The derived plan is what the paper's spiral feedback computes.  The
simulate backend runs it; the vectorized sweep plans the same chains in
closed form (:func:`~repro.backends.vectorized.hex_fold_geometry`), and
:func:`fold_geometry_from_chains` reads that geometry off a placement
position by position, as the reference the closed form is tested
against.  The module also classifies the measured feedback delays into
the *regular* ones (bounded by a constant that depends only on ``w``)
and the *irregular* ones (growing with the problem size), which per
Section 3 only occur for the first and last original block rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.vectorized import HexFoldGeometry
from ..errors import PlanError, RecoveryError
from ..matrices.banded import BandMatrix
from ..systolic.feedback import ExternalSource
from ..systolic.hex_array import CTokenPlan, HexFeedbackSource, HexagonalArray
from ..systolic.metrics import regular_delay_threshold
from .operands import MatMulOperands

__all__ = [
    "AccumulationChain",
    "PartialResultMap",
    "FeedbackClassification",
    "classify_feedback_delays",
    "fold_geometry_from_chains",
]


@dataclass
class AccumulationChain:
    """The ordered band positions accumulating one element of ``C``.

    ``positions`` is ordered by array entry cycle; the first position
    receives the ``E`` element of the target, every subsequent position is
    fed back from its predecessor, and the value carried by the last
    position when it leaves the array is the finished ``C`` element.
    """

    target: Tuple[int, int]
    positions: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def final_position(self) -> Tuple[int, int]:
        return self.positions[-1]

    @property
    def length(self) -> int:
        return len(self.positions)


class PartialResultMap:
    """Placement of every partial result of ``C = A~ * B~`` in the band.

    Built from the operand provenance; provides the
    :class:`~repro.systolic.hex_array.CTokenPlan` for the hexagonal array
    and the recovery map from the output band to the dense result.
    """

    def __init__(self, operands: MatMulOperands, array: Optional[HexagonalArray] = None):
        self._operands = operands
        self._array = array if array is not None else HexagonalArray(operands.w, operands.w)
        self._chains = self._build_chains()

    # -- construction -------------------------------------------------------------
    def _build_chains(self) -> Dict[Tuple[int, int], AccumulationChain]:
        operands = self._operands
        w = operands.w
        a_band = operands.a_operand.band
        b_band = operands.b_operand.band
        row_origin = operands.a_operand.row_origin
        col_origin = operands.b_operand.col_origin
        tail_start = operands.full_block_count * w

        groups: Dict[Tuple[int, int], List[Tuple[int, Tuple[int, int]]]] = {}
        c_lower = a_band.lower + b_band.lower
        c_upper = a_band.upper + b_band.upper
        dimension = operands.dimension
        for i in range(dimension):
            alpha = int(row_origin[i])
            j_lo = max(0, i - c_lower)
            j_hi = min(dimension - 1, i + c_upper)
            for j in range(j_lo, j_hi + 1):
                if i >= tail_start and j >= tail_start:
                    # The tail corner recomputes products already produced by
                    # the first band block; its output is discarded.
                    continue
                gamma = int(col_origin[j])
                entry, _exit = self._array.c_token_window(a_band, b_band, i, j)
                groups.setdefault((alpha, gamma), []).append((entry, (i, j)))

        chains: Dict[Tuple[int, int], AccumulationChain] = {}
        for target, entries in groups.items():
            entries.sort()
            chains[target] = AccumulationChain(
                target=target, positions=[position for _entry, position in entries]
            )
        return chains

    # -- accessors -----------------------------------------------------------------
    @property
    def operands(self) -> MatMulOperands:
        return self._operands

    @property
    def chains(self) -> Dict[Tuple[int, int], AccumulationChain]:
        return dict(self._chains)

    def chain(self, alpha: int, gamma: int) -> AccumulationChain:
        key = (alpha, gamma)
        if key not in self._chains:
            raise RecoveryError(f"no accumulation chain for C element {key}")
        return self._chains[key]

    def chain_lengths(self) -> Dict[int, int]:
        """Histogram of chain lengths (how many partials feed one element)."""
        histogram: Dict[int, int] = {}
        for chain in self._chains.values():
            histogram[chain.length] = histogram.get(chain.length, 0) + 1
        return histogram

    # -- plan and recovery ------------------------------------------------------------
    def build_token_plan(self, e: Optional[np.ndarray] = None) -> CTokenPlan:
        """The C-token plan realizing in-array accumulation of ``C = A B + E``.

        ``e`` is the dense addend (shape ``n x m``), or ``None`` for zero.
        """
        n, _p = self._operands.a_shape
        _p2, m = self._operands.b_shape
        if e is None:
            e_dense = np.zeros((n, m), dtype=float)
        else:
            e_dense = np.asarray(e, dtype=float)
            if e_dense.shape != (n, m):
                raise RecoveryError(
                    f"addend E must have shape {(n, m)}, got {e_dense.shape}"
                )
        plan = CTokenPlan()
        for (alpha, gamma), chain in self._chains.items():
            first = chain.positions[0]
            value = (
                float(e_dense[alpha, gamma])
                if alpha < n and gamma < m
                else 0.0
            )
            if value != 0.0:
                plan.sources[first] = ExternalSource(value=value, tag=("e", alpha, gamma))
            previous = first
            for position in chain.positions[1:]:
                plan.sources[position] = HexFeedbackSource(
                    source_row=previous[0],
                    source_col=previous[1],
                    tag=("c", alpha, gamma),
                )
                previous = position
        return plan

    def recover_c(self, c_band: BandMatrix) -> np.ndarray:
        """Read the finished ``C`` (original shape) out of the output band."""
        n, _p = self._operands.a_shape
        _p2, m = self._operands.b_shape
        padded_rows = self._operands.n_bar * self._operands.w
        padded_cols = self._operands.m_bar * self._operands.w
        out = np.zeros((padded_rows, padded_cols), dtype=float)
        for (alpha, gamma), chain in self._chains.items():
            i, j = chain.final_position
            out[alpha, gamma] = c_band.get(i, j)
        return out[:n, :m].copy()

    def final_positions(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Map from ``C`` element to the band position carrying its final value."""
        return {target: chain.final_position for target, chain in self._chains.items()}

    def feedback_targets(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Map from feedback destination band positions to their ``C`` element."""
        targets: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for target, chain in self._chains.items():
            for position in chain.positions[1:]:
                targets[position] = target
        return targets


def fold_geometry_from_chains(
    operands: MatMulOperands, chains: Dict[Tuple[int, int], AccumulationChain]
) -> HexFoldGeometry:
    """The fold geometry of ``chains`` (:attr:`PartialResultMap.chains`).

    The per-position reference of
    :func:`~repro.backends.vectorized.hex_fold_geometry`: the chains keep
    their entry order, and each start is read off the ``A~`` provenance
    of the chain's first product, which must carry an element of ``A``
    (:class:`~repro.errors.PlanError` otherwise).
    """
    a_band = operands.a_operand.band
    b_band = operands.b_operand.band
    provenance = operands.a_operand.provenance
    starts = []
    for chain in chains.values():
        first = next(
            (
                (i, k)
                for i, j in chain.positions
                for k in range(
                    max(0, i - a_band.lower, j - b_band.upper),
                    min(operands.dimension, i + a_band.upper + 1, j + b_band.lower + 1),
                )
            ),
            None,
        )
        origin = provenance.get(first)
        if origin is None:
            raise PlanError(f"band position {first} of A~ carries no element")
        starts.append(origin[1])
    (n, p), (_p, m) = operands.a_shape, operands.b_shape
    return HexFoldGeometry(
        shape=(n, p, m),
        w=operands.w,
        targets=np.array(list(chains), dtype=np.intp).reshape(-1, 2),
        lengths=np.array([chain.length for chain in chains.values()], dtype=np.intp),
        positions=np.array(
            [position for chain in chains.values() for position in chain.positions],
            dtype=np.intp,
        ).reshape(-1, 2),
        starts=np.array(starts, dtype=np.intp),
    )


@dataclass(frozen=True)
class FeedbackClassification:
    """Measured spiral feedback delays split into regular and irregular ones.

    ``regular_threshold`` is the largest delay that can be served by the
    constant-size register file (a function of ``w`` only); everything
    above it is an irregular delay in the sense of Section 3.
    """

    regular_threshold: int
    regular_delays: Dict[int, int]
    irregular: List[Tuple[Tuple[int, int], int]]

    @property
    def regular_count(self) -> int:
        return sum(self.regular_delays.values())

    @property
    def irregular_count(self) -> int:
        return len(self.irregular)

    @property
    def max_regular_delay(self) -> int:
        return max(self.regular_delays) if self.regular_delays else 0

    @property
    def max_irregular_delay(self) -> int:
        return max((delay for _pos, delay in self.irregular), default=0)


def classify_feedback_delays(
    delays: Dict[Tuple[int, int], int],
    targets: Dict[Tuple[int, int], Tuple[int, int]],
    w: int,
) -> FeedbackClassification:
    """Split measured feedback delays into regular and irregular ones.

    ``delays`` maps destination band positions to measured delays (from
    :class:`~repro.systolic.hex_array.HexRunResult`); ``targets`` maps the
    same positions to the ``C`` element they accumulate.  A delay is
    *regular* when it is at most
    :func:`~repro.systolic.metrics.regular_delay_threshold` (``3w``) and
    *irregular* otherwise.  The
    irregular entries keep the target element so that callers can confirm
    they all belong to the first or last original block row, as the paper
    states.
    """
    regular_threshold = regular_delay_threshold(w)
    regular: Dict[int, int] = {}
    irregular: List[Tuple[Tuple[int, int], int]] = []
    for position, delay in delays.items():
        if delay <= regular_threshold:
            regular[delay] = regular.get(delay, 0) + 1
        else:
            irregular.append((targets.get(position, position), delay))
    irregular.sort(key=lambda item: -item[1])
    return FeedbackClassification(
        regular_threshold=regular_threshold,
        regular_delays=regular,
        irregular=irregular,
    )
