"""NumPy diagonal-sweep execution engines for the compiled plans.

The cycle-accurate simulators in :mod:`repro.systolic` execute one
multiply-accumulate per cell per cycle.  The order of those MACs is fixed
entirely by the *structure* of the transformed problem, never by operand
values, and every partial ``y``/``C`` value accumulates independently of
all others.  The engines here exploit that:

* **Linear array (DBT-by-rows mat-vec).**  Walking the band row chain of
  one original (padded) row ``i`` — upper triangle of pass ``s``, lower
  triangle of pass ``s``, upper triangle of pass ``s + 1``, ... — visits
  the padded columns *cyclically starting at* ``i mod w``.  So the whole
  execution is one rotated multiply of the padded operands into a
  ``b``-seeded accumulator followed by one in-place sequential prefix
  sum, whose every ``w``-th column is a band-row output (the values the
  simulator's feedback registers carry).  Because each row folds its
  terms in exactly the simulator's cell order, the results are
  bit-identical, signed zeros included.

* **Hexagonal array (DBT mat-mul).**  Every result-band position
  accumulates its products in increasing inner-index order, and the
  spiral feedback hands each accumulation-chain position the *final*
  value of its predecessor.  The DBT operands depend only on shape and
  ``w``, so which element each position accumulates, and the chain order,
  are index arithmetic on block numbers (:func:`hex_fold_geometry`).
  Followed along its chain, padded element ``(alpha, gamma)`` folds every
  padded inner index exactly once, cyclically from a start ``s < w``
  fixed by geometry — the *start map*.  So the whole execution is one
  rank-1 update of the padded accumulator per inner index, masked by the
  start map for the first ``w - 1`` indices and again for the ``w - 1``
  it wraps around to; every chain position's value is read off the
  accumulator at the step where its element has folded that position's
  terms.  Each element still adds the simulator's products in the
  simulator's order, so values are bit-identical.

Only the order in which each row or element folds is fixed; how the
operands move is free.  So each plan picks its body once, at build, by
its accumulator size against :data:`_SMALL_BODY_ELEMENTS`: a small plan
gathers or stacks its whole sweep through precomputed index tables in a
few NumPy calls, a large one streams lane by lane or step by step and
holds no table that grows with the problem.  The rows and elements whose
fold meets a NaN are redone in scalar arithmetic under the simulator's
NaN rule (:func:`~repro.systolic.cell.mac`): which of two NaN operands a
vector loop returns is not fixed.

Timing and utilization are not simulated either: the step counts, MAC
counts, feedback delays and register peaks are computed from the same
structural quantities the simulator derives them from (see
:func:`hex_structural_metrics`), so measured metrics agree exactly across
backends.  They depend on geometry alone, so they are computed once per
plan — :class:`LinearRunMetrics` and :class:`HexSweepPlan` hold them, the
:class:`~repro.systolic.metrics.FeedbackStats` digest included — and
shared by every run.  What the vectorized engines deliberately do *not*
produce are the cycle-level artifacts: the output
:class:`~repro.systolic.stream.DataStream`
is empty and no :class:`~repro.systolic.trace.DataFlowTrace` is recorded —
request ``backend="simulate"`` for those.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError
from ..matrices.banded import BandMatrix
from ..matrices.padding import block_count
from ..systolic.cell import mac
from ..systolic.hex_array import HexRunResult
from ..systolic.linear_array import LinearRunResult
from ..systolic.metrics import (
    FeedbackStats,
    UtilizationReport,
    regular_delay_threshold,
)
from ..systolic.stream import DataStream

__all__ = [
    "LinearSweepPlan",
    "HexFoldGeometry",
    "HexSweepPlan",
    "HexStructuralMetrics",
    "hex_fold_geometry",
    "hex_structural_metrics",
    "LinearRunMetrics",
    "build_banded_linear_run",
    "full_band_block_matvec",
    "full_band_block_matmul",
]


#: Largest sweep, in float64 accumulator elements (128 KiB), that a plan
#: runs on its small body: a mat-vec plan's ``(N_pad, M_pad + 1)``
#: accumulator, a mat-mul plan's ``(p_pad + w, n_pad, m_pad)`` term
#: stack.  Below it a sweep is a few whole-array NumPy calls through
#: gather tables the plan holds; above it the lane and step-major bodies
#: run, which hold no table that grows with the problem and stream a
#: large problem's products with less memory traffic.  Each plan compares
#: once, at build.
_SMALL_BODY_ELEMENTS = 1 << 14


def _linear_alpha(w: int) -> int:
    """The simulator's ``y``-injection offset for an upper band (lower=0)."""
    return max(0, w - 1)


def _padded(
    values: np.ndarray, shape: Tuple[int, ...], dtype=np.float64
) -> np.ndarray:
    """``values`` as ``dtype`` zero-padded to ``shape``; no copy when aligned.

    The sweeps only read their operands, so an aligned input (any
    layout, read-only included) is used as is.
    """
    values = np.asarray(values, dtype=dtype)
    if values.shape == shape:
        return values
    out = np.zeros(shape, dtype=values.dtype)
    out[tuple(slice(0, size) for size in values.shape)] = values
    return out


def _has_nan(values: np.ndarray) -> bool:
    """Whether a float array holds a NaN.

    Its dot product with itself is NaN exactly then: every square is NaN
    or non-negative, so no ``inf - inf`` arises, and a dot is one cheap
    call where ``np.isnan(values).any()`` is two.
    """
    flat = values.reshape(-1)
    square = flat.dot(flat)
    return bool(square != square)


def _rotated_products(a3: np.ndarray, x_pad: np.ndarray, out: np.ndarray) -> None:
    """Write row ``r``'s products, rotated left by ``r mod w``, into ``out``.

    ``a3`` and ``out`` are ``(N_bar, w, M_pad)`` views.  Rows with equal
    ``r mod w`` share a lane, so the rotation is two slice products per
    lane straight into place: no gather, no intermediate product array.
    """
    w, m_pad = a3.shape[1], a3.shape[2]
    np.multiply(a3[:, 0], x_pad, out=out[:, 0])
    for lane in range(1, w):
        split = m_pad - lane
        np.multiply(a3[:, lane, lane:], x_pad[lane:], out=out[:, lane, :split])
        np.multiply(a3[:, lane, :lane], x_pad[:lane], out=out[:, lane, split:])


def linear_total_cycles(w: int, band_rows: int, offset: int = 0) -> int:
    """Steps of one upper-band problem on the ``w``-cell linear array.

    Matches the simulator's ``last_compute_cycle - first_input_cycle + 1``:
    the last band row is injected at ``2 (rows - 1) + alpha + offset`` and
    computes through the following ``w`` cells.
    """
    return 2 * (band_rows - 1) + _linear_alpha(w) + offset + w


# --------------------------------------------------------------------------- #
# Linear array: DBT-by-rows matrix-vector sweeps
# --------------------------------------------------------------------------- #
class LinearSweepPlan:
    """Value-independent skeleton of the diagonal-sweep mat-vec execution.

    Row ``i`` of the padded problem consumes padded columns ``i mod w,
    i mod w + 1, ...`` wrapping modulo ``M_pad``, from a seed of ``b[i]``
    (or +0.0), into one row of an ``(N_pad, M_pad + 1)`` accumulator.
    The plan picks its body once, at build, by that accumulator's size:

    * up to :data:`_SMALL_BODY_ELEMENTS`, the *gather* body: the plan
      holds a flat rotation index (each row's seed slot, then its
      products in that cyclic order) and a flat band-output index, so a
      sweep is one multiply, one ``take``, the prefix sum and one
      ``take`` — few NumPy calls, which is what a small sweep costs;
    * above it, the *lane* body: rows with equal ``i mod w`` share a
      lane of the ``(N_bar, w, M_pad)`` view, so that order is ``w``
      strided slice pairs, not a gather table, and the plan holds only
      geometry — nothing that grows with the problem.

    Both bodies fold the same products in the same order.
    """

    def __init__(self, w: int, n: int, m: int, n_bar: int, m_bar: int,
                 useful_operations: int):
        self._w = int(w)
        self._n = int(n)
        self._m = int(m)
        self._n_bar = int(n_bar)
        self._m_bar = int(m_bar)
        self._n_pad = n_pad = self._n_bar * self._w
        self._m_pad = m_pad = self._m_bar * self._w
        self._band_rows = self._n_bar * self._m_bar * self._w
        self._useful = int(useful_operations)
        self._rotation: Optional[np.ndarray] = None
        self._band_index: Optional[np.ndarray] = None
        if n_pad * (m_pad + 1) <= _SMALL_BODY_ELEMENTS:
            rows = np.arange(n_pad)[:, None]
            rotation = np.empty((n_pad, m_pad + 1), dtype=np.intp)
            rotation[:, :1] = n_pad * m_pad + rows  # the seeds follow the products
            rotation[:, 1:] = rows * m_pad + (rows % w + np.arange(m_pad)) % m_pad
            self._rotation = rotation
            self._band_index = self._band_order(
                np.arange(rotation.size).reshape(rotation.shape)[:, w::w]
            )

    # -- geometry / structural metrics ----------------------------------------
    @property
    def w(self) -> int:
        return self._w

    @property
    def band_rows(self) -> int:
        """Band rows of the transformed problem (``w n_bar m_bar``)."""
        return self._band_rows

    @property
    def useful_operations(self) -> int:
        return self._useful

    @property
    def mac_operations(self) -> int:
        """Every in-band position of the completely filled band: ``rows * w``."""
        return self._band_rows * self._w

    @property
    def body(self) -> str:
        """``"gather"`` or ``"lane"``: the sweep body the plan chose at build."""
        return "lane" if self._rotation is None else "gather"

    def feedback_events(self, offset: int = 0) -> List[Tuple[int, int, int]]:
        """``(band_row, push_cycle, pop_cycle)`` for every fed-back value.

        Band block row ``k`` re-enters the chain output of block row
        ``k - 1`` whenever ``k mod m_bar != 0``; the register chain delay
        is exactly ``w`` (the paper's T3 claim).  Computed on every call:
        :class:`LinearRunMetrics` keeps the list a plan's runs share.
        """
        alpha = _linear_alpha(self._w)
        events = []
        for k in range(self._n_bar * self._m_bar):
            if k % self._m_bar == 0:
                continue
            for a in range(self._w):
                row = k * self._w + a
                pop = 2 * row + alpha + offset
                events.append((row, pop - self._w, pop))
        return events

    # -- value streaming --------------------------------------------------------
    def _band_order(self, snapshots: np.ndarray) -> np.ndarray:
        """Every row's pass snapshots ``(N_pad, m_bar)`` in the simulator's
        band-row order: block row, then pass, then lane."""
        w, n_bar, m_bar = self._w, self._n_bar, self._m_bar
        return snapshots.T.reshape(m_bar, n_bar, w).transpose(1, 0, 2).reshape(-1)

    def sweep(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one operand set through the sweep: multiply, rotate, prefix sum.

        The products land *already rotated* in columns ``1..M_pad`` of an
        accumulator whose column 0 holds ``b`` (or +0.0): gathered
        through the rotation index, or written lane by lane
        (:func:`_rotated_products`).  ``np.add.accumulate`` is a
        sequential accumulate — each output is the previous output plus
        the next input, never a pairwise tree — so one in-place prefix
        sum along the contiguous axis is the simulator's per-row fold
        ``((b + p_0) + p_1) + ...`` verbatim, and column ``(j + 1) w`` is
        exactly the pass-``j`` partial snapshot.  Rows that end NaN are
        redone under the simulator's NaN rule (:meth:`_refold_nans`).

        Returns ``(band_outputs, y_padded)``: the per-band-row outputs (one
        partial snapshot per pass, ordered exactly like the simulator's
        ``y_per_problem`` entries) and the final padded result vector.
        """
        w, n_bar, n_pad, m_pad = self._w, self._n_bar, self._n_pad, self._m_pad
        a_pad = _padded(matrix, (n_pad, m_pad))
        x_pad = _padded(x, (m_pad,))
        seeds = 0.0 if b is None else _padded(b, (n_pad,))
        rotation = self._rotation
        if rotation is not None:
            size = n_pad * m_pad
            products = np.empty(size + n_pad)
            np.multiply(a_pad, x_pad, out=products[:size].reshape(n_pad, m_pad))
            products[size:] = seeds
            acc = products.take(rotation)
            np.add.accumulate(acc, axis=1, out=acc)
            band_outputs = acc.take(self._band_index)
        else:
            acc = np.empty((n_pad, m_pad + 1))
            acc[:, 0] = seeds
            _rotated_products(
                a_pad.reshape(n_bar, w, m_pad), x_pad,
                acc.reshape(n_bar, w, m_pad + 1)[:, :, 1:],
            )
            np.add.accumulate(acc, axis=1, out=acc)
            band_outputs = self._band_order(acc[:, w::w])
        y = acc[:, -1].copy()
        if _has_nan(y):
            self._refold_nans(a_pad, x_pad, b, y, band_outputs)
        return band_outputs, y

    def _refold_nans(
        self,
        a_pad: np.ndarray,
        x_pad: np.ndarray,
        b: Optional[np.ndarray],
        y: np.ndarray,
        band_outputs: np.ndarray,
    ) -> None:
        """Redo in Python floats, as the simulator does, every row that ends NaN.

        Given two NaN operands, NumPy's loops may return either one; the
        simulator's cells follow :func:`~repro.systolic.cell.mac`'s rule.
        A NaN accumulator stays NaN, so the rows that end NaN are exactly
        those whose fold met one; each is refolded in the simulator's
        order and its ``y`` and band outputs are overwritten in place.
        """
        w, m_bar, m_pad = self._w, self._m_bar, self._m_pad
        x_row = x_pad.tolist()
        for row in np.flatnonzero(np.isnan(y)).tolist():
            value = 0.0 if b is None or row >= self._n else float(b[row])
            a_row = a_pad[row].tolist()
            lane = row % w
            first = (row - lane) * m_bar + lane  # band row of pass 0
            columns = itertools.chain(range(lane, m_pad), range(lane))
            for step, column in enumerate(columns, 1):
                value = mac(value, a_row[column], x_row[column])
                if step % w == 0:
                    band_outputs[first + (step // w - 1) * w] = value
            y[row] = value

    def int_sweep(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Integer-datapath variant of :meth:`sweep` (int32-accumulate).

        Integer addition is exactly associative, so the pass-by-pass
        accumulation doesn't need the float path's strictly sequential
        fold: every partial is a contiguous cyclic range sum recoverable
        from one elementwise product, one blocked reduction and one small
        row-wise prefix sum — the same integers the simulator's cells
        accumulate.  The products are rotated by the plan's body, as in
        :meth:`sweep`.  Operands must be integer arrays (the caller
        quantizes and zero-point-shifts); the whole datapath runs in
        int32, the accumulator width of the quantized hardware.  The caller
        guarantees operands and true accumulators fit int32 — int8-range
        operands stay exact up to ~2^16 columns.
        """
        for name, operand in (("matrix", matrix), ("x", x), ("b", b)):
            if operand is not None and not np.issubdtype(
                np.asarray(operand).dtype, np.integer
            ):
                raise TypeError(
                    f"int_sweep needs integer operands, got {name} of dtype "
                    f"{np.asarray(operand).dtype}"
                )
        w, n_bar, m_bar = self._w, self._n_bar, self._m_bar
        n_pad, m_pad = self._n_pad, self._m_pad
        # Narrow codes (int8) multiply straight into the int32 products;
        # wider integers are cast to the int32 datapath first.
        a = np.asarray(matrix)
        dtype = a.dtype if np.can_cast(a.dtype, np.int32) else np.int32
        a_pad = _padded(a, (n_pad, m_pad), dtype)
        x_pad = _padded(x, (m_pad,), np.int32)
        rotation = self._rotation
        if rotation is not None:
            # The seed slots stay unset: column 0 of the gather is dropped.
            products = np.empty(rotation.size, dtype=np.int32)
            np.multiply(a_pad, x_pad, out=products[: n_pad * m_pad].reshape(n_pad, m_pad))
            rotated = products.take(rotation)[:, 1:]
        else:
            rotated = np.empty((n_pad, m_pad), dtype=np.int32)
            _rotated_products(
                a_pad.reshape(n_bar, w, m_pad), x_pad, rotated.reshape(n_bar, w, m_pad)
            )
        # After the rotation pass j of every row is the contiguous column
        # block [j w, (j+1) w): one blocked einsum reduce plus a small
        # prefix sum reproduces every snapshot.
        pass_sums = np.einsum(
            "rjt->rj", rotated.reshape(n_pad, m_bar, w), dtype=np.int32
        )
        partials = np.cumsum(pass_sums, axis=1, dtype=np.int32)
        if b is not None:
            partials += _padded(b, (n_pad,), np.int32)[:, None]
        return self._band_order(partials), partials[:, -1].copy()


class LinearRunMetrics:
    """The value-independent fields of the run of 1 plain or 2 overlapped sweeps.

    Problem ``p`` runs at cycle offset ``p`` (the simulator's overlapped
    schedule); every metric is the structural value the simulator would
    measure, computed once — a plan builds this at plan build and
    :meth:`result` attaches each solve's band outputs.  The report, the
    feedback event list and :attr:`feedback` are shared by every result
    (treat them as read-only); the output stream is left empty and no
    trace is recorded.
    """

    def __init__(self, w: int, plans: Sequence[LinearSweepPlan]):
        self._w = int(w)
        total_cycles = 0
        mac_total = 0
        useful = 0
        output_count = 0
        events: List[Tuple[int, int, int]] = []
        for offset, plan in enumerate(plans):
            total_cycles = max(
                total_cycles, linear_total_cycles(w, plan.band_rows, offset)
            )
            mac_total += plan.mac_operations
            useful += plan.useful_operations
            output_count += plan.band_rows
            events.extend(plan.feedback_events(offset))
        if len(plans) > 1:
            # The simulator records feedback events in consumption-cycle
            # order, which interleaves overlapped problems.
            events.sort(key=lambda event: event[2])
        self._total_cycles = total_cycles
        self._events = events
        self._cell_mac_counts = [output_count] * self._w
        # Outputs enter the w-register chain every other cycle for one
        # problem (ceil(w/2) simultaneously resident) and every cycle when
        # two problems interleave.
        self._peak = min(output_count, (w + 1) // 2 if len(plans) == 1 else w)
        self._report = UtilizationReport(
            processing_elements=w,
            steps=total_cycles,
            mac_operations=mac_total,
            useful_operations=useful,
        )
        self.feedback = FeedbackStats.from_delays(
            pop - push for _row, push, pop in events
        )

    def result(self, outputs: Sequence[np.ndarray]) -> LinearRunResult:
        """The :class:`LinearRunResult` of one solve's per-problem band outputs."""
        return LinearRunResult(
            size=self._w,
            y=outputs[0] if len(outputs) == 1 else np.concatenate(outputs),
            output_stream=DataStream("y out"),
            report=self._report,
            total_cycles=self._total_cycles,
            first_input_cycle=0,
            last_output_cycle=self._total_cycles,
            y_per_problem=list(outputs),
            feedback_events=self._events,
            feedback_register_peak=self._peak,
            trace=None,
            cell_mac_counts=self._cell_mac_counts,
        )


def build_banded_linear_run(
    w: int,
    band_rows: int,
    band_outputs: np.ndarray,
    useful_operations: int,
    feedback_rows: Sequence[int],
) -> LinearRunResult:
    """A :class:`LinearRunResult` for one irregular upper-band sweep.

    Used by the block-sparse pipeline, whose band row plan is value
    dependent (it follows the sparsity pattern) but whose per-row cell
    order and feedback delay are the same as the dense transform's.
    """
    alpha = _linear_alpha(w)
    total_cycles = linear_total_cycles(w, band_rows)
    events = [
        (int(row), 2 * int(row) + alpha - w, 2 * int(row) + alpha)
        for row in feedback_rows
    ]
    report = UtilizationReport(
        processing_elements=w,
        steps=total_cycles,
        mac_operations=band_rows * w,
        useful_operations=useful_operations,
    )
    return LinearRunResult(
        size=w,
        y=np.asarray(band_outputs),
        output_stream=DataStream("y out"),
        report=report,
        total_cycles=total_cycles,
        first_input_cycle=0,
        last_output_cycle=total_cycles,
        y_per_problem=[np.asarray(band_outputs)],
        feedback_events=events,
        feedback_register_peak=min(band_rows, (w + 1) // 2),
        trace=None,
        cell_mac_counts=[band_rows] * w,
    )


# --------------------------------------------------------------------------- #
# Hexagonal array: structural metrics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class HexStructuralMetrics:
    """The timing quantities one hexagonal run measures, computed statically."""

    c_lower: int
    c_upper: int
    mac_operations: int
    c_first: int
    c_last: int
    first_input_cycle: int
    last_output_cycle: int
    compute_first: int
    compute_last: int

    @property
    def c_stream_cycles(self) -> int:
        return self.c_last - self.c_first + 1 if self.c_last >= self.c_first else 0

    @property
    def total_cycles(self) -> int:
        return self.last_output_cycle - self.first_input_cycle + 1

    @property
    def compute_cycles(self) -> int:
        return self.compute_last - self.compute_first + 1 if self.mac_operations else 0


def _diag_span(rows: int, cols: int, offset: int) -> Tuple[int, int]:
    """``(first_row, length)`` of the diagonal ``j - i = offset``."""
    if offset >= 0:
        return 0, max(0, min(rows, cols - offset))
    return -offset, max(0, min(cols, rows + offset))


def hex_structural_metrics(
    a_rows: int, a_cols: int, a_lower: int, a_upper: int,
    b_rows: int, b_cols: int, b_lower: int, b_upper: int,
) -> HexStructuralMetrics:
    """Replicate the hexagonal simulator's timing bookkeeping from geometry.

    Uses the same ``t = i + j + k`` schedule and the same boundary-crossing
    expressions as :meth:`repro.systolic.hex_array.HexagonalArray.run`,
    evaluated per band diagonal with NumPy instead of per token.
    """
    boundary: List[int] = []
    mac = 0
    compute_lo: Optional[int] = None
    compute_hi: Optional[int] = None
    for d in range(-a_lower, a_upper + 1):
        i0, length = _diag_span(a_rows, a_cols, d)
        if length == 0:
            continue
        i = np.arange(i0, i0 + length)
        k = i + d
        cyc = i + k
        boundary.append(int(cyc.min()) - b_lower)
        boundary.append(int(cyc.max()) + b_upper + 1)
        j_lo = np.maximum(0, k - b_lower)
        j_hi = np.minimum(b_cols - 1, k + b_upper)
        valid = j_lo <= j_hi
        if valid.any():
            mac += int((j_hi - j_lo + 1)[valid].sum())
            lo = int((cyc + j_lo)[valid].min())
            hi = int((cyc + j_hi)[valid].max())
            compute_lo = lo if compute_lo is None else min(compute_lo, lo)
            compute_hi = hi if compute_hi is None else max(compute_hi, hi)
    for d in range(-b_lower, b_upper + 1):
        k0, length = _diag_span(b_rows, b_cols, d)
        if length == 0:
            continue
        k = np.arange(k0, k0 + length)
        cyc = 2 * k + (k + d)
        boundary.append(int(cyc.min()) - a_upper)
        boundary.append(int(cyc.max()) + a_lower + 1)

    c_lower = min(a_lower + b_lower, a_rows - 1)
    c_upper = min(a_upper + b_upper, b_cols - 1)
    c_first: Optional[int] = None
    c_last: Optional[int] = None
    for dc in range(-c_lower, c_upper + 1):
        i0, length = _diag_span(a_rows, b_cols, dc)
        if length == 0:
            continue
        u_min = max(-a_lower, dc - b_upper)
        u_max = min(a_upper, dc + b_lower)
        if u_min > u_max:
            u_min = u_max = max(-a_lower, min(a_upper, dc))
        entry = 3 * i0 + dc + u_min
        i_last = i0 + length - 1
        exit_cycle = 3 * i_last + dc + u_max + 1
        c_first = entry if c_first is None else min(c_first, entry)
        c_last = exit_cycle if c_last is None else max(c_last, exit_cycle)
        boundary.append(entry)
        boundary.append(exit_cycle)

    first_input = min(boundary) if boundary else 0
    last_output = max(boundary) if boundary else 0
    return HexStructuralMetrics(
        c_lower=c_lower,
        c_upper=c_upper,
        mac_operations=mac,
        c_first=c_first if c_first is not None else 0,
        c_last=c_last if c_last is not None else -1,
        first_input_cycle=first_input,
        last_output_cycle=last_output,
        compute_first=compute_lo if compute_lo is not None else 0,
        compute_last=compute_hi if compute_hi is not None else -1,
    )


# --------------------------------------------------------------------------- #
# Hexagonal array: DBT matrix-matrix sweeps
# --------------------------------------------------------------------------- #
#: Largest chunk of rank-1 terms the step-major body materializes, in
#: float64 elements (256 KiB): never the whole ``(p_pad, n_pad, m_pad)``
#: product set of a plan above :data:`_SMALL_BODY_ELEMENTS`.  (The stacked
#: body writes its whole term stack, which that bound keeps at 128 KiB.)
_TERM_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class HexFoldGeometry:
    """Every accumulation chain of one DBT mat-mul ``C = A B + E``.

    ``shape`` is ``(n, p, m)`` and ``w`` the array size.  Chain ``c``
    accumulates padded element ``targets[c] = (alpha, gamma)``: its
    product-band positions ``(i, j)`` are the ``lengths[c]`` consecutive
    rows of ``positions`` from ``sum(lengths[:c])`` on, in token entry
    order, and it folds the padded inner range cyclically from inner
    index ``starts[c]``.  :func:`hex_fold_geometry` computes it in closed
    form; :func:`repro.core.recovery.fold_geometry_from_chains` reads it
    off a placement position by position.
    """

    shape: Tuple[int, int, int]
    w: int
    targets: np.ndarray
    lengths: np.ndarray
    positions: np.ndarray
    starts: np.ndarray


def _token_windows(
    i: np.ndarray, j: np.ndarray, w: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry cycle, exit cycle and first inner band index of C tokens.

    :meth:`~repro.systolic.hex_array.HexagonalArray.c_token_window` for
    product-band positions ``(i, j)`` of the DBT operands (``A~`` upper,
    ``B~`` lower, both of bandwidth ``w``): the token of ``(i, j)``
    crosses the cells ``u = k - i`` from ``max(0, j - i)`` to
    ``min(w - 1, j - i + w - 1)``, so its first product is at inner band
    index ``max(i, j)``.
    """
    lo = np.maximum(i, j)
    return i + j + lo, i + j + np.minimum(i, j) + w, lo


def hex_fold_geometry(n: int, p: int, m: int, w: int) -> HexFoldGeometry:
    """The fold geometry of ``C[n,m] = A[n,p] B[p,m]`` from the DBT index maps.

    ``A~`` is ``m_bar`` copies of the block-row band ``A^b`` (``n_bar
    p_bar`` block rows each) and ``B~`` is each strip band repeated
    ``n_bar`` times, both followed by a ``w - 1`` tail; so band row ``i``
    of ``A~`` holds padded row ``alpha`` of ``A``, band column ``j`` of
    ``B~`` padded column ``gamma`` of ``B``, and band index ``k`` pairs
    padded inner index ``k mod p_pad`` — all index arithmetic on block
    numbers.  Every product-band position with ``|i - j| < w`` outside
    the tail corner accumulates element ``(alpha(i), gamma(j))``; grouped
    by element and ordered by token entry cycle, the positions are the
    chains of :class:`~repro.core.recovery.PartialResultMap`, and a
    chain's start is the inner index of its first position's first term.
    """
    n_bar, p_bar, m_bar = (block_count(size, w) for size in (n, p, m))
    p_pad, m_pad = p_bar * w, m_bar * w
    copy = n_bar * p_pad  # band rows of one copy of A^b (and of one B strip)
    tail = m_bar * copy
    dimension = tail + w - 1
    offsets = np.arange(1 - w, w)
    i = np.repeat(np.arange(dimension), offsets.size)
    j = i + np.tile(offsets, dimension)
    # Inside the band, outside the tail corner (whose output is discarded).
    keep = (j >= 0) & (j < dimension) & ((i < tail) | (j < tail))
    i, j = i[keep], j[keep]
    alpha = (i % copy) // p_pad * w + i % w
    gamma = (j // copy) % m_bar * w + j % w
    target = alpha * m_pad + gamma
    entry, _leave, first_k = _token_windows(i, j, w)
    order = np.lexsort((entry, target))
    target = target[order]
    heads = np.flatnonzero(np.diff(target, prepend=-1))
    return HexFoldGeometry(
        shape=(int(n), int(p), int(m)),
        w=int(w),
        targets=np.stack(np.divmod(target[heads], m_pad), axis=1),
        lengths=np.diff(heads, append=target.size),
        positions=np.stack((i[order], j[order]), axis=1),
        starts=first_k[order][heads] % p_pad,
    )


class _FeedbackDelays(Mapping):
    """Position -> spiral feedback delay, made a dict on first read.

    Holds the non-head chain positions and their delays as arrays; a
    solve passes it on untouched, so only a caller that reads the map
    pays for a Python dict of every fed-back position.
    """

    def __init__(self, positions: np.ndarray, delays: np.ndarray):
        self._positions = positions
        self._delays = delays
        self._table: Optional[Dict[Tuple[int, int], int]] = None

    def _lookup(self) -> Dict[Tuple[int, int], int]:
        table = self._table
        if table is None:  # a racing reader builds an equal dict
            table = self._table = dict(
                zip(map(tuple, self._positions.tolist()), self._delays.tolist())
            )
        return table

    def __getitem__(self, position: Tuple[int, int]) -> int:
        return self._lookup()[position]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._lookup())

    def __len__(self) -> int:
        return len(self._delays)

    # The dict's own views: a walk over them runs at dict speed, not one
    # __getitem__ call per entry.
    def keys(self):
        return self._lookup().keys()

    def items(self):
        return self._lookup().items()

    def values(self):
        return self._lookup().values()


class HexSweepPlan:
    """Value-independent skeleton of the mat-mul fold.

    The accumulation chain of every padded ``C`` element folds the whole
    padded inner range once, in cyclic order from a start ``s < w`` that
    geometry fixes (the *start map*).  Executing is therefore one rank-1
    update of an ``(n_pad, m_pad)`` accumulator per inner index:
    ``k = 0 .. p_pad - 1`` adds the outer product ``A[:, k] B[k, :]``
    where ``s <= k``, then ``k = 0 .. w - 2`` adds it again where
    ``s > k`` — every element takes the simulator's products in the
    simulator's order.  A chain position's value (what ``run.c_band``
    holds) is its element's accumulator once it has folded the position's
    cumulative term count, read at that step.

    The plan picks its body once, at build, by the size of the
    ``(p_pad + w, n_pad, m_pad)`` stack of seed and terms:

    * up to :data:`_SMALL_BODY_ELEMENTS`, the *stacked* body writes every
      term into one stack, overwrites the terms the start map masks off
      with -0.0 (``x + (-0.0)`` is ``x`` bit for bit for every non-NaN
      ``x``), runs one ``np.add.accumulate`` down the stack and reads
      every chain position into the band storage with one ``take``;
    * above it, the *step-major* body adds one masked term at a time,
      a bounded chunk of terms made at once, and reads each step's
      chain positions as it goes.

    A fold that meets a NaN runs step-major and is then redone in scalar
    arithmetic (:meth:`_refold_nans`).

    Built from a :class:`HexFoldGeometry` with array arithmetic: term
    counts and feedback delays per position from the token windows, the
    start map and the step reads from the chains.  A plan's geometry comes
    from :func:`hex_fold_geometry`; no operand band or placement is built.
    """

    def __init__(self, geometry: HexFoldGeometry):
        self._w = w = geometry.w
        self._n, self._p, self._m = geometry.shape
        n_bar, p_bar, m_bar = (block_count(size, w) for size in geometry.shape)
        self._n_pad = n_bar * w
        self._p_pad = p_pad = p_bar * w
        self._m_pad = m_pad = m_bar * w
        self._useful = self._n * self._p * self._m
        self._dim = dim = n_bar * p_bar * m_bar * w + w - 1
        self._metrics = metrics = hex_structural_metrics(
            dim, dim, 0, w - 1, dim, dim, w - 1, 0
        )
        self._report = UtilizationReport(
            processing_elements=w * w,
            steps=(
                metrics.c_stream_cycles
                if metrics.c_stream_cycles
                else metrics.total_cycles
            ),
            mac_operations=metrics.mac_operations,
            useful_operations=self._useful,
        )

        # Chain positions back to back, each chain in fold order.
        targets, lengths = geometry.targets, geometry.lengths
        positions, starts = geometry.positions, geometry.starts
        heads = np.cumsum(lengths) - lengths
        chain_of = np.repeat(np.arange(len(lengths)), lengths)
        i, j = positions[:, 0], positions[:, 1]
        entry, leave, first_k = _token_windows(i, j, w)
        # Each position folds its inner band indices first_k .. last_k.
        terms = np.minimum(np.minimum(i, j) + w, dim) - first_k
        running = np.cumsum(terms)
        folded = running - np.repeat(running[heads] - terms[heads], lengths)
        totals = folded[heads + lengths - 1]
        if np.any(totals != p_pad):
            bad = int(np.flatnonzero(totals != p_pad)[0])
            raise PlanError(
                f"the chain of C element {tuple(targets[bad].tolist())} folds "
                f"{int(totals[bad])} terms, not the padded inner size {p_pad}"
            )
        if np.any(starts >= w):
            bad = int(np.flatnonzero(starts >= w)[0])
            raise PlanError(
                f"the chain of C element {tuple(targets[bad].tolist())} starts "
                f"at inner index {int(starts[bad])}, not below w = {w}"
            )
        target_flat = targets[:, 0] * m_pad + targets[:, 1]
        self._start = np.zeros(self._n_pad * m_pad, dtype=np.intp)
        self._start[target_flat] = starts
        start_map = self._start.reshape(self._n_pad, m_pad)
        started = [start_map <= k for k in range(w - 1)]
        self._masks = (
            started + [True] * (p_pad - w + 1) + [~mask for mask in started]
        )

        # Feedback delay: a position's token entry minus its predecessor's
        # exit.
        linked = np.ones(len(positions), dtype=bool)
        linked[heads] = False
        successors = np.flatnonzero(linked)
        self._delays = delays = entry[successors] - leave[successors - 1]
        self._feedback_delays = _FeedbackDelays(positions[successors], delays)
        threshold = regular_delay_threshold(w)
        regular = int(np.count_nonzero(delays <= threshold))
        # The few irregular delays (first and last block rows), labelled
        # with their C element in a simulated run's order: delay
        # descending, then token entry, then position.
        late = np.flatnonzero(delays > threshold)
        fed = successors[late]
        order = np.lexsort((j[fed], i[fed], entry[fed], -delays[late]))
        self._irregular = (targets[chain_of[fed[order]]], delays[late][order])
        self._feedback = FeedbackStats(
            count=delays.size,
            min_delay=int(delays.min()) if delays.size else None,
            max_delay=int(delays.max()) if delays.size else None,
            regular=regular,
            irregular=delays.size - regular,
        )

        # Reads: after step g (-1 = the seed, then one per inner index
        # folded) the accumulator of every position with
        # start + folded - 1 == g is copied out, in that order; the band
        # storage gathers them (the last slot is a zero for positions
        # outside every chain).
        step = starts[chain_of] + folded - 1
        order = np.argsort(step, kind="stable")
        bounds = np.searchsorted(step[order], np.arange(p_pad + w - 1))
        self._reads = np.split(target_flat[chain_of][order], bounds)
        c_lower, c_upper = metrics.c_lower, metrics.c_upper
        template = BandMatrix(dim, dim, c_lower, c_upper)
        diagonal_lengths = np.array(
            [template.diagonal_length(d) for d in range(-c_lower, c_upper + 1)],
            dtype=np.intp,
        )
        diagonal_starts = np.cumsum(diagonal_lengths) - diagonal_lengths
        band_index = diagonal_starts[j - i + c_lower] + np.minimum(i, j)
        self._band_gather = np.full(
            template.band_positions(), len(positions), dtype=np.intp
        )
        self._band_gather[band_index[order]] = np.arange(len(positions))
        # Every run's band views its storage through this geometry; the
        # plan keeps it over a zero-stride view, so it holds no values.
        self._band = template.with_storage(
            np.broadcast_to(0.0, (template.band_positions(),))
        )

        # The stacked body: plane g + 1 of the stack holds the accumulator
        # after step g, so the read of position q is element
        # (step_q + 1, target_q), and the slot after the stack is the zero.
        plane = self._n_pad * m_pad
        stack_size = (p_pad + w) * plane
        self._stack_reads: Optional[np.ndarray] = None
        self._stack_masked: Optional[np.ndarray] = None
        if stack_size <= _SMALL_BODY_ELEMENTS:
            reads = (step[order] + 1) * plane + target_flat[chain_of][order]
            self._stack_reads = np.append(reads, stack_size)[self._band_gather]
            # Terms 0 .. w - 2 count where the element has started, their
            # repeats after inner index p_pad - 1 where it had not.
            late = self._start > np.arange(w - 1)[:, None]
            self._stack_masked = np.concatenate((
                np.flatnonzero(late) + plane,
                np.flatnonzero(~late) + (p_pad + 1) * plane,
            ))

    # -- structural metrics ------------------------------------------------------
    @property
    def metrics(self) -> HexStructuralMetrics:
        return self._metrics

    @property
    def feedback_delays(self) -> Dict[Tuple[int, int], int]:
        """Spiral feedback delay of every non-head chain position."""
        return dict(self._feedback_delays)

    @property
    def feedback(self) -> FeedbackStats:
        """Digest of :attr:`feedback_delays`, regular/irregular split included."""
        return self._feedback

    def feedback_split(
        self,
    ) -> Tuple[Dict[int, int], List[Tuple[Tuple[int, int], int]]]:
        """The regular delays as a delay -> count map and the irregular
        ones as ``(C element, delay)`` pairs, as
        :func:`~repro.core.recovery.classify_feedback_delays` splits a
        simulated run's."""
        delays = self._delays
        regular = delays[delays <= regular_delay_threshold(self._w)]
        values, counts = np.unique(regular, return_counts=True)
        labels, late = self._irregular
        return (
            dict(zip(values.tolist(), counts.tolist())),
            list(zip(map(tuple, labels.tolist()), late.tolist())),
        )

    # -- value streaming ----------------------------------------------------------
    def _terms(
        self, at: np.ndarray, b_pad: np.ndarray, stop: int
    ) -> Iterator[np.ndarray]:
        """The rank-1 terms ``outer(at[k], b_pad[k])`` for ``k < stop``.

        Made a bounded chunk at a time; each yielded view is overwritten
        once the chunk after it is made.
        """
        n_pad, m_pad = self._n_pad, self._m_pad
        rows = max(1, _TERM_CHUNK // (n_pad * m_pad))
        chunk = np.empty((min(rows, stop), n_pad, m_pad))
        for k0 in range(0, stop, rows):
            k1 = min(stop, k0 + rows)
            yield from np.multiply(
                at[k0:k1, :, None], b_pad[k0:k1, None, :], out=chunk[: k1 - k0]
            )

    @property
    def body(self) -> str:
        """``"stacked"`` or ``"step-major"``: the body the plan chose at build."""
        return "step-major" if self._stack_reads is None else "stacked"

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, HexRunResult]:
        """Fold one operand set through the plan's body.

        Returns the recovered dense ``C`` (original shape) and a
        :class:`HexRunResult` whose band holds every chain position's value
        (positions outside the chains stay zero).  The result's
        ``feedback_delays`` is the plan's own mapping, shared by every run:
        treat it as read-only.
        """
        a_pad = _padded(a, (self._n_pad, self._p_pad))
        b_pad = _padded(b, (self._p_pad, self._m_pad))
        acc, storage = (
            self._stacked(a_pad, b_pad, e) or self._step_major(a_pad, b_pad, e)
        )
        c = acc[: self._n, : self._m].copy()

        metrics = self._metrics
        c_band = self._band.with_storage(storage)
        run = HexRunResult(
            w1=self._w,
            w2=self._w,
            c_band=c_band,
            report=self._report,
            total_cycles=metrics.total_cycles,
            c_stream_cycles=metrics.c_stream_cycles,
            compute_cycles=metrics.compute_cycles,
            first_input_cycle=metrics.first_input_cycle,
            last_output_cycle=metrics.last_output_cycle,
            token_entry={},
            token_exit={},
            feedback_delays=self._feedback_delays,
            cell_busy={},
        )
        return c, run

    def _seed(self, acc: np.ndarray, e: Optional[np.ndarray]) -> None:
        """Zero ``acc`` (an ``(n_pad, m_pad)`` view) and add ``E + 0.0``.

        ``+ 0.0`` normalizes -0.0 addends, which the simulator never
        injects (it skips values comparing equal to zero).
        """
        acc[...] = 0.0
        if e is not None:
            np.add(e, 0.0, out=acc[: self._n, : self._m])

    def _stacked(
        self, a_pad: np.ndarray, b_pad: np.ndarray, e: Optional[np.ndarray]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The stacked body: ``(final accumulator, band storage)``, or
        ``None`` on a plan above the bound or a fold that meets a NaN."""
        if self._stack_reads is None:
            return None
        p_pad, w = self._p_pad, self._w
        stack = np.empty((p_pad + w) * self._n_pad * self._m_pad + 1)
        stack[-1] = 0.0
        terms = stack[:-1].reshape(p_pad + w, self._n_pad, self._m_pad)
        self._seed(terms[0], e)
        np.multiply(a_pad.T[:, :, None], b_pad[:, None, :], out=terms[1 : p_pad + 1])
        terms[p_pad + 1 :] = terms[1:w]
        stack[self._stack_masked] = -0.0
        np.add.accumulate(terms, axis=0, out=terms)
        acc = terms[-1]
        if _has_nan(acc):
            return None
        return acc, stack.take(self._stack_reads)

    def _step_major(
        self, a_pad: np.ndarray, b_pad: np.ndarray, e: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The step-major body: ``(final accumulator, band storage)``."""
        p_pad, w = self._p_pad, self._w
        acc = np.empty((self._n_pad, self._m_pad))
        self._seed(acc, e)
        flat = acc.reshape(-1)
        reads = [flat[self._reads[0]]]
        terms = itertools.chain(
            self._terms(a_pad.T, b_pad, p_pad), self._terms(a_pad.T, b_pad, w - 1)
        )
        for term, where, read in zip(terms, self._masks, self._reads[1:]):
            np.add(acc, term, out=acc, where=where)
            reads.append(flat[read])
        reads.append(np.zeros(1))
        values = np.concatenate(reads)
        if _has_nan(flat):
            self._refold_nans(a_pad, b_pad, e, flat, values)
        return acc, values[self._band_gather]

    def _refold_nans(
        self,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        e: Optional[np.ndarray],
        flat: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Redo in Python floats, as the simulator does, every fold that met a NaN.

        Given two NaN operands, NumPy's vector loops may return either
        one; the simulator's MACs follow :func:`~repro.systolic.cell.mac`'s
        rule.  A NaN accumulator stays NaN, so the elements that end NaN
        are exactly those whose fold met one; their values and chain reads
        are overwritten in place.
        """
        p_pad, m_pad = self._p_pad, self._m_pad
        nan = np.isnan(flat)
        folds: Dict[int, List[float]] = {}
        for element in np.flatnonzero(nan).tolist():
            alpha, gamma = divmod(element, m_pad)
            start = int(self._start[element])
            value = 0.0
            if e is not None and alpha < self._n and gamma < self._m:
                value = float(e[alpha, gamma]) + 0.0
            a_row = a_pad[alpha].tolist()
            b_col = b_pad[:, gamma].tolist()
            fold = [value]
            for beta in itertools.chain(range(start, p_pad), range(start)):
                value = mac(value, a_row[beta], b_col[beta])
                fold.append(value)
            folds[element] = fold
            flat[element] = value
        sources = np.concatenate(self._reads)
        steps = np.repeat(
            np.arange(-1, p_pad + self._w - 1), [len(read) for read in self._reads]
        )
        for slot in np.flatnonzero(nan[sources]).tolist():
            element = int(sources[slot])
            values[slot] = folds[element][steps[slot] - self._start[element] + 1]


# --------------------------------------------------------------------------- #
# Full-bandwidth block kernels for the naive baselines
# --------------------------------------------------------------------------- #
def full_band_block_matvec(block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One dense block as a full-bandwidth band on the ``2w - 1`` cell array.

    Folds the diagonals in cell order (``-(w-1) .. w-1``), which is the
    order the naive baseline's simulated array accumulates them in.  A
    row that ends NaN is folded again through
    :func:`~repro.systolic.cell.mac`, in the same order from the same
    +0.0, so where two NaNs meet it keeps the simulated cell's NaN.
    """
    size = block.shape[0]
    y = np.zeros(size, dtype=float)
    for d in range(-(size - 1), size):
        diagonal = np.diagonal(block, d)
        if d >= 0:
            y[: size - d] += diagonal * x[d:]
        else:
            y[-d:] += diagonal * x[: size + d]
    if _has_nan(y):
        for row in np.flatnonzero(np.isnan(y)).tolist():
            acc = 0.0
            for col in range(size):
                acc = mac(acc, float(block[row, col]), float(x[col]))
            y[row] = acc
    return y


def full_band_block_matmul(a_block: np.ndarray, b_block: np.ndarray) -> np.ndarray:
    """One dense block product on the ``(2w-1) x (2w-1)`` hexagonal array.

    Every result position accumulates its products in increasing inner
    index order, so a rank-1 update sweep reproduces the simulator's
    values bit for bit; a position that ends NaN is folded again through
    :func:`~repro.systolic.cell.mac` in that order, from +0.0.
    """
    size = a_block.shape[0]
    c = np.zeros((size, b_block.shape[1]), dtype=float)
    for k in range(size):
        c += a_block[:, k : k + 1] * b_block[k : k + 1, :]
    if _has_nan(c):
        for i, j in np.argwhere(np.isnan(c)).tolist():
            acc = 0.0
            for k in range(size):
                acc = mac(acc, float(a_block[i, k]), float(b_block[k, j]))
            c[i, j] = acc
    return c
