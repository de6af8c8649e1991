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
  execution is one lane-rotated multiply of the padded operands into a
  ``b``-seeded accumulator followed by one in-place sequential prefix
  sum, whose every ``w``-th column is a band-row output (the values the
  simulator's feedback registers carry).  Because each row folds its
  terms in exactly the simulator's cell order, the results are
  bit-identical, signed zeros included.

* **Hexagonal array (DBT mat-mul).**  Every result-band position
  accumulates its products in increasing inner-index order, and the
  spiral feedback hands each accumulation-chain position the *final*
  value of its predecessor.  The engine precomputes (at plan time, values
  never matter) flat gather indices into the padded operands for every
  ``(chain depth, term)`` group and replays the fold as a few fancy-indexed
  ``multiply``/``add`` sweeps per depth.

Timing and utilization are not simulated either: the step counts, MAC
counts, feedback delays and register peaks are computed from the same
structural quantities the simulator derives them from (see
:func:`hex_structural_metrics`), so measured metrics agree exactly across
backends.  What the vectorized engines deliberately do *not* produce are
the cycle-level artifacts: the output :class:`~repro.systolic.stream.DataStream`
is empty and no :class:`~repro.systolic.trace.DataFlowTrace` is recorded —
request ``backend="simulate"`` for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..matrices.banded import BandMatrix
from ..matrices.padding import pad_matrix
from ..systolic.hex_array import HexRunResult
from ..systolic.linear_array import LinearRunResult
from ..systolic.metrics import UtilizationReport
from ..systolic.stream import DataStream

__all__ = [
    "LinearSweepPlan",
    "HexSweepPlan",
    "HexStructuralMetrics",
    "hex_structural_metrics",
    "build_linear_run",
    "build_banded_linear_run",
    "full_band_block_matvec",
    "full_band_block_matmul",
]


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
    i mod w + 1, ...`` wrapping modulo ``M_pad``; rows with equal
    ``i mod w`` share a lane of the ``(N_bar, w, M_pad)`` view, so that
    order is ``w`` strided slice pairs, not a gather table.  The plan
    holds only geometry and the structural metric ingredients (so it
    pickles small); :meth:`sweep` only streams values.
    """

    def __init__(self, w: int, n: int, m: int, n_bar: int, m_bar: int,
                 useful_operations: int):
        self._w = int(w)
        self._n = int(n)
        self._m = int(m)
        self._n_bar = int(n_bar)
        self._m_bar = int(m_bar)
        self._n_pad = self._n_bar * self._w
        self._m_pad = self._m_bar * self._w
        self._band_rows = self._n_bar * self._m_bar * self._w
        self._useful = int(useful_operations)
        self._events_cache: Dict[int, List[Tuple[int, int, int]]] = {}

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

    def feedback_events(self, offset: int = 0) -> List[Tuple[int, int, int]]:
        """``(band_row, push_cycle, pop_cycle)`` for every fed-back value.

        Band block row ``k`` re-enters the chain output of block row
        ``k - 1`` whenever ``k mod m_bar != 0``; the register chain delay
        is exactly ``w`` (the paper's T3 claim).
        """
        events = self._events_cache.get(offset)
        if events is None:
            alpha = _linear_alpha(self._w)
            events = []
            for k in range(self._n_bar * self._m_bar):
                if k % self._m_bar == 0:
                    continue
                for a in range(self._w):
                    row = k * self._w + a
                    pop = 2 * row + alpha + offset
                    events.append((row, pop - self._w, pop))
            self._events_cache[offset] = events
        return events

    # -- value streaming --------------------------------------------------------
    def sweep(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one operand set through the sweep: multiply, rotate, prefix sum.

        The products are written *already rotated* into columns
        ``1..M_pad`` of an accumulator whose column 0 holds ``b``
        (:func:`_rotated_products`).  ``np.add.accumulate`` is a
        sequential accumulate — each output is the previous output plus
        the next input, never a pairwise tree — so one in-place prefix
        sum along the contiguous axis is the simulator's per-row fold
        ``((b + p_0) + p_1) + ...`` verbatim, and column ``(j + 1) w`` is
        exactly the pass-``j`` partial snapshot.

        Returns ``(band_outputs, y_padded)``: the per-band-row outputs (one
        partial snapshot per pass, ordered exactly like the simulator's
        ``y_per_problem`` entries) and the final padded result vector.
        """
        w, n_bar, m_bar, m_pad = self._w, self._n_bar, self._m_bar, self._m_pad
        a3 = _padded(matrix, (self._n_pad, m_pad)).reshape(n_bar, w, m_pad)
        x_pad = _padded(x, (m_pad,))
        acc = np.empty((self._n_pad, m_pad + 1))
        acc[:, 0] = 0.0 if b is None else _padded(b, (self._n_pad,))
        _rotated_products(a3, x_pad, acc.reshape(n_bar, w, m_pad + 1)[:, :, 1:])
        np.add.accumulate(acc, axis=1, out=acc)
        band_outputs = (
            acc[:, w::w].T.reshape(m_bar, n_bar, w).transpose(1, 0, 2).reshape(-1)
        )
        return band_outputs, acc[:, -1].copy()

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
        accumulate.  Operands must be integer arrays (the caller
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
        w, n_bar, m_bar, m_pad = self._w, self._n_bar, self._m_bar, self._m_pad
        # Narrow codes (int8) multiply straight into the int32 products;
        # wider integers are cast to the int32 datapath first.
        a = np.asarray(matrix)
        dtype = a.dtype if np.can_cast(a.dtype, np.int32) else np.int32
        a3 = _padded(a, (self._n_pad, m_pad), dtype).reshape(n_bar, w, m_pad)
        # After the rotation pass j of every row is the contiguous column
        # block [j w, (j+1) w): one blocked einsum reduce plus a small
        # prefix sum reproduces every snapshot.
        products = np.empty((n_bar, w, m_pad), dtype=np.int32)
        _rotated_products(a3, _padded(x, (m_pad,), np.int32), products)
        pass_sums = np.einsum(
            "rjt->rj", products.reshape(self._n_pad, m_bar, w), dtype=np.int32
        )
        partials = np.cumsum(pass_sums, axis=1, dtype=np.int32)
        if b is not None:
            partials += _padded(b, (self._n_pad,), np.int32)[:, None]
        band_outputs = (
            partials.T.reshape(m_bar, n_bar, w).transpose(1, 0, 2).reshape(-1)
        )
        return band_outputs, partials[:, -1].copy()


def build_linear_run(
    w: int,
    plans: Sequence[LinearSweepPlan],
    outputs: Sequence[np.ndarray],
) -> LinearRunResult:
    """Assemble a :class:`LinearRunResult` for 1 plain or 2 overlapped sweeps.

    Problem ``p`` runs at cycle offset ``p`` (the simulator's overlapped
    schedule); all metrics are the structural values the simulator would
    measure.  The output stream is left empty and no trace is recorded.
    """
    total_cycles = 0
    mac_total = 0
    useful = 0
    output_count = 0
    for offset, plan in enumerate(plans):
        total_cycles = max(total_cycles, linear_total_cycles(w, plan.band_rows, offset))
        mac_total += plan.mac_operations
        useful += plan.useful_operations
        output_count += plan.band_rows
    if len(plans) == 1:
        # Share the plan's memoized event list instead of copying its
        # O(bands) tuples per solve; results treat the list as read-only.
        events: List[Tuple[int, int, int]] = plans[0].feedback_events(0)
    else:
        # The simulator records feedback events in consumption-cycle
        # order, which interleaves overlapped problems.
        events = []
        for offset, plan in enumerate(plans):
            events.extend(plan.feedback_events(offset))
        events.sort(key=lambda event: event[2])
    # Outputs enter the w-register chain every other cycle for one problem
    # (ceil(w/2) simultaneously resident) and every cycle when two
    # problems interleave.
    if len(plans) == 1:
        peak = min(output_count, (w + 1) // 2)
    else:
        peak = min(output_count, w)
    report = UtilizationReport(
        processing_elements=w,
        steps=total_cycles,
        mac_operations=mac_total,
        useful_operations=useful,
    )
    y = outputs[0] if len(outputs) == 1 else np.concatenate(list(outputs))
    return LinearRunResult(
        size=w,
        y=y,
        output_stream=DataStream("y out"),
        report=report,
        total_cycles=total_cycles,
        first_input_cycle=0,
        last_output_cycle=total_cycles,
        y_per_problem=[np.asarray(out) for out in outputs],
        feedback_events=events,
        feedback_register_peak=peak,
        trace=None,
        cell_mac_counts=[sum(p.band_rows for p in plans)] * w,
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
class HexSweepPlan:
    """Value-independent skeleton of the diagonal-sweep mat-mul execution.

    Built once per :class:`~repro.core.plans.MatMulPlan` from the operand
    provenance and the partial-result accumulation chains.  Per chain
    *depth* (position index within a chain) and per *term* (inner index
    step), flat gather indices into the padded operands are precomputed;
    executing is then one fancy-indexed multiply/add per ``(depth, term)``
    group, with a vectorized carry copy between depths reproducing the
    spiral feedback hand-off.
    """

    def __init__(self, operands, placement, useful_operations: int):
        w = operands.w
        self._w = int(w)
        self._n, self._p = operands.a_shape
        _p2, self._m = operands.b_shape
        self._n_pad = operands.n_bar * w
        self._p_pad = operands.p_bar * w
        self._m_pad = operands.m_bar * w
        self._useful = int(useful_operations)

        a_band = operands.a_operand.band
        b_band = operands.b_operand.band
        self._dim = a_band.rows
        la, ua = a_band.lower, a_band.upper
        lb, ub = b_band.lower, b_band.upper
        self._metrics = hex_structural_metrics(
            a_band.rows, a_band.cols, la, ua,
            b_band.rows, b_band.cols, lb, ub,
        )
        self._report = UtilizationReport(
            processing_elements=w * w,
            steps=(
                self._metrics.c_stream_cycles
                if self._metrics.c_stream_cycles
                else self._metrics.total_cycles
            ),
            mac_operations=self._metrics.mac_operations,
            useful_operations=self._useful,
        )

        a_prov = operands.a_operand.provenance
        b_prov = operands.b_operand.provenance
        a_sentinel = self._n_pad * self._p_pad
        b_sentinel = self._p_pad * self._m_pad
        dim = self._dim

        def token_window(i: int, j: int) -> Tuple[int, int]:
            dc = j - i
            u_min = max(-la, dc - ub)
            u_max = min(ua, dc + lb)
            if u_min > u_max:
                u_min = u_max = max(-la, min(ua, dc))
            return 2 * i + j + u_min, 2 * i + j + u_max + 1

        chains = placement.chains
        slot_of: Dict[Tuple[int, int], int] = {}
        for chain in chains.values():
            for position in chain.positions:
                slot_of[position] = len(slot_of)
        self._slot_count = len(slot_of)

        head_slots: List[int] = []
        head_rows: List[int] = []
        head_cols: List[int] = []
        final_slots: List[int] = []
        final_rows: List[int] = []
        final_cols: List[int] = []
        links: Dict[int, Tuple[List[int], List[int]]] = {}
        groups: Dict[Tuple[int, int], Tuple[List[int], List[int], List[int]]] = {}
        feedback_delays: Dict[Tuple[int, int], int] = {}
        band_scatter: Dict[int, Tuple[List[int], List[int]]] = {}

        for (alpha, gamma), chain in chains.items():
            head_slots.append(slot_of[chain.positions[0]])
            head_rows.append(alpha)
            head_cols.append(gamma)
            final_slots.append(slot_of[chain.final_position])
            final_rows.append(alpha)
            final_cols.append(gamma)
            for depth, position in enumerate(chain.positions):
                i, j = position
                slot = slot_of[position]
                if depth > 0:
                    predecessor = chain.positions[depth - 1]
                    pred_list, succ_list = links.setdefault(depth, ([], []))
                    pred_list.append(slot_of[predecessor])
                    succ_list.append(slot)
                    feedback_delays[position] = (
                        token_window(i, j)[0] - token_window(*predecessor)[1]
                    )
                dc = j - i
                along = i if dc >= 0 else j
                scatter_along, scatter_slots = band_scatter.setdefault(dc, ([], []))
                scatter_along.append(along)
                scatter_slots.append(slot)
                u_lo = max(-la, dc - ub, -i)
                u_hi = min(ua, dc + lb, dim - 1 - i)
                for t, u in enumerate(range(u_lo, u_hi + 1)):
                    k = i + u
                    a_origin = a_prov.get((i, k))
                    b_origin = b_prov.get((k, j))
                    a_flat = (
                        a_origin[0] * self._p_pad + a_origin[1]
                        if a_origin is not None
                        else a_sentinel
                    )
                    b_flat = (
                        b_origin[0] * self._m_pad + b_origin[1]
                        if b_origin is not None
                        else b_sentinel
                    )
                    c_list, a_list, b_list = groups.setdefault(
                        (depth, t), ([], [], [])
                    )
                    c_list.append(slot)
                    a_list.append(a_flat)
                    b_list.append(b_flat)

        self._head_slots = np.array(head_slots, dtype=int)
        self._head_rows = np.array(head_rows, dtype=int)
        self._head_cols = np.array(head_cols, dtype=int)
        self._final_slots = np.array(final_slots, dtype=int)
        self._final_rows = np.array(final_rows, dtype=int)
        self._final_cols = np.array(final_cols, dtype=int)
        self._feedback_delays = feedback_delays
        self._band_scatter = {
            dc: (np.array(along, dtype=int), np.array(slots, dtype=int))
            for dc, (along, slots) in band_scatter.items()
        }

        max_depth = max((depth for depth, _t in groups), default=-1)
        max_depth = max(max_depth, max(links, default=0))
        stages = []
        for depth in range(max_depth + 1):
            pred_list, succ_list = links.get(depth, (None, None))
            pred = np.array(pred_list, dtype=int) if pred_list else None
            succ = np.array(succ_list, dtype=int) if succ_list else None
            terms = []
            t = 0
            while (depth, t) in groups:
                c_list, a_list, b_list = groups[(depth, t)]
                terms.append(
                    (
                        np.array(c_list, dtype=int),
                        np.array(a_list, dtype=int),
                        np.array(b_list, dtype=int),
                    )
                )
                t += 1
            stages.append((pred, succ, terms))
        self._stages = stages

    # -- structural metrics ------------------------------------------------------
    @property
    def metrics(self) -> HexStructuralMetrics:
        return self._metrics

    @property
    def feedback_delays(self) -> Dict[Tuple[int, int], int]:
        """Spiral feedback delay of every non-head chain position."""
        return dict(self._feedback_delays)

    # -- value streaming ----------------------------------------------------------
    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, HexRunResult]:
        """Fold one operand set through the chain sweeps.

        Returns the recovered dense ``C`` (original shape) and a
        :class:`HexRunResult` whose band holds the finished chain values
        (intermediate, discarded band positions stay zero).
        """
        w = self._w
        a_vals = np.append(pad_matrix(a, w).ravel(), 0.0)
        b_vals = np.append(pad_matrix(b, w).ravel(), 0.0)
        values = np.zeros(self._slot_count, dtype=float)
        if e is not None and self._head_slots.size:
            e_pad = np.zeros((self._n_pad, self._m_pad), dtype=float)
            e_pad[: self._n, : self._m] = np.asarray(e, dtype=float)
            # + 0.0 normalizes -0.0 addends, which the simulator never
            # injects (it skips values comparing equal to zero).
            values[self._head_slots] = e_pad[self._head_rows, self._head_cols] + 0.0
        for pred, succ, terms in self._stages:
            if pred is not None:
                values[succ] = values[pred]
            for c_idx, a_idx, b_idx in terms:
                values[c_idx] += a_vals[a_idx] * b_vals[b_idx]

        out = np.zeros((self._n_pad, self._m_pad), dtype=float)
        out[self._final_rows, self._final_cols] = values[self._final_slots]
        c = out[: self._n, : self._m].copy()

        metrics = self._metrics
        c_band = BandMatrix(self._dim, self._dim, metrics.c_lower, metrics.c_upper)
        for dc, (along, slots) in self._band_scatter.items():
            diagonal = np.zeros(c_band.diagonal_length(dc), dtype=float)
            diagonal[along] = values[slots]
            c_band.set_diagonal(dc, diagonal)
        run = HexRunResult(
            w1=w,
            w2=w,
            c_band=c_band,
            report=self._report,
            total_cycles=metrics.total_cycles,
            c_stream_cycles=metrics.c_stream_cycles,
            compute_cycles=metrics.compute_cycles,
            first_input_cycle=metrics.first_input_cycle,
            last_output_cycle=metrics.last_output_cycle,
            token_entry={},
            token_exit={},
            feedback_delays=dict(self._feedback_delays),
            cell_busy={},
        )
        return c, run


# --------------------------------------------------------------------------- #
# Full-bandwidth block kernels for the naive baselines
# --------------------------------------------------------------------------- #
def full_band_block_matvec(block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One dense block as a full-bandwidth band on the ``2w - 1`` cell array.

    Folds the diagonals in cell order (``-(w-1) .. w-1``), which is the
    order the naive baseline's simulated array accumulates them in.
    """
    size = block.shape[0]
    y = np.zeros(size, dtype=float)
    for d in range(-(size - 1), size):
        diagonal = np.diagonal(block, d)
        if d >= 0:
            y[: size - d] += diagonal * x[d:]
        else:
            y[-d:] += diagonal * x[: size + d]
    return y


def full_band_block_matmul(a_block: np.ndarray, b_block: np.ndarray) -> np.ndarray:
    """One dense block product on the ``(2w-1) x (2w-1)`` hexagonal array.

    Every result position accumulates its products in increasing inner
    index order, so a rank-1 update sweep reproduces the simulator's
    values bit for bit.
    """
    size = a_block.shape[0]
    c = np.zeros((size, b_block.shape[1]), dtype=float)
    for k in range(size):
        c += a_block[:, k : k + 1] * b_block[k : k + 1, :]
    return c
