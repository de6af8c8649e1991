"""Cycle-accurate simulation of Kung's hexagonal band matrix-matrix array.

The hexagonal array (Mead & Conway, Section 8.3; the paper's Section 3)
multiplies two band matrices.  Three data streams march through a
rhombus of ``w1 x w2`` inner-product-step cells along three directions:

* the coefficients of ``A`` move along their band diagonal lines,
* the coefficients of ``B`` move along theirs, and
* the accumulating ``C`` values move along the anti-diagonal lines,
  entering through the ``c`` input ports (which is how the addend ``E`` of
  ``C = A*B + E`` gets into the computation) and leaving through the
  opposite boundary.

Every datum advances one cell per cycle; a cell performs a
multiply-accumulate in the cycles in which one ``a``, one ``b`` and one
``c`` datum coincide on it, which happens at most every third cycle — the
origin of the 1/3 utilization ceiling the paper quotes for this array.

The simulator is *event-driven but cycle-faithful*: token trajectories are
straight lines fixed by the systolic schedule ``t = i + j + k``, so the
cell and cycle of every multiply-accumulate, and the cycle at which every
token crosses the array boundary, are computed exactly; the events are then
replayed in clock order so that feedback values (partial results re-entering
through the ``c`` ports, Section 3 of the paper) are only available after
the cycle in which they physically left the array.  An optional occupancy
check replays the token positions cycle by cycle and verifies that no two
tokens of the same stream ever occupy the same cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ArraySizeError, FeedbackError, ScheduleError, ShapeError, SimulationError
from ..matrices.banded import BandMatrix
from ..matrices.padding import validate_array_size
from .cell import mac
from .feedback import ExternalSource
from .metrics import UtilizationReport

__all__ = [
    "HexFeedbackSource",
    "CTokenPlan",
    "HexRunResult",
    "HexagonalArray",
]


@dataclass(frozen=True)
class HexFeedbackSource:
    """Initial value of a ``C`` token taken from another token's output.

    The token for result position ``(row, col)`` starts from the value that
    the token for ``(source_row, source_col)`` carried when it left the
    array, modelling the spiral feedback path of Fig. 5.
    """

    source_row: int
    source_col: int
    tag: Optional[tuple] = None


@dataclass
class CTokenPlan:
    """Where every ``C`` token of a hexagonal run gets its initial value.

    Positions not mentioned in ``sources`` start from zero (the usual
    ``C = A * B`` case).  ``sources`` may mix
    :class:`~repro.systolic.feedback.ExternalSource` entries (elements of
    the addend ``E``) and :class:`HexFeedbackSource` entries (partial
    results re-entering the array).
    """

    sources: Dict[Tuple[int, int], object] = field(default_factory=dict)

    @classmethod
    def from_band(cls, e_band: BandMatrix) -> "CTokenPlan":
        """All-external plan built from a band matrix of addend values."""
        plan = cls()
        for i in range(e_band.rows):
            for j in range(e_band.cols):
                if e_band.in_band(i, j):
                    value = e_band.get(i, j)
                    if value != 0.0:
                        plan.sources[(i, j)] = ExternalSource(value=value, tag=("e", i, j))
        return plan


@dataclass
class HexRunResult:
    """Measurements of one hexagonal array execution."""

    w1: int
    w2: int
    c_band: BandMatrix
    report: UtilizationReport
    total_cycles: int
    c_stream_cycles: int
    compute_cycles: int
    first_input_cycle: int
    last_output_cycle: int
    token_entry: Dict[Tuple[int, int], int]
    token_exit: Dict[Tuple[int, int], int]
    feedback_delays: Mapping[Tuple[int, int], int] = field(default_factory=dict)
    cell_busy: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        return self.report.utilization

    @property
    def effective_utilization(self) -> float:
        return self.report.effective_utilization


class HexagonalArray:
    """Simulator of the ``w1 x w2`` hexagonal band matrix-matrix array."""

    def __init__(self, w1: int, w2: Optional[int] = None):
        self._w1 = validate_array_size(w1)
        self._w2 = validate_array_size(w2 if w2 is not None else w1)

    @property
    def w1(self) -> int:
        """Bandwidth of the first operand handled by the array."""
        return self._w1

    @property
    def w2(self) -> int:
        """Bandwidth of the second operand handled by the array."""
        return self._w2

    @property
    def processing_elements(self) -> int:
        return self._w1 * self._w2

    # -- schedule helpers -------------------------------------------------------
    def _validate(self, band_a: BandMatrix, band_b: BandMatrix) -> None:
        if band_a.bandwidth != self._w1:
            raise ArraySizeError(
                f"operand A has bandwidth {band_a.bandwidth}, the array expects {self._w1}"
            )
        if band_b.bandwidth != self._w2:
            raise ArraySizeError(
                f"operand B has bandwidth {band_b.bandwidth}, the array expects {self._w2}"
            )
        if band_a.cols != band_b.rows:
            raise ShapeError(
                f"cannot multiply bands of shapes {band_a.shape} and {band_b.shape}"
            )

    @staticmethod
    def _mac_cycle(i: int, k: int, j: int) -> int:
        """The systolic schedule: the (i, k, j) product happens at cycle i+j+k."""
        return i + j + k

    def _c_path(
        self, i: int, j: int, band_a: BandMatrix, band_b: BandMatrix
    ) -> Tuple[int, int]:
        """Range of ``u = k - i`` cells traversed by the C token for (i, j)."""
        dc = j - i
        u_min = max(-band_a.lower, dc - band_b.upper)
        u_max = min(band_a.upper, dc + band_b.lower)
        return u_min, u_max

    def c_token_window(
        self, band_a: BandMatrix, band_b: BandMatrix, i: int, j: int
    ) -> Tuple[int, int]:
        """Boundary entry and exit cycles of the C token for position (i, j).

        Exposed so that transformation code can order partial results by the
        cycle at which they enter the array without re-deriving the
        schedule.
        """
        u_min, u_max = self._c_path(i, j, band_a, band_b)
        if u_min > u_max:
            u_min = u_max = max(-band_a.lower, min(band_a.upper, j - i))
        return 2 * i + j + u_min, 2 * i + j + u_max + 1

    # -- execution ---------------------------------------------------------------
    def run(
        self,
        band_a: BandMatrix,
        band_b: BandMatrix,
        c_plan: Optional[CTokenPlan] = None,
        useful_operations: Optional[int] = None,
        verify_occupancy: bool = False,
    ) -> HexRunResult:
        """Multiply two band matrices on the array.

        Returns the result band (``A*B`` plus whatever the ``c_plan``
        injected), the timing and utilization report, and the boundary
        crossing cycle of every ``C`` token (used by the matrix-matrix
        pipeline to analyse spiral feedback delays).
        """
        self._validate(band_a, band_b)
        plan = c_plan if c_plan is not None else CTokenPlan()

        c_lower = min(band_a.lower + band_b.lower, band_a.rows - 1)
        c_upper = min(band_a.upper + band_b.upper, band_b.cols - 1)
        c_band = BandMatrix(band_a.rows, band_b.cols, c_lower, c_upper)

        # ---- enumerate MAC events and token boundary crossings -------------
        mac_events: List[Tuple[int, int, int, int]] = []  # (cycle, i, k, j)
        for i in range(band_a.rows):
            k_lo = max(0, i - band_a.lower)
            k_hi = min(band_a.cols - 1, i + band_a.upper)
            for k in range(k_lo, k_hi + 1):
                j_lo = max(0, k - band_b.lower)
                j_hi = min(band_b.cols - 1, k + band_b.upper)
                for j in range(j_lo, j_hi + 1):
                    mac_events.append((self._mac_cycle(i, k, j), i, k, j))
        mac_events.sort()

        token_entry: Dict[Tuple[int, int], int] = {}
        token_exit: Dict[Tuple[int, int], int] = {}
        for i in range(c_band.rows):
            j_lo = max(0, i - c_band.lower)
            j_hi = min(c_band.cols - 1, i + c_band.upper)
            for j in range(j_lo, j_hi + 1):
                # With t = i + j + k and u = k - i, the token is at cell
                # column u at cycle 2 i + j + u.
                entry, exit_cycle = self.c_token_window(band_a, band_b, i, j)
                token_entry[(i, j)] = entry
                token_exit[(i, j)] = exit_cycle

        # Operand tokens also cross the boundary; their first/last crossing
        # bounds the externally observable execution time.
        boundary_cycles: List[int] = []
        for i in range(band_a.rows):
            k_lo = max(0, i - band_a.lower)
            k_hi = min(band_a.cols - 1, i + band_a.upper)
            for k in range(k_lo, k_hi + 1):
                # a_{ik} travels +v; v(t) = t - i - k, entering at v = -lb.
                boundary_cycles.append(i + k - band_b.lower)
                boundary_cycles.append(i + k + band_b.upper + 1)
        for k in range(band_b.rows):
            j_lo = max(0, k - band_b.lower)
            j_hi = min(band_b.cols - 1, k + band_b.upper)
            for j in range(j_lo, j_hi + 1):
                # b_{kj} travels -u; u(t) = 2k + j - t, entering at u = ua.
                boundary_cycles.append(2 * k + j - band_a.upper)
                boundary_cycles.append(2 * k + j + band_a.lower + 1)
        boundary_cycles.extend(token_entry.values())
        boundary_cycles.extend(token_exit.values())

        first_input_cycle = min(boundary_cycles) if boundary_cycles else 0
        last_output_cycle = max(boundary_cycles) if boundary_cycles else 0

        if verify_occupancy:
            self._verify_occupancy(band_a, band_b, c_band, token_entry, token_exit)

        # ---- replay in clock order -------------------------------------------
        values: Dict[Tuple[int, int], float] = {}
        resolved: Dict[Tuple[int, int], bool] = {}
        feedback_delays: Dict[Tuple[int, int], int] = {}
        cell_busy: Dict[Tuple[int, int], int] = {}

        entry_order = sorted(token_entry, key=lambda ij: (token_entry[ij], ij))
        exit_lookup = token_exit

        def resolve_initial(position: Tuple[int, int]) -> None:
            """Give the token its initial value the moment it enters the array."""
            if resolved.get(position):
                return
            source = plan.sources.get(position)
            if source is None:
                values[position] = 0.0
            elif isinstance(source, ExternalSource):
                values[position] = source.value
            elif isinstance(source, HexFeedbackSource):
                origin = (source.source_row, source.source_col)
                if origin not in exit_lookup:
                    raise FeedbackError(
                        f"C token {position} wants feedback from {origin}, "
                        f"which never crosses the array"
                    )
                available_at = exit_lookup[origin]
                needed_at = token_entry[position]
                if available_at > needed_at:
                    raise FeedbackError(
                        f"C token {position} needs the output of {origin} at cycle "
                        f"{needed_at}, but it only leaves the array at {available_at}"
                    )
                if not resolved.get(origin):
                    raise SimulationError(
                        f"feedback source {origin} left the array but was never resolved"
                    )
                values[position] = values[origin]
                feedback_delays[position] = needed_at - available_at
            else:  # pragma: no cover - defensive
                raise ScheduleError(f"unknown C token source {source!r}")
            resolved[position] = True

        # Tokens are resolved strictly in entry order, and a feedback source is
        # only legal if it has already exited, so replaying entries in cycle
        # order reproduces what the spiral hardware does.
        event_index = 0
        mac_count = 0
        for position in entry_order:
            entry_cycle = token_entry[position]
            # Apply every MAC that happens strictly before this token enters.
            while event_index < len(mac_events) and mac_events[event_index][0] < entry_cycle:
                cycle, i, k, j = mac_events[event_index]
                self._apply_mac(values, resolved, band_a, band_b, cell_busy, i, k, j)
                mac_count += 1
                event_index += 1
            resolve_initial(position)
        while event_index < len(mac_events):
            cycle, i, k, j = mac_events[event_index]
            self._apply_mac(values, resolved, band_a, band_b, cell_busy, i, k, j)
            mac_count += 1
            event_index += 1

        for (i, j), value in values.items():
            c_band.set(i, j, value)

        compute_first = mac_events[0][0] if mac_events else 0
        compute_last = mac_events[-1][0] if mac_events else 0
        compute_cycles = compute_last - compute_first + 1 if mac_events else 0
        total_cycles = last_output_cycle - first_input_cycle + 1
        # The paper's step count T for the hexagonal array spans the C-stream
        # activity: from the first cycle in which a C value (an element of E
        # or a fed-back partial result) enters the array to the cycle in
        # which the last result leaves it.
        c_first = min(token_entry.values()) if token_entry else 0
        c_last = max(token_exit.values()) if token_exit else 0
        c_stream_cycles = c_last - c_first + 1 if token_entry else 0

        report = UtilizationReport(
            processing_elements=self.processing_elements,
            steps=c_stream_cycles if c_stream_cycles else total_cycles,
            mac_operations=mac_count,
            useful_operations=useful_operations,
        )
        return HexRunResult(
            w1=self._w1,
            w2=self._w2,
            c_band=c_band,
            report=report,
            total_cycles=total_cycles,
            c_stream_cycles=c_stream_cycles,
            compute_cycles=compute_cycles,
            first_input_cycle=first_input_cycle,
            last_output_cycle=last_output_cycle,
            token_entry=token_entry,
            token_exit=token_exit,
            feedback_delays=feedback_delays,
            cell_busy=cell_busy,
        )

    def _apply_mac(
        self,
        values: Dict[Tuple[int, int], float],
        resolved: Dict[Tuple[int, int], bool],
        band_a: BandMatrix,
        band_b: BandMatrix,
        cell_busy: Dict[Tuple[int, int], int],
        i: int,
        k: int,
        j: int,
    ) -> None:
        position = (i, j)
        if not resolved.get(position):
            raise SimulationError(
                f"MAC for C position {position} fired before the token entered the array"
            )
        y, a, x = values[position], band_a.get(i, k), band_b.get(k, j)
        result = y + a * x
        values[position] = result if result == result else mac(y, a, x)
        cell = (k - i, j - k)
        cell_busy[cell] = cell_busy.get(cell, 0) + 1

    # -- structural verification ---------------------------------------------------
    def _verify_occupancy(
        self,
        band_a: BandMatrix,
        band_b: BandMatrix,
        c_band: BandMatrix,
        token_entry: Dict[Tuple[int, int], int],
        token_exit: Dict[Tuple[int, int], int],
    ) -> None:
        """Replay token positions cycle by cycle and check for collisions.

        This is an O(cycles x tokens) structural audit used by the tests on
        small problems; the linear trajectories guarantee collision freedom
        analytically, and this check makes that guarantee observable.
        """
        occupancy: Dict[Tuple[str, int, Tuple[int, int]], Tuple] = {}

        def occupy(stream: str, cycle: int, cell: Tuple[int, int], ident: Tuple) -> None:
            key = (stream, cycle, cell)
            existing = occupancy.get(key)
            if existing is not None and existing != ident:
                raise ScheduleError(
                    f"stream {stream} has tokens {existing} and {ident} on cell "
                    f"{cell} at cycle {cycle}"
                )
            occupancy[key] = ident

        for i in range(band_a.rows):
            k_lo = max(0, i - band_a.lower)
            k_hi = min(band_a.cols - 1, i + band_a.upper)
            for k in range(k_lo, k_hi + 1):
                u = k - i
                for v in range(-band_b.lower, band_b.upper + 1):
                    occupy("a", i + k + v, (u, v), (i, k))
        for k in range(band_b.rows):
            j_lo = max(0, k - band_b.lower)
            j_hi = min(band_b.cols - 1, k + band_b.upper)
            for j in range(j_lo, j_hi + 1):
                v = j - k
                for u in range(-band_a.lower, band_a.upper + 1):
                    occupy("b", 2 * k + j - u, (u, v), (k, j))
        for (i, j), entry in token_entry.items():
            exit_cycle = token_exit[(i, j)]
            u_entry = entry - 2 * i - j
            for step in range(exit_cycle - entry):
                u = u_entry + step
                v = (j - i) - u
                occupy("c", entry + step, (u, v), (i, j))
