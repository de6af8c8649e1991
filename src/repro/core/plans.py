"""Reusable plan/execute engines for the DBT pipelines.

The paper's central property is that the DBT transformations depend only on
the problem *shape* and the array size ``w`` — never on operand values.
This module exploits that: a :class:`MatVecPlan` / :class:`MatMulPlan` is
built once per ``(shape, w)`` and captures everything shape-determined.
Executing a plan only streams values, through one of two backends, and a
plan builds only what its resolved backend runs.

* ``backend="vectorized"`` (the api layer's ``"auto"`` default resolves to
  it unless a trace is requested) lowers the schedule into the
  value-independent sweep skeletons of :mod:`repro.backends.vectorized`,
  which replay the same multiply-accumulate order without per-cycle state
  and produce bit-identical values and metrics.  Everything else about a
  run — step counts, utilization report, feedback events and the
  :class:`~repro.systolic.metrics.FeedbackStats` digest — is geometry too,
  so it is computed at plan build and shared by every solve.
* ``backend="simulate"`` (the default for direct construction, and the
  oracle) streams values through the cycle-accurate simulators of
  :mod:`repro.systolic`, from a zero-valued DBT template built at plan
  time: the band geometry and a vectorized *refill gather* (band diagonal
  position -> original padded element) derived from the template's
  provenance map, the ``x``/output stream tags and the ``y``-source
  skeleton (which band rows start from ``b`` and which from the feedback
  chain), or for the matrix-matrix case the spiral feedback token plan.
  It measures every metric on every run.

The simulate-only template is never built by a vectorized mat-vec plan
unless asked for: the first access to :attr:`MatVecPlan.transform`,
:meth:`MatVecPlan.build_problem` or a solution's ``transforms`` builds it
(once, also when threads race).  No value-bearing
:class:`~repro.core.dbt.DBTByRowsTransform` or
:class:`~repro.core.operands.MatMulOperands` is constructed on the execute
path either way, which is what makes repeated same-shape solves — the hot
path of any serving workload — cheap.

:class:`CachedMatVec` and :class:`CachedMatMul` are small engines that
memoize one plan per operand shape; the legacy ``SizeIndependent*``
classes and the :mod:`repro.extensions` pipelines run on top of them, and
the :mod:`repro.api` façade adds the LRU-cached front door.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from ..backends.registry import SIMULATE, VECTORIZED, resolve_backend
from ..backends.vectorized import HexSweepPlan, LinearRunMetrics, LinearSweepPlan
from ..errors import BackendError, ShapeError
from ..instrumentation import CacheStats, counters
from ..matrices.banded import BandMatrix
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import block_count, pad_matrix, pad_vector, validate_array_size
from ..systolic.feedback import ExternalSource, FeedbackSource
from ..systolic.hex_array import CTokenPlan, HexFeedbackSource, HexagonalArray
from ..systolic.linear_array import LinearContraflowArray, LinearProblem
from ..systolic.metrics import FeedbackStats, regular_delay_threshold
from .analytic import MatMulModel, MatVecModel
from .dbt import DBTByRowsTransform
from .matmul import MatMulSolution
from .matvec import MatVecSolution
from .operands import MatMulOperands
from .recovery import PartialResultMap
from .schedule import plan_overlap_partition

__all__ = [
    "MatVecPlan",
    "OverlappedMatVecPlan",
    "MatMulPlan",
    "CachedMatVec",
    "CachedMatMul",
]

_T = TypeVar("_T")


class _BandGather:
    """Vectorized refill of one band's value-bearing positions.

    Built once from a provenance map (band position -> original padded
    element); :meth:`fill` writes the corresponding values of a padded
    operand into a fresh :class:`~repro.matrices.banded.BandMatrix` one
    diagonal at a time.  Positions without provenance are structural zeros
    and stay zero.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        lower: int,
        upper: int,
        provenance: Dict[Tuple[int, int], Tuple[int, int]],
    ):
        self._rows = rows
        self._cols = cols
        self._lower = lower
        self._upper = upper
        template = BandMatrix(rows, cols, lower, upper)
        per_diagonal: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        buckets: Dict[int, List[Tuple[int, int, int]]] = {
            offset: [] for offset in template.offsets()
        }
        for (i, j), (oi, oj) in provenance.items():
            offset = j - i
            along = i if offset >= 0 else j
            buckets[offset].append((along, oi, oj))
        for offset, entries in buckets.items():
            entries.sort()
            along = np.array([e[0] for e in entries], dtype=int)
            oi = np.array([e[1] for e in entries], dtype=int)
            oj = np.array([e[2] for e in entries], dtype=int)
            per_diagonal[offset] = (along, oi, oj)
        self._per_diagonal = per_diagonal

    def fill(self, padded: np.ndarray) -> BandMatrix:
        """A fresh band holding ``padded``'s values at the planned positions."""
        band = BandMatrix(self._rows, self._cols, self._lower, self._upper)
        for offset, (along, oi, oj) in self._per_diagonal.items():
            if along.size == 0:
                continue
            values = np.zeros(band.diagonal_length(offset), dtype=float)
            values[along] = padded[oi, oj]
            band.set_diagonal(offset, values)
        return band


class _LinearSimulation:
    """What the cycle-accurate linear array needs to run one plan's shape.

    The zero-valued DBT template, its refill gather, the ``x``/output
    stream tags, the ``y``-source skeleton and the simulator itself.  The
    vectorized sweep reads none of it.
    """

    def __init__(self, n: int, m: int, w: int, record_trace: bool):
        template = DBTByRowsTransform(np.zeros((n, m)), w)
        self.template = template
        self.x_tags = template.x_tags()
        self.output_tags = template.output_tags()
        self.x_gather = np.array([tag[1] for tag in self.x_tags], dtype=int)
        # y-source skeleton: padded b index for external rows, the (frozen,
        # reusable) FeedbackSource for fed-back rows.
        self.y_skeleton: List[object] = []
        for source in template.build_y_sources(None):
            if isinstance(source, ExternalSource):
                self.y_skeleton.append(int(source.tag[1]))
            else:
                self.y_skeleton.append(source)
        self.band_gather = _BandGather(
            template.band_rows, template.band_cols, 0, w - 1,
            template.provenance(),
        )
        self.array = LinearContraflowArray(w, record_trace=record_trace)
        self._n = n
        self._w = w

    def problem(
        self, matrix: np.ndarray, x: np.ndarray, b: Optional[np.ndarray]
    ) -> LinearProblem:
        """Stream one validated operand set into a :class:`LinearProblem`."""
        band = self.band_gather.fill(pad_matrix(matrix, self._w))
        x_tilde = pad_vector(x, self._w)[self.x_gather]
        padded_b = pad_vector(b if b is not None else np.zeros(self._n), self._w)
        y_sources: List[object] = [
            source
            if isinstance(source, FeedbackSource)
            else ExternalSource(value=float(padded_b[source]), tag=("b", source))
            for source in self.y_skeleton
        ]
        return LinearProblem(
            band=band,
            x=x_tilde,
            y_sources=y_sources,
            x_tags=self.x_tags,
            output_tags=self.output_tags,
            useful_operations=matrix.size,
        )


class MatVecPlan:
    """Shape-keyed execution plan for ``y = A x + b`` on the linear array.

    Immutable once built; :meth:`execute` only streams operand values.  A
    vectorized plan holds the :class:`LinearSweepPlan` and the
    :class:`LinearRunMetrics` (feedback digest included) that every solve
    shares.  The zero-valued template is simulate-only state: a simulate
    plan builds it at plan build, a vectorized one on the first access to
    :attr:`transform`, :meth:`build_problem` or a solution's
    ``transforms``.
    """

    #: Two independent same-plan problems can share one array run through
    #: :meth:`execute_pair` (the api batcher and the graph compiler route
    #: pairable stages through it; the overlapped/split plan cannot, its
    #: idle cycles already carry the second half of its own problem).
    supports_pairing = True

    def __init__(
        self,
        n: int,
        m: int,
        w: int,
        record_trace: bool = False,
        backend: str = SIMULATE,
    ):
        if n < 1 or m < 1:
            raise ShapeError(f"matvec plan needs positive dimensions, got ({n}, {m})")
        self._n = int(n)
        self._m = int(m)
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        self._useful = self._n * self._m
        self._model = MatVecModel(n=self._n, m=self._m, w=self._w, overlapped=False)
        self._lock = threading.Lock()
        self._simulation: Optional[_LinearSimulation] = None
        self._sweep: Optional[LinearSweepPlan] = None
        self._metrics: Optional[LinearRunMetrics] = None
        # Built on the first execute_pair: most plans are never paired.
        self._pair_metrics: Optional[LinearRunMetrics] = None
        if self._backend == VECTORIZED:
            self._sweep = LinearSweepPlan(
                w=self._w,
                n=self._n,
                m=self._m,
                n_bar=block_count(self._n, self._w),
                m_bar=block_count(self._m, self._w),
                useful_operations=self._useful,
            )
            self._metrics = LinearRunMetrics(self._w, [self._sweep])
        else:
            self._simulation_state()  # what a simulate plan runs: build it now

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _built(self, attr: str, build: Callable[[], _T]) -> _T:
        """``self.<attr>``, built by ``build`` once, even when threads race."""
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    value = build()
                    setattr(self, attr, value)
        return value

    def _simulation_state(self) -> _LinearSimulation:
        return self._built(
            "_simulation",
            lambda: _LinearSimulation(self._n, self._m, self._w, self._record_trace),
        )

    # -- geometry -----------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def record_trace(self) -> bool:
        return self._record_trace

    @property
    def transform(self) -> DBTByRowsTransform:
        """The structural template transform (its band values are zeros).

        Simulate-only state: a vectorized plan builds it on first access.
        """
        return self._simulation_state().template

    @property
    def model(self) -> MatVecModel:
        return self._model

    @property
    def sweep_plan(self) -> Optional[LinearSweepPlan]:
        """The sweep skeleton (``None`` on the simulate backend).

        Exposed for engines that layer other datapaths over the same band
        geometry — the :mod:`repro.nn` int8 dense plan drives
        :meth:`~repro.backends.vectorized.LinearSweepPlan.int_sweep`
        through it and hands the outputs back to :meth:`wrap_sweep`.
        """
        return self._sweep

    # -- value streaming ------------------------------------------------------------
    def _validate(
        self, matrix: np.ndarray, x: np.ndarray, b: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape != (self._n, self._m):
            raise ShapeError(
                f"plan was built for shape {(self._n, self._m)}, "
                f"got matrix of shape {matrix.shape}"
            )
        x = as_vector(x, "x")
        if x.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {matrix.shape[1]} columns"
            )
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != matrix.shape[0]:
                raise ShapeError(
                    f"b has length {b.shape[0]} but the matrix has {matrix.shape[0]} rows"
                )
        return matrix, x, b

    def build_problem(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> LinearProblem:
        """Stream one operand set into a ready-to-run :class:`LinearProblem`."""
        return self._simulation_state().problem(*self._validate(matrix, x, b))

    def wrap_sweep(
        self, band_outputs: np.ndarray, y_padded: np.ndarray
    ) -> MatVecSolution:
        """The solution of one :attr:`sweep_plan` run (float or integer).

        Attaches the plan's precomputed run metrics and feedback digest to
        the sweep's outputs; vectorized plans only.
        """
        metrics = self._metrics
        if metrics is None:
            raise BackendError("wrap_sweep needs a vectorized plan")
        return MatVecSolution(
            y=y_padded[: self._n].copy(),
            w=self._w,
            overlapped=False,
            run=metrics.result([band_outputs]),
            model=self._model,
            feedback=metrics.feedback,
            plans=(self,),
        )

    def execute(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        """Solve ``y = A x + b`` through the prebuilt plan."""
        matrix, x, b = self._validate(matrix, x, b)
        if self._sweep is not None:
            return self.wrap_sweep(*self._sweep.sweep(matrix, x, b))
        simulation = self._simulation_state()
        run = simulation.array.run(simulation.problem(matrix, x, b))
        return MatVecSolution(
            y=simulation.template.recover_y(run.y_per_problem[0]),
            w=self._w,
            overlapped=False,
            run=run,
            model=self._model,
            feedback=FeedbackStats.from_delays(run.feedback_delays()),
            plans=(self,),
        )

    def execute_pair(
        self,
        first: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
        second: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ) -> Tuple[MatVecSolution, MatVecSolution]:
        """Run two independent same-shape problems overlapped on odd/even cycles.

        This is the paper's overlapping device applied across *requests*
        instead of across the two halves of one transformed problem: the
        second problem's schedule is shifted by one cycle into the idle
        slots, so the pair finishes in roughly half the sequential time.
        The recovered values are identical to two plain solves.
        """
        sweep = self._sweep
        if sweep is not None:
            swept = [
                sweep.sweep(*self._validate(*operands)) for operands in (first, second)
            ]
            metrics = self._built(
                "_pair_metrics", lambda: LinearRunMetrics(self._w, [sweep, sweep])
            )
            run = metrics.result([band_outputs for band_outputs, _y in swept])
            ys = [y_padded[: self._n].copy() for _outputs, y_padded in swept]
            feedback = metrics.feedback
        else:
            simulation = self._simulation_state()
            run = simulation.array.run_overlapped(
                [self.build_problem(*first), self.build_problem(*second)]
            )
            ys = [
                simulation.template.recover_y(run.y_per_problem[index])
                for index in range(2)
            ]
            feedback = FeedbackStats.from_delays(run.feedback_delays())
        solutions = [
            MatVecSolution(
                y=y,
                w=self._w,
                overlapped=True,
                run=run,
                model=self._model,
                feedback=feedback,
                plans=(self,),
            )
            for y in ys
        ]
        return solutions[0], solutions[1]


class OverlappedMatVecPlan:
    """Plan for the paper's split-and-overlap execution of one problem.

    The original problem is cut at an original block-row boundary into two
    halves whose transformed problems interleave on the array's idle
    cycles; each half gets its own :class:`MatVecPlan` skeleton.  Like a
    plain plan, a vectorized one precomputes its run metrics and builds
    the halves' templates only on demand.
    """

    supports_pairing = False

    def __init__(
        self,
        n: int,
        m: int,
        w: int,
        record_trace: bool = False,
        backend: str = SIMULATE,
    ):
        self._n = int(n)
        self._m = int(m)
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        self._partition = plan_overlap_partition(self._n, self._m, self._w)
        top = self._partition.first_rows
        self._top = MatVecPlan(top, self._m, self._w, backend=self._backend)
        self._bottom = MatVecPlan(self._n - top, self._m, self._w, backend=self._backend)
        self._model = MatVecModel(n=self._n, m=self._m, w=self._w, overlapped=True)
        self._array: Optional[LinearContraflowArray] = None
        self._metrics: Optional[LinearRunMetrics] = None
        if self._backend == VECTORIZED:
            self._metrics = LinearRunMetrics(
                self._w, [self._top.sweep_plan, self._bottom.sweep_plan]
            )
        else:
            self._array = LinearContraflowArray(
                self._w, record_trace=self._record_trace
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def model(self) -> MatVecModel:
        return self._model

    def execute(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape != (self._n, self._m):
            raise ShapeError(
                f"plan was built for shape {(self._n, self._m)}, "
                f"got matrix of shape {matrix.shape}"
            )
        x = as_vector(x, "x")
        if x.shape[0] != self._m:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {self._m} columns"
            )
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != self._n:
                raise ShapeError(
                    f"b has length {b.shape[0]} but the matrix has {self._n} rows"
                )
        top_rows = self._partition.first_rows
        halves = (
            (self._top, matrix[:top_rows, :], None if b is None else b[:top_rows]),
            (self._bottom, matrix[top_rows:, :], None if b is None else b[top_rows:]),
        )
        if self._metrics is not None:
            swept = [plan.sweep_plan.sweep(a, x, b_half) for plan, a, b_half in halves]
            run = self._metrics.result([band_outputs for band_outputs, _y in swept])
            y = np.concatenate(
                [
                    y_padded[: plan.shape[0]]
                    for (plan, _a, _b), (_outputs, y_padded) in zip(halves, swept)
                ]
            )
            feedback = self._metrics.feedback
        else:
            run = self._array.run_overlapped(
                [plan.build_problem(a, x, b_half) for plan, a, b_half in halves]
            )
            y = np.concatenate(
                [
                    plan.transform.recover_y(run.y_per_problem[index])
                    for index, (plan, _a, _b) in enumerate(halves)
                ]
            )
            feedback = FeedbackStats.from_delays(run.feedback_delays())
        return MatVecSolution(
            y=y,
            w=self._w,
            overlapped=True,
            run=run,
            model=self._model,
            feedback=feedback,
            plans=(self._top, self._bottom),
        )


class _HexSimulation:
    """What the cycle-accurate hexagonal array needs to run one plan's shape.

    The operand refill gathers, the spiral feedback token-plan skeleton
    and the simulator itself.  The vectorized sweep reads none of it.
    """

    def __init__(self, operands: MatMulOperands, placement: PartialResultMap):
        w = operands.w
        self.array = HexagonalArray(w, w)
        a_band = operands.a_operand.band
        b_band = operands.b_operand.band
        self.a_gather = _BandGather(
            a_band.rows, a_band.cols, a_band.lower, a_band.upper,
            operands.a_operand.provenance,
        )
        self.b_gather = _BandGather(
            b_band.rows, b_band.cols, b_band.lower, b_band.upper,
            operands.b_operand.provenance,
        )
        # Token-plan skeleton: the spiral feedback wiring is value
        # independent; only the external E injections change per solve.
        feedback: Dict[Tuple[int, int], object] = {}
        externals: List[Tuple[Tuple[int, int], int, int]] = []
        for (alpha, gamma), chain in placement.chains.items():
            first = chain.positions[0]
            externals.append((first, alpha, gamma))
            previous = first
            for position in chain.positions[1:]:
                feedback[position] = HexFeedbackSource(
                    source_row=previous[0],
                    source_col=previous[1],
                    tag=("c", alpha, gamma),
                )
                previous = position
        self.feedback_sources = feedback
        self.external_slots = externals

    def token_plan(self, e: Optional[np.ndarray]) -> CTokenPlan:
        """The C-token plan of one solve: the skeleton plus ``E``'s injections."""
        plan = CTokenPlan(sources=dict(self.feedback_sources))
        if e is not None:
            n, m = e.shape
            for first, alpha, gamma in self.external_slots:
                if alpha < n and gamma < m:
                    value = float(e[alpha, gamma])
                    if value != 0.0:
                        plan.sources[first] = ExternalSource(
                            value=value, tag=("e", alpha, gamma)
                        )
        return plan


class MatMulPlan:
    """Shape-keyed execution plan for ``C = A B + E`` on the hexagonal array.

    Captures the zero-valued operand bands, the partial-result placement
    and (optionally, at *plan* time — structure is all that matters) the
    DBT structural verification; every solution refers to them.  A
    vectorized plan adds the :class:`HexSweepPlan`, whose run metrics and
    feedback digest every solve shares.  The operand refill gathers and
    the spiral feedback token plan are simulate-only state, built only by
    simulate plans.
    """

    def __init__(
        self,
        n: int,
        p: int,
        m: int,
        w: int,
        verify_structure: bool = False,
        backend: str = SIMULATE,
    ):
        if n < 1 or p < 1 or m < 1:
            raise ShapeError(
                f"matmul plan needs positive dimensions, got ({n}, {p}, {m})"
            )
        self._backend = resolve_backend(backend)
        self._n = int(n)
        self._p = int(p)
        self._m = int(m)
        self._w = validate_array_size(w)
        operands = MatMulOperands(
            np.zeros((self._n, self._p)), np.zeros((self._p, self._m)), self._w
        )
        if verify_structure:
            operands.verify_product_coverage()
            if not operands.inner_origins_consistent():
                raise ShapeError("operand bands pair inconsistent inner indices")
        self._operands = operands
        self._placement = PartialResultMap(operands)
        self._useful = self._n * self._p * self._m
        self._model = MatMulModel(n=self._n, p=self._p, m=self._m, w=self._w)
        self._hex_sweep: Optional[HexSweepPlan] = None
        self._simulation: Optional[_HexSimulation] = None
        if self._backend == VECTORIZED:
            self._hex_sweep = HexSweepPlan(operands, self._placement, self._useful)
        else:
            self._simulation = _HexSimulation(operands, self._placement)

    # -- geometry -----------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Problem dimensions ``(n, p, m)`` of ``C[n,m] = A[n,p] B[p,m]``."""
        return (self._n, self._p, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def operands(self) -> MatMulOperands:
        """The structural operand template (its band values are zeros)."""
        return self._operands

    @property
    def placement(self) -> PartialResultMap:
        return self._placement

    @property
    def model(self) -> MatMulModel:
        return self._model

    # -- value streaming ------------------------------------------------------------
    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray] = None,
    ) -> MatMulSolution:
        """Solve ``C = A B + E`` through the prebuilt plan."""
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape != (self._n, self._p) or b.shape != (self._p, self._m):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
            raise ShapeError(
                f"plan was built for shapes {(self._n, self._p)} x "
                f"{(self._p, self._m)}, got {a.shape} x {b.shape}"
            )
        if e is not None:
            e = as_matrix(e, "E")
            if e.shape != (self._n, self._m):
                raise ShapeError(
                    f"E must have shape {(self._n, self._m)}, got {e.shape}"
                )

        if self._hex_sweep is not None:
            c, run = self._hex_sweep.execute(a, b, e)
            feedback = self._hex_sweep.feedback
        else:
            simulation = self._simulation
            run = simulation.array.run(
                simulation.a_gather.fill(pad_matrix(a, self._w)),
                simulation.b_gather.fill(pad_matrix(b, self._w)),
                c_plan=simulation.token_plan(e),
                useful_operations=self._useful,
            )
            c = self._placement.recover_c(run.c_band)
            feedback = FeedbackStats.from_delays(
                run.feedback_delays.values(),
                regular_threshold=regular_delay_threshold(self._w),
            )
        return MatMulSolution(
            c=c,
            w=self._w,
            operands=self._operands,
            placement=self._placement,
            run=run,
            model=self._model,
            feedback=feedback,
        )


class CachedMatVec:
    """Mat-vec engine memoizing one :class:`MatVecPlan` per operand shape.

    Drop-in for the solve surface of the legacy ``SizeIndependentMatVec``:
    the first solve of a shape builds the plan, every later solve of the
    same shape only streams values.  The blocked extension pipelines
    (triangular solve, Gauss-Seidel, LU) issue many same-shape products,
    so sharing one engine across a pipeline warms its plans once.
    """

    #: Per-shape plans kept per engine; least recently used shapes are
    #: dropped beyond this (a dropped plan is simply rebuilt on demand).
    MAX_PLANS = 32

    def __init__(
        self,
        w: int,
        record_trace: bool = False,
        overlapped: bool = False,
        backend: str = SIMULATE,
    ):
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._overlapped = bool(overlapped)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        self._plans: "OrderedDict[Tuple[int, int], object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def w(self) -> int:
        return self._w

    @property
    def overlapped(self) -> bool:
        return self._overlapped

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction accounting of the per-shape plan memo.

        The iterative solvers aggregate these across their inner engines
        to *prove* warm-plan reuse (a k-sweep solve should show one miss
        per distinct inner shape and hits for everything else).
        """
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            maxsize=self.MAX_PLANS,
        )

    def plan_for(self, n: int, m: int):
        """The (memoized) plan for one operand shape."""
        key = (int(n), int(m))
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            counters.bump("plan_builds")
            if self._overlapped:
                plan = OverlappedMatVecPlan(
                    key[0], key[1], self._w,
                    record_trace=self._record_trace,
                    backend=self._backend,
                )
            else:
                plan = MatVecPlan(
                    key[0], key[1], self._w,
                    record_trace=self._record_trace,
                    backend=self._backend,
                )
            self._plans[key] = plan
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
                self._evictions += 1
        else:
            self._hits += 1
            self._plans.move_to_end(key)
        return plan

    def solve(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        matrix = as_matrix(matrix, "matrix")
        return self.plan_for(*matrix.shape).execute(matrix, x, b)


class CachedMatMul:
    """Mat-mul engine memoizing one :class:`MatMulPlan` per operand shape."""

    #: See :attr:`CachedMatVec.MAX_PLANS`.
    MAX_PLANS = 32

    def __init__(self, w: int, verify_structure: bool = False, backend: str = SIMULATE):
        self._w = validate_array_size(w)
        self._verify_structure = bool(verify_structure)
        self._backend = resolve_backend(backend)
        self._plans: "OrderedDict[Tuple[int, int, int], MatMulPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def stats(self) -> CacheStats:
        """See :attr:`CachedMatVec.stats`."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            maxsize=self.MAX_PLANS,
        )

    def plan_for(self, n: int, p: int, m: int) -> MatMulPlan:
        key = (int(n), int(p), int(m))
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            counters.bump("plan_builds")
            plan = MatMulPlan(
                key[0], key[1], key[2], self._w,
                verify_structure=self._verify_structure,
                backend=self._backend,
            )
            self._plans[key] = plan
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
                self._evictions += 1
        else:
            self._hits += 1
            self._plans.move_to_end(key)
        return plan

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray] = None,
    ) -> MatMulSolution:
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
        return self.plan_for(a.shape[0], a.shape[1], b.shape[1]).execute(a, b, e)
