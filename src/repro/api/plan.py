"""Execution plans, the LRU plan cache and the inner-plan view.

An :class:`ExecutionPlan` is the immutable product of the *compile* half
of the compile-then-run split: for the array kinds (matvec, matmul) it
wraps a shape-keyed skeleton from :mod:`repro.core.plans` (band geometry,
refill gathers, schedules, placement, token-plan skeleton); for the
blocked pipelines (lu, triangular, sparse) and the iterative kinds it
wraps a configured executor that holds no plans of its own.

Plans are keyed by ``(kind, shapes, w, options)`` and held in a
:class:`PlanCache` — the shared LRU with hit/miss/eviction accounting —
so that repeated same-shape solves, the hot path of a serving workload,
skip all transform construction and only stream operand values.

That one cache also holds every product an executor runs inside its own
solve: a plan knows its :attr:`~ExecutionPlan.source` solver, and
:class:`InnerPlans` resolves each inner mat-vec / mat-mul shape through
it, so a jacobi sweep's ``(n, n)`` product is the same cached, stored
and traced plan as a plain ``MatVec`` of that shape.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..instrumentation import CacheStats, LRUCache, counters
from ..matrices.dense import as_matrix
from ..obs.tracing import NULL_SPAN, active_span
from .config import ArraySpec, ExecutionOptions
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover - typing only; the solver imports this module
    from ..core.matmul import MatMulSolution
    from ..core.matvec import MatVecSolution
    from .solver import Solver

__all__ = [
    "ExecutionPlan",
    "CacheStats",
    "InnerPlans",
    "PlanCache",
    "PlanKey",
    "make_plan_key",
]

#: A plan cache key: (kind, shapes, w, options).
PlanKey = Tuple[str, Tuple, int, ExecutionOptions]


def make_plan_key(
    kind: str, shapes: Tuple, w: int, options: ExecutionOptions
) -> PlanKey:
    """The one assembly point for plan cache / service routing keys.

    Besides :class:`ExecutionPlan` itself, two methods derive a key
    through it: ``Solver.plan_key`` (behind ``Solver.derive``,
    ``plan``, ``solve_batch`` and :class:`InnerPlans`) and
    ``Problem.plan_key`` (behind ``Graph.plan_keys`` and the graph
    compiler's stages), so the field set can never silently diverge
    between the key a request routes by and the key its home shard
    caches under.
    """
    return (kind, shapes, int(w), options)


class ExecutionPlan:
    """One reusable, immutable compiled problem.

    Obtained from :meth:`repro.api.solver.Solver.plan` (or implicitly by
    ``solve``); execute it any number of times with same-shape operands.
    """

    __slots__ = (
        "_kind", "_shapes", "_spec", "_options", "_executor", "_handler",
        "_source", "_key",
    )

    def __init__(
        self,
        kind: str,
        shapes: Tuple,
        spec: ArraySpec,
        options: ExecutionOptions,
        executor: Any,
        handler: Any,
        source: "Optional[Solver]" = None,
    ):
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_options", options)
        object.__setattr__(self, "_executor", executor)
        object.__setattr__(self, "_handler", handler)
        object.__setattr__(
            self, "_source", None if source is None else weakref.ref(source)
        )
        object.__setattr__(
            self, "_key", make_plan_key(kind, shapes, spec.w, options)
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ExecutionPlan is immutable")

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def shapes(self) -> Tuple:
        """The normalized problem shapes the plan was compiled for."""
        return self._shapes

    @property
    def spec(self) -> ArraySpec:
        return self._spec

    @property
    def options(self) -> ExecutionOptions:
        return self._options

    @property
    def executor(self) -> Any:
        """The kind-specific compiled engine (core plan or pipeline)."""
        return self._executor

    @property
    def handler(self) -> Any:
        """The :class:`~repro.api.registry.ProblemHandler` behind the plan."""
        return self._handler

    @property
    def source(self) -> "Optional[Solver]":
        """The :class:`~repro.api.solver.Solver` whose cache holds this plan.

        Held through a weak reference, so a cached plan never keeps its
        solver alive (a plan -> solver -> cache -> plan cycle would leave
        every dropped solver to the cycle collector).  A solver binds the
        plans it builds or adopts.  ``None`` for an unbound plan or a
        dropped solver.
        """
        ref = self._source
        return None if ref is None else ref()

    def bound_to(self, source: "Solver") -> "ExecutionPlan":
        """A copy of this plan (same executor) whose source is ``source``."""
        return ExecutionPlan(
            self._kind, self._shapes, self._spec, self._options,
            self._executor, self._handler, source=source,
        )

    def inner_plans(self) -> "Optional[InnerPlans]":
        """A fresh per-solve :class:`InnerPlans` view of the source's cache.

        Handlers pass it to executors that run products inside their own
        solve; ``None`` (an unbound plan) makes such an executor fall back
        to its private solver.
        """
        source = self.source
        if source is None:
            return None
        return InnerPlans(source, self._options.backend)

    @property
    def supports_pairing(self) -> bool:
        """Whether two independent executions can share one array run.

        True only for the plain matvec plan: ``Solver.execute_many`` and
        the graph compiler route pairs of same-plan problems through
        :meth:`execute_pair` so the second rides the idle contraflow
        cycles of the first.
        """
        return bool(getattr(self._executor, "supports_pairing", False))

    @property
    def key(self) -> PlanKey:
        """The plan's cache and routing key, assembled once at construction."""
        return self._key

    def _span(self, name: str):
        """An ambient child span for one plan execution (or the no-op).

        Costs one thread-local read when nothing is tracing — the same
        guarded path the rest of the backend uses.
        """
        parent = active_span()
        if parent is None:
            return NULL_SPAN
        return parent.child(name, category="plan", kind=self._kind)

    def execute(self, *operands, **kwargs) -> Solution:
        """Stream one operand set through the plan; returns its Solution.

        The handler's :class:`~repro.api.solution.Solution` (for mat-vec
        and mat-mul, the one object the core plan returned), with
        ``plan_key`` set to this plan's key.
        """
        counters.bump("plan_executions")
        with self._span("plan.execute"):
            solution = self._handler.execute(self, *operands, **kwargs)
        solution.plan_key = self._key
        return solution

    def execute_pair(
        self, first: Tuple, second: Tuple
    ) -> "Tuple[MatVecSolution, MatVecSolution]":
        """Run two independent same-plan problems on one shared array run.

        Only valid when :attr:`supports_pairing` is true.  Each operand
        set is ``(matrix, x)`` or ``(matrix, x, b)``.  Returns the core
        plan's two :class:`~repro.core.matvec.MatVecSolution` objects,
        each marked in place: ``stats["paired"]``, ``plan_key``, and the
        paper's single-problem step and utilization predictions set to
        ``None`` (the closed forms do not cover two interleaved requests
        sharing one run; ``raw.model`` still holds them).  Counted once
        it has run: a pair that raises reruns as two counted single
        executions.
        """
        first, second = _matvec_triple(first), _matvec_triple(second)
        with self._span("plan.execute_pair"):
            pair = self._executor.execute_pair(first, second)
        counters.bump("plan_executions", 2)
        for solution in pair:
            solution.stats["paired"] = True
            solution.predicted_steps = None
            solution.predicted_utilization = None
            solution.plan_key = self._key
        return pair

    def describe(self) -> str:
        text = (
            f"ExecutionPlan(kind={self._kind!r}, shapes={self._shapes}, "
            f"w={self._spec.w}"
        )
        if self._options.dtype_mode != "float64":
            text += f", dtype_mode={self._options.dtype_mode!r}"
        return text + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def _matvec_triple(operands: Tuple) -> Tuple:
    """Normalize a matvec operand set to ``(matrix, x, b)``."""
    if len(operands) == 2:
        return (operands[0], operands[1], None)
    if len(operands) == 3:
        return operands
    raise ValueError(
        f"matvec operand sets are (matrix, x[, b]); got {len(operands)} items"
    )


class PlanCache(LRUCache[PlanKey, ExecutionPlan]):
    """LRU cache of :class:`ExecutionPlan` objects keyed by plan key.

    The shared :class:`~repro.instrumentation.LRUCache`, so a
    :class:`~repro.api.solver.Solver` can be shared between threads (and
    the :mod:`repro.service` shard workers can trust their per-shard
    caches) without torn LRU state or lost accounting.
    """


@lru_cache(maxsize=None)
def _inner_options(backend: str) -> ExecutionOptions:
    """The options of an inner plan: a plain solve's, on the parent's backend.

    Built once per backend name; an ``ExecutionOptions`` costs more than
    the lookup it keys.
    """
    return ExecutionOptions(backend=backend)


class InnerPlans:
    """One solve's view of the plan cache that holds the solve's own plan.

    The executors that run products inside their own solve — the
    iterative kinds, lu, triangular and prt — take one as ``plans``.
    Each distinct inner shape is resolved once per solve through
    :meth:`~repro.api.solver.Solver.resolve_key`, keyed by
    :meth:`~repro.api.solver.Solver.plan_key` under
    ``ExecutionOptions(backend=<parent backend>)``: the key a plain solve
    of that shape uses, so an inner ``(n, n)`` mat-vec is the same cached,
    traced and counted plan as a plain ``MatVec`` of that shape, and its
    key is stored like one.
    Later uses within the solve are counted as hits without a lookup.

    The tally belongs to this solve alone, so it stays exact while other
    threads share the solver.  A miss is an inner plan the solve had to
    build.
    """

    __slots__ = ("_source", "_options", "_executors", "_hits", "_misses")

    def __init__(self, source: "Solver", backend: str):
        self._source = source
        self._options = _inner_options(backend)
        self._executors: Dict[Tuple[str, Tuple[int, ...]], Any] = {}
        self._hits = 0
        self._misses = 0

    @property
    def misses(self) -> int:
        """Inner plans this solve has built so far."""
        return self._misses

    @property
    def stats(self) -> CacheStats:
        """This solve's inner lookups: hits, misses and distinct shapes."""
        return CacheStats(
            hits=self._hits, misses=self._misses, size=len(self._executors)
        )

    def _executor(self, kind: str, shape: Tuple[int, ...]) -> Any:
        key = (kind, shape)
        executor = self._executors.get(key)
        if executor is not None:
            self._hits += 1
            return executor
        source = self._source
        plan, cached = source.resolve_key(
            source.plan_key(kind, shape=shape, options=self._options)
        )
        if cached:
            self._hits += 1
        else:
            self._misses += 1
        executor = self._executors[key] = plan.executor
        return executor

    def matvec(
        self, a: np.ndarray, x: np.ndarray, b: Optional[np.ndarray] = None
    ) -> "MatVecSolution":
        """``y = a x + b`` through the cached plan of ``a``'s shape."""
        a = as_matrix(a, "matrix")
        return self._executor("matvec", a.shape).execute(a, x, b)

    def matmul(
        self, a: np.ndarray, b: np.ndarray, e: Optional[np.ndarray] = None
    ) -> "MatMulSolution":
        """``C = a b + e`` through the cached plan of the product's shape."""
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
        shape = (a.shape[0], a.shape[1], b.shape[1])
        return self._executor("matmul", shape).execute(a, b, e)
