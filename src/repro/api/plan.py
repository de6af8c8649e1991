"""Execution plans and the LRU plan cache.

An :class:`ExecutionPlan` is the immutable product of the *compile* half
of the compile-then-run split: for the array kinds (matvec, matmul) it
wraps a shape-keyed skeleton from :mod:`repro.core.plans` (band geometry,
refill gathers, schedules, placement, token-plan skeleton); for the
blocked pipelines (lu, triangular, gauss_seidel, sparse) it wraps a fully
configured pipeline whose inner per-shape engines warm up on first use.

Plans are keyed by ``(kind, shapes, w, options)`` and held in a
:class:`PlanCache` — the shared LRU with hit/miss/eviction accounting —
so that repeated same-shape solves, the hot path of a serving workload,
skip all transform construction and only stream operand values.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..instrumentation import CacheStats, LRUCache, counters
from ..obs.tracing import NULL_SPAN, active_span
from .config import ArraySpec, ExecutionOptions

__all__ = ["ExecutionPlan", "CacheStats", "PlanCache", "PlanKey", "make_plan_key"]

#: A plan cache key: (kind, shapes, w, options).
PlanKey = Tuple[str, Tuple, int, ExecutionOptions]


def make_plan_key(
    kind: str, shapes: Tuple, w: int, options: ExecutionOptions
) -> PlanKey:
    """The one assembly point for plan cache / service routing keys.

    Everything that derives a key — ``Solver`` (string and typed paths),
    ``Problem.plan_key``, ``Graph.plan_keys`` — goes through here, so the
    field set can never silently diverge between the key a request routes
    by and the key its home shard caches under.
    """
    return (kind, shapes, int(w), options)


class ExecutionPlan:
    """One reusable, immutable compiled problem.

    Obtained from :meth:`repro.api.solver.Solver.plan` (or implicitly by
    ``solve``); execute it any number of times with same-shape operands.
    """

    __slots__ = ("_kind", "_shapes", "_spec", "_options", "_executor", "_handler")

    def __init__(
        self,
        kind: str,
        shapes: Tuple,
        spec: ArraySpec,
        options: ExecutionOptions,
        executor: Any,
        handler: Any,
    ):
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_options", options)
        object.__setattr__(self, "_executor", executor)
        object.__setattr__(self, "_handler", handler)

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
    def supports_pairing(self) -> bool:
        """Whether two independent executions can share one array run.

        True only for the plain matvec plan: ``solve_batch`` and the graph
        compiler route pairs of same-plan stages through
        :meth:`execute_pair` so the second problem rides the idle
        contraflow cycles of the first.
        """
        return bool(getattr(self._executor, "supports_pairing", False))

    @property
    def key(self) -> PlanKey:
        return make_plan_key(self._kind, self._shapes, self._spec.w, self._options)

    def _span(self, name: str):
        """An ambient child span for one plan execution (or the no-op).

        Costs one thread-local read when nothing is tracing — the same
        guarded path the rest of the backend uses.
        """
        parent = active_span()
        if parent is None:
            return NULL_SPAN
        return parent.child(name, category="plan", kind=self._kind)

    def execute(self, *operands, **kwargs):
        """Stream one operand set through the plan; returns a Solution."""
        counters.bump("plan_executions")
        with self._span("plan.execute"):
            return self._handler.execute(self, *operands, **kwargs)

    def execute_problem(self, problem):
        """Stream one *typed* problem through the plan; returns a Solution.

        The typed-problem counterpart of :meth:`execute`: the handler
        consumes the problem object directly instead of re-parsing
        positional operands and kwargs.
        """
        counters.bump("plan_executions")
        with self._span("plan.execute"):
            return self._handler.execute_problem(self, problem)

    def execute_pair(self, first: Tuple, second: Tuple):
        """Run two independent same-plan problems on one shared array run.

        Only valid when :attr:`supports_pairing` is true.  Returns the two
        wrapped :class:`~repro.api.solution.Solution` objects, marked
        ``stats["paired"]`` and with the paper's single-problem step and
        utilization predictions dropped (the closed forms do not cover two
        interleaved requests sharing one run).
        """
        counters.bump("plan_executions", 2)
        with self._span("plan.execute_pair"):
            legacy_a, legacy_b = self._executor.execute_pair(first, second)
        solutions = []
        for legacy in (legacy_a, legacy_b):
            solution = self._handler.wrap(self, legacy)
            solution.stats["paired"] = True
            solution.predicted_steps = None
            solution.predicted_utilization = None
            solutions.append(solution)
        return solutions[0], solutions[1]

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


class PlanCache(LRUCache[PlanKey, ExecutionPlan]):
    """LRU cache of :class:`ExecutionPlan` objects keyed by plan key.

    The shared :class:`~repro.instrumentation.LRUCache`, so a
    :class:`~repro.api.solver.Solver` can be shared between threads (and
    the :mod:`repro.service` shard workers can trust their per-shard
    caches) without torn LRU state or lost accounting.
    """
