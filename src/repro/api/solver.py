"""The unified solver façade: one front door for every problem kind.

:class:`Solver` ties the pieces together — registry dispatch, the
plan/execute split, and the LRU plan cache.  Since the typed-problem
redesign the canonical request representation is a typed problem object
from :mod:`repro.graph`::

    from repro.api import ArraySpec, Solver
    from repro.graph import MatVec

    solver = Solver(ArraySpec(w=4))
    first = solver.solve(MatVec(a, x, b))          # cache miss: builds plan
    second = solver.solve(MatVec(a2, x2, b2))      # cache hit: streams values

The legacy string spelling — ``solver.solve("matvec", a, x, b)`` — keeps
working as a thin shim that builds the equivalent single-node typed
problem (kinds without a typed class, i.e. the comparison baselines and
the ``gauss_seidel`` alias, dispatch directly); new code should prefer
the typed form, and multi-stage workloads should compose problems into a
:class:`~repro.graph.graph.Graph` and run them through
:class:`~repro.graph.compiler.GraphCompiler` so stages fuse, pair, and
reuse plans as a pipeline.

``solve_batch`` reuses one plan across a list of operand sets and, for the
plain matrix-vector kind, automatically routes pairs of requests through
the array's overlapped execution so the idle contraflow cycles of one
request carry the other.
"""

from __future__ import annotations

from typing import (
    Hashable, List, Mapping, Optional, Sequence, Tuple, Type, TYPE_CHECKING,
)

from ..errors import PlanStoreError
from ..graph.problems import Problem, problem_types
from ..instrumentation import LRUCache, counters
from ..obs.tracing import NULL_SPAN, active_span
from .config import ArraySpec, ExecutionOptions
from .plan import ExecutionPlan, CacheStats, PlanCache, PlanKey, make_plan_key
from .registry import get_handler, registered_kinds
from .solution import Solution

# Importing the handlers populates the registry.
from . import problems as _problems  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.compiler import LoweredGraph
    from ..store import PlanStore

__all__ = ["Solver"]


class Solver:
    """Façade over the problem registry with an LRU-cached plan step.

    Parameters
    ----------
    spec:
        An :class:`ArraySpec` or a bare array size ``w``.
    options:
        Solver-wide :class:`ExecutionOptions` defaults; per-call
        ``options=`` arguments override them wholesale.
    plan_cache_size:
        Capacity of the LRU plan cache.  The products that the
        iterative, blocked and prt kinds run inside their own solves are
        plans of this cache too, so they count against it: a triangular
        solve of ``k`` blocks holds up to ``k`` inner mat-vec plans.
        The graph memo beside it (:attr:`lowered_graphs`) holds up to as
        many graph signatures.
    store:
        Optional :class:`~repro.store.PlanStore`, written through: every
        plan this solver builds has its key saved, best-effort (write
        failures are counted, never raised on the solve path).  The
        solver never reads the store — loading a key costs a build
        anyway — so :meth:`~repro.service.service.SolverService.warm_start`
        builds a store's plans before the first request instead.
    """

    def __init__(
        self,
        spec: "ArraySpec | int",
        options: Optional[ExecutionOptions] = None,
        plan_cache_size: int = 128,
        store: "Optional[PlanStore]" = None,
    ):
        self._spec = ArraySpec.of(spec)
        self._options = options if options is not None else ExecutionOptions()
        self._cache = PlanCache(plan_cache_size)
        self._lowered: "LRUCache[Hashable, LoweredGraph]" = LRUCache(
            plan_cache_size
        )
        self._store = store

    # -- introspection ----------------------------------------------------------
    @property
    def spec(self) -> ArraySpec:
        return self._spec

    @property
    def w(self) -> int:
        return self._spec.w

    @property
    def options(self) -> ExecutionOptions:
        return self._options

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction accounting of the plan cache."""
        return self._cache.stats

    @property
    def lowered_graphs(self) -> "LRUCache[Hashable, LoweredGraph]":
        """The graph memo: one value-free lowering per graph signature.

        :class:`~repro.graph.compiler.GraphCompiler` keys it by
        ``(Graph.signature() structure, fuse, base options)``.  An entry
        holds the stage plan keys, and a compile still looks each stage's
        plan up in this solver's plan cache.  It also keeps the program of
        its last all-cached compile, whose stages hold their plans: a
        plan evicted from the cache lives on until its signature compiles
        again or the entry leaves the memo.
        """
        return self._lowered

    @property
    def store(self) -> "Optional[PlanStore]":
        """The plan persistence store, when one was attached."""
        return self._store

    @staticmethod
    def kinds() -> Tuple[str, ...]:
        """All problem kinds the registry can dispatch.

        The stable ``kind -> typed problem class`` mapping behind the
        primary kinds is :meth:`problem_types`; kinds listed here but
        absent there (the comparison baselines, the legacy
        ``gauss_seidel`` alias) only speak the string form.
        """
        return registered_kinds()

    @staticmethod
    def problem_types() -> Mapping[str, Type[Problem]]:
        """Stable mapping of kind to its typed problem class.

        Sorted by kind; see :func:`repro.graph.problem_types`.
        """
        return problem_types()

    # -- lifetime ---------------------------------------------------------------
    def reset(self) -> None:
        """Drop every cached plan and graph lowering, keeping ``cache_stats``.

        After a reset the next same-shape solve recompiles its plan, but
        lifetime hit/miss/eviction accounting survives — the natural
        behaviour for services that recycle solvers between load phases.
        """
        self._cache.clear()
        self._lowered.clear()

    def __enter__(self) -> "Solver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.reset()

    # -- the plan step ----------------------------------------------------------
    def plan_key(
        self,
        kind: "str | Problem",
        *operands,
        shape=None,
        options: Optional[ExecutionOptions] = None,
        **option_overrides,
    ) -> PlanKey:
        """The cache/routing key a solve of this problem would use.

        Computed without compiling anything: ``(kind, shapes, w, options)``.
        This is what :mod:`repro.service` hashes to route a request to a
        shard, so every same-shaped request lands on the same hot cache.
        Pass a typed problem object, or a kind string with either an
        operand set or an explicit ``shape=`` spec.
        """
        if isinstance(kind, Problem):
            problem = kind
            problem.require_bare(operands, option_overrides, shape)
            problem.concrete_operands()  # stage refs get the clear GraphError
            base = options if options is not None else self._options
            # One key-assembly path for typed problems: Problem.plan_key
            # derives the identical (kind, shapes, w, options) tuple the
            # string branch below computes from operands.
            return problem.plan_key(self._spec.w, base)
        handler = get_handler(kind)
        opts = self._resolve_options(options, option_overrides)
        if operands:
            shapes = handler.shapes(operands=operands)
        else:
            shapes = handler.shapes(shape=shape)
        return make_plan_key(handler.kind, shapes, self._spec.w, opts)

    def resolve_plan(
        self,
        kind: str,
        *,
        shape=None,
        options: Optional[ExecutionOptions] = None,
    ) -> Tuple[ExecutionPlan, bool]:
        """Compile-or-fetch a plan for an explicit shape spec.

        Returns ``(plan, from_cache)``.  This is the
        :class:`~repro.graph.compiler.GraphCompiler` lowering entry, and
        the lookup behind :class:`~repro.api.plan.InnerPlans`: pipeline
        stages and the products an executor runs inside its own solve
        resolve their plans here, so they deduplicate through this
        solver's LRU cache exactly like direct solves do (``shape``
        always goes through the handler's normalization, so these keys
        can never drift from solve keys).
        """
        handler = get_handler(kind)
        opts = self._resolve_options(options, {})
        shapes = handler.shapes(shape=shape)
        return self._plan_for(handler, shapes, opts)

    def plan(
        self,
        kind: str,
        *,
        shape=None,
        options: Optional[ExecutionOptions] = None,
        **option_overrides,
    ) -> ExecutionPlan:
        """Compile (or fetch from cache) the plan for one problem shape.

        ``shape`` is the kind's shape spec — ``(n, m)`` for matvec/sparse,
        ``(n, p, m)`` for matmul, ``n`` for the square kinds.  Keyword
        overrides (``overlapped=True``, ...) are merged into the solver's
        default options.
        """
        opts = self._resolve_options(options, option_overrides)
        return self.resolve_plan(kind, shape=shape, options=opts)[0]

    def solve(
        self,
        kind: "str | Problem",
        *operands,
        options: Optional[ExecutionOptions] = None,
        **kwargs,
    ) -> Solution:
        """Plan (with caching) and execute one problem.

        The canonical form takes a typed problem object —
        ``solve(MatVec(a, x, b))`` — which carries its own operands,
        execution arguments and options overrides.  The legacy string
        spelling ``solve("matvec", a, x, b)`` remains supported as a thin
        shim that builds the equivalent typed problem (extra keyword
        arguments are execution arguments of the kind, e.g.
        ``lower=False`` for ``triangular``; options overrides go through
        ``options=``); prefer the typed form in new code.
        """
        if isinstance(kind, Problem):
            kind.require_bare(operands, kwargs)
            return self.solve_problem(kind, options=options)
        problem_class = problem_types().get(kind)
        if problem_class is not None:
            # Constructor errors (wrong arity, bad options, unknown
            # kwargs) propagate: the typed constructors mirror the
            # handlers' execute signatures exactly, so their diagnostics
            # are the authoritative ones for these kinds.
            problem = problem_class.from_call(operands, kwargs, options)
            return self.solve_problem(problem, options=options)
        handler = get_handler(kind)
        opts = self._resolve_options(options, {})
        shapes = handler.shapes(operands=operands)
        plan, hit = self._plan_for(handler, shapes, opts)
        solution = plan.execute(*operands, **kwargs)
        solution.from_cache = hit
        return solution

    def solve_problem(
        self,
        problem: Problem,
        options: Optional[ExecutionOptions] = None,
    ) -> Solution:
        """Plan (with caching) and execute one *typed* problem.

        The single-node fast path of the pipeline machinery: the handler
        consumes the problem object directly — no kwargs re-parsing — and
        the plan key derives from the problem's operand specs and options
        overrides.  Problems referencing other pipeline stages must go
        through :class:`~repro.graph.compiler.GraphCompiler` instead.
        """
        handler = get_handler(problem.kind)
        base = options if options is not None else self._options
        opts = problem.resolved_options(base)
        operands = problem.concrete_operands()
        shapes = handler.shapes(operands=operands)
        plan, hit = self._plan_for(handler, shapes, opts)
        solution = plan.execute_problem(problem)
        solution.from_cache = hit
        return solution

    def solve_batch(
        self,
        kind: "str | Type[Problem]",
        batch: Sequence[Tuple],
        options: Optional[ExecutionOptions] = None,
    ) -> List[Solution]:
        """Solve a list of operand sets, reusing one plan per shape.

        ``kind`` is a kind string or a typed problem class
        (``solver.solve_batch(MatVec, [(a, x), (a2, x2)])``).  For the
        plain (non-overlapped) matvec kind, requests that share a
        plan are grouped and executed *pairwise overlapped* — the second
        problem's schedule slots into the idle cycles of the first — so a
        uniform batch finishes in roughly half the sequential array time
        while producing values identical to sequential solves.  Grouping
        happens by plan, not by adjacency: a shape-interleaved batch
        (A, B, A, B) still pairs the two A's and the two B's.  Results
        come back in the original batch order.
        """
        if isinstance(kind, type) and issubclass(kind, Problem):
            kind = kind.kind
        handler = get_handler(kind)
        opts = self._resolve_options(options, {})
        entries = [tuple(entry) for entry in batch]
        if kind == "matvec":
            entries = [self._matvec_triple(entry) for entry in entries]
        planned = []
        for entry in entries:
            shapes = handler.shapes(operands=entry)
            planned.append(self._plan_for(handler, shapes, opts))

        results: List[Optional[Solution]] = [None] * len(entries)
        pending: List[int] = []
        groups: "dict[int, List[int]]" = {}
        for index, (plan, _hit) in enumerate(planned):
            if plan.supports_pairing:
                groups.setdefault(id(plan), []).append(index)
            else:
                pending.append(index)
        for indices in groups.values():
            for position in range(0, len(indices) - 1, 2):
                first, second = indices[position], indices[position + 1]
                plan = planned[first][0]
                paired = plan.execute_pair(entries[first], entries[second])
                for index, solution in zip((first, second), paired):
                    solution.from_cache = planned[index][1]
                    results[index] = solution
            if len(indices) % 2:
                pending.append(indices[-1])
        for index in pending:
            plan, hit = planned[index]
            solution = plan.execute(*entries[index])
            solution.from_cache = hit
            results[index] = solution
        return results

    # -- internals ----------------------------------------------------------------
    def _resolve_options(
        self,
        options: Optional[ExecutionOptions],
        overrides: dict,
    ) -> ExecutionOptions:
        base = options if options is not None else self._options
        return base.merged(**overrides) if overrides else base

    def preload(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """Build the plan of a stored ``key`` into this cache; no write-back.

        The warm-start entry point.  Returns ``None``, building nothing,
        when the key is already cached; raises what a cold build raises.
        """
        kind, shapes, w, options = key
        if w != self._spec.w:
            raise ValueError(
                f"cannot preload a w={w} plan into a w={self._spec.w} solver"
            )
        handler = get_handler(kind)
        shapes = handler.shapes(shape=shapes)
        key = make_plan_key(handler.kind, shapes, w, options)
        if key in self._cache:
            return None
        return self._build(key, handler, shapes, options)

    def adopt_plan(self, plan: ExecutionPlan) -> None:
        """Install an externally obtained plan into this solver's cache.

        A plan handed over from another solver becomes a cache hit for
        its own key.  The plan must match this solver's array spec —
        executors are compiled against one geometry.  The cache holds a
        copy bound to this solver (see
        :attr:`~repro.api.plan.ExecutionPlan.source`): one plan may be
        adopted by several solvers, and each must resolve its inner plans
        through its own cache.
        """
        if plan.spec.w != self._spec.w:
            raise ValueError(
                f"cannot adopt a plan compiled for w={plan.spec.w} "
                f"into a w={self._spec.w} solver"
            )
        self._cache.put(plan.key, plan.bound_to(self))

    def _plan_for(self, handler, shapes, opts) -> Tuple[ExecutionPlan, bool]:
        return self.resolve_key(
            make_plan_key(handler.kind, shapes, self._spec.w, opts)
        )

    def resolve_key(self, key: PlanKey) -> Tuple[ExecutionPlan, bool]:
        """Compile-or-fetch the plan of a whole plan key of this solver.

        Returns ``(plan, from_cache)``.  The one cache lookup every solve
        and compile goes through; a memoized graph lowering calls it with
        the stage keys it stored, so a warm compile derives no key.
        """
        kind, shapes, _w, opts = key
        plan = self._cache.get(key)
        # Ambient tracing: when some caller (a traced service worker)
        # activated a span, plan lookups report under it — cache hits as
        # zero-cost markers, misses as spans covering the cold build.
        parent = active_span()
        if plan is not None:
            if parent is not None:
                parent.child(
                    "plan_lookup", category="plan",
                    kind=kind, cache="hit",
                ).finish()
            return plan, True
        span = (
            NULL_SPAN if parent is None
            else parent.child(
                "plan_lookup", category="plan",
                kind=kind, cache="miss",
            )
        )
        with span:
            plan = self._build(key, get_handler(kind), shapes, opts)
        self._persist(key)
        return plan, False

    def _build(self, key: PlanKey, handler, shapes, opts) -> ExecutionPlan:
        """Build the plan of ``key`` and cache it (the one build path)."""
        counters.bump("plan_builds")
        plan = ExecutionPlan(
            kind=handler.kind,
            shapes=shapes,
            spec=self._spec,
            options=opts,
            executor=handler.build(self._spec, opts, shapes),
            handler=handler,
            source=self,
        )
        self._cache.put(key, plan)
        return plan

    def _persist(self, key: PlanKey) -> None:
        """Best-effort write-through of a freshly built plan's key.

        An unwritable store must never fail the solve that just compiled
        a perfectly good plan, so write errors are swallowed here (the
        store has already counted them).  An executor's inner plans are
        plans of this cache, each written when built.
        """
        if self._store is None:
            return
        try:
            self._store.save(key)
        except PlanStoreError:
            pass

    @staticmethod
    def _matvec_triple(entry: Tuple) -> Tuple:
        """Normalize a matvec operand set to ``(matrix, x, b)``."""
        if len(entry) == 2:
            return (entry[0], entry[1], None)
        if len(entry) == 3:
            return entry
        raise ValueError(
            f"matvec operand sets are (matrix, x[, b]); got {len(entry)} items"
        )
