"""The unified solver façade: one front door for every problem kind.

:class:`Solver` ties the pieces together — registry dispatch, the
plan/execute split, and the LRU plan cache.  The canonical request
representation is a typed problem object from :mod:`repro.graph`::

    from repro.api import ArraySpec, Solver
    from repro.graph import MatVec

    solver = Solver(ArraySpec(w=4))
    first = solver.solve(MatVec(a, x, b))          # cache miss: builds plan
    second = solver.solve(MatVec(a2, x2, b2))      # cache hit: streams values

The string spelling — ``solver.solve("matvec", a, x, b)`` — builds the
equivalent typed problem, so it takes the typed constructor's keywords:
execution arguments (``lower=``, ``x0=``) and option keywords, each
named as the :class:`ExecutionOptions` field it overrides
(``overlapped=``, ``omega=``, ``tolerance=``, ``criteria=``).  Either
spelling goes through one derivation, :meth:`Solver.derive`, which
turns the call into its plan key, operands and execution arguments;
:meth:`Solver.plan_key` and :class:`~repro.service.SolverService` take
the same keywords and give the same key, so a request runs under the
key it was routed by.  Multi-stage workloads compose problems into a
:class:`~repro.graph.graph.Graph` and run them through
:class:`~repro.graph.compiler.GraphCompiler` so stages fuse, pair, and
reuse plans as a pipeline.

``solve_batch`` reuses one plan across a list of operand sets and, for the
plain matrix-vector kind, automatically routes pairs of requests through
the array's overlapped execution so the idle contraflow cycles of one
request carry the other, through :meth:`Solver.execute_many`: the one
group path, which the service's shard workers call too.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Type,
    TYPE_CHECKING,
)

from ..errors import PlanStoreError, ProblemKindError
from ..graph.problems import Problem, problem_types
from ..instrumentation import LRUCache, counters
from ..obs.tracing import NULL_SPAN, active_span
from .config import ArraySpec, ExecutionOptions
from .plan import (
    ExecutionPlan, CacheStats, PlanCache, PlanKey, _matvec_triple, make_plan_key,
)
from .registry import get_handler, registered_kinds
from .solution import Solution

# Importing the handlers populates the registry.
from . import problems as _problems  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.compiler import LoweredGraph
    from ..store import PlanStore

__all__ = ["Solver"]


def _problem_class(kind: str) -> Type[Problem]:
    """The typed class behind a string call of ``kind``."""
    problem_class = problem_types().get(kind)
    if problem_class is None:
        get_handler(kind)  # an unknown kind gets the did-you-mean error
        raise ProblemKindError(
            f"kind {kind!r} has no typed problem class: its stages are "
            f"compiler-generated, and no string call can name it"
        )
    return problem_class


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

        The stable ``kind -> typed problem class`` mapping is
        :meth:`problem_types`; the one kind listed here but absent there,
        the graph compiler's ``fused``, has no string spelling.
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
        **kwargs,
    ) -> PlanKey:
        """The cache/routing key a solve of this problem would use.

        Computed without compiling anything: ``(kind, shapes, w, options)``.
        Pass a typed problem object, whose every operand is validated, or
        a kind string with either the operands and keywords of a solve
        (the key is ``derive(kind, *operands, **kwargs)[0]``) or an
        explicit ``shape=`` spec, not both: operands with ``shape=`` raise
        ``TypeError``, as a typed problem with ``shape=`` does.  With
        ``shape=`` the keywords may be only the kind's option keywords,
        applied over its presets, so the key is the one a solve of that
        shape with those keywords runs under.
        """
        base = options if options is not None else self._options
        if isinstance(kind, Problem):
            kind.require_bare(operands, kwargs, shape)
            kind.concrete_operands()  # stage refs get the clear GraphError
            return kind.plan_key(self._spec.w, base)
        if operands:
            if shape is not None:
                raise TypeError(
                    "plan_key takes either operands or shape=, not both"
                )
            return self.derive(kind, *operands, options=options, **kwargs)[0]
        shapes = get_handler(kind).shapes(shape=shape)
        resolved = _problem_class(kind).options_under(base, kwargs)
        return make_plan_key(kind, shapes, self._spec.w, resolved)

    def derive(
        self,
        kind: "str | Problem",
        *operands,
        options: Optional[ExecutionOptions] = None,
        **kwargs,
    ) -> Tuple[PlanKey, Tuple, Dict[str, Any]]:
        """One solve call as ``(plan key, operands, execution kwargs)``.

        The one derivation behind :meth:`solve`, :meth:`plan_key` and
        :meth:`~repro.service.service.SolverService.submit`.  A typed
        problem, or the one a kind string builds through
        :meth:`~repro.graph.problems.Problem.from_call` (so a wrong arity
        or an unknown keyword raises here), yields its operands, its
        execution arguments (``lower=``, ``x0=``, ...) and a key whose
        options carry the kind's presets and its option keywords
        (``overlapped=``, ``omega=``, ``criteria=``, ...).  Shapes are
        read from the primary operand; the other operands are checked
        when the plan executes.  Executing the operands and kwargs under
        ``options=key[3]`` derives ``key`` again.
        """
        if isinstance(kind, Problem):
            kind.require_bare(operands, kwargs)
            problem = kind
        else:
            problem = _problem_class(kind).from_call(operands, kwargs, options)
        base = options if options is not None else self._options
        operands = problem.concrete_operands()
        shapes = get_handler(problem.kind).shapes(operands=operands)
        resolved = problem.resolved_options(base)
        key = make_plan_key(problem.kind, shapes, self._spec.w, resolved)
        return key, operands, problem.execute_kwargs()

    def plan(
        self,
        kind: str,
        *,
        shape=None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> ExecutionPlan:
        """Compile (or fetch from cache) the plan for one problem shape.

        ``shape`` is the kind's shape spec — ``(n, m)`` for matvec/sparse,
        ``(n, p, m)`` for matmul, ``n`` for the square kinds.  Keywords
        are the kind's option keywords (``overlapped=True``, ...), as for
        :meth:`plan_key`; every other field goes through ``options=``.
        """
        key = self.plan_key(kind, shape=shape, options=options, **overrides)
        return self.resolve_key(key)[0]

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
        execution arguments and options overrides.  The string spelling
        ``solve("matvec", a, x, b)`` builds the equivalent typed problem,
        so its keywords are the typed constructor's: execution arguments
        (``lower=False`` for ``triangular``) and option keywords
        (``overlapped=True``, ``omega=1.5``).  See :meth:`derive`.
        """
        key, operands, kwargs = self.derive(
            kind, *operands, options=options, **kwargs
        )
        plan, hit = self.resolve_key(key)
        solution = plan.execute(*operands, **kwargs)
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
        (``solver.solve_batch(MatVec, [(a, x), (a2, x2)])``).  Entries
        are keyed by their primary operand's shape, through
        :meth:`plan_key`'s ``shape=`` form, and each key's entries run as
        one :meth:`execute_many` group, so plain matvec entries execute
        *pairwise overlapped* — the second problem's schedule slots into
        the idle cycles of the first — in about half the sequential array
        time, with values identical to sequential solves.  A
        shape-interleaved batch (A, B, A, B) pairs the A's and the B's,
        and a one-plan cache builds each plan once.  Results come back in
        batch order; the first failed entry's exception is raised.
        """
        if isinstance(kind, type) and issubclass(kind, Problem):
            kind = kind.kind
        handler = get_handler(kind)  # an unknown kind fails even when empty
        entries = [tuple(entry) for entry in batch]
        groups: Dict[PlanKey, List[int]] = {}
        for index, entry in enumerate(entries):
            shape = handler.shapes(operands=entry)
            key = self.plan_key(kind, shape=shape, options=options)
            groups.setdefault(key, []).append(index)
        results: List[Any] = [None] * len(entries)
        for key, indices in groups.items():
            group = [(entries[index], {}) for index in indices]
            for index, outcome in zip(indices, self.execute_many(key, group)):
                results[index] = outcome
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
        return results

    def execute_many(
        self,
        key: PlanKey,
        entries: Sequence[Tuple[Tuple, Mapping[str, Any]]],
    ) -> List["Solution | Exception"]:
        """Execute a group of ``(operands, kwargs)`` entries of one plan key.

        The one path a same-key group takes, from :meth:`solve_batch` and
        the service's shard workers.  The key is looked up once per entry,
        as one solve per entry would.  A pairable plan reads every entry
        as ``(matrix, x[, b])`` and runs the kwargs-free ones two at a
        time through :meth:`ExecutionPlan.execute_pair`, the paper's
        odd/even-cycle overlap.  Every other entry, and both entries of a
        pair that raised, run alone through :meth:`ExecutionPlan.execute`.
        Returns each entry's :class:`Solution` or the exception it raised,
        in entry order; a plan that fails to build fails every entry.
        """
        try:
            planned = [self.resolve_key(key) for _ in entries]
        except Exception as exc:
            return [exc for _ in entries]
        outcomes: List[Any] = [None] * len(entries)
        pairable = bool(planned) and planned[0][0].supports_pairing
        if pairable:
            free = [i for i, (_, kwargs) in enumerate(entries) if not kwargs]
            for first, second in zip(free[0::2], free[1::2]):
                try:
                    outcomes[first], outcomes[second] = planned[first][0].execute_pair(
                        entries[first][0], entries[second][0]
                    )
                except Exception:
                    pass  # both entries run alone below
        for index, (operands, kwargs) in enumerate(entries):
            if outcomes[index] is None:
                try:
                    if pairable:
                        operands = _matvec_triple(operands)
                    outcomes[index] = planned[index][0].execute(*operands, **kwargs)
                except Exception as exc:
                    outcomes[index] = exc
        for (_plan, hit), outcome in zip(planned, outcomes):
            if not isinstance(outcome, Exception):
                outcome.from_cache = hit
        return outcomes

    # -- internals ----------------------------------------------------------------
    def preload(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """Build the plan of a stored ``key`` into this cache; no write-back.

        The warm-start entry point.  The key is rebuilt exactly as stored:
        its shapes are normalized through the kind's handler, and its
        options, presets included, are kept as they are.  Returns
        ``None``, building nothing, when the key is already cached;
        raises what a cold build raises.
        """
        kind, shapes, w, options = key
        if w != self._spec.w:
            raise ValueError(
                f"cannot preload a w={w} plan into a w={self._spec.w} solver"
            )
        key = make_plan_key(kind, get_handler(kind).shapes(shape=shapes), w, options)
        if key in self._cache:
            return None
        return self._build(key)

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

    def resolve_key(self, key: PlanKey) -> Tuple[ExecutionPlan, bool]:
        """Compile-or-fetch the plan of a whole plan key of this solver.

        Returns ``(plan, from_cache)``.  The one cache lookup every solve,
        :meth:`plan`, :meth:`solve_batch`, graph compile and
        :class:`~repro.api.plan.InnerPlans` view goes through; a memoized
        graph lowering calls it with the stage keys it stored, so a warm
        compile derives no key.
        """
        plan = self._cache.get(key)
        # Ambient tracing: when some caller (a traced service worker)
        # activated a span, plan lookups report under it — cache hits as
        # zero-cost markers, misses as spans covering the cold build.
        parent = active_span()
        if plan is not None:
            if parent is not None:
                parent.child(
                    "plan_lookup", category="plan",
                    kind=key[0], cache="hit",
                ).finish()
            return plan, True
        span = (
            NULL_SPAN if parent is None
            else parent.child(
                "plan_lookup", category="plan",
                kind=key[0], cache="miss",
            )
        )
        with span:
            plan = self._build(key)
        self._persist(key)
        return plan, False

    def _build(self, key: PlanKey) -> ExecutionPlan:
        """Build the plan of ``key`` and cache it (the one build path)."""
        kind, shapes, _w, opts = key
        handler = get_handler(kind)
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
