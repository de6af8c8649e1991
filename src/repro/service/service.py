"""The serving front door: futures in, plan-keyed shard routing behind.

:class:`SolverService` is the concurrent counterpart of the synchronous
:class:`~repro.api.solver.Solver` façade::

    from repro.api import ArraySpec
    from repro.service import SolverService

    with SolverService(ArraySpec(w=4), n_shards=4) as service:
        future = service.submit("matvec", a, x)      # returns immediately
        solution = future.result()                    # same Solution protocol
        print(service.stats().describe())

``submit`` derives the request's plan key, operands and execution
arguments through :meth:`~repro.api.solver.Solver.derive` — unknown
kinds, bad *primary-operand* shapes and string calls of the wrong arity
fail at the call site; mismatches among the remaining operands (a
wrong-length ``x``) surface through the future, isolated to the
offending request — then routes the request through the service's
:class:`~repro.service.placement.PlacementTable`: an explicit key→shard
mapping whose default policy is a *stable* (PYTHONHASHSEED-independent)
hash, inspectable via ``service.placement`` and rebalanceable per key.
Determinism of that routing is the core scaling trick: a given plan
compiles once per service — on the one shard that will ever see it — and
every subsequent same-shape request hits that shard's warm cache.  The
admission batcher then flushes same-plan neighbours together, so a burst
of identical requests costs one queue round-trip and, for matvec, rides
the paper's overlapped contraflow execution in pairs.

Every graph takes one path: ``submit_graph`` compiles it once against
the service's shared compile solver, splits the program into segments
placed per stage plan key — a run of levels on one shard is one
segment — and streams segments across shards through bounded handoff
lanes where the placement crosses shards: level k of one request
overlaps level k−1 of the next (the paper's systolic flow lifted one
architectural layer up), with results bit-identical to
:meth:`~repro.graph.program.PipelineProgram.run`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, wait as wait_for
from typing import (
    Any, Hashable, List, Mapping, Optional, Sequence, Set, Tuple,
    TYPE_CHECKING, Union,
)

from ..api.config import ArraySpec, ExecutionOptions
from ..api.plan import PlanKey
from ..api.solution import Solution
from ..api.solver import Solver
from ..errors import (
    RateLimitedError, ServiceClosedError, ServiceOverloadedError,
)
from ..graph.compiler import GraphCompiler
from ..graph.graph import Graph
from ..graph.problems import Problem
from ..graph.program import PipelineProgram, PipelineResult, ProgramSegment
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_SPAN, NULL_TRACER, Tracer
from .backpressure import BACKPRESSURE_POLICIES, BoundedRequestQueue
from .batcher import DEFAULT_MAX_BATCH_DELAY
from .pipeline import PipelinedGraphJob, SegmentTask
from .placement import PlacementTable
from .qos import (
    PRIORITY_NORMAL, ClientRateLimiter, RateLimit, priority_name,
    resolve_priority,
)
from .request import RequestTrace, SolveRequest
from .telemetry import ServiceStats, ShardTelemetry
from .workers import ShardWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import PlanStore

__all__ = ["SolverService"]


def _as_rate_limit(value: "RateLimit | float | int") -> RateLimit:
    """Normalize a rate-limit argument (bare numbers mean req/s)."""
    if isinstance(value, RateLimit):
        return value
    return RateLimit(rate=float(value))


class SolverService:
    """Concurrent, sharded, batching serving layer over cached solver plans.

    Parameters
    ----------
    spec:
        The target :class:`ArraySpec` (or a bare array size ``w``); every
        shard solves against the same array geometry.
    n_shards:
        Worker count.  Each shard owns a private
        :class:`~repro.api.solver.Solver` (and therefore a private plan
        cache) and a single execution thread.
    options:
        Service-wide :class:`ExecutionOptions` defaults; per-request
        ``options=`` overrides them wholesale (and routes to a different
        plan, hence possibly a different shard).
    queue_depth:
        Bounded pending-request capacity *per shard*.
    backpressure:
        Full-queue policy: ``"block"`` (default), ``"reject"`` or
        ``"shed_oldest"`` — see :mod:`repro.service.backpressure`.
    max_batch_size / max_batch_delay:
        Admission-window bounds per flush — see
        :mod:`repro.service.batcher`.  A window is a shard's next request
        plus whatever queued behind it, up to ``max_batch_size``.  At the
        default ``max_batch_delay`` of 0 a shard never waits for
        companions, so an unloaded request pays only for its solve and
        batches form from the backlog under load; a positive value makes
        each window linger up to that many seconds for same-plan
        requests.  ``shed_oldest`` protects a class from lower classes
        at any window, the default of 0 included: it sheds a request
        only when nothing of a lower class is queued on that shard.  A
        linger only helps when one class alone overfills its home
        shard's queue and so must shed its own oldest requests: a
        lingering worker pulls a larger window out of the full queue
        first.  ``benchmarks/test_soak.py`` proves the first promise at
        0 and checks the second case at 0.5 ms.  In that case, on a
        2-core host, the high class shed 9.5 requests per run at 0.5 ms
        and 13.2 at 0, where the shed order inverted in 1 of 40 runs.
    plan_cache_size:
        Per-shard plan cache capacity.
    submit_timeout:
        Under the ``block`` policy, how long ``submit`` may wait for queue
        space before raising :class:`ServiceOverloadedError`
        (``None`` = wait indefinitely).
    store:
        Optional :class:`~repro.store.PlanStore` shared by every shard
        solver (and the graph compile solver): every plan they build has
        its key written through, and construction builds every stored
        plan of this ``w`` (:meth:`warm_start`), so a cold process
        answers request #1 at warm-cache latency with zero plan builds.
    rate_limits / default_rate_limit:
        Per-client admission budgets: a mapping of client id →
        :class:`~repro.service.qos.RateLimit` (bare numbers mean
        requests/second), plus an optional default for unlisted
        clients.  Requests without a ``client_id`` are never limited.
    """

    def __init__(
        self,
        spec: "ArraySpec | int",
        *,
        n_shards: int = 4,
        options: Optional[ExecutionOptions] = None,
        queue_depth: int = 64,
        backpressure: str = "block",
        max_batch_size: int = 16,
        max_batch_delay: float = DEFAULT_MAX_BATCH_DELAY,
        plan_cache_size: int = 128,
        submit_timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        store: "Optional[PlanStore]" = None,
        rate_limits: Optional[Mapping[str, "RateLimit | float | int"]] = None,
        default_rate_limit: "RateLimit | float | int | None" = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if backpressure not in BACKPRESSURE_POLICIES:
            known = ", ".join(BACKPRESSURE_POLICIES)
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; one of: {known}"
            )
        self._spec = ArraySpec.of(spec)
        self._options = options if options is not None else ExecutionOptions()
        self._policy = backpressure
        self._submit_timeout = submit_timeout
        self._closed = False
        # Futures of admitted graph jobs not yet resolved: a draining
        # close() waits on them while the handoff lanes are still open.
        self._jobs: "Set[Future[PipelineResult]]" = set()
        self._jobs_lock = threading.Lock()
        self._store = store
        self._limiter: Optional[ClientRateLimiter] = None
        if rate_limits or default_rate_limit is not None:
            self._limiter = ClientRateLimiter(
                limits={
                    client: _as_rate_limit(limit)
                    for client, limit in (rate_limits or {}).items()
                },
                default=(
                    None if default_rate_limit is None
                    else _as_rate_limit(default_rate_limit)
                ),
            )
        # Request-scoped tracing; NULL_TRACER (the default) makes every
        # span call a guarded no-op on the serving path.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # One registry for the whole fleet: every shard's telemetry
        # instruments live here, labelled by shard.
        self._metrics = MetricsRegistry()
        self._placement = PlacementTable(int(n_shards))
        # Graphs compile here — one shared, lock-guarded plan cache — so a
        # re-submitted graph splits into segments carrying the *same* warm
        # plan objects (zero rebuilds), and a given plan key always
        # executes on its one placed shard.  Kept out of
        # ``stats().cache``: that column reports the shard-local serving
        # caches.
        self._compile_solver = Solver(
            self._spec, self._options, plan_cache_size=plan_cache_size,
            store=store,
        )
        self._shards: List[ShardWorker] = []
        for shard_id in range(int(n_shards)):
            telemetry = ShardTelemetry(shard_id, registry=self._metrics)
            queue = BoundedRequestQueue(
                queue_depth, policy=backpressure,
                depth_gauge=telemetry.queue_depth,
                handoff_gauge=telemetry.handoff_depth,
            )
            worker = ShardWorker(
                shard_id=shard_id,
                solver=Solver(
                    self._spec, self._options,
                    plan_cache_size=plan_cache_size, store=store,
                ),
                queue=queue,
                telemetry=telemetry,
                max_batch_size=max_batch_size,
                max_batch_delay=max_batch_delay,
            )
            self._shards.append(worker)
        # Build the stored plans on their placed shards before any worker
        # thread runs, so request #1 of a cold process hits a warm cache
        # (zero plan builds).
        self.warm_start()
        for worker in self._shards:
            worker.start()

    # -- introspection ----------------------------------------------------------
    @property
    def spec(self) -> ArraySpec:
        return self._spec

    @property
    def options(self) -> ExecutionOptions:
        return self._options

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def backpressure(self) -> str:
        return self._policy

    @property
    def shards(self) -> Tuple[ShardWorker, ...]:
        """The shard workers (read-only view, e.g. for tests and tooling)."""
        return tuple(self._shards)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def tracer(self) -> Tracer:
        """The service's tracer (the shared no-op tracer unless one was given)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The fleet-wide metrics registry backing every shard's telemetry."""
        return self._metrics

    @property
    def store(self) -> "Optional[PlanStore]":
        """The plan persistence store shared by the shard solvers."""
        return self._store

    @property
    def rate_limiter(self) -> Optional[ClientRateLimiter]:
        """The per-client admission limiter (``None`` = unlimited)."""
        return self._limiter

    def warm_start(self) -> int:
        """Build every stored plan of this service's ``w``; the number built.

        The shard a key routes to builds its plan once, and every other
        shard and the compile solver adopt it: a jacobi, LU, triangular
        or PRT solve takes its inner products from its own shard's cache,
        and graphs reuse warm stage plans.  The copies share an executor,
        which holds no per-solve state.  A key already cached on its
        shard is skipped, so a second call builds nothing; each key built
        counts one store hit, and a key that does not build is counted in
        the store's errors.  Nothing is written back.  Also callable
        later, for keys other processes wrote.
        """
        if self._store is None:
            return 0
        count = 0
        solvers = [worker.solver for worker in self._shards]
        solvers.append(self._compile_solver)
        for key in self._store.keys():
            if key[2] != self._spec.w:
                continue
            home = self._shards[self._placement.shard_of(key)].solver
            try:
                plan = home.preload(key)
            except Exception:  # unbuildable: as unusable as a corrupt file
                self._store.count_error()
                continue
            if plan is None:
                continue
            self._store.count_hit()
            for solver in solvers:
                if solver is not home:
                    solver.adopt_plan(plan)
            count += 1
        return count

    def plan_key(
        self,
        kind: "str | Problem",
        *operands,
        shape=None,
        options: Optional[ExecutionOptions] = None,
        **kwargs,
    ) -> PlanKey:
        """The routing key a request would use (validates kind and shapes).

        Takes what :meth:`submit` takes — a typed problem, or a kind
        string with its operands and keywords — or a kind string with
        ``shape=`` and option keywords, as
        :meth:`~repro.api.solver.Solver.plan_key` does.  Delegates to a
        shard solver (all shards share the service's spec and default
        options) so routing keys can never diverge from the keys the
        shard caches actually use.
        """
        return self._shards[0].solver.plan_key(
            kind, *operands, shape=shape, options=options, **kwargs
        )

    @property
    def placement(self) -> PlacementTable:
        """The routing table: inspect (``snapshot()``), pin (``assign``)
        or release per-key shard placements.  Rebalancing governs
        subsequent lookups only — quiesce a key before moving it."""
        return self._placement

    def shard_index(self, key: "PlanKey | Any") -> int:
        """Which shard a routing key maps to (stable across processes).

        Single solves route by their 4-tuple plan key, graph segments by
        their stage plan keys, and a graph job's whole-job accounting by
        ``("__graph__", stage keys, w, options)``.  Routing
        goes through the :class:`PlacementTable`, whose default policy is
        a stable value hash — unlike built-in ``hash()``, it does not
        vary with ``PYTHONHASHSEED``, so a warm shard layout reproduces
        run to run.
        """
        return self._placement.shard_of(key)

    # -- the serving surface ------------------------------------------------------
    def submit(
        self,
        kind: "str | Problem",
        *operands,
        options: Optional[ExecutionOptions] = None,
        timeout: Optional[float] = None,
        priority: Union[str, int] = "normal",
        client_id: Optional[str] = None,
        **kwargs,
    ) -> "Future[Solution]":
        """Admit one solve request; returns the future of its ``Solution``.

        ``kind`` is a typed problem object (``service.submit(MatVec(a,
        x))``) or a kind string with the typed constructor's positional
        operands and keywords.  Both spellings go through
        :meth:`~repro.api.solver.Solver.derive`, so they share plan keys,
        shards and admission batches, and a request is routed by the key
        its shard runs it under.  What fails here, at the call site: an
        unknown kind, a bad primary-operand shape, a string call of the
        wrong arity (``submit("matvec", a)`` raises ``TypeError``,
        ``submit("jacobi", A)`` a :class:`~repro.errors.ShapeError`) and
        a keyword the kind's typed constructor does not take
        (``submit("prt", A, x, bogus=1)`` raises ``TypeError``).  A
        mismatch among the other operands (a wrong-length ``x``) fails
        through the future.

        Option keywords, each named as the
        :class:`~repro.api.config.ExecutionOptions` field it overrides
        (``overlapped=True``, ``omega=1.5``, ``tolerance=``,
        ``criteria=``, ``dtype_mode=``), ride in the routing key, so such
        a request batches like any same-key request.  Execution arguments (``lower=False``,
        ``x0=...``) ride with the request, which batches with its key's
        other requests too; the worker runs them without re-deriving.
        ``timeout`` is the request's *deadline* budget in seconds: if no
        worker gets to it in time it fails with
        :class:`~repro.errors.DeadlineExceededError`.  ``priority`` is
        the request's admission class (``"low"``/``"normal"``/``"high"``
        or an integer level) — under ``shed_oldest`` overload, lower
        classes are evicted first.  ``client_id`` names the submitting
        client; when the service has rate limits, a client out of budget
        gets a synchronous :class:`~repro.errors.RateLimitedError`.
        """
        if self._closed:
            raise ServiceClosedError("cannot submit to a closed service")
        level = resolve_priority(priority)
        key, operands, kwargs = self._shards[0].solver.derive(
            kind, *operands, options=options, **kwargs
        )
        kind = key[0]
        request = SolveRequest(
            kind=kind,
            operands=tuple(operands),
            plan_key=key,
            kwargs=dict(kwargs),
            deadline=None if timeout is None else time.monotonic() + timeout,
            priority=level,
            client_id=client_id,
        )
        if self._tracer.enabled:
            request.trace = RequestTrace(
                tracer=self._tracer,
                root=self._tracer.start_trace(
                    f"request {kind}", kind=kind,
                    priority=priority_name(level),
                ),
            )
        if not self._admit_client(client_id, key):
            exc = RateLimitedError(
                f"client {client_id!r} exceeded its admission rate limit"
            )
            request.fail(exc)  # closes the trace root; future never surfaced
            raise exc
        return self._admit(request)

    def _admit_client(self, client_id: Optional[str], key: Hashable) -> bool:
        """Debit the client's token bucket; account a refusal on the
        shard the request would have routed to."""
        if self._limiter is None or self._limiter.admit(client_id):
            return True
        worker = self._shards[self.shard_index(key)]
        worker.telemetry.record_rate_limited()
        return False

    def submit_graph(
        self,
        graph: "Graph | Problem",
        *,
        fuse: bool = False,
        options: Optional[ExecutionOptions] = None,
        timeout: Optional[float] = None,
        priority: Union[str, int] = "normal",
        client_id: Optional[str] = None,
    ) -> "Future[PipelineResult]":
        """Admit a whole pipeline graph; returns the future of its result.

        The graph (or single typed problem) is validated synchronously —
        cycles, unknown kinds and cross-stage shape mismatches fail at
        the call site.  The program compiles once, against the service's
        shared compile solver, and splits into segments placed per stage
        plan key: a run of consecutive levels whose stages all sit on one
        shard is one segment, and a level split across shards is one
        segment per shard.  Segments stream between shards through the
        handoff lanes, so independent same-level stages run on distinct
        shards and deep graphs overlap across requests; on one shard a
        graph is one segment.  The future resolves to a
        :class:`~repro.graph.program.PipelineResult` bit-identical to
        :meth:`~repro.graph.program.PipelineProgram.run`, and a
        re-submitted same-shaped graph builds no plans.

        ``fuse`` opts into the matmul→matvec associativity rewrite
        (changes floating-point association; the job's home shard, where
        its whole-job accounting lands, follows the unfused keys, so
        fused and unfused submissions of one graph share it).
        ``priority`` / ``client_id`` are the same admission QoS controls
        as :meth:`submit`; a whole job carries one class, and shedding any
        of its first-wave segments retires the whole job.
        """
        if self._closed:
            raise ServiceClosedError("cannot submit to a closed service")
        level = resolve_priority(priority)
        base = options if options is not None else self._options
        compiler = GraphCompiler(self._compile_solver, fuse=fuse, options=options)
        # The memoized lowering carries the graph's per-node plan keys
        # (Graph.plan_keys), so a warm submit derives no key.  A miss
        # lowers here, before the trace starts; the compile span below
        # covers the plan lookups and builds.
        lowered, values = compiler.lower(graph)
        key = ("__graph__", lowered.node_keys, self._spec.w, base)
        deadline = None if timeout is None else time.monotonic() + timeout
        trace: Optional[RequestTrace] = None
        if self._tracer.enabled:
            trace = RequestTrace(
                tracer=self._tracer,
                root=self._tracer.start_trace(
                    "request graph", kind="graph",
                    nodes=len(lowered.node_keys),
                    priority=priority_name(level),
                ),
            )
        if not self._admit_client(client_id, key):
            exc = RateLimitedError(
                f"client {client_id!r} exceeded its admission rate limit"
            )
            if trace is not None:
                trace.root.finish(status="error", error=exc)
            raise exc
        # The compile span is *activated* so the shared solver's
        # plan-lookup children (hit/miss, cold builds) nest under it.
        span = (
            trace.root.child("graph_compile", category="compile")
            if trace is not None else NULL_SPAN
        )
        try:
            with span:
                program = lowered.bind(self._compile_solver, values)
                segments = program.segments(self._placement.shard_of)
        except Exception as exc:
            if trace is not None:
                trace.root.finish(status="error", error=exc)
            raise
        return self._admit_graph(
            program, key, segments, deadline, trace,
            priority=level, client_id=client_id,
        )

    def _admit(self, request: SolveRequest) -> "Future[Any]":
        """Route one request to its home shard and enqueue it."""
        worker = self._shards[self.shard_index(request.plan_key)]
        trace = request.trace
        wait = None
        if trace is not None:
            trace.root.annotate(shard=worker.shard_id)
            wait = trace.root.child("admission_wait", category="queue")
        try:
            shed = worker.queue.put(request, timeout=self._submit_timeout)
        except ServiceOverloadedError as exc:
            worker.telemetry.record_rejected()
            if wait is not None:
                wait.finish(status="error", error=exc)
            request.fail(exc)  # closes the trace root; future is unused
            raise
        except ServiceClosedError as exc:
            if wait is not None:
                wait.finish(status="error", error=exc)
            request.fail(exc)
            raise
        if trace is not None and wait is not None:
            wait.finish()
            trace.admitted_at = wait.end
        worker.telemetry.record_submitted(request.kind)
        if shed is not None:
            self._fail_shed(worker, shed)
        return request.future

    def _admit_graph(
        self,
        program: PipelineProgram,
        key: Hashable,
        segments: Tuple[ProgramSegment, ...],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
        priority: int = PRIORITY_NORMAL,
        client_id: Optional[str] = None,
    ) -> "Future[PipelineResult]":
        """Admit one graph job as its placed segments.

        The first wave enters through the shards' *admission* queues —
        subject to the service's backpressure policy exactly like any
        request — while later waves flow worker-to-worker through the
        handoff lanes.  Whole-job accounting (submitted / completed /
        graph rows) lands on the job's home shard: the one the graph key
        routes to.
        """
        home = self._placement.shard_of(key)
        job = PipelinedGraphJob(
            program=program,
            graph_key=key,
            segments=segments,
            home_telemetry=self._shards[home].telemetry,
            dispatch=self._dispatch_segment,
            deadline=deadline,
            trace=trace,
            priority=priority,
            client_id=client_id,
        )
        with self._jobs_lock:
            if self._closed:
                closed = ServiceClosedError("cannot submit to a closed service")
                job.fail(closed)  # closes the trace root
                raise closed
            self._jobs.add(job.future)
        job.future.add_done_callback(self._forget_job)
        wait = None
        if trace is not None:
            trace.root.annotate(home_shard=home, segments=job.n_segments)
            wait = trace.root.child("admission_wait", category="queue")
        for task in job.first_tasks():
            worker = self._shards[task.shard]
            if trace is not None:
                # First-wave queue-wait spans start at admission time; the
                # consuming worker backdates them from this stamp.
                task.dispatched_at = trace.tracer.now()
            try:
                shed = worker.queue.put(task.request, timeout=self._submit_timeout)
            except ServiceOverloadedError as exc:
                worker.telemetry.record_rejected()
                if wait is not None:
                    wait.finish(status="error", error=exc)
                # First-wave siblings already queued on other shards become
                # no-ops: the job is latched failed before they execute.
                job.fail(exc)
                raise
            except ServiceClosedError as exc:
                if wait is not None:
                    wait.finish(status="error", error=exc)
                job.fail(exc)
                raise
            if shed is not None:
                self._fail_shed(worker, shed)
        if trace is not None and wait is not None:
            wait.finish()
            trace.admitted_at = wait.end
        self._shards[home].telemetry.record_submitted("graph")
        return job.future

    def _forget_job(self, future: "Future[PipelineResult]") -> None:
        with self._jobs_lock:
            self._jobs.discard(future)

    def _dispatch_segment(self, task: SegmentTask) -> None:
        """Hand one next-wave segment to its shard's handoff lane.

        Called by whichever worker completed a wave; raises (for the
        caller to fail the whole job) when the target lane is full or the
        service closed without draining.
        """
        worker = self._shards[task.shard]
        try:
            worker.queue.put_handoff(task.request)
        except ServiceOverloadedError:
            worker.telemetry.record_handoff_rejected()
            raise
        worker.telemetry.record_handoff()

    def _fail_shed(self, worker: ShardWorker, shed: SolveRequest) -> None:
        """Fail a request evicted under ``shed_oldest``.

        The victim is the queue's weakest candidate — lowest priority
        class, nearest deadline, oldest — and may be the *arriving*
        request itself when everything queued outranks it.  A shed
        *segment* fails its whole graph job — its siblings (queued,
        in flight, or yet to dispatch) all become no-ops — so a
        mid-pipeline eviction can never strand a partial graph.
        """
        worker.telemetry.record_shed(priority=shed.priority)
        exc = ServiceOverloadedError(
            f"request shed after {shed.latency():.3f}s "
            f"(class {priority_name(shed.priority)}, policy 'shed_oldest'): "
            f"shard queue full"
        )
        if shed.segment is not None:
            shed.segment.job.fail(exc)
        else:
            shed.fail(exc)

    def solve(
        self,
        kind: "str | Problem",
        *operands,
        options: Optional[ExecutionOptions] = None,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> Solution:
        """Synchronous convenience: ``submit(...).result()``."""
        future = self.submit(
            kind, *operands, options=options, timeout=timeout, **kwargs
        )
        return future.result()

    def solve_graph(
        self,
        graph: "Graph | Problem",
        *,
        fuse: bool = False,
        options: Optional[ExecutionOptions] = None,
        timeout: Optional[float] = None,
    ) -> PipelineResult:
        """Synchronous convenience: ``submit_graph(...).result()``."""
        future = self.submit_graph(
            graph, fuse=fuse, options=options, timeout=timeout
        )
        return future.result()

    def map(
        self,
        kind: str,
        batch: Sequence[Tuple[Any, ...]],
        options: Optional[ExecutionOptions] = None,
        timeout: Optional[float] = None,
    ) -> List[Solution]:
        """Submit a whole batch and gather results in input order.

        The service-level analogue of the solver's batch solve: entries
        fan out across shards by plan key, pile up in admission windows,
        and come back in the order given.
        """
        futures = [
            self.submit(kind, *entry, options=options, timeout=timeout)
            for entry in batch
        ]
        return [future.result() for future in futures]

    # -- observability ------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """The fleet's accounting: one registry snapshot, folded per shard
        and fleet-wide (plan-cache and placement columns are read
        alongside it from their own stores)."""
        return ServiceStats.fold(
            self._metrics.snapshot(),
            [worker.solver.cache_stats for worker in self._shards],
            placement=self._placement.snapshot(),
        )

    # -- lifecycle ---------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting work and shut the shards down.

        With ``wait`` (the default) every admitted request runs and
        resolves before workers exit: the service first waits for every
        admitted graph job — whose later waves still need the handoff
        lanes — then drains the queues.  Otherwise pending requests fail
        with :class:`~repro.errors.ServiceClosedError`.  Idempotent.

        Raises :class:`RuntimeError`, leaving the service open, when
        called on a shard worker thread — where a future's done-callback
        runs — since that worker can neither finish the jobs it waits on
        nor join itself.
        """
        with self._jobs_lock:
            if self._closed:
                return
            if any(worker.is_current for worker in self._shards):
                raise RuntimeError(
                    "close() cannot run on a shard worker thread; close the "
                    "service from another thread"
                )
            self._closed = True
            jobs = list(self._jobs)
        if wait:
            wait_for(jobs)
        for worker in self._shards:
            worker.request_stop(drain=wait)
            worker.queue.close()
        for worker in self._shards:
            worker.join()
        # A worker exits only once its queue is closed and drained, and a
        # closed queue admits nothing, so a request left here belongs to a
        # worker thread that died; fail it rather than strand the caller's
        # future.
        closed = ServiceClosedError("service closed before the request ran")
        for worker in self._shards:
            for request in worker.queue.drain():
                task = request.segment
                if task is not None:
                    if task.job.fail(closed):
                        task.job.home_telemetry.record_failed(
                            task.job.latency()
                        )
                elif request.fail(closed):
                    worker.telemetry.record_failed(request.latency())

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolverService(w={self._spec.w}, n_shards={len(self._shards)}, "
            f"backpressure={self._policy!r}, closed={self._closed})"
        )
