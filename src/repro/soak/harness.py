"""The replay/soak harness: drive a service with a seeded mixed stream.

:func:`run_soak` stands up a :class:`~repro.service.service.SolverService`
(or drives one the caller built), replays the
:class:`~repro.soak.workload.SoakWorkload` warm-up set so every plan the
stream will ever need is resident (compiled or warm-started), snapshots
the process counters, then runs one closed-loop submitting thread per
client — each thread keeps a bounded in-flight window, so offered load
tracks service capacity instead of building an unbounded backlog.

Everything the ISSUE's acceptance criteria ask about comes back in one
:class:`SoakResult`:

* per-priority-class completion counts, typed-error tallies
  (rate-limited / shed / deadline), and p50/p99 latency;
* sustained requests-per-second over the measured phase;
* the :data:`repro.instrumentation.counters` delta across the run —
  ``plan_builds == 0`` after warm-up is the zero-recompile proof;
* ``open_spans`` from the service's tracer — 0 proves every admission,
  shed, rejection and failure path closed its span tree.

The harness is deliberately a library, not a script: the tier-1 smoke
test runs it with a few hundred requests, the gated bench runs the same
code with ~1M, and ``examples/soak_demo.py`` narrates a small run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

from ..errors import (
    DeadlineExceededError,
    RateLimitedError,
    ServiceOverloadedError,
)
from ..instrumentation import Counters, counters
from ..obs.tracing import Tracer
from ..service.service import SolverService
from .workload import SoakWorkload, WorkItem

__all__ = ["SoakConfig", "SoakResult", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run; the defaults are tier-1 smoke scale.

    ``requests`` is the *total* across all clients (split by the
    workload's class traffic mix, then evenly within a class).
    ``inflight``
    bounds each client's outstanding futures — the closed-loop window.
    ``inflight_by_class`` gives the clients of the named priority
    classes their own window; unlisted classes use ``inflight``.
    ``rate_limits`` / ``default_rate_limit`` and ``backpressure`` pass
    straight through to the service when the harness builds one.
    """

    requests: int = 600
    seed: int = 20260808
    w: int = 4
    n_shards: int = 4
    clients_per_class: int = 2
    inflight: int = 8
    inflight_by_class: Optional[Mapping[str, int]] = None
    queue_depth: int = 64
    backpressure: str = "block"
    # Pinned, not the service default of 0.  A linger only matters when
    # one class alone overfills its home shard's queue: a 0.5 ms linger
    # lets a worker pull up to a 16-request window out of an 8-slot
    # queue, so fewer of that class's own requests are shed.  Protection
    # from lower classes needs no linger; the overload tests in
    # benchmarks/test_soak.py measure both cases.
    max_batch_delay: float = 0.0005
    rate_limits: Optional[Mapping[str, Any]] = None
    default_rate_limit: Optional[Any] = None
    store_root: Optional[str] = None
    trace: bool = True


@dataclass
class ClassStats:
    """Outcome tally for one priority class."""

    submitted: int = 0
    completed: int = 0
    rate_limited: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    other_errors: int = 0
    latencies: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of completed-request latency (seconds)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "other_errors": self.other_errors,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
        }


@dataclass
class SoakResult:
    """Everything one soak run proved, ready for assertions or JSON."""

    config: SoakConfig
    elapsed: float
    warmup_requests: int
    warmup_plan_builds: int
    by_class: Dict[str, ClassStats]
    counter_delta: Counters
    open_spans: int
    store_stats: Optional[Dict[str, int]] = None

    @property
    def submitted(self) -> int:
        return sum(stats.submitted for stats in self.by_class.values())

    @property
    def completed(self) -> int:
        return sum(stats.completed for stats in self.by_class.values())

    @property
    def rps(self) -> float:
        """Completed requests per second over the measured phase."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.config.requests,
            "seed": self.config.seed,
            "n_shards": self.config.n_shards,
            "elapsed_s": self.elapsed,
            "rps": self.rps,
            "submitted": self.submitted,
            "completed": self.completed,
            "warmup_requests": self.warmup_requests,
            "warmup_plan_builds": self.warmup_plan_builds,
            "plan_builds_after_warmup": self.counter_delta.plan_builds,
            "plan_store_hits": self.counter_delta.plan_store_hits,
            "open_spans": self.open_spans,
            "by_class": {
                name: stats.to_dict() for name, stats in self.by_class.items()
            },
            **(
                {"store": dict(self.store_stats)}
                if self.store_stats is not None
                else {}
            ),
        }


def _submit(service: SolverService, item: WorkItem):
    if item.graph is not None:
        return service.submit_graph(
            item.graph,
            priority=item.priority,
            client_id=item.client_id,
        )
    return service.submit(
        item.kind,
        *item.operands,
        options=item.options,
        priority=item.priority,
        client_id=item.client_id,
        **item.kwargs,
    )


class _Collector:
    """Thread-safe outcome sink; futures report in via done-callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_class: Dict[str, ClassStats] = {}

    def stats_for(self, class_name: str) -> ClassStats:
        with self._lock:
            return self.by_class.setdefault(class_name, ClassStats())

    def record(self, class_name: str, started: float, future: Any) -> None:
        exc = future.exception()
        latency = time.perf_counter() - started
        with self._lock:
            stats = self.by_class.setdefault(class_name, ClassStats())
            if exc is None:
                stats.completed += 1
                stats.latencies.append(latency)
            elif isinstance(exc, ServiceOverloadedError):
                stats.shed += 1
            elif isinstance(exc, DeadlineExceededError):
                stats.deadline_exceeded += 1
            else:
                stats.other_errors += 1


def _client_loop(
    service: SolverService,
    workload: SoakWorkload,
    client_index: int,
    count: int,
    inflight: int,
    collector: _Collector,
    failures: List[BaseException],
) -> None:
    window: Deque[Any] = deque()
    try:
        for item in workload.stream(client_index, count):
            stats = collector.stats_for(item.class_name)
            with collector._lock:
                stats.submitted += 1
            started = time.perf_counter()
            try:
                future = _submit(service, item)
            except RateLimitedError:
                with collector._lock:
                    stats.rate_limited += 1
                continue
            except ServiceOverloadedError:
                with collector._lock:
                    stats.shed += 1
                continue
            future.add_done_callback(
                lambda f, name=item.class_name, t0=started: collector.record(
                    name, t0, f
                )
            )
            window.append(future)
            while len(window) >= inflight:
                window.popleft().exception()
        for future in window:
            future.exception()
    except BaseException as exc:  # surface harness bugs, don't hang the join
        failures.append(exc)


def run_soak(
    config: SoakConfig,
    service: Optional[SolverService] = None,
) -> SoakResult:
    """Replay one seeded soak stream; see the module docstring.

    When ``service`` is None the harness builds one from the config
    (with a tracer, and a :class:`~repro.store.PlanStore` rooted at
    ``config.store_root`` if set) and closes it before returning.
    When the caller passes a service, its lifecycle — and its tracer,
    store and rate limits — stay the caller's.
    """
    workload = SoakWorkload(
        seed=config.seed, w=config.w, clients_per_class=config.clients_per_class
    )
    owns_service = service is None
    tracer: Optional[Tracer] = None
    store = None
    if owns_service:
        tracer = Tracer(enabled=config.trace)
        if config.store_root is not None:
            from ..store import PlanStore

            store = PlanStore(config.store_root)
        service = SolverService(
            workload.w,
            n_shards=config.n_shards,
            queue_depth=config.queue_depth,
            backpressure=config.backpressure,
            max_batch_delay=config.max_batch_delay,
            tracer=tracer,
            store=store,
            rate_limits=config.rate_limits,
            default_rate_limit=config.default_rate_limit,
        )
    assert service is not None
    try:
        # -- warm-up: one request per distinct plan signature ----------------
        before_warmup = counters.snapshot()
        warmup_items = workload.warmup_items()
        for item in warmup_items:
            future = _submit(service, item)
            future.result(timeout=60.0)
        warmup_builds = counters.delta(before_warmup).plan_builds
        # -- the measured phase ----------------------------------------------
        collector = _Collector()
        failures: List[BaseException] = []
        roster = workload.clients()
        stream_lengths = workload.request_counts(config.requests)
        inflight_by_class = config.inflight_by_class or {}
        threads = []
        baseline = counters.snapshot()
        t0 = time.perf_counter()
        for index, (client_id, _level, class_name) in enumerate(roster):
            count = stream_lengths[index]
            inflight = inflight_by_class.get(class_name, config.inflight)
            thread = threading.Thread(
                target=_client_loop,
                args=(
                    service, workload, index, count,
                    inflight, collector, failures,
                ),
                name=f"soak-{client_id}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        if failures:
            raise failures[0]
        delta = counters.delta(baseline)
        active_tracer = service.tracer if tracer is None else tracer
        open_spans = (
            active_tracer.open_spans if active_tracer is not None else 0
        )
        store_stats = None
        if service.store is not None:
            store_stats = asdict(service.store.stats)
        return SoakResult(
            config=config,
            elapsed=elapsed,
            warmup_requests=len(warmup_items),
            warmup_plan_builds=warmup_builds,
            by_class=dict(collector.by_class),
            counter_delta=delta,
            open_spans=open_spans,
            store_stats=store_stats,
        )
    finally:
        if owns_service:
            assert service is not None
            service.close()
