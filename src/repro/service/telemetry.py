"""Service observability: per-shard accounting and fleet-wide snapshots.

Each shard worker owns a :class:`ShardTelemetry`, which since PR 8 is a
*view factory* over a :class:`~repro.obs.metrics.MetricsRegistry` rather
than a private bundle of ad-hoc counters: every admission/execution
event lands in a typed, locked instrument (``service.*`` counters,
queue/lane-depth gauges with high-water marks, latency histograms with
bounded reservoirs), all labelled by shard so one registry carries the
whole fleet.  ``SolverService.stats()`` snapshots every shard and folds
them into one :class:`ServiceStats`: aggregate counts, the merged batch
histogram, p50/p95/p99 latency over the pooled reservoirs, and
plan-cache hit rates summed across shards (via ``CacheStats.__add__``).

:class:`ShardStats` / :class:`ServiceStats` keep their dataclass shape —
they are how tests, demos and the throughput benchmark read the service
— but every number in them is now a registry read taken in one
consistent cut (one lock hold across all of a shard's instruments, so a
"completed" count and its latency reservoir can never tear).

Percentiles sort the reservoir once per snapshot and take all ranks from
that one ordering (:func:`repro.obs.metrics.percentiles`).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.plan import CacheStats
from ..instrumentation import counters as _instrumentation_counters
from ..obs.metrics import Counter, MetricsRegistry, percentiles
from .placement import PlacementSnapshot
from .qos import priority_name

__all__ = ["ShardStats", "ShardTelemetry", "ServiceStats", "percentile"]

#: How many recent per-request latencies each shard keeps for percentiles.
LATENCY_RESERVOIR_SIZE = 4096

#: The percentile fractions every latency summary reports.
_FRACTIONS = (0.50, 0.95, 0.99)


def _ms(value: Optional[float]) -> str:
    """Milliseconds with an ``n/a`` fallback, for the describe() reports."""
    return "n/a" if value is None else f"{value * 1e3:.2f} ms"


def percentile(sample: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``sample`` (``None`` for an empty sample).

    Single-fraction convenience over
    :func:`repro.obs.metrics.percentiles`; summaries that need several
    ranks should call that directly so the reservoir is sorted once.
    """
    return percentiles(sample, (fraction,))[0]


@dataclass(frozen=True)
class ShardStats:
    """Immutable snapshot of one shard's accounting."""

    shard_id: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    shed: int
    expired: int
    batches: int
    requests_by_kind: Mapping[str, int]
    batch_size_histogram: Mapping[int, int]
    queue_depth: int
    max_queue_depth: int
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    cache: CacheStats
    latency_sample: Tuple[float, ...] = field(repr=False, default=())
    latency_p99: Optional[float] = None
    #: Total iterative sweeps executed per kind (jacobi/sor/cg/refine/
    #: power/gauss_seidel); empty for shards that served only direct kinds.
    iterations_by_kind: Mapping[str, int] = field(default_factory=dict)
    #: Whole-pipeline jobs completed on this shard.
    graphs: int = 0
    #: Total stages executed across those pipeline jobs.
    graph_stages: int = 0
    #: Fusion *events* across those jobs: each overlapped matvec pair run
    #: (covering two stages) counts one, as does each matmul→matvec
    #: associativity rewrite.
    graph_fused: int = 0
    stage_latency_p50: Optional[float] = None
    stage_latency_p95: Optional[float] = None
    stage_latency_p99: Optional[float] = None
    stage_latency_sample: Tuple[float, ...] = field(repr=False, default=())
    #: Summed pipeline depth (levels) across those jobs — ``graph_levels /
    #: graphs`` is the mean depth; an NN forward pass is as deep as it is
    #: long, a fan-out workload is shallower than its stage count.
    graph_levels: int = 0
    #: Stage executions per kind across pipeline jobs (the per-layer view:
    #: an MLP graph shows up as dense/bias/relu/quantize/dequantize here).
    graph_stages_by_kind: Mapping[str, int] = field(default_factory=dict)
    #: Pipelined-graph segments this shard executed (each a level-aligned
    #: slice of some cross-shard pipelined job).
    segments: int = 0
    #: Mid-pipeline segments handed *to* this shard's handoff lane.
    handoffs: int = 0
    #: Handoffs refused because this shard's handoff lane was full.
    handoffs_rejected: int = 0
    #: High-water depth of this shard's handoff lane.
    max_handoff_depth: int = 0
    #: Submissions refused by the per-client rate limiter (typed
    #: :class:`~repro.errors.RateLimitedError` rejections).
    rate_limited: int = 0
    #: Shed evictions per priority class name ("low"/"normal"/"high" or
    #: "p<level>") — the observable proof that overload sheds
    #: lowest-class-first.
    shed_by_priority: Mapping[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """One-shard, one-paragraph report (``ServiceStats.describe`` uses it)."""
        # An unobserved cache (no hits, no misses — e.g. describe() called
        # without a snapshot) has no meaningful rate; 0.000 would read as
        # "completely cold", the opposite of unknown.
        observed = self.cache.hits + self.cache.misses
        hit_rate = f"{self.cache.hit_rate:.3f}" if observed else "n/a"
        line = (
            f"shard {self.shard_id}: {self.submitted} requests, "
            f"{self.batches} flushes, cache hit rate "
            f"{hit_rate}, p95 {_ms(self.latency_p95)}, "
            f"p99 {_ms(self.latency_p99)}"
        )
        if self.graphs:
            line += (
                f", {self.graphs} pipeline(s) x "
                f"{self.graph_stages / self.graphs:.1f} stages "
                f"(depth {self.graph_levels / self.graphs:.1f}, "
                f"{self.graph_fused} fused, stage p95 "
                f"{_ms(self.stage_latency_p95)})"
            )
        if self.segments or self.handoffs:
            line += (
                f", {self.segments} segment(s) executed, "
                f"{self.handoffs} handoff(s) in "
                f"({self.handoffs_rejected} rejected, lane high-water "
                f"{self.max_handoff_depth})"
            )
        return line


class ShardTelemetry:
    """Thread-safe accounting for one shard worker, registry-backed.

    The submitting thread records admission events (submitted, rejected,
    shed) and the shard worker records execution events (batches,
    completions, failures, expiries); every event lands in a typed
    instrument of ``registry``, so bumps are exact under the registry
    lock and a snapshot is one consistent cut.  Pass the service-wide
    registry so all shards share one; a standalone telemetry (unit
    tests) creates a private registry.
    """

    def __init__(
        self, shard_id: int, registry: Optional[MetricsRegistry] = None
    ):
        self.shard_id = shard_id
        self.registry = registry if registry is not None else MetricsRegistry()
        make = self.registry
        shard = shard_id
        self._submitted = make.counter("service.submitted", shard=shard)
        self._completed = make.counter("service.completed", shard=shard)
        self._failed = make.counter("service.failed", shard=shard)
        self._rejected = make.counter("service.rejected", shard=shard)
        self._shed = make.counter("service.shed", shard=shard)
        self._rate_limited = make.counter("service.rate_limited", shard=shard)
        self._expired = make.counter("service.expired", shard=shard)
        self._batches = make.counter("service.batches", shard=shard)
        self._graphs = make.counter("service.graphs", shard=shard)
        self._graph_stages = make.counter("service.graph_stages", shard=shard)
        self._graph_fused = make.counter("service.graph_fused", shard=shard)
        self._graph_levels = make.counter("service.graph_levels", shard=shard)
        self._segments = make.counter("service.segments", shard=shard)
        self._handoffs = make.counter("service.handoffs", shard=shard)
        self._handoffs_rejected = make.counter(
            "service.handoffs_rejected", shard=shard
        )
        self._queue_depth = make.gauge("service.queue_depth", shard=shard)
        self._handoff_depth = make.gauge("service.handoff_depth", shard=shard)
        self._latency = make.histogram(
            "service.latency", reservoir=LATENCY_RESERVOIR_SIZE, shard=shard
        )
        self._stage_latency = make.histogram(
            "service.stage_latency",
            reservoir=LATENCY_RESERVOIR_SIZE,
            shard=shard,
        )
        # Kind-labelled series are created on first sight of each kind;
        # these local maps exist so snapshots can enumerate this shard's
        # kinds without filtering the whole registry.
        self._by_kind: Dict[str, Counter] = {}
        self._iterations_by_kind: Dict[str, Counter] = {}
        self._stages_by_kind: Dict[str, Counter] = {}
        self._batch_sizes: Dict[int, Counter] = {}
        self._shed_by_priority: Dict[str, Counter] = {}

    def _labelled_counter(
        self, cache: Dict, name: str, label: str, value: object
    ) -> Counter:
        with self.registry.lock:
            instrument = cache.get(value)
            if instrument is None:
                instrument = self.registry.counter(
                    name, shard=self.shard_id, **{label: value}
                )
                cache[value] = instrument
            return instrument

    # -- admission events (submitting threads) -----------------------------------
    def record_submitted(self, kind: str, queue_depth: int) -> None:
        with self.registry.lock:
            self._submitted.inc()
            self._labelled_counter(
                self._by_kind, "service.requests", "kind", kind
            ).inc()
            self._queue_depth.set(queue_depth)
        _instrumentation_counters.bump("service_requests")

    def record_rejected(self) -> None:
        self._rejected.inc()

    def record_shed(self, priority: Optional[int] = None) -> None:
        """Account one shed eviction, classed by the victim's priority."""
        with self.registry.lock:
            self._shed.inc()
            if priority is not None:
                self._labelled_counter(
                    self._shed_by_priority, "service.shed_priority",
                    "priority", priority_name(priority),
                ).inc()

    def record_rate_limited(self) -> None:
        """Account one typed rate-limit rejection at the front door."""
        self._rate_limited.inc()

    # -- execution events (the shard worker) -------------------------------------
    def record_batch(self, size: int) -> None:
        with self.registry.lock:
            self._batches.inc()
            self._labelled_counter(
                self._batch_sizes, "service.batch_size", "size", size
            ).inc()
        _instrumentation_counters.bump("service_batches")

    def record_completed(self, latency: float) -> None:
        with self.registry.lock:
            self._completed.inc()
            self._latency.observe(latency)

    def record_iterations(self, kind: str, iterations: int) -> None:
        """Account the sweeps of one completed multi-iteration solve.

        The shard worker calls this for every solution that reports an
        ``iterations`` stat, so the fleet snapshot can show how much
        iterative work each kind pushed through the warm plan caches.
        """
        self._labelled_counter(
            self._iterations_by_kind, "service.iterations", "kind", kind
        ).inc(int(iterations))

    def record_graph(
        self,
        stages: int,
        fused: int,
        stage_latencies: Sequence[float],
        levels: int = 0,
        kinds: Sequence[str] = (),
    ) -> None:
        """Account one completed whole-pipeline job.

        ``stages`` is the executed stage count, ``fused`` the fused
        stages (overlapped pairs + associativity rewrites + fused
        epilogue groups),
        ``stage_latencies`` the per-stage wall seconds feeding the stage
        latency reservoir, ``levels`` the pipeline depth (distinct
        topological levels), and ``kinds`` the per-stage kind strings
        (an MLP job contributes its layer structure here).
        """
        with self.registry.lock:
            self._graphs.inc()
            self._graph_stages.inc(int(stages))
            self._graph_fused.inc(int(fused))
            self._graph_levels.inc(int(levels))
            for kind in kinds:
                self._labelled_counter(
                    self._stages_by_kind, "service.graph_stage_kinds",
                    "kind", kind,
                ).inc()
            self._stage_latency.extend(stage_latencies)

    def record_segment(self) -> None:
        """Account one pipelined-graph segment executed on this shard."""
        self._segments.inc()

    def record_handoff(self, depth: int) -> None:
        """Account one segment parked in this shard's handoff lane.

        ``depth`` is the lane depth right after the put; the gauge's
        high-water mark is the leak detector — a drained service should
        always show a zero *current* lane depth no matter how high the
        mark went.
        """
        with self.registry.lock:
            self._handoffs.inc()
            self._handoff_depth.set(depth)

    def record_handoff_rejected(self) -> None:
        self._handoffs_rejected.inc()

    def record_failed(self, latency: float) -> None:
        with self.registry.lock:
            self._failed.inc()
            self._latency.observe(latency)

    def record_expired(self) -> None:
        self._expired.inc()

    # -- snapshot -----------------------------------------------------------------
    def snapshot(self, queue_depth: int, cache: CacheStats) -> ShardStats:
        with self.registry.lock:
            # One lock hold across every instrument: a consistent cut.
            sample = self._latency.snapshot().sample
            stage_sample = self._stage_latency.snapshot().sample
            p50, p95, p99 = percentiles(sample, _FRACTIONS)
            sp50, sp95, sp99 = percentiles(stage_sample, _FRACTIONS)
            return ShardStats(
                shard_id=self.shard_id,
                submitted=self._submitted.value,
                completed=self._completed.value,
                failed=self._failed.value,
                rejected=self._rejected.value,
                shed=self._shed.value,
                expired=self._expired.value,
                batches=self._batches.value,
                requests_by_kind={
                    kind: instrument.value
                    for kind, instrument in self._by_kind.items()
                },
                batch_size_histogram={
                    size: instrument.value
                    for size, instrument in self._batch_sizes.items()
                },
                queue_depth=queue_depth,
                max_queue_depth=int(self._queue_depth.highwater),
                latency_p50=p50,
                latency_p95=p95,
                latency_p99=p99,
                cache=cache,
                latency_sample=sample,
                iterations_by_kind={
                    kind: instrument.value
                    for kind, instrument in self._iterations_by_kind.items()
                },
                graphs=self._graphs.value,
                graph_stages=self._graph_stages.value,
                graph_fused=self._graph_fused.value,
                stage_latency_p50=sp50,
                stage_latency_p95=sp95,
                stage_latency_p99=sp99,
                stage_latency_sample=stage_sample,
                graph_levels=self._graph_levels.value,
                graph_stages_by_kind={
                    kind: instrument.value
                    for kind, instrument in self._stages_by_kind.items()
                },
                segments=self._segments.value,
                handoffs=self._handoffs.value,
                handoffs_rejected=self._handoffs_rejected.value,
                max_handoff_depth=int(self._handoff_depth.highwater),
                rate_limited=self._rate_limited.value,
                shed_by_priority={
                    name: instrument.value
                    for name, instrument in self._shed_by_priority.items()
                },
            )

    def describe(
        self,
        queue_depth: int = 0,
        cache: Optional[CacheStats] = None,
    ) -> str:
        """Human-readable one-shard report (snapshot + format)."""
        return self.snapshot(
            queue_depth, cache if cache is not None else CacheStats()
        ).describe()


@dataclass(frozen=True)
class ServiceStats:
    """Fleet-wide snapshot: every shard folded into one view."""

    n_shards: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    shed: int
    expired: int
    batches: int
    requests_by_kind: Mapping[str, int]
    batch_size_histogram: Mapping[int, int]
    queue_depth: int
    max_queue_depth: int
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    cache: CacheStats
    shards: Tuple[ShardStats, ...]
    latency_p99: Optional[float] = None
    iterations_by_kind: Mapping[str, int] = field(default_factory=dict)
    graphs: int = 0
    graph_stages: int = 0
    graph_fused: int = 0
    stage_latency_p50: Optional[float] = None
    stage_latency_p95: Optional[float] = None
    stage_latency_p99: Optional[float] = None
    graph_levels: int = 0
    graph_stages_by_kind: Mapping[str, int] = field(default_factory=dict)
    #: Pipelined-graph segment executions summed across shards.
    segments: int = 0
    #: Mid-pipeline handoffs between shards (and how many were refused).
    handoffs: int = 0
    handoffs_rejected: int = 0
    max_handoff_depth: int = 0
    #: Typed per-client rate-limit rejections summed across shards.
    rate_limited: int = 0
    #: Shed evictions per priority class name, fleet-wide.
    shed_by_priority: Mapping[str, int] = field(default_factory=dict)
    #: The routing table's view: lookups, overrides, tracked key→shard
    #: assignments (``None`` for snapshots built without a service).
    placement: Optional[PlacementSnapshot] = None

    @classmethod
    def aggregate(
        cls,
        shards: Sequence[ShardStats],
        placement: Optional[PlacementSnapshot] = None,
    ) -> "ServiceStats":
        by_kind: "TallyCounter[str]" = TallyCounter()
        histogram: "TallyCounter[int]" = TallyCounter()
        iterations: "TallyCounter[str]" = TallyCounter()
        stages_by_kind: "TallyCounter[str]" = TallyCounter()
        shed_by_priority: "TallyCounter[str]" = TallyCounter()
        pooled: List[float] = []
        pooled_stages: List[float] = []
        cache = CacheStats()
        for shard in shards:
            by_kind.update(shard.requests_by_kind)
            histogram.update(shard.batch_size_histogram)
            iterations.update(shard.iterations_by_kind)
            stages_by_kind.update(shard.graph_stages_by_kind)
            shed_by_priority.update(shard.shed_by_priority)
            pooled.extend(shard.latency_sample)
            pooled_stages.extend(shard.stage_latency_sample)
            cache = cache + shard.cache
        p50, p95, p99 = percentiles(pooled, _FRACTIONS)
        sp50, sp95, sp99 = percentiles(pooled_stages, _FRACTIONS)
        return cls(
            n_shards=len(shards),
            submitted=sum(s.submitted for s in shards),
            completed=sum(s.completed for s in shards),
            failed=sum(s.failed for s in shards),
            rejected=sum(s.rejected for s in shards),
            shed=sum(s.shed for s in shards),
            expired=sum(s.expired for s in shards),
            batches=sum(s.batches for s in shards),
            requests_by_kind=dict(by_kind),
            batch_size_histogram=dict(histogram),
            queue_depth=sum(s.queue_depth for s in shards),
            max_queue_depth=max((s.max_queue_depth for s in shards), default=0),
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            cache=cache,
            shards=tuple(shards),
            iterations_by_kind=dict(iterations),
            graphs=sum(s.graphs for s in shards),
            graph_stages=sum(s.graph_stages for s in shards),
            graph_fused=sum(s.graph_fused for s in shards),
            stage_latency_p50=sp50,
            stage_latency_p95=sp95,
            stage_latency_p99=sp99,
            graph_levels=sum(s.graph_levels for s in shards),
            graph_stages_by_kind=dict(stages_by_kind),
            segments=sum(s.segments for s in shards),
            handoffs=sum(s.handoffs for s in shards),
            handoffs_rejected=sum(s.handoffs_rejected for s in shards),
            max_handoff_depth=max(
                (s.max_handoff_depth for s in shards), default=0
            ),
            rate_limited=sum(s.rate_limited for s in shards),
            shed_by_priority=dict(shed_by_priority),
            placement=placement,
        )

    @property
    def mean_batch_size(self) -> float:
        """Requests per flush — >1 means admission batching is working."""
        flushed = sum(size * count for size, count in self.batch_size_histogram.items())
        return flushed / self.batches if self.batches else 0.0

    def describe(self) -> str:
        """Multi-line human-readable report (used by the serving demo)."""
        lines = [
            f"SolverService across {self.n_shards} shard(s)",
            (
                f"  requests:    {self.submitted} submitted, "
                f"{self.completed} completed, {self.failed} failed, "
                f"{self.rejected} rejected, {self.shed} shed, "
                f"{self.expired} expired, "
                f"{self.rate_limited} rate-limited"
            ),
            (
                f"  queue:       {self.queue_depth} pending now, "
                f"high-water {self.max_queue_depth}"
            ),
            (
                f"  batching:    {self.batches} flushes, "
                f"mean batch size {self.mean_batch_size:.2f}"
            ),
            (
                f"  latency:     p50 {_ms(self.latency_p50)}, "
                f"p95 {_ms(self.latency_p95)}, p99 {_ms(self.latency_p99)}"
            ),
            (
                f"  plan cache:  {self.cache.hits} hits / "
                f"{self.cache.misses} misses "
                f"(hit rate {self.cache.hit_rate:.3f}), "
                f"{self.cache.size} plans resident across shards"
            ),
        ]
        if self.requests_by_kind:
            by_kind = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.requests_by_kind.items())
            )
            lines.insert(2, f"  by kind:     {by_kind}")
        if self.shed_by_priority:
            by_class = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.shed_by_priority.items())
            )
            lines.append(f"  shed by class: {by_class}")
        if self.iterations_by_kind:
            sweeps = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.iterations_by_kind.items())
            )
            lines.append(f"  iterations:  {sweeps} (sweeps on warm plans)")
        if self.graphs:
            lines.append(
                f"  pipelines:   {self.graphs} graph(s), "
                f"{self.graph_stages} stage(s), "
                f"{self.graph_fused} fused, "
                f"mean depth {self.graph_levels / self.graphs:.1f}, "
                f"stage latency p50 {_ms(self.stage_latency_p50)} / "
                f"p95 {_ms(self.stage_latency_p95)} / "
                f"p99 {_ms(self.stage_latency_p99)}"
            )
        if self.graph_stages_by_kind:
            stage_kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.graph_stages_by_kind.items())
            )
            lines.append(f"  stage kinds: {stage_kinds}")
        if self.segments or self.handoffs:
            lines.append(
                f"  segments:    {self.segments} executed, "
                f"{self.handoffs} cross-shard handoff(s) "
                f"({self.handoffs_rejected} rejected, lane high-water "
                f"{self.max_handoff_depth})"
            )
        if self.placement is not None:
            lines.append(f"  placement:   {self.placement.describe()}")
        if self.batch_size_histogram:
            histogram = ", ".join(
                f"{size}x{count}"
                for size, count in sorted(self.batch_size_histogram.items())
            )
            lines.append(f"  batch sizes: {histogram}")
        for shard in self.shards:
            lines.append("  " + shard.describe())
        return "\n".join(lines)
