"""Service observability: per-shard write methods, snapshot-folded read views.

Each shard worker owns a :class:`ShardTelemetry`: the *write* side of the
shard's accounting.  Every admission/execution event lands in a typed,
locked instrument of the service's
:class:`~repro.obs.metrics.MetricsRegistry` (``service.*`` counters,
latency histograms with bounded reservoirs), labelled by shard so one
registry carries the whole fleet.  The shard's queue keeps the two depth
gauges (``service.queue_depth``, ``service.handoff_depth``) current on
every put, take and drain.  The registry is the only store of these
numbers.

The *read* side is a fold of one registry snapshot.
``SolverService.stats()`` takes one :meth:`MetricsRegistry.snapshot`
(one lock hold: a "completed" count and its latency reservoir can never
tear) and hands it to :meth:`ServiceStats.fold`.  A :class:`ShardStats`
is the ``shard=i`` slice of that snapshot; the :class:`ServiceStats` is
the same fold over the whole snapshot — counts sum, high-water marks
take the max, p50/p95/p99 come from the pooled reservoirs.  Both share
one column declaration (:class:`StatsColumns`).  Plan-cache accounting
is the one number kept outside the registry: each shard's
:class:`~repro.instrumentation.LRUCache` owns it, and the fleet column
sums them.

Percentiles sort the pooled reservoir once per view and take all ranks
from that one ordering (:func:`repro.obs.metrics.percentiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..instrumentation import CacheStats
from ..obs.metrics import Counter, MetricsRegistry, MetricsSnapshot, percentiles
from .placement import PlacementSnapshot
from .qos import priority_name

__all__ = ["ServiceStats", "ShardStats", "ShardTelemetry", "StatsColumns"]

#: The percentile fractions every latency summary reports.
_FRACTIONS = (0.50, 0.95, 0.99)

#: Count columns: each is the ``service.<name>`` counter a shard bumps,
#: summed over a slice.
_COUNTS = (
    "submitted", "completed", "failed", "rejected", "shed", "expired",
    "batches", "graphs", "graph_stages", "graph_fused", "graph_levels",
    "segments", "handoffs", "handoffs_rejected", "rate_limited",
)

#: Tally columns: ``column -> (counter name, label, key type)``; one
#: counter series per label value, summed per value over a slice.
_TALLIES: Dict[str, Tuple[str, str, Callable[[str], Any]]] = {
    "requests_by_kind": ("service.requests", "kind", str),
    "batch_size_histogram": ("service.batch_size", "size", int),
    "iterations_by_kind": ("service.iterations", "kind", str),
    "graph_stages_by_kind": ("service.graph_stage_kinds", "kind", str),
    "shed_by_priority": ("service.shed_priority", "priority", str),
}


def _ms(value: Optional[float]) -> str:
    """Milliseconds with an ``n/a`` fallback, for the describe() reports."""
    return "n/a" if value is None else f"{value * 1e3:.2f} ms"


def _columns(snapshot: MetricsSnapshot, cache: CacheStats) -> Dict[str, Any]:
    """Fold one registry (sub-)snapshot into the :class:`StatsColumns`."""
    columns: Dict[str, Any] = {
        name: int(snapshot.total("service." + name)) for name in _COUNTS
    }
    for column, (metric, label, key_type) in _TALLIES.items():
        columns[column] = {
            key_type(key): int(count)
            for key, count in snapshot.tally(metric, label).items()
        }
    columns["queue_depth"] = int(snapshot.total("service.queue_depth"))
    columns["max_queue_depth"] = int(
        snapshot.peak("service.queue_depth.highwater")
    )
    columns["max_handoff_depth"] = int(
        snapshot.peak("service.handoff_depth.highwater")
    )
    for prefix in ("latency", "stage_latency"):
        sample = snapshot.merged_sample(f"service.{prefix}")
        ranks = percentiles(sample, _FRACTIONS)
        for suffix, rank in zip(("p50", "p95", "p99"), ranks):
            columns[f"{prefix}_{suffix}"] = rank
    columns["cache"] = cache
    return columns


@dataclass(frozen=True)
class StatsColumns:
    """The columns one shard and the whole fleet share, declared once."""

    submitted: int
    completed: int
    failed: int
    rejected: int
    shed: int
    expired: int
    batches: int
    requests_by_kind: Mapping[str, int]
    batch_size_histogram: Mapping[int, int]
    #: Requests currently undequeued (admission queue plus handoff lane).
    queue_depth: int
    max_queue_depth: int
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    latency_p99: Optional[float]
    cache: CacheStats
    #: Total iterative sweeps executed per kind (jacobi/sor/gauss_seidel/
    #: cg/refine/power); empty when only direct kinds were served.
    iterations_by_kind: Mapping[str, int]
    #: Whole-pipeline jobs completed.
    graphs: int
    #: Total stages executed across those pipeline jobs.
    graph_stages: int
    #: Fusion *events* across those jobs: each overlapped matvec pair run
    #: (covering two stages) counts one, as does each matmul→matvec
    #: associativity rewrite.
    graph_fused: int
    stage_latency_p50: Optional[float]
    stage_latency_p95: Optional[float]
    stage_latency_p99: Optional[float]
    #: Summed pipeline depth (levels) across those jobs — ``graph_levels /
    #: graphs`` is the mean depth; an NN forward pass is as deep as it is
    #: long, a fan-out workload is shallower than its stage count.
    graph_levels: int
    #: Stage executions per kind across pipeline jobs (the per-layer view:
    #: an MLP graph shows up as dense/bias/relu/quantize/dequantize here).
    graph_stages_by_kind: Mapping[str, int]
    #: Graph segments executed (each a run of one job's levels placed
    #: on one shard).
    segments: int
    #: Mid-pipeline segments handed into a handoff lane.
    handoffs: int
    #: Handoffs refused because the target handoff lane was full.
    handoffs_rejected: int
    #: High-water depth of a handoff lane.
    max_handoff_depth: int
    #: Submissions refused by the per-client rate limiter (typed
    #: :class:`~repro.errors.RateLimitedError` rejections).
    rate_limited: int
    #: Shed evictions per priority class name ("low"/"normal"/"high" or
    #: "p<level>") — the observable proof that overload sheds
    #: lowest-class-first.
    shed_by_priority: Mapping[str, int]


@dataclass(frozen=True)
class ShardStats(StatsColumns):
    """One shard's accounting: the ``shard=i`` slice of a registry snapshot."""

    shard_id: int

    def describe(self) -> str:
        """One-shard, one-paragraph report (``ServiceStats.describe`` uses it)."""
        # An unobserved cache (no hits, no misses) has no meaningful rate;
        # 0.000 would read as "completely cold", the opposite of unknown.
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
    """The write side of one shard's accounting, registry-backed.

    The submitting thread records admission events (submitted, rejected,
    shed) and the shard worker records execution events (batches,
    completions, failures, expiries); every event lands in a typed
    instrument of ``registry``, labelled ``shard=<shard_id>``, so bumps
    are exact under the registry lock.  Pass the service-wide registry
    so all shards share one; a standalone telemetry (unit tests) creates
    a private registry.  :attr:`queue_depth` / :attr:`handoff_depth` are
    the depth gauges the shard's queue keeps current.
    """

    def __init__(
        self, shard_id: int, registry: Optional[MetricsRegistry] = None
    ):
        self.shard_id = shard_id
        self.registry = registry if registry is not None else MetricsRegistry()
        make = self.registry
        self._counts: Dict[str, Counter] = {
            name: make.counter("service." + name, shard=shard_id)
            for name in _COUNTS
        }
        self.queue_depth = make.gauge("service.queue_depth", shard=shard_id)
        self.handoff_depth = make.gauge("service.handoff_depth", shard=shard_id)
        # Percentiles come from each histogram's reservoir of the most
        # recent observations (the registry's default size).
        self._latency = make.histogram("service.latency", shard=shard_id)
        self._stage_latency = make.histogram(
            "service.stage_latency", shard=shard_id
        )
        # Label-valued series (per kind, batch size, priority class) are
        # created on first sight; one memo keeps their lookups off the
        # registry's label canonicalization.
        self._tallies: Dict[Tuple[str, object], Counter] = {}

    def _tally(self, name: str, label: str, value: object) -> Counter:
        instrument = self._tallies.get((name, value))
        if instrument is None:
            # Registry creation is idempotent, so a racing first sight
            # binds the same instrument twice — harmless.
            instrument = self.registry.counter(
                name, shard=self.shard_id, **{label: value}
            )
            self._tallies[(name, value)] = instrument
        return instrument

    # -- admission events (submitting threads) -----------------------------------
    def record_submitted(self, kind: str) -> None:
        with self.registry.lock:
            self._counts["submitted"].inc()
            self._tally("service.requests", "kind", kind).inc()

    def record_rejected(self) -> None:
        self._counts["rejected"].inc()

    def record_shed(self, priority: Optional[int] = None) -> None:
        """Account one shed eviction, classed by the victim's priority."""
        with self.registry.lock:
            self._counts["shed"].inc()
            if priority is not None:
                self._tally(
                    "service.shed_priority", "priority",
                    priority_name(priority),
                ).inc()

    def record_rate_limited(self) -> None:
        """Account one typed rate-limit rejection at the front door."""
        self._counts["rate_limited"].inc()

    # -- execution events (the shard worker) -------------------------------------
    def record_batch(self, size: int) -> None:
        with self.registry.lock:
            self._counts["batches"].inc()
            self._tally("service.batch_size", "size", size).inc()

    def record_completed(self, latency: float) -> None:
        with self.registry.lock:
            self._counts["completed"].inc()
            self._latency.observe(latency)

    def record_iterations(self, kind: str, iterations: int) -> None:
        """Account the sweeps of one completed multi-iteration solve.

        The shard worker calls this for every solution that reports an
        ``iterations`` stat, so the fleet snapshot can show how much
        iterative work each kind pushed through the warm plan caches.
        """
        self._tally("service.iterations", "kind", kind).inc(int(iterations))

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
            self._counts["graphs"].inc()
            self._counts["graph_stages"].inc(int(stages))
            self._counts["graph_fused"].inc(int(fused))
            self._counts["graph_levels"].inc(int(levels))
            for kind in kinds:
                self._tally("service.graph_stage_kinds", "kind", kind).inc()
            self._stage_latency.extend(stage_latencies)

    def record_segment(self) -> None:
        """Account one graph segment executed on this shard."""
        self._counts["segments"].inc()

    def record_handoff(self) -> None:
        """Account one segment parked in this shard's handoff lane.

        The lane depth itself is the queue's :attr:`handoff_depth` gauge;
        its high-water mark is the leak detector — a drained service
        always shows a zero *current* lane depth no matter how high the
        mark went.
        """
        self._counts["handoffs"].inc()

    def record_handoff_rejected(self) -> None:
        self._counts["handoffs_rejected"].inc()

    def record_failed(self, latency: float) -> None:
        with self.registry.lock:
            self._counts["failed"].inc()
            self._latency.observe(latency)

    def record_expired(self) -> None:
        self._counts["expired"].inc()


@dataclass(frozen=True)
class ServiceStats(StatsColumns):
    """Fleet-wide accounting: the whole registry snapshot, folded."""

    n_shards: int
    shards: Tuple[ShardStats, ...]
    #: The routing table's view: lookups, overrides, tracked key→shard
    #: assignments (``None`` for snapshots built without a service).
    placement: Optional[PlacementSnapshot] = None

    @classmethod
    def fold(
        cls,
        snapshot: MetricsSnapshot,
        caches: Sequence[CacheStats],
        placement: Optional[PlacementSnapshot] = None,
    ) -> "ServiceStats":
        """Fold one registry snapshot into shard slices and the fleet view.

        ``caches`` holds each shard's plan-cache accounting, indexed by
        shard id.
        """
        shards = tuple(
            ShardStats(
                shard_id=shard_id,
                **_columns(snapshot.where(shard=shard_id), cache),
            )
            for shard_id, cache in enumerate(caches)
        )
        return cls(
            n_shards=len(shards),
            shards=shards,
            placement=placement,
            **_columns(snapshot, sum(caches, CacheStats())),
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
