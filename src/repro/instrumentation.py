"""Process-wide counters and the shared LRU behind every plan cache.

The whole point of the :mod:`repro.api` plan cache is that a *warm* solve
streams operand values through a prebuilt :class:`~repro.api.plan.ExecutionPlan`
without rebuilding any DBT transform, operand band or partial-result
placement.  "No transform construction happened" is an invisible property,
so the transform constructors report to the counters below and tests (and
the plan-cache benchmark) assert that the counter does not move across a
warm solve.

Each count has exactly one store: a ``repro.<name>`` counter in the
process :data:`registry`.  :meth:`ProcessCounters.bump` increments that
pre-bound instrument and nothing else (exact under the multithreaded
shard pool); :meth:`ProcessCounters.snapshot` reads every counter in one
registry lock hold and returns a plain :class:`Counters` value for
before/after diffing, and the same numbers are visible through
``registry.snapshot()``.

:class:`LRUCache` is the one least-recently-used map with
:class:`CacheStats` accounting; the api layer's plan cache is one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Generic, Hashable, Optional, TypeVar

from .obs.metrics import Counter, MetricsRegistry

__all__ = [
    "CacheStats",
    "Counters",
    "LRUCache",
    "ProcessCounters",
    "counters",
    "registry",
]

#: Process-wide metrics registry: the one store of :data:`counters`.
registry = MetricsRegistry()

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting of one plan cache.

    Shared accounting currency across layers: every :class:`LRUCache`
    reports one (the api layer's :class:`~repro.api.plan.PlanCache`),
    the service sums them across shards, and one solve's inner-plan
    lookups (:class:`~repro.api.plan.InnerPlans`) report one as the
    warm-reuse proof carried by
    :class:`~repro.iterative.result.IterativeResult`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Fleet-wide accounting: sum counters across caches (e.g. shards)."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            maxsize=self.maxsize + other.maxsize,
        )


class LRUCache(Generic[_K, _V]):
    """A bounded least-recently-used map that keeps its own :class:`CacheStats`.

    One lock guards the order and the hit/miss/eviction counts, so a
    cache shared between threads never tears its LRU state or loses a
    count.  Values are never built under the lock: two threads missing
    on one key may both build, and the later :meth:`put` wins — a rare
    duplicate build instead of a compile held under a lock.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: "OrderedDict[_K, _V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def get(self, key: _K) -> Optional[_V]:
        """The cached value for ``key`` (marks it most recently used)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: _K, value: _V) -> None:
        """Store ``value`` as most recently used, evicting beyond ``maxsize``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; the lifetime hit/miss/eviction counts survive."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )


@dataclass
class Counters:
    """A point-in-time copy of the process counters.

    What :meth:`ProcessCounters.snapshot` and :meth:`~ProcessCounters.delta`
    return — a plain mutable value, so callers can adjust it (a benchmark
    excluding its warm-up builds, say).

    ``transform_constructions`` counts every value-bearing transform build:
    :class:`~repro.core.dbt.DBTByRowsTransform` (and its subclasses),
    :class:`~repro.core.dbt_transposed.DBTTransposedByRowsTransform`,
    :class:`~repro.core.operands.MatMulOperands` and
    :class:`~repro.extensions.sparse.BlockSparseDBTTransform`.
    ``plan_builds`` / ``plan_executions`` are bumped by the api layer,
    ``iterative_sweeps`` by the :mod:`repro.iterative` solvers, and
    ``graph_compiles`` / ``graph_runs`` / ``fused_matvec_pairs`` by the
    :mod:`repro.graph` pipeline layer: one per compiled program
    (:meth:`~repro.graph.compiler.LoweredGraph.bind`, which every
    :meth:`~repro.graph.compiler.GraphCompiler.compile` and served graph
    runs, warm or cold), one per
    :meth:`~repro.graph.program.PipelineProgram.run`, and one per pair of
    independent same-plan matvec stages executed through the array's
    overlapped contraflow path.
    """

    transform_constructions: int = 0
    plan_builds: int = 0
    plan_executions: int = 0
    iterative_sweeps: int = 0
    graph_compiles: int = 0
    graph_runs: int = 0
    fused_matvec_pairs: int = 0
    #: Plan persistence (:mod:`repro.store`): stored keys a warm start
    #: built into plans, artifacts that failed validation, keys that did
    #: not build or artifacts that could not be written (a bad artifact is
    #: skipped, a failed write is never raised on the solve path), and
    #: artifacts written.
    plan_store_hits: int = 0
    plan_store_errors: int = 0
    plan_store_writes: int = 0


class ProcessCounters:
    """The live process counters: one ``repro.<field>`` registry counter
    per :class:`Counters` field, bound once."""

    def __init__(self, metrics: MetricsRegistry):
        self._lock = metrics.lock
        self._instruments: Dict[str, Counter] = {
            field.name: metrics.counter("repro." + field.name)
            for field in fields(Counters)
        }

    def bump(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``, exactly, from any thread."""
        self._instruments[name].inc(n)

    def snapshot(self) -> Counters:
        """Every counter, read in one registry lock hold."""
        with self._lock:
            return Counters(
                **{
                    name: instrument.value
                    for name, instrument in self._instruments.items()
                }
            )

    def delta(self, earlier: Counters) -> Counters:
        """Counter increments since ``earlier`` (a prior :meth:`snapshot`)."""
        now = self.snapshot()
        return Counters(
            **{
                field.name: getattr(now, field.name)
                - getattr(earlier, field.name)
                for field in fields(Counters)
            }
        )


#: The process-wide counters.
counters = ProcessCounters(registry)
