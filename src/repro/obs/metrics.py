"""Typed, lock-exact metric instruments and their registry.

This module is the one store of every count the package keeps: typed
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments, each
guarded by a lock so concurrent bumps from shard workers are *exact*,
grouped in a :class:`MetricsRegistry` whose single re-entrant lock makes
a :meth:`MetricsRegistry.snapshot` consistent across every instrument it
holds (no torn read between a shard's "completed" counter and its
latency reservoir).  The process counters of
:mod:`repro.instrumentation` are ``repro.*`` counters in one registry;
each :class:`~repro.service.service.SolverService` keeps its shards'
``service.*`` instruments in another.

Instruments are identified by ``(name, labels)`` — the conventional
dimensional-metrics shape — so every read view is a fold of one
:class:`MetricsSnapshot`: :meth:`MetricsSnapshot.where` cuts the slice
of one label value (a shard), :meth:`MetricsSnapshot.total` sums a
counter across label sets, :meth:`~MetricsSnapshot.peak` takes the
largest high-water mark, :meth:`~MetricsSnapshot.tally` groups a series
by one label and :meth:`~MetricsSnapshot.merged_sample` pools histogram
reservoirs.  That is how
:class:`~repro.service.telemetry.ShardStats` (the ``shard=i`` slice) and
:class:`~repro.service.telemetry.ServiceStats` (the whole snapshot) are
computed.

The module depends only on the standard library, so every layer of the
package (instrumentation, api, service) can use it without import
cycles.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    # threading.RLock is a factory function, not a class, so it cannot
    # appear in annotations; the C class behind it can.
    from _thread import RLock as RLockType

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "percentiles",
]

#: A label set in canonical form: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default reservoir capacity of a :class:`Histogram`.
DEFAULT_RESERVOIR = 4096


def _labelset(labels: Mapping[str, object]) -> LabelSet:
    """Canonicalize keyword labels: sorted, stringified values."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def percentiles(
    sample: Sequence[float], fractions: Sequence[float]
) -> Tuple[Optional[float], ...]:
    """Nearest-rank percentiles of ``sample``, sorting exactly once.

    Returns one value per fraction (``None`` throughout for an empty
    sample).  This is the sort-once replacement for calling
    ``percentile`` repeatedly: p50/p95/p99 of one reservoir cost one
    ``sorted`` plus three O(1) ranks.
    """
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"percentile fraction must be in [0, 1], got {fraction}"
            )
    if not sample:
        return tuple(None for _ in fractions)
    ordered = sorted(sample)
    top = len(ordered) - 1
    return tuple(
        ordered[min(top, max(0, int(round(fraction * top))))]
        for fraction in fractions
    )


class Instrument:
    """Shared identity of every metric: a name plus canonical labels.

    Instruments created through a :class:`MetricsRegistry` share that
    registry's re-entrant lock, which is what makes registry snapshots
    consistent across instruments; a standalone instrument gets a
    private lock and is still individually exact.
    """

    __slots__ = ("name", "labels", "_lock")

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        lock: Optional[RLockType] = None,
    ):
        self.name = name
        self.labels: LabelSet = _labelset(labels or {})
        self._lock = lock if lock is not None else threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ", ".join(f"{key}={value}" for key, value in self.labels)
        return f"{type(self).__name__}({self.name}{{{labels}}})"


class Counter(Instrument):
    """A monotonically increasing count; ``inc`` is atomic under the lock."""

    __slots__ = ("_value",)

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        lock: Optional[RLockType] = None,
    ):
        super().__init__(name, labels, lock)
        self._value = 0

    def inc(self, n: int = 1) -> int:
        """Add ``n`` (>= 0); returns the new total."""
        if n < 0:
            raise ValueError(f"counters only increase; got inc({n})")
        with self._lock:
            self._value += n
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge(Instrument):
    """A point-in-time level (queue depth, lane depth) with a high-water mark."""

    __slots__ = ("_value", "_highwater")

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        lock: Optional[RLockType] = None,
    ):
        super().__init__(name, labels, lock)
        self._value = 0.0
        self._highwater = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._highwater:
                self._highwater = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def highwater(self) -> float:
        """The largest level ever :meth:`set` — the leak/overload detector."""
        with self._lock:
            return self._highwater


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram: totals plus the reservoir sample."""

    count: int
    total: float
    sample: Tuple[float, ...]

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentiles(
        self, fractions: Sequence[float]
    ) -> Tuple[Optional[float], ...]:
        """Nearest-rank percentiles over the reservoir (one sort)."""
        return percentiles(self.sample, fractions)


class Histogram(Instrument):
    """Observations summarized as count/total plus a bounded reservoir.

    The reservoir keeps the most recent ``reservoir`` observations (the
    same sliding-window semantics the shard latency deques used), so
    percentiles reflect recent behaviour while ``count``/``total`` stay
    lifetime-exact.
    """

    __slots__ = ("_count", "_total", "_sample")

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        lock: Optional[RLockType] = None,
        reservoir: int = DEFAULT_RESERVOIR,
    ):
        super().__init__(name, labels, lock)
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self._count = 0
        self._total = 0.0
        self._sample: Deque[float] = deque(maxlen=int(reservoir))

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            self._sample.append(value)

    def extend(self, values: Iterable[float]) -> None:
        """Observe many values under one lock acquisition."""
        with self._lock:
            for value in values:
                self._count += 1
                self._total += value
                self._sample.append(value)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                count=self._count,
                total=self._total,
                sample=tuple(self._sample),
            )


#: What a snapshot records per instrument: a number, or a histogram view.
SnapshotValue = Union[int, float, HistogramSnapshot]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent cut across every instrument of a registry.

    ``values`` maps ``(name, labels)`` to the instrument's value at
    snapshot time (gauges contribute ``(value, highwater)`` via two
    entries: ``name`` and ``name + ".highwater"``).  The fold helpers
    are how cross-shard aggregation works: series of one metric differ
    only in labels, so summing/pooling across label sets *is* the fleet
    view.
    """

    values: Mapping[Tuple[str, LabelSet], SnapshotValue]

    def value(self, name: str, **labels: object) -> Optional[SnapshotValue]:
        """The recorded value of one fully-labelled instrument."""
        return self.values.get((name, _labelset(labels)))

    def where(self, **labels: object) -> "MetricsSnapshot":
        """The slice of instruments whose labels include every given one."""
        wanted = set(_labelset(labels))
        return MetricsSnapshot(
            values={
                key: value
                for key, value in self.values.items()
                if wanted.issubset(key[1])
            }
        )

    def series(self, name: str) -> Dict[LabelSet, SnapshotValue]:
        """Every label set recorded under ``name``."""
        return {
            labels: value
            for (found, labels), value in self.values.items()
            if found == name
        }

    def total(self, name: str) -> float:
        """Sum of a counter/gauge series across all label sets."""
        return sum(
            value
            for value in self.series(name).values()
            if not isinstance(value, HistogramSnapshot)
        )

    def peak(self, name: str) -> float:
        """Largest value of a counter/gauge series across label sets."""
        return max(
            (
                value
                for value in self.series(name).values()
                if not isinstance(value, HistogramSnapshot)
            ),
            default=0,
        )

    def tally(self, name: str, label: str) -> Dict[str, float]:
        """A counter series summed per value of ``label``."""
        tallied: Dict[str, float] = {}
        for labels, value in self.series(name).items():
            if not isinstance(value, HistogramSnapshot):
                key = dict(labels)[label]
                tallied[key] = tallied.get(key, 0) + value
        return tallied

    def merged_sample(self, name: str) -> Tuple[float, ...]:
        """All histogram reservoirs recorded under ``name``, pooled."""
        pooled: List[float] = []
        for value in self.series(name).values():
            if isinstance(value, HistogramSnapshot):
                pooled.extend(value.sample)
        return tuple(pooled)

    def describe(self) -> str:
        """A sorted, human-readable dump (debugging / demo aid)."""
        lines = []
        for (name, labels), value in sorted(self.values.items()):
            label_text = ",".join(f"{key}={val}" for key, val in labels)
            if isinstance(value, HistogramSnapshot):
                p50, p95, p99 = value.percentiles((0.50, 0.95, 0.99))
                rendered = (
                    f"count={value.count} mean={value.mean} "
                    f"p50={p50} p95={p95} p99={p99}"
                )
            else:
                rendered = str(value)
            lines.append(f"{name}{{{label_text}}} {rendered}")
        return "\n".join(lines)


class MetricsRegistry:
    """Get-or-create home of labelled instruments with consistent snapshots.

    One re-entrant lock is shared by the registry and every instrument it
    creates: individual bumps serialize on it (exact counts under the
    multithreaded shard pool) and :meth:`snapshot` holds it once to read
    every instrument — a consistent cut, never a torn one.  Creation is
    idempotent: asking for the same ``(name, labels)`` returns the same
    instrument; asking with a different instrument type is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[Tuple[str, LabelSet], Instrument] = {}

    @property
    def lock(self) -> RLockType:
        """The shared lock (re-entrant; hold it to batch related bumps)."""
        return self._lock

    def _get(
        self, cls: type, name: str, labels: Mapping[str, object], **extra
    ) -> Instrument:
        key = (name, _labelset(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels, lock=self._lock, **extra)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} with labels {dict(labels)!r} is "
                    f"already a {type(instrument).__name__}, not a "
                    f"{cls.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        counter = self._get(Counter, name, labels)
        assert isinstance(counter, Counter)
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        gauge = self._get(Gauge, name, labels)
        assert isinstance(gauge, Gauge)
        return gauge

    def histogram(
        self,
        name: str,
        reservoir: int = DEFAULT_RESERVOIR,
        **labels: object,
    ) -> Histogram:
        histogram = self._get(Histogram, name, labels, reservoir=reservoir)
        assert isinstance(histogram, Histogram)
        return histogram

    def snapshot(self) -> MetricsSnapshot:
        """A consistent cut: one lock hold, every instrument read."""
        values: Dict[Tuple[str, LabelSet], SnapshotValue] = {}
        with self._lock:
            for (name, labels), instrument in self._instruments.items():
                if isinstance(instrument, Counter):
                    values[(name, labels)] = instrument.value
                elif isinstance(instrument, Gauge):
                    values[(name, labels)] = instrument.value
                    values[(name + ".highwater", labels)] = (
                        instrument.highwater
                    )
                elif isinstance(instrument, Histogram):
                    values[(name, labels)] = instrument.snapshot()
        return MetricsSnapshot(values=values)
