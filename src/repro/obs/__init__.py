"""repro.obs — observability for the serving stack.

Two halves, one package:

* :mod:`repro.obs.tracing` — request-scoped span trees.  A
  :class:`Tracer` follows one request (or one graph job) from submit
  to resolution: admission wait, queue wait, batch assembly, plan
  lookup (hit/miss), execution, handoff-lane transits and per-shard
  segment spans, all in one tree.  Disabled by
  default with a guarded no-op path (:data:`NULL_SPAN` /
  :data:`NULL_TRACER`) so untraced serving pays ~nothing.

* :mod:`repro.obs.metrics` — typed :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments in a :class:`MetricsRegistry` whose
  single lock makes cross-instrument snapshots consistent and bumps
  from the shard pool exact.  The registry is the only store of each
  count: the process counters of :mod:`repro.instrumentation` are
  registry counters, and the service's
  :class:`~repro.service.telemetry.ShardStats` /
  :class:`~repro.service.telemetry.ServiceStats` are folds of one
  :class:`MetricsSnapshot`.

:mod:`repro.obs.export` renders collected spans as Chrome trace-event
JSON (Perfetto / ``chrome://tracing``) with one track per shard worker
and flow arrows across handoff lanes, or as a plain-text tree via
:func:`describe_trace`.
"""

from .export import chrome_trace, describe_trace, write_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    percentiles,
)
from .tracing import NULL_SPAN, NULL_TRACER, Span, Tracer, active_span

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Tracer",
    "active_span",
    "chrome_trace",
    "describe_trace",
    "percentiles",
    "write_chrome_trace",
]
