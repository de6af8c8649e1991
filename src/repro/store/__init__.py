"""Plan persistence: compiled plans as durable on-disk artifacts.

The plan/execute split keys every compiled plan by ``(kind, shapes, w,
options)`` and nothing else — plans are value-independent, so the ~100x
cold-compile penalty a fresh process pays on request #1 buys an
artifact any *other* process could have reused.  This package closes
that loop:

* :mod:`repro.store.format` — the framed artifact encoding: magic,
  format version, payload checksum, pickled plan payload.  Validation
  happens before trust; version skew and corruption are recompiles,
  never crashes.
* :class:`~repro.store.store.PlanStore` — a content-addressed artifact
  directory (filenames are digests of the key's canonical placement
  encoding), with an atomic write path and a never-raising read path.

Wire-up: pass ``store=`` to :class:`~repro.api.solver.Solver` and a
cache miss tries disk before compiling (write-through on compile); pass
``store=`` to :class:`~repro.service.service.SolverService` and every
shard solver shares the store — with ``warm_start=True`` (the default
when a store is given) the service preloads each persisted plan onto
its placed shard at construction, so a cold process answers request #1
at warm-cache latency with zero plan builds.

Accounting: every load hit, miss, invalid artifact, write and failed
write is counted twice over, once per scope — per instance in
:attr:`PlanStore.stats`, and process-wide in the ``plan_store_hits`` /
``plan_store_misses`` / ``plan_store_errors`` / ``plan_store_writes``
counters of :data:`repro.instrumentation.counters` (``repro.*``
counters of the process metrics registry).
"""

from .format import FORMAT_VERSION, MAGIC, PlanFormatError
from .store import PlanStore, StoreStats

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "PlanFormatError",
    "PlanStore",
    "StoreStats",
]
