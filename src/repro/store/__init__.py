"""Plan persistence: plan keys as durable on-disk artifacts.

The plan/execute split keys every compiled plan by ``(kind, shapes, w,
options)`` and nothing else — plans are value-independent, so a plan is
a pure function of its key.  This package persists the keys a process
has built, so that another process can build the same plans before its
first request instead of on it:

* :mod:`repro.store.format` — the framed artifact encoding: magic,
  format version, payload checksum, and the key's canonical encoding.
  Nothing is unpickled; version skew and corruption skip an artifact.
* :class:`~repro.store.store.PlanStore` — a content-addressed artifact
  directory (filenames are digests of the key's canonical placement
  encoding), with an atomic write path and a never-raising read path.

Wire-up: pass ``store=`` to :class:`~repro.api.solver.Solver` and every
plan it builds has its key written through; the solver never reads the
store.  Pass ``store=`` to :class:`~repro.service.service.SolverService`
and its solvers write through to it, and construction builds every
stored plan of the service's ``w`` on its placed shard, so a cold
process answers request #1 at warm-cache latency with zero plan builds.

Accounting: every stored key a warm start built into a plan (a hit),
invalid artifact (or key that did not build), write and failed write
is counted twice over, once per scope — per instance in
:attr:`PlanStore.stats`, and process-wide in the ``plan_store_hits`` /
``plan_store_errors`` / ``plan_store_writes`` counters of
:data:`repro.instrumentation.counters` (``repro.*`` counters of the
process metrics registry).  Reading the keys counts nothing, so a
second warm start that builds nothing moves no counter, and a key of
another ``w`` is no hit.
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
