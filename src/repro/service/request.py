"""The unit of work flowing through the serving layer.

A :class:`SolveRequest` pairs one solve call (kind, operands, execution
arguments) with the ``concurrent.futures.Future`` the caller
holds, the plan key that routes it, and the timing fields the telemetry
and deadline machinery need.  Requests are created by
:class:`~repro.service.service.SolverService.submit` and consumed by
exactly one shard worker; the future is resolved exactly once.

Graph jobs (``SolverService.submit_graph``) ride the same request type
as placed segments: each segment request carries a
:class:`~repro.service.pipeline.SegmentTask` in ``segment`` and resolves
the shared parent future through its
:class:`~repro.service.pipeline.PipelinedGraphJob` rather than its own
(never-surfaced) future.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple, TYPE_CHECKING

from ..obs.tracing import Span, Tracer
from .qos import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import SegmentTask

__all__ = ["RequestTrace", "SolveRequest"]


@dataclass
class RequestTrace:
    """Trace context riding one request through the service.

    ``root`` is the request's root span (opened by ``submit`` on the
    client track); it is closed exactly once — by :meth:`SolveRequest.resolve`
    on success, by :meth:`SolveRequest.fail` on any failure path — so a
    shed/expired/errored request can never leave it open.  ``admitted_at``
    is the tracer-clock instant the request entered its shard queue,
    recorded so the worker can backdate a ``queue_wait`` span once the
    request is dequeued (spans with unknowable ends are never opened).
    """

    tracer: Tracer
    root: Span
    admitted_at: Optional[float] = None


@dataclass
class SolveRequest:
    """One in-flight solve: operands, routing key, future, and timing.

    ``deadline`` is an absolute ``time.monotonic()`` instant (or ``None``);
    a worker that dequeues the request after it fails the future with
    :class:`~repro.errors.DeadlineExceededError` instead of executing.
    The worker executes ``operands`` and ``kwargs`` under ``plan_key`` as
    ``submit`` derived them.  ``kwargs`` carries kind-specific execution
    arguments (``lower=False``, ``x0=...``), which ride into the
    request's flush group; options overrides (``overlapped=``,
    ``omega=``, ...) are folded into the key's options instead.  A graph
    segment request has no operands of its own and runs alone.

    ``plan_key`` is the routing key: the usual 4-tuple
    ``(kind, shapes, w, options)`` for single solves, and
    ``("__graph__", stage keys, w, options)`` for graph segments — always
    hashable, always stable for a given workload shape.

    ``priority`` is the request's admission class (higher = more
    important; the named classes map through
    :func:`~repro.service.qos.resolve_priority`) — consulted only when a
    full ``shed_oldest`` queue picks a victim.  ``client_id`` names the
    submitting client for per-client rate limiting and accounting
    (``None`` = anonymous, never rate-limited).
    """

    kind: str
    operands: Tuple[Any, ...]
    plan_key: Hashable
    kwargs: Dict[str, Any] = field(default_factory=dict)
    priority: int = PRIORITY_NORMAL
    client_id: Optional[str] = None
    #: One placed segment of a graph job; the worker executes it against
    #: the parent job's shared state instead of this request's own future.
    segment: Optional["SegmentTask"] = None
    deadline: Optional[float] = None
    future: "Future[Any]" = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Trace context (``None`` when the owning service is not tracing).
    trace: Optional[RequestTrace] = None
    #: Tracer-clock instant the queue handed this request to a worker;
    #: stamped unconditionally by the queue (one clock read) so traced
    #: requests can reconstruct their queue wait.
    dequeued_at: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the request's deadline has already passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def latency(self, now: Optional[float] = None) -> float:
        """Seconds since the request entered the service."""
        return (time.monotonic() if now is None else now) - self.enqueued_at

    def resolve(self, value: Any) -> bool:
        """Resolve the future and close the trace root as successful.

        The span close is unconditional (and idempotent), so the trace
        ends coherently even if the caller cancelled the future first.
        """
        if self.trace is not None:
            self.trace.root.finish()
        try:
            self.future.set_result(value)
            return True
        except Exception:
            return False

    def fail(self, exc: BaseException) -> bool:
        """Fail the future; False when it was already resolved/cancelled.

        Callers gate their failure telemetry on the return value so a
        caller-cancelled future is never double-counted.  The trace root
        is closed as failed regardless — no failure path may leave an
        open span.
        """
        if self.trace is not None:
            self.trace.root.finish(status="error", error=exc)
        try:
            self.future.set_exception(exc)
            return True
        except Exception:
            return False
