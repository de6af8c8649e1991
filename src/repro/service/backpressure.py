"""Bounded admission queues and their overload policies.

Each shard worker owns one :class:`BoundedRequestQueue`.  When a queue is
full the configured :data:`policy <BACKPRESSURE_POLICIES>` decides what
gives way:

``"block"``
    The submitting caller waits for space — end-to-end flow control; no
    request is ever dropped (the concurrency soak tests run under this
    policy and assert zero dropped futures).
``"reject"``
    ``put`` raises :class:`~repro.errors.ServiceOverloadedError`
    immediately — load shedding at the front door, the caller retries or
    degrades.
``"shed_oldest"``
    A queued request is evicted to make room and returned to the caller,
    which fails its future with ``ServiceOverloadedError``.  The victim
    is chosen QoS-first: lowest :attr:`~repro.service.request.SolveRequest.priority`
    class goes first, nearest-expired deadline first within a class
    (deadline-less requests shed last within their class), oldest-queued
    on a full tie — the historical freshest-first behaviour for uniform
    traffic, priority-ordered deadline-aware shedding the moment classes
    differ.  An arriving request that *is* the weakest candidate sheds
    itself: the queue never evicts a higher class to admit a lower one.

The queue is a plain deque under one condition variable; ``close()`` wakes
every waiter so service shutdown cannot strand a blocked producer.  Two
:class:`~repro.obs.metrics.Gauge` instruments mirror its depth — total
undequeued requests and the handoff-lane share of them — and are set
under that same lock on every put, take and drain, so a drained queue
always reads 0 and the gauges' high-water marks are the deepest the
queue ever got.

Graph execution adds a second, higher-priority *handoff lane*: when a
shard finishes one segment of a graph job, the next wave's segments
enter their target shards through
:meth:`BoundedRequestQueue.put_handoff` — never blocking (the dispatching
worker thread must not stall) and never shedding (a mid-pipeline segment
carries upstream work that would be lost), but bounded at
``4 * maxsize`` parked segments (:attr:`BoundedRequestQueue.handoff_capacity`)
so a stalled shard surfaces :class:`~repro.errors.ServiceOverloadedError`
instead of queueing without limit: the dispatching worker fails that
graph, and the shard counts a rejected handoff.  Consumers drain handoffs
before admissions — in-flight pipelines complete before new work is
admitted, which is what keeps the pipeline moving and bounds the handoff
lane in practice.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import ServiceClosedError, ServiceOverloadedError
from ..obs.metrics import Gauge
from .request import SolveRequest

__all__ = ["BACKPRESSURE_POLICIES", "BoundedRequestQueue"]

#: The recognised overload policies, in documentation order.
BACKPRESSURE_POLICIES: Tuple[str, ...] = ("block", "reject", "shed_oldest")


class BoundedRequestQueue:
    """A bounded FIFO of :class:`SolveRequest` with a pluggable full-queue policy.

    ``depth_gauge`` / ``handoff_gauge`` are the instruments the queue
    keeps current (a shard passes its telemetry's registry gauges; a
    standalone queue gets private ones).
    """

    def __init__(
        self,
        maxsize: int,
        policy: str = "block",
        depth_gauge: Optional[Gauge] = None,
        handoff_gauge: Optional[Gauge] = None,
    ):
        if maxsize < 1:
            raise ValueError(f"queue maxsize must be >= 1, got {maxsize}")
        if policy not in BACKPRESSURE_POLICIES:
            known = ", ".join(BACKPRESSURE_POLICIES)
            raise ValueError(
                f"unknown backpressure policy {policy!r}; one of: {known}"
            )
        self._maxsize = int(maxsize)
        self._policy = policy
        self._handoff_capacity = 4 * self._maxsize
        self._items: Deque[SolveRequest] = deque()
        self._handoffs: Deque[SolveRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._depth = (
            depth_gauge if depth_gauge is not None else Gauge("queue_depth")
        )
        self._handoff_depth = (
            handoff_gauge if handoff_gauge is not None
            else Gauge("handoff_depth")
        )

    # -- introspection ----------------------------------------------------------
    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def handoff_capacity(self) -> int:
        """Parked segments the handoff lane holds: ``4 * maxsize``."""
        return self._handoff_capacity

    @property
    def handoff_depth(self) -> int:
        """Mid-pipeline segments currently parked in the handoff lane."""
        with self._cond:
            return len(self._handoffs)

    def __len__(self) -> int:
        """Total undequeued requests — admissions plus parked handoffs.

        Counting both lanes matters to the draining shutdown path: a
        worker exits only when *nothing* is left to execute.
        """
        with self._cond:
            return len(self._items) + len(self._handoffs)

    def _publish(self) -> None:
        """Set both depth gauges to the current depths (under ``self._cond``)."""
        self._depth.set(len(self._items) + len(self._handoffs))
        self._handoff_depth.set(len(self._handoffs))

    # -- producer side ----------------------------------------------------------
    def put(
        self, request: SolveRequest, timeout: Optional[float] = None
    ) -> Optional[SolveRequest]:
        """Enqueue ``request``, applying the overload policy when full.

        Returns the request *evicted* to make room (``shed_oldest`` only;
        the caller owns failing its future — the evicted request may be
        ``request`` itself when it is the weakest candidate) or ``None``.
        Raises :class:`ServiceOverloadedError` under ``reject`` (and
        under ``block`` when ``timeout`` elapses),
        :class:`ServiceClosedError` when the queue is closed.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError("cannot submit to a closed service")
            if len(self._items) < self._maxsize:
                self._items.append(request)
                self._publish()
                self._cond.notify_all()
                return None
            if self._policy == "reject":
                raise ServiceOverloadedError(
                    f"shard queue full ({self._maxsize} pending) "
                    f"under the 'reject' policy"
                )
            if self._policy == "shed_oldest":
                position = self._shed_victim(request)
                if position < 0:
                    return request
                # Evict by position, not by value: SolveRequest equality
                # compares operand arrays, so list.remove would be both
                # wrong (could drop a value-equal sibling) and broken
                # (numpy arrays refuse bool coercion).
                victim = self._items[position]
                del self._items[position]
                self._items.append(request)
                self._cond.notify_all()
                return victim
            # "block": wait for a worker to make room.
            limit = None if timeout is None else time.monotonic() + timeout
            while len(self._items) >= self._maxsize:
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceOverloadedError(
                        f"shard queue still full ({self._maxsize} pending) "
                        f"after blocking {timeout:.3f}s"
                    )
                self._cond.wait(remaining)
                if self._closed:
                    raise ServiceClosedError(
                        "service closed while waiting for queue space"
                    )
            self._items.append(request)
            self._publish()
            self._cond.notify_all()
            return None

    def _shed_victim(self, incoming: SolveRequest) -> int:
        """Index of the queued request to evict, or -1 for ``incoming``.

        Candidates are the queued admissions plus ``incoming`` itself —
        never the handoff lane (mid-pipeline segments carry upstream
        work).  The weakest candidate loses: lowest priority class
        first; within a class, nearest deadline first (no deadline sorts
        last — an expiring request is worth less than one with time to
        spare); oldest arrival on a full tie, with ``incoming`` counted
        newest.  Called under ``self._cond``.
        """
        far = float("inf")

        def weakness(request: SolveRequest, position: int):
            deadline = far if request.deadline is None else request.deadline
            return (request.priority, deadline, position)

        victim = -1
        # The incoming request is the newest arrival by construction.
        victim_rank = weakness(incoming, len(self._items))
        for position, queued in enumerate(self._items):
            rank = weakness(queued, position)
            if rank < victim_rank:
                victim, victim_rank = position, rank
        return victim

    def put_handoff(self, request: SolveRequest) -> None:
        """Park a mid-pipeline segment in the priority handoff lane.

        Never blocks (dispatch runs on a worker thread) and never sheds
        (the segment carries already-executed upstream levels); a lane at
        ``handoff_capacity`` raises
        :class:`~repro.errors.ServiceOverloadedError` so the dispatching
        worker can fail the whole graph request instead of queueing
        without bound.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "cannot hand a segment to a closed service"
                )
            if len(self._handoffs) >= self._handoff_capacity:
                raise ServiceOverloadedError(
                    f"shard handoff lane full ({self._handoff_capacity} "
                    f"parked segments); downstream shard cannot keep up"
                )
            self._handoffs.append(request)
            self._publish()
            self._cond.notify_all()

    # -- consumer side ----------------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Optional[SolveRequest]:
        """Dequeue one request, waiting up to ``timeout`` seconds.

        Handoffs drain first — an in-flight pipeline's next segment beats
        newly-admitted work, the systolic discipline that keeps upstream
        results streaming instead of pooling.  Returns ``None`` on
        timeout or when the queue is closed and empty (the worker's
        signal to re-check its stop flag / exit).
        """
        with self._cond:
            limit = None if timeout is None else time.monotonic() + timeout
            while not self._items and not self._handoffs:
                if self._closed:
                    return None
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            if self._handoffs:
                request = self._handoffs.popleft()
            else:
                request = self._items.popleft()
            self._publish()
            self._cond.notify_all()
        # Tracer-clock stamp for queue-wait spans; one clock read per
        # dequeue, cheap enough to do unconditionally.
        request.dequeued_at = time.perf_counter()
        return request

    def drain(self, limit: Optional[int] = None) -> List[SolveRequest]:
        """Dequeue up to ``limit`` immediately-available requests (no wait).

        Handoffs first, then admissions — the same priority ``get`` uses.
        """
        with self._cond:
            available = len(self._handoffs) + len(self._items)
            count = available if limit is None else min(limit, available)
            drained: List[SolveRequest] = []
            for _ in range(count):
                if self._handoffs:
                    drained.append(self._handoffs.popleft())
                else:
                    drained.append(self._items.popleft())
            if drained:
                self._publish()
                self._cond.notify_all()
        now = time.perf_counter()
        for request in drained:
            request.dequeued_at = now
        return drained

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Refuse new producers and wake every waiter.

        Already-queued requests stay dequeueable so a draining worker can
        finish them (or fail them with ``ServiceClosedError`` on a
        non-draining shutdown).
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
