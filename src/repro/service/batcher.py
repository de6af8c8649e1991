"""Plan-keyed admission batching.

The serving-layer analogue of keeping the systolic array saturated: rather
than executing requests strictly one-by-one, a shard worker takes an
*admission window* — its first request plus whatever queued behind it
while the worker was busy, up to ``max_batch_size`` — and groups it by
plan key.  The window is self-clocking (group commit): an unloaded shard
runs each request the moment it arrives, and under load the backlog that
builds during one flush becomes the next window, so batch size follows
load with no timer.  ``max_batch_delay`` (0 by default) is an optional
cap on an extra linger after the first request, for a caller that would
trade that much latency for larger groups.  Every group shares one
compiled :class:`~repro.api.plan.ExecutionPlan`, so a group flush through
``Solver.execute_many`` costs at most one plan compile regardless of
group size — and for the plain matvec kind it additionally pairs group
members onto the array's idle contraflow cycles.

The batcher is pure policy: it owns no thread and mutates nothing but the
queue it drains, which keeps the windowing/grouping rules independently
testable from the worker machinery.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List

from .backpressure import BoundedRequestQueue
from .request import SolveRequest

__all__ = ["AdmissionBatcher", "DEFAULT_MAX_BATCH_DELAY"]

#: The service-wide default linger: none, so a window is self-clocking.
DEFAULT_MAX_BATCH_DELAY: float = 0.0


class AdmissionBatcher:
    """Collects admission windows from a queue and groups them by plan key.

    ``max_batch_size`` caps one window.  ``max_batch_delay`` is how long
    the worker lingers after the *first* request arrives, trading that
    much latency for the chance that same-plan requests pile up and flush
    together; at the default of 0 it does not linger, and a window is the
    first request plus the backlog already queued behind it.

    ``clock`` is the monotonic time source for the window cutoff.  It
    must be a *monotonic* clock — ``time.monotonic`` by default, never
    wall-clock ``time.time()``, whose NTP steps and DST jumps would
    stretch or collapse admission windows — and is injectable so tests
    can drive the window deadline deterministically.
    """

    def __init__(
        self,
        queue: BoundedRequestQueue,
        max_batch_size: int = 32,
        max_batch_delay: float = DEFAULT_MAX_BATCH_DELAY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_batch_delay < 0:
            raise ValueError(f"max_batch_delay must be >= 0, got {max_batch_delay}")
        self._queue = queue
        self._max_batch_size = int(max_batch_size)
        self._max_batch_delay = float(max_batch_delay)
        self._clock = clock

    @property
    def max_batch_size(self) -> int:
        return self._max_batch_size

    @property
    def max_batch_delay(self) -> float:
        return self._max_batch_delay

    def next_window(self) -> List[SolveRequest]:
        """One admission window, in arrival order (empty once the queue
        is closed and drained).

        Blocks until the first request arrives or the queue closes, then
        lingers up to ``max_batch_delay`` (or until the window is full)
        gathering companions.  Once the cutoff has passed it drains what
        is already queued without waiting, so at the default zero delay a
        window is the first request plus the backlog.
        """
        first = self._queue.get()
        if first is None:
            return []
        window = [first]
        cutoff = self._clock() + self._max_batch_delay
        while len(window) < self._max_batch_size:
            remaining = cutoff - self._clock()
            if remaining <= 0:
                window.extend(self._queue.drain(self._max_batch_size - len(window)))
                break
            companion = self._queue.get(timeout=remaining)
            if companion is None:
                break
            window.append(companion)
        return window

    @staticmethod
    def group_by_plan(window: List[SolveRequest]) -> List[List[SolveRequest]]:
        """Split a window into per-plan-key flush groups.

        Groups preserve arrival order (both across groups — ordered by
        their earliest member — and within a group).  A request's
        execution arguments (``lower=``, ``x0=``) ride with it into its
        group: :meth:`~repro.api.solver.Solver.execute_many` takes them
        per entry.
        """
        groups: Dict[Hashable, List[SolveRequest]] = {}
        for request in window:
            groups.setdefault(request.plan_key, []).append(request)
        return list(groups.values())
