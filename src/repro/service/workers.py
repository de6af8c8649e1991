"""Sharded worker pool: one thread, one solver, one hot plan cache per shard.

Requests are routed to shards by the service's
:class:`~repro.service.placement.PlacementTable`, so every request of a
given plan lands on the same shard: the plan compiles once per shard and
stays resident in that shard's private
:class:`~repro.api.plan.PlanCache`.  Because each shard owns its own
:class:`~repro.api.solver.Solver` and executes on a single thread, plan
executors never run concurrently — thread-safety concerns collapse to the
queue, the telemetry lock, and the (now lock-guarded) plan cache.

A worker's loop is: collect an admission window via the
:class:`~repro.service.batcher.AdmissionBatcher`, split it into plan-keyed
groups, and flush each group, of one request or many, through one
:meth:`~repro.api.solver.Solver.execute_many` call.  A request carries
the plan key, operands and execution arguments ``submit`` derived, so
the worker derives nothing again; matvec members pair onto the
overlapped contraflow cycles, and each member resolves or fails from
its own outcome, so a malformed request fails alone and its neighbours
run once.  By default a window is the next request plus whatever queued
while the worker was busy, with no linger: an idle shard starts a
request at once, and a busy one flushes its backlog as a batch.  Graph
jobs arrive as segment
requests (carrying a :class:`~repro.service.pipeline.SegmentTask`): the
worker executes one placed program segment — a run of levels on this
shard — against the parent job's shared state, then hands the next
wave's segments to their shards' handoff lanes, the cross-shard
macro-systolic path.  All failures resolve futures; the worker thread
itself never dies on a request error.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from ..api.solver import Solver
from ..errors import DeadlineExceededError, ServiceClosedError
from ..obs.tracing import NULL_SPAN
from .backpressure import BoundedRequestQueue
from .batcher import AdmissionBatcher
from .request import SolveRequest
from .telemetry import ShardTelemetry

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: a queue, a batcher, a private solver, and its thread."""

    def __init__(
        self,
        shard_id: int,
        solver: Solver,
        queue: BoundedRequestQueue,
        telemetry: ShardTelemetry,
        max_batch_size: int,
        max_batch_delay: float,
    ):
        self.shard_id = shard_id
        self.solver = solver
        self.queue = queue
        self.telemetry = telemetry
        #: The trace track this worker's spans render on.
        self.track = f"shard {shard_id}"
        self._batcher = AdmissionBatcher(
            queue,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
        )
        self._drain_on_stop = True
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-service-shard-{shard_id}",
            daemon=True,
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def request_stop(self, drain: bool = True) -> None:
        """Ask the worker to exit; with ``drain`` it finishes queued work first.

        The caller must then :meth:`BoundedRequestQueue.close` the queue:
        an idle worker blocks on it until a request arrives or it closes.
        """
        self._drain_on_stop = drain

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def is_current(self) -> bool:
        """True when called on this worker's own thread."""
        return threading.current_thread() is self._thread

    # -- the worker loop ----------------------------------------------------------
    def _run(self) -> None:
        while True:
            window = self._batcher.next_window()
            if not window:  # the queue is closed and drained
                return
            if not self._drain_on_stop:
                closed = ServiceClosedError(
                    "service closed without draining pending requests"
                )
                for request in window:
                    self._fail_undrained(request, closed)
                continue
            # Segments first: they arrived through the priority handoff
            # lane (or are a pipeline's admission wave) and upstream
            # shards may already be blocked on their output.
            plain: List[SolveRequest] = []
            for request in window:
                if request.segment is not None:
                    self._execute_segment(request)
                else:
                    plain.append(request)
            for group in AdmissionBatcher.group_by_plan(plain):
                self._execute_group(group)

    def _fail_undrained(
        self, request: SolveRequest, closed: ServiceClosedError
    ) -> None:
        """Resolve one abandoned request on a non-draining shutdown."""
        task = request.segment
        if task is not None:
            if task.job.fail(closed):
                task.job.home_telemetry.record_failed(task.job.latency())
        elif request.fail(closed):
            self.telemetry.record_failed(request.latency())

    def _execute_group(self, group: List[SolveRequest]) -> None:
        """Flush one plan-keyed group, resolving every member's future."""
        now = time.monotonic()
        live: List[SolveRequest] = []
        for request in group:
            if request.expired(now):
                self.telemetry.record_expired()
                request.fail(
                    DeadlineExceededError(
                        f"{request.kind} request exceeded its deadline "
                        f"after {request.latency(now):.3f}s in queue"
                    )
                )
            elif not request.future.set_running_or_notify_cancel():
                # Caller cancelled while queued; nothing to resolve, but
                # the trace must still end coherently.
                if request.trace is not None:
                    request.trace.root.finish(status="cancelled")
            else:
                live.append(request)
        if not live:
            return
        self.telemetry.record_batch(len(live))
        traced = [request for request in live if request.trace is not None]
        lead = NULL_SPAN
        if traced:
            # Retroactive spans from stamps both endpoints of which are
            # now known: admission → dequeue is queue_wait, dequeue →
            # here is batch_assembly.  Backdating means a request that
            # never reached this point (shed, expired, closed) never
            # opened these spans — nothing to leak.
            assembled_at = traced[0].trace.tracer.now()
            for request in traced:
                trace = request.trace
                if trace.admitted_at is None or request.dequeued_at is None:
                    continue
                trace.root.child(
                    "queue_wait", track=self.track, category="queue",
                    start=trace.admitted_at,
                ).finish(end=request.dequeued_at)
                trace.root.child(
                    "batch_assembly", track=self.track, category="queue",
                    start=request.dequeued_at, batch=len(live),
                ).finish(end=assembled_at)
            lead = traced[0].trace.root.child(
                "execute", track=self.track, category="execute",
                kind=live[0].kind, batch=len(live),
            )
        # Activated: the solver's plan_lookup / plan.execute spans nest
        # under the first traced member's execute span.
        with lead:
            outcomes = self.solver.execute_many(
                live[0].plan_key,
                [(request.operands, request.kwargs) for request in live],
            )
            # Each traced member's execute span closes with its own
            # outcome: the lead first (before the ``with`` would close it
            # as ok), then one copy of its interval per other member, the
            # truth of a group execution.
            for request, outcome in zip(live, outcomes):
                if request.trace is None:
                    continue
                span = lead
                if request is not traced[0]:
                    span = request.trace.root.child(
                        "execute", track=self.track, category="execute",
                        start=lead.start, kind=live[0].kind, batch=len(live),
                    )
                if isinstance(outcome, Exception):
                    span.finish(status="error", error=outcome, end=lead.end)
                else:
                    span.finish(end=lead.end)
        for request, outcome in zip(live, outcomes):
            # Telemetry first: a RUNNING future cannot be cancelled, so
            # set_result is infallible — and the caller it wakes may read
            # stats() immediately.
            if isinstance(outcome, Exception):
                self.telemetry.record_failed(request.latency())
                request.fail(outcome)
            else:
                self.telemetry.record_completed(request.latency())
                _record_iterations(self.telemetry, request.kind, outcome)
                request.resolve(outcome)

    def _execute_segment(self, request: SolveRequest) -> None:
        """Run one placed segment of a graph job.

        The parent job coordinates everything cross-segment: a sibling's
        failure (or a shed, or a caller cancel) makes this a no-op, the
        wave cursor releases the next wave into the handoff lanes, and
        the segment that lands the final wave assembles the result and
        resolves the parent future.  All whole-job telemetry (completed /
        failed / expired / graph rows) goes to the job's *home* shard so
        the fleet snapshot counts each graph exactly once; this shard
        records only its own segment execution.
        """
        task = request.segment
        assert task is not None
        job = task.job
        if job.failed:
            return  # a sibling already failed the whole request
        if request.expired():
            if job.fail(
                DeadlineExceededError(
                    f"graph request exceeded its deadline after "
                    f"{job.latency():.3f}s (level {task.level} still queued)"
                )
            ):
                job.home_telemetry.record_expired()
            return
        if not job.mark_running():
            return  # caller cancelled while the job was queued
        trace = job.trace
        seg_span = NULL_SPAN
        if trace is not None:
            # The lane transit (or admission-queue wait, for the first
            # wave) is reconstructed retroactively from the dispatch
            # stamp — both endpoints known, nothing to leak.
            if task.dispatched_at is not None and request.dequeued_at is not None:
                transit_name = (
                    "handoff_transit" if task.from_shard is not None
                    else "queue_wait"
                )
                transit = trace.root.child(
                    transit_name, track=self.track, category="queue",
                    start=task.dispatched_at, level=task.level,
                )
                if task.from_shard is not None:
                    transit.annotate(from_shard=task.from_shard)
                transit.finish(end=request.dequeued_at)
            seg_span = trace.root.child(
                f"segment L{task.level}", track=self.track,
                category="segment", shard=self.shard_id, level=task.level,
            )
            if task.flow_id is not None:
                # Arrow head: the producing segment's flow lands here.
                seg_span.flow_in(task.flow_id)
        try:
            # Activated: per-stage spans from ProgramSegment.execute nest
            # under this shard's segment span; an exception closes it as
            # failed before the job latch fires.
            with seg_span:
                task.segment.execute(job.outputs, job.solutions, job.latencies)
        except Exception as exc:
            if job.fail(exc):
                job.home_telemetry.record_failed(job.latency())
            return
        self.telemetry.record_segment()
        next_wave, finished = job.complete_segment()
        if trace is not None and next_wave:
            # Each released segment gets a flow arrow from this span to
            # its own; the dispatch stamp starts its transit span.
            dispatched_at = trace.tracer.now()
            for next_task in next_wave:
                flow = trace.tracer.new_flow()
                seg_span.flow_out(flow)
                next_task.flow_id = flow
                next_task.from_shard = self.shard_id
                next_task.dispatched_at = dispatched_at
        for next_task in next_wave:
            try:
                job.dispatch(next_task)
            except Exception as exc:
                if job.fail(exc):
                    job.home_telemetry.record_failed(job.latency())
                return
        if not finished:
            return
        result = job.assemble()
        job.home_telemetry.record_completed(job.latency())
        job.home_telemetry.record_graph(
            stages=len(result.solutions),
            fused=(
                result.fused_pairs + result.fused_rewrites
                + result.fused_epilogues
            ),
            stage_latencies=result.stage_seconds,
            levels=(max(result.levels) + 1) if result.levels else 0,
            kinds=result.kinds,
        )
        for kind, solution in zip(result.kinds, result.solutions):
            _record_iterations(job.home_telemetry, kind, solution)
        job.resolve(result)


def _record_iterations(telemetry: ShardTelemetry, kind: str, solution) -> None:
    """Account multi-iteration solves (jacobi, sor, cg, ...) per kind."""
    iterations = solution.stats.get("iterations")
    if isinstance(iterations, int) and iterations > 0:
        telemetry.record_iterations(kind, iterations)
