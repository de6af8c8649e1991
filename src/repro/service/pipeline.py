"""Graph jobs: placed segments, handoff waves, completion.

Every graph the service serves runs here.  The service compiles a graph
once (against its shared compile solver), splits the program into
:class:`~repro.graph.program.ProgramSegment` units placed per plan key by
the :class:`~repro.service.placement.PlacementTable` — a run of levels
on one shard is one segment — and admits the first wave of segments to
their shards.  Each shard worker that finishes a segment reports back to
the job, which releases the next wave into the target shards' *handoff
lanes* (:meth:`~repro.service.backpressure.BoundedRequestQueue.put_handoff`)
— macro-systolic flow: stage outputs stream between shards only where
the placement crosses shards, and level k of one request overlaps level
k−1 of the next.

A :class:`PipelinedGraphJob` owns the parts every segment needs to agree
on: the caller's future (resolved exactly once), the shared per-stage
output/solution/latency slots (segments write index-disjoint entries),
the wave cursor that decides when the next wave dispatches, and the
failure latch — one failed or shed segment fails the *whole* request and
makes every sibling segment a no-op, so no orphan ever executes against
a dead future.

Value flow is bit-identical to :meth:`PipelineProgram.run`: a wave only
dispatches after every segment of the previous wave completed, and both
paths execute identical plans over identical operand bindings in level
order.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..api.solution import Solution
from ..graph.program import PipelineProgram, PipelineResult, ProgramSegment
from .qos import PRIORITY_NORMAL
from .request import RequestTrace, SolveRequest
from .telemetry import ShardTelemetry

__all__ = ["PipelinedGraphJob", "SegmentTask"]


@dataclass
class SegmentTask:
    """One placed segment of a graph job.

    Wraps the :class:`ProgramSegment` with the :class:`SolveRequest` that
    carries it through its shard's queue (``request.segment`` points back
    here; the request's own future is never surfaced — the job's parent
    future is the caller-visible one).
    """

    job: "PipelinedGraphJob"
    segment: ProgramSegment
    request: SolveRequest = field(init=False)
    #: Trace plumbing, written by the dispatching thread before the task
    #: enters its shard queue / handoff lane: the flow id linking the
    #: producing segment's span to this one's, the shard that produced
    #: the inputs, and the tracer-clock dispatch instant (so the consumer
    #: can backdate a ``handoff_transit`` span).
    flow_id: Optional[int] = None
    from_shard: Optional[int] = None
    dispatched_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.request = SolveRequest(
            kind="graph_segment",
            operands=(),
            plan_key=self.job.graph_key,
            deadline=self.job.deadline,
            priority=self.job.priority,
            client_id=self.job.client_id,
            segment=self,
        )

    @property
    def shard(self) -> int:
        return self.segment.shard

    @property
    def level(self) -> int:
        return self.segment.level


class PipelinedGraphJob:
    """Shared state of one graph request executing as placed segments.

    All cross-segment coordination (start latch, failure latch, wave
    cursor) serializes on one lock; segment *execution* itself touches
    only index-disjoint slots of the shared per-stage lists, so shards in
    the same wave run genuinely concurrently.
    """

    def __init__(
        self,
        program: PipelineProgram,
        graph_key: Hashable,
        segments: Sequence[ProgramSegment],
        home_telemetry: ShardTelemetry,
        dispatch: Callable[["SegmentTask"], None],
        deadline: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
        priority: int = PRIORITY_NORMAL,
        client_id: Optional[str] = None,
    ):
        self.program = program
        self.graph_key = graph_key
        self.deadline = deadline
        #: The whole job's admission class; every first-wave segment
        #: request carries it, so a full shard queue sheds a low-class job
        #: before a high-class one (the failure latch then retires the
        #: job's siblings).  Handoff-lane segments are shed-exempt.
        self.priority = int(priority)
        self.client_id = client_id
        self.home_telemetry = home_telemetry
        self.dispatch = dispatch
        #: Trace context of the whole job; segment spans hang off its root.
        self.trace = trace
        self.future: "Future[PipelineResult]" = Future()
        self.enqueued_at = time.monotonic()
        # The compile charge is consumed here — at admission — so the
        # result's warm/cold accounting matches PipelineProgram.run():
        # charged to the first execution of this program, zero for a
        # warm-cache recompile.
        self._compile_charge = program.consume_compile_charge()
        n = len(program.stages)
        #: Shared per-stage execution slots; segments write disjoint indices.
        self.outputs: List[object] = [None] * n
        self.solutions: List[Optional[Solution]] = [None] * n
        self.latencies: List[float] = [0.0] * n
        placements = [0] * n
        # Segments sharing a first level are one wave: independent of
        # each other, dependent only on earlier waves.
        self._waves: List[List[SegmentTask]] = []
        last_level: Optional[int] = None
        for segment in segments:
            if segment.level != last_level:
                self._waves.append([])
                last_level = segment.level
            self._waves[-1].append(SegmentTask(job=self, segment=segment))
            for stage in segment.stages:
                placements[stage.index] = segment.shard
        self.placements: Tuple[int, ...] = tuple(placements)
        self._lock = threading.Lock()
        self._failed = False
        self._started = False
        self._start_ok = False
        self._clock_start = 0.0
        self._wave_cursor = 0
        self._pending_in_wave = len(self._waves[0])

    # -- introspection ----------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return sum(len(wave) for wave in self._waves)

    @property
    def failed(self) -> bool:
        with self._lock:
            return self._failed

    def first_tasks(self) -> Tuple[SegmentTask, ...]:
        """The first wave, which the service admits through the front door."""
        return tuple(self._waves[0])

    def latency(self, now: Optional[float] = None) -> float:
        """Seconds since the job entered the service."""
        return (time.monotonic() if now is None else now) - self.enqueued_at

    # -- the coordination protocol ------------------------------------------------
    def mark_running(self) -> bool:
        """Transition the parent future to RUNNING (first segment only).

        Returns False — and latches the job as failed — when the caller
        cancelled the future while the job was queued; every sibling
        segment then drops without executing.
        """
        with self._lock:
            if self._failed:
                return False
            if self._started:
                return self._start_ok
            self._started = True
            self._start_ok = self.future.set_running_or_notify_cancel()
            if self._start_ok:
                self._clock_start = time.perf_counter()
            else:
                self._failed = True
                if self.trace is not None:
                    self.trace.root.finish(status="cancelled")
            return self._start_ok

    def fail(self, exc: BaseException) -> bool:
        """Fail the whole request; True only for the resolving call.

        Latches ``failed`` either way, so in-flight and still-queued
        sibling segments become no-ops; callers gate their failure
        telemetry on the return value (exactly one of several
        concurrently-failing shards records the job).
        """
        with self._lock:
            self._failed = True
        if self.trace is not None:
            # Idempotent: whichever of several concurrently-failing
            # shards gets here first closes the root; no path leaves it
            # open.
            self.trace.root.finish(status="error", error=exc)
        try:
            self.future.set_exception(exc)
            return True
        except Exception:
            return False  # already resolved or cancelled

    def resolve(self, result: PipelineResult) -> bool:
        """Resolve the caller's future and close the trace root as ok."""
        if self.trace is not None:
            self.trace.root.finish()
        try:
            self.future.set_result(result)
            return True
        except Exception:
            return False

    def complete_segment(self) -> Tuple[Tuple[SegmentTask, ...], bool]:
        """Account one finished segment; returns (next wave, finished).

        The next wave's tasks are released exactly when the last segment
        of the current wave lands; ``finished`` is True exactly once —
        for the segment that completed the final wave.
        """
        with self._lock:
            if self._failed:
                return (), False
            self._pending_in_wave -= 1
            if self._pending_in_wave > 0:
                return (), False
            self._wave_cursor += 1
            if self._wave_cursor >= len(self._waves):
                return (), True
            wave = tuple(self._waves[self._wave_cursor])
            self._pending_in_wave = len(wave)
            return wave, False

    def assemble(self) -> PipelineResult:
        """Fold the executed slots into the caller-visible result."""
        return self.program.assemble(
            self.solutions,
            self.outputs,
            self.latencies,
            total_seconds=time.perf_counter() - self._clock_start,
            compile_plan_builds=self._compile_charge,
            placements=self.placements,
        )
