"""Request tracing through the serving layer, end to end.

Acceptance (ISSUE PR 8): a two-shard pipelined diamond yields **one**
coherent span tree — admission wait, queue wait, per-shard segment
executions nested by dependency level, handoff-lane transits — whose
Chrome export carries a flow arrow for every handoff between the
producing and consuming shard tracks; failure paths (shed, expired,
errored segment) close every span they opened and mark the root span
failed; and with tracing disabled the service runs the guarded no-op
path.  The telemetry side: p99 joins the percentile columns, and the
instrumentation counters stay exact under the shard pool.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import (
    DeadlineExceededError, ServiceOverloadedError, ShapeError,
)
from repro.graph import Graph, GraphCompiler, Jacobi, MatMul, MatVec, ProgramSegment, Refine
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.nn import Bias, Relu
from repro.obs import NULL_TRACER, Tracer
from repro.service import SolverService

W = 4
N = 8
N_DIAMOND = 32


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    return matrix + (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)


def _diamond(rng):
    """Relu source feeding a matvec branch and a one-sweep jacobi branch,
    joined by an elementwise add — levels [src] / [left, right] / [join]."""
    a = rng.normal(size=(N_DIAMOND, N_DIAMOND))
    m = _spd(rng, N_DIAMOND)
    x = rng.normal(size=N_DIAMOND)
    src = Relu(x, name="src")
    left = MatVec(a, src, name="left")
    right = Jacobi(
        m,
        src,
        criteria=ConvergenceCriteria(atol=1e-30, max_iter=1),
        name="right",
    )
    return Graph(Bias(left, right, name="join"))


def _pin_branches(service, graph) -> None:
    keys = graph.plan_keys(W, ExecutionOptions())
    service.placement.assign(keys[graph.names.index("left")], 0)
    service.placement.assign(keys[graph.names.index("right")], 1)


@pytest.fixture
def pipeline(rng):
    """The 3-stage acceptance pipeline: matmul -> matvec -> refine."""
    a = rng.normal(size=(N, N))
    b = rng.normal(size=(N, N))
    z = rng.normal(size=N)
    matrix = _spd(rng, N)
    product = MatMul(a, b, name="product")
    projected = MatVec(product, z, name="projected")
    refined = Refine(matrix, projected, name="refined")
    return Graph(refined)


def _roots(spans):
    return [span for span in spans if span.parent_id is None]


class TestPipelinedGraphTrace:
    def test_two_shard_diamond_yields_one_coherent_tree(self, rng):
        graph = _diamond(rng)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=2, tracer=tracer) as service:
            _pin_branches(service, graph)
            result = service.solve_graph(graph)
        assert set(result.placements) == {0, 1}
        assert tracer.open_spans == 0

        spans = tracer.spans()
        roots = _roots(spans)
        assert len(roots) == 1  # one request, one tree
        root = roots[0]
        assert root.name == "request graph"
        assert root.status == "ok"

        # Span nesting matches the level partition: one segment span per
        # placed segment, all direct children of the root, branches on
        # their pinned shard tracks.
        segments = [span for span in spans if span.category == "segment"]
        assert root.args["segments"] == len(segments)
        assert all(span.parent_id == root.span_id for span in segments)
        by_level = {}
        for span in segments:
            by_level.setdefault(span.args["level"], []).append(span)
        assert sorted(by_level) == [0, 1, 2]
        assert len(by_level[1]) == 2
        assert {span.track for span in by_level[1]} == {"shard 0", "shard 1"}
        # Levels execute in dependency order.
        assert max(s.end for s in by_level[0]) <= min(s.start for s in by_level[1])
        assert max(s.end for s in by_level[1]) <= min(s.start for s in by_level[2])

        # Per-stage spans nest under their segment, which nests the
        # plan execution below it.
        stage_spans = [span for span in spans if span.category == "stage"]
        assert {span.name for span in stage_spans} == {
            "stage src",
            "stage left",
            "stage right",
            "stage join",
        }
        segment_ids = {span.span_id for span in segments}
        assert all(span.parent_id in segment_ids for span in stage_spans)

        # Every handoff is a flow from the producing segment span to the
        # consuming one, one level down; the wave released by L0 includes
        # the cross-shard arrow between the two branch tracks.
        producers = {flow: span for span in spans for flow in span.flows_out}
        consumers = {flow: span for span in spans for flow in span.flows_in}
        assert set(producers) == set(consumers)
        assert len(producers) == 3  # L0 -> {left, right}, L1 -> join
        for flow, producer in producers.items():
            consumer = consumers[flow]
            assert consumer.args["level"] == producer.args["level"] + 1
            assert producer.end <= consumer.start
        assert any(
            producers[flow].track != consumers[flow].track
            for flow in producers
        )

        # Sum of execute-span durations never exceeds the root's.
        total = sum(span.duration for span in segments)
        assert total <= root.duration

    def test_chrome_export_carries_the_handoff_arrows(self, rng):
        graph = _diamond(rng)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=2, tracer=tracer) as service:
            _pin_branches(service, graph)
            service.solve_graph(graph)
        payload = tracer.chrome_trace()
        events = payload["traceEvents"]
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        ends = {e["id"]: e for e in events if e["ph"] == "f"}
        assert set(starts) == set(ends) and len(starts) == 3
        for flow_id, start in starts.items():
            assert start["ts"] <= ends[flow_id]["ts"]
        # Both shard tracks appear, and at least one arrow crosses tracks.
        assert any(
            starts[flow]["tid"] != ends[flow]["tid"] for flow in starts
        )
        tracks = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks == {"client", "shard 0", "shard 1"}

    def test_warm_resubmission_traces_plan_cache_hits(self, rng):
        graph = _diamond(rng)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=2, tracer=tracer) as service:
            _pin_branches(service, graph)
            service.solve_graph(graph)
            tracer.clear()
            warm = service.solve_graph(graph)
        assert warm.warm
        spans = tracer.spans()
        lookups = [span for span in spans if span.name == "plan_lookup"]
        assert lookups and all(
            span.args["cache"] == "hit" for span in lookups
        )
        assert tracer.open_spans == 0


class TestClassicRequestTrace:
    def test_solve_produces_the_expected_child_spans(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=1, tracer=tracer) as service:
            service.solve("matvec", a, x)
            service.solve("matvec", a, x)
        assert tracer.open_spans == 0
        traces = tracer.trace_ids()
        assert len(traces) == 2
        cold = {span.name: span for span in tracer.spans(traces[0])}
        warm = {span.name: span for span in tracer.spans(traces[1])}
        for tree in (cold, warm):
            assert tree["request matvec"].status == "ok"
            for name in ("admission_wait", "queue_wait", "execute"):
                assert name in tree, tree.keys()
            assert tree["execute"].track == "shard 0"
            execute_id = tree["execute"].span_id
            assert tree["plan_lookup"].parent_id == execute_id
            assert tree["plan.execute"].parent_id == execute_id
        assert cold["plan_lookup"].args["cache"] == "miss"
        assert warm["plan_lookup"].args["cache"] == "hit"

    def test_inner_plan_lookup_is_traced_under_plan_execute(self, rng):
        """A jacobi sweep's mat-vec is a traced lookup of the shard cache."""
        a = rng.normal(size=(N, N))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)
        b = rng.normal(size=N)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=1, tracer=tracer) as service:
            service.solve("jacobi", a, b)
            service.solve("jacobi", a, b)
        assert tracer.open_spans == 0
        traces = tracer.trace_ids()
        assert len(traces) == 2
        for trace_id, cache in zip(traces, ("miss", "hit")):
            spans = tracer.spans(trace_id)
            (execute,) = [span for span in spans if span.name == "plan.execute"]
            (inner,) = [
                span for span in spans
                if span.name == "plan_lookup" and span.args["kind"] == "matvec"
            ]
            assert inner.parent_id == execute.span_id
            assert inner.args["cache"] == cache

    def test_disabled_tracer_records_nothing(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=1) as service:
            assert service.tracer is NULL_TRACER
            solution = service.solve("matvec", a, x)
        assert solution.kind == "matvec"
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.open_spans == 0

    def test_program_run_profiling_hook(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        program = GraphCompiler(Solver(ArraySpec(W))).compile(
            Graph(MatVec(a, x, name="only"))
        )
        tracer = Tracer()
        program.run(tracer=tracer)
        spans = {span.name: span for span in tracer.spans()}
        assert spans["pipeline.run"].status == "ok"
        assert spans["stage only"].parent_id == spans["pipeline.run"].span_id
        assert spans["plan.execute"].parent_id == spans["stage only"].span_id
        assert tracer.open_spans == 0
        # The default path stays untraced.
        assert program.run().outputs


class TestFailurePathsCloseTheirSpans:
    """No orphaned open spans, root marked failed — the satellite tests."""

    @staticmethod
    def _slow_level_zero(monkeypatch, seconds: float) -> None:
        original = ProgramSegment.execute

        def slow(self, outputs, solutions, latencies):
            if self.level == 0:
                time.sleep(seconds)
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", slow)

    @staticmethod
    def _pin_everything(service, graph, shard: int = 0):
        base = ExecutionOptions()
        stage_keys = graph.plan_keys(W, base)
        for key in stage_keys:
            service.placement.assign(key, shard)
        service.placement.assign(("__graph__", stage_keys, W, base), shard)

    @staticmethod
    def _wait_admissions_empty(service, shard: int = 0) -> None:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if len(service.shards[shard].queue) == 0:
                return
            time.sleep(0.002)
        raise AssertionError("worker never picked up the queued request")

    def test_expired_pipelined_job_fails_the_root_span(
        self, pipeline, monkeypatch
    ):
        self._slow_level_zero(monkeypatch, 0.15)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=2, tracer=tracer) as service:
            future = service.submit_graph(pipeline, timeout=0.05)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
        assert tracer.open_spans == 0
        roots = _roots(tracer.spans())
        graph_roots = [r for r in roots if r.name == "request graph"]
        assert len(graph_roots) == 1
        assert graph_roots[0].status == "error"
        assert "DeadlineExceededError" in graph_roots[0].error

    def test_shed_pipelined_job_fails_the_root_span(
        self, pipeline, rng, monkeypatch
    ):
        self._slow_level_zero(monkeypatch, 0.35)
        a, z = rng.normal(size=(N, N)), rng.normal(size=N)
        tracer = Tracer()
        with SolverService(
            ArraySpec(W),
            n_shards=2,
            queue_depth=1,
            backpressure="shed_oldest",
            max_batch_size=1,
            tracer=tracer,
        ) as service:
            self._pin_everything(service, pipeline)
            service.placement.assign(service.plan_key("matvec", a, z), 0)
            first = service.submit_graph(pipeline)
            self._wait_admissions_empty(service)
            second = service.submit_graph(pipeline)  # fills the queue
            probe = service.submit("matvec", a, z)  # sheds second's level 0
            with pytest.raises(ServiceOverloadedError, match="shed"):
                second.result(timeout=5.0)
            first.result(timeout=5.0)
            probe.result(timeout=5.0)
        assert tracer.open_spans == 0
        statuses = sorted(
            root.status
            for root in _roots(tracer.spans())
            if root.name == "request graph"
        )
        assert statuses == ["error", "ok"]

    def test_errored_segment_closes_its_span_and_fails_the_root(
        self, pipeline, monkeypatch
    ):
        original = ProgramSegment.execute

        def boom(self, outputs, solutions, latencies):
            if self.level == 1:
                raise RuntimeError("segment exploded")
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", boom)
        tracer = Tracer()
        with SolverService(ArraySpec(W), n_shards=2, tracer=tracer) as service:
            # Level 0 on shard 0, the later levels on shard 1: a segment
            # starts at level 1 whatever shards the keys hash to.
            keys = pipeline.plan_keys(W, ExecutionOptions())
            for name, shard in (("product", 0), ("projected", 1), ("refined", 1)):
                service.placement.assign(keys[pipeline.names.index(name)], shard)
            future = service.submit_graph(pipeline)
            with pytest.raises(RuntimeError, match="segment exploded"):
                future.result(timeout=5.0)
        assert tracer.open_spans == 0
        spans = tracer.spans()
        root = next(r for r in _roots(spans) if r.name == "request graph")
        assert root.status == "error"
        assert "segment exploded" in root.error
        failed_segments = [
            span
            for span in spans
            if span.category == "segment" and span.status == "error"
        ]
        assert len(failed_segments) == 1
        assert failed_segments[0].args["level"] == 1

    def test_rejected_request_closes_its_root_synchronously(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        tracer = Tracer()
        with SolverService(
            ArraySpec(W),
            n_shards=1,
            queue_depth=1,
            backpressure="reject",
            max_batch_size=1,
            tracer=tracer,
        ) as service:
            key = service.plan_key("matvec", a, x)
            service.placement.assign(key, 0)
            futures = []
            rejected = 0
            for _ in range(12):
                try:
                    futures.append(service.submit("matvec", a, x))
                except ServiceOverloadedError:
                    rejected += 1
            for future in futures:
                future.result(timeout=5.0)
        assert rejected >= 1
        assert tracer.open_spans == 0
        statuses = [root.status for root in _roots(tracer.spans())]
        assert statuses.count("error") == rejected
        assert statuses.count("ok") == len(futures)


    def test_failing_member_of_a_flush_fails_only_its_own_trace(
        self, rng, monkeypatch
    ):
        a = rng.normal(size=(N, N))
        xs = [rng.normal(size=N), rng.normal(size=N - 3), rng.normal(size=N)]
        tracer = Tracer()
        service = SolverService(ArraySpec(W), n_shards=1, tracer=tracer)
        entered, gate = threading.Event(), threading.Event()
        shard_solver = service.shards[0].solver
        original = shard_solver.execute_many

        def gated(*args, **kwargs):
            entered.set()
            gate.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(shard_solver, "execute_many", gated)
        try:
            first = service.submit("matvec", a, xs[0])
            # The worker holds `first`, so the next three queue as one
            # flush of one plan key, the middle one malformed.
            assert entered.wait(timeout=30)
            flush = [service.submit("matvec", a, x) for x in xs]
            gate.set()
            first.result(timeout=30)
            outcomes = [future.exception(timeout=30) for future in flush]
            lone = service.submit("matvec", a, xs[1])
            with pytest.raises(ShapeError):
                lone.result(timeout=30)
        finally:
            gate.set()
            service.close()
        assert [type(exc) for exc in outcomes] == [
            type(None), ShapeError, type(None)
        ]
        assert tracer.open_spans == 0
        spans = tracer.spans()
        roots = sorted(_roots(spans), key=lambda root: root.start)
        assert len(roots) == 5
        executes = {
            root.span_id: [
                span for span in spans
                if span.name == "execute" and span.parent_id == root.span_id
            ]
            for root in roots
        }
        # Each flush member has exactly one execute span, of the flush.
        for root in roots[1:4]:
            (execute,) = executes[root.span_id]
            assert execute.args["batch"] == 3
        assert [root.status for root in roots[1:4]] == ["ok", "error", "ok"]
        assert [
            executes[root.span_id][0].status for root in roots[1:4]
        ] == ["ok", "error", "ok"]
        # A lone failing request's execute span closes as failed too.
        (lone_execute,) = executes[roots[4].span_id]
        assert roots[4].status == "error"
        assert lone_execute.status == "error"
        assert lone_execute.args["batch"] == 1

class TestTelemetryPercentiles:
    def test_p99_joins_the_latency_columns(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for _ in range(20):
                service.solve("matvec", a, x)
            stats = service.stats()
        assert stats.latency_p99 is not None
        assert stats.latency_p50 <= stats.latency_p95 <= stats.latency_p99
        assert "p99" in stats.describe()
        shard = next(s for s in stats.shards if s.completed)
        assert shard.latency_p99 is not None
        assert "p99" in shard.describe()

    def test_stage_latency_p99_for_graphs(self, pipeline):
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for _ in range(5):
                service.solve_graph(pipeline)
            stats = service.stats()
        assert stats.stage_latency_p99 is not None
        assert stats.stage_latency_p50 <= stats.stage_latency_p99


class TestCounterExactnessUnderLoad:
    def test_warm_plan_executions_count_exactly(self, rng):
        """The documented best-effort caveat is gone: concurrent
        submissions account every plan execution."""
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        n_threads, per_thread = 4, 25
        with SolverService(ArraySpec(W), n_shards=2) as service:
            service.solve("matvec", a, x)  # warm the plan
            before = counters.snapshot()
            errors = []

            def client():
                try:
                    for _ in range(per_thread):
                        service.solve("matvec", a, x)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            delta = counters.delta(before)
        assert not errors
        assert delta.plan_executions == n_threads * per_thread
        assert delta.plan_builds == 0


class TestQosPathsCloseTheirSpans:
    """Rate-limit rejections and priority sheds leave no open spans."""

    def test_rate_limited_submit_closes_its_root(self, rng):
        from repro.errors import RateLimitedError
        from repro.service import RateLimit

        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        tracer = Tracer()
        with SolverService(
            ArraySpec(W),
            n_shards=1,
            tracer=tracer,
            rate_limits={"noisy": RateLimit(rate=0.001, burst=1)},
        ) as service:
            service.submit("matvec", a, x, client_id="noisy").result(timeout=5.0)
            rejected = 0
            for _ in range(3):
                try:
                    service.submit("matvec", a, x, client_id="noisy")
                except RateLimitedError:
                    rejected += 1
            assert rejected == 3
        assert tracer.open_spans == 0
        roots = _roots(tracer.spans())
        assert [r.status for r in roots].count("error") == rejected
        errored = [r for r in roots if r.status == "error"]
        assert all("RateLimitedError" in r.error for r in errored)

    def test_rate_limited_graph_closes_its_root(self, pipeline):
        from repro.errors import RateLimitedError
        from repro.service import RateLimit

        tracer = Tracer()
        with SolverService(
            ArraySpec(W),
            n_shards=2,
            tracer=tracer,
            rate_limits={"bulk": RateLimit(rate=0.001, burst=1)},
        ) as service:
            service.submit_graph(pipeline, client_id="bulk").result(timeout=5.0)
            with pytest.raises(RateLimitedError):
                service.submit_graph(pipeline, client_id="bulk")
        assert tracer.open_spans == 0
        graph_roots = [
            r for r in _roots(tracer.spans()) if r.name == "request graph"
        ]
        assert sorted(r.status for r in graph_roots) == ["error", "ok"]

    def test_priority_shed_closes_the_victims_root(self, rng, monkeypatch):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        tracer = Tracer()
        service = SolverService(
            ArraySpec(W),
            n_shards=1,
            queue_depth=1,
            backpressure="shed_oldest",
            max_batch_size=1,
            max_batch_delay=0.0,
            tracer=tracer,
        )
        gate = threading.Event()
        shard_solver = service.shards[0].solver
        original = shard_solver.execute_many

        def gated(*args, **kwargs):
            gate.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(shard_solver, "execute_many", gated)
        try:
            first = service.submit("matvec", a, x, priority="high")
            deadline = time.monotonic() + 2.0
            while len(service.shards[0].queue) and time.monotonic() < deadline:
                time.sleep(0.002)
            low = service.submit("matvec", a, x, priority="low")
            high = service.submit("matvec", a, x, priority="high")
            with pytest.raises(ServiceOverloadedError, match="class low"):
                low.result(timeout=5.0)
            gate.set()
            first.result(timeout=5.0)
            high.result(timeout=5.0)
        finally:
            gate.set()
            service.close()
        assert tracer.open_spans == 0
        roots = _roots(tracer.spans())
        assert sorted(r.status for r in roots) == ["error", "ok", "ok"]
        shed_root = next(r for r in roots if r.status == "error")
        assert "ServiceOverloadedError" in shed_root.error
        assert shed_root.args.get("priority") == "low"
        # Telemetry agrees with the trace.
        assert service.stats().shed_by_priority == {"low": 1}
