"""The observability package: metrics, tracing, exporters.

Acceptance: typed instruments count exactly under a thread hammer (the
regression for the documented ``instrumentation.counters`` race),
registry snapshots are one consistent cut, nearest-rank percentiles
sort once and agree with the old per-call ``percentile``, span trees
nest through thread-local activation with an idempotent finish and
exact open-span accounting, the disabled path hands out the shared
no-op span, and the Chrome exporter emits loadable trace-event JSON
(metadata per track, complete events, flow arrow pairs).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.instrumentation import counters, registry as global_registry
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    active_span,
    chrome_trace,
    describe_trace,
    percentiles,
)
from repro.obs.metrics import Counter, Gauge, Histogram


class TestPercentiles:
    def test_nearest_rank_single_sort(self):
        assert percentiles([5.0, 1.0, 3.0], (0.50, 0.95, 0.99)) == (
            3.0,
            5.0,
            5.0,
        )

    def test_empty_sample_is_none_per_fraction(self):
        assert percentiles([], (0.5, 0.95)) == (None, None)

    def test_extremes(self):
        sample = list(range(100, 0, -1))
        low, high = percentiles(sample, (0.0, 1.0))
        assert (low, high) == (1, 100)

    def test_invalid_fraction_raises_even_on_empty_sample(self):
        with pytest.raises(ValueError, match="fraction"):
            percentiles([], (1.5,))
        with pytest.raises(ValueError, match="fraction"):
            percentiles([1.0], (-0.1,))

    def test_single_element_answers_every_fraction(self):
        assert percentiles([7.0], (0.0, 0.5, 0.99, 1.0)) == (7.0,) * 4


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("c")
        assert counter.inc() == 1
        assert counter.inc(4) == 5
        assert counter.value == 5
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_gauge_tracks_highwater(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.highwater == 7

    def test_histogram_reservoir_slides_but_totals_are_lifetime(self):
        histogram = Histogram("lat", reservoir=4)
        histogram.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        snap = histogram.snapshot()
        assert snap.count == 6
        assert snap.total == 21.0
        assert snap.sample == (3.0, 4.0, 5.0, 6.0)  # most recent 4
        assert snap.mean == pytest.approx(3.5)
        assert snap.percentiles((0.5,)) == (5.0,)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap.count == 0
        assert snap.mean is None
        assert snap.percentiles((0.5, 0.99)) == (None, None)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", shard=0)
        b = registry.counter("requests", shard=0)
        c = registry.counter("requests", shard=1)
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", shard=0, kind="matvec")
        b = registry.counter("x", kind="matvec", shard=0)
        assert a is b

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already a Counter"):
            registry.gauge("x")

    def test_snapshot_folds_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("req", shard=0).inc(3)
        registry.counter("req", shard=1).inc(4)
        registry.gauge("depth", shard=0).set(5)
        registry.histogram("lat", shard=0).extend([1.0, 2.0])
        registry.histogram("lat", shard=1).observe(3.0)
        snap = registry.snapshot()
        assert snap.value("req", shard=1) == 4
        assert snap.total("req") == 7
        assert snap.value("depth.highwater", shard=0) == 5
        assert sorted(snap.merged_sample("lat")) == [1.0, 2.0, 3.0]
        assert "req{shard=0} 3" in snap.describe()

    def test_counter_hammer_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread


class TestInstrumentationBridge:
    """The satellite fix: ``counters`` bumps are locked and mirrored."""

    def test_bump_hammer_is_exact(self):
        # The documented race this PR removes: concurrent read-modify-write
        # on counters.plan_builds could lose increments under the shard
        # pool.  bump() serializes on the registry lock, so the total is
        # exact — and the mirrored registry counter advances in lockstep.
        before = counters.snapshot()
        mirrored_before = global_registry.counter("repro.plan_builds").value
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                counters.bump("plan_builds")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = n_threads * per_thread
        assert counters.delta(before).plan_builds == expected
        mirrored = global_registry.counter("repro.plan_builds").value
        assert mirrored - mirrored_before == expected

    def test_bump_with_amount(self):
        before = counters.snapshot()
        counters.bump("plan_executions", 3)
        assert counters.delta(before).plan_executions == 3


class TestTracer:
    def test_span_tree_and_activation(self):
        tracer = Tracer()
        assert active_span() is None
        root = tracer.start_trace("request", kind="matvec")
        with root:
            assert active_span() is root
            with root.child("execute", track="shard 0") as child:
                assert active_span() is child
                grand = child.child("plan_lookup", cache="hit")
                grand.finish()
            assert active_span() is root
        assert active_span() is None
        spans = tracer.spans(root.trace_id)
        by_name = {span.name: span for span in spans}
        assert by_name["execute"].parent_id == root.span_id
        assert by_name["plan_lookup"].parent_id == by_name["execute"].span_id
        assert by_name["plan_lookup"].track == "shard 0"  # inherited
        assert by_name["request"].args == {"kind": "matvec"}
        assert tracer.open_spans == 0

    def test_retroactive_span_uses_given_endpoints(self):
        tracer = Tracer()
        root = tracer.start_trace("request")
        wait = root.child("queue_wait", start=10.0)
        wait.finish(end=12.5)
        root.finish()
        assert wait.start == 10.0
        assert wait.duration == pytest.approx(2.5)

    def test_finish_is_idempotent_first_wins(self):
        tracer = Tracer()
        span = tracer.start_trace("request")
        span.finish()
        end = span.end
        span.finish(status="error", error=RuntimeError("late"))
        assert span.status == "ok"
        assert span.error is None
        assert span.end == end
        assert tracer.open_spans == 0

    def test_exit_on_exception_marks_error(self):
        tracer = Tracer()
        span = tracer.start_trace("request")
        with pytest.raises(RuntimeError):
            with span:
                raise RuntimeError("boom")
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"
        assert active_span() is None

    def test_disabled_tracer_hands_out_the_null_span(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.start_trace("request")
        assert span is NULL_SPAN
        assert span.child("x") is NULL_SPAN
        with span:
            # The null span never activates: ambient hooks stay silent.
            assert active_span() is None
        assert NULL_TRACER.open_spans == 0
        assert NULL_TRACER.spans() == ()

    def test_null_parent_starts_a_fresh_trace(self):
        tracer = Tracer()
        span = tracer.start_span("orphanless", parent=NULL_SPAN)
        span.finish()
        assert span.parent_id is None
        assert span.trace_id == span.span_id

    def test_max_spans_drops_but_keeps_open_accounting(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            tracer.start_trace("request").finish()
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3
        assert tracer.open_spans == 0

    def test_trace_ids_and_clear(self):
        tracer = Tracer()
        first = tracer.start_trace("a")
        second = tracer.start_trace("b")
        first.finish()
        second.finish()
        assert tracer.trace_ids() == (first.trace_id, second.trace_id)
        tracer.clear()
        assert tracer.spans() == ()


class TestChromeExport:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer()
        root = tracer.start_trace("request matvec", kind="matvec")
        execute = root.child("execute", track="shard 0", category="execute")
        flow = tracer.new_flow()
        execute.flow_out(flow)
        execute.finish()
        # The consumer starts after the producer finished — the shape a
        # real handoff has, and what makes the arrow point forward.
        segment = root.child("segment L1", track="shard 1", category="segment")
        segment.flow_in(flow)
        segment.finish()
        root.finish()
        return tracer

    def test_complete_events_and_track_metadata(self):
        tracer = self._sample_tracer()
        payload = tracer.chrome_trace()
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"client", "shard 0", "shard 1"}
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} == {
            "request matvec",
            "execute",
            "segment L1",
        }
        for event in complete:
            assert event["pid"] == 1
            assert event["dur"] >= 0
            assert event["args"]["status"] == "ok"
        root_event = next(
            event for event in complete if event["name"] == "request matvec"
        )
        assert root_event["args"]["kind"] == "matvec"
        # Client track sorts first.
        track_of = {
            event["tid"]: event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        sort_keys = {
            track_of[event["tid"]]: event["args"]["sort_index"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_sort_index"
        }
        assert sort_keys["client"] < sort_keys["shard 0"] < sort_keys["shard 1"]

    def test_flow_arrow_pairs_match_ids(self):
        payload = self._sample_tracer().chrome_trace()
        events = payload["traceEvents"]
        starts = [event for event in events if event["ph"] == "s"]
        ends = [event for event in events if event["ph"] == "f"]
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"]
        assert ends[0]["bp"] == "e"
        # Arrow tail on the producer track, head on the consumer track.
        assert starts[0]["tid"] != ends[0]["tid"]
        assert starts[0]["ts"] <= ends[0]["ts"]

    def test_open_spans_are_not_exported(self):
        tracer = Tracer()
        root = tracer.start_trace("request")
        child = root.child("execute")
        child.finish()
        payload = chrome_trace(tracer.spans(), epoch=0.0)
        names = {
            event["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert names == {"execute"}
        root.finish()

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_describe_trace_renders_the_tree(self):
        tracer = self._sample_tracer()
        text = tracer.describe_trace()
        lines = text.splitlines()
        assert lines[0].startswith("request matvec (client)")
        assert lines[1].startswith("  execute (shard 0)")
        assert lines[2].startswith("  segment L1 (shard 1)")
        assert describe_trace(tracer.spans()) == text

    def test_error_status_survives_export(self):
        tracer = Tracer()
        span = tracer.start_trace("request")
        span.finish(status="error", error=ValueError("bad"))
        event = next(
            event
            for event in tracer.chrome_trace()["traceEvents"]
            if event["ph"] == "X"
        )
        assert event["args"]["status"] == "error"
        assert event["args"]["error"] == "ValueError: bad"
