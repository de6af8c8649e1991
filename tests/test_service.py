"""Tests for the concurrent serving layer (``repro.service``).

Covers the subsystem's acceptance criteria: plan-keyed routing, admission
batching, the three backpressure policies, per-request deadlines,
telemetry aggregation, drain/no-drain shutdown — and the concurrency soak
(8 client threads x 50 requests each through a 4-shard service, results
bit-identical to direct ``Solver.solve`` calls, zero dropped futures
under the ``block`` policy, every ``stats()`` count equal to its registry
total).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import (
    DeadlineExceededError,
    ProblemKindError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from repro.graph import Graph, Jacobi, MatVec, Triangular
from repro.instrumentation import counters
from repro.service import (
    AdmissionBatcher,
    BoundedRequestQueue,
    SolveRequest,
    SolverService,
)

W = 4

#: Every count column of ``ShardStats``/``ServiceStats``; each is the
#: ``service.<name>`` registry counter.
COUNT_COLUMNS = (
    "submitted", "completed", "failed", "rejected", "shed", "expired",
    "batches", "graphs", "graph_stages", "graph_fused", "graph_levels",
    "segments", "handoffs", "handoffs_rejected", "rate_limited",
)


def _request(kind: str = "matvec", key=None) -> SolveRequest:
    """A minimal queueable request (the queue never inspects operands)."""
    return SolveRequest(
        kind=kind,
        operands=(),
        plan_key=key if key is not None else (kind, (8, 8), W, None),
    )


# --------------------------------------------------------------------------- #
# the bounded queue and its policies (deterministic, no threads)
# --------------------------------------------------------------------------- #
class TestBoundedRequestQueue:
    def test_fifo_and_drain(self):
        queue = BoundedRequestQueue(4)
        requests = [_request() for _ in range(3)]
        for request in requests:
            assert queue.put(request) is None
        assert len(queue) == 3
        assert queue.get(timeout=0) is requests[0]
        assert queue.drain() == requests[1:]
        assert len(queue) == 0

    def test_reject_policy_raises_when_full(self):
        queue = BoundedRequestQueue(2, policy="reject")
        queue.put(_request())
        queue.put(_request())
        with pytest.raises(ServiceOverloadedError):
            queue.put(_request())

    def test_shed_oldest_policy_returns_the_evicted_request(self):
        queue = BoundedRequestQueue(2, policy="shed_oldest")
        oldest = _request()
        queue.put(oldest)
        queue.put(_request())
        newest = _request()
        shed = queue.put(newest)
        assert shed is oldest
        assert len(queue) == 2
        queue.get(timeout=0)
        assert queue.get(timeout=0) is newest

    def test_block_policy_times_out_when_no_consumer(self):
        queue = BoundedRequestQueue(1, policy="block")
        queue.put(_request())
        with pytest.raises(ServiceOverloadedError):
            queue.put(_request(), timeout=0.01)

    def test_block_policy_wakes_when_space_appears(self):
        queue = BoundedRequestQueue(1, policy="block")
        queue.put(_request())
        release = threading.Timer(0.02, lambda: queue.get(timeout=0))
        release.start()
        try:
            assert queue.put(_request(), timeout=2.0) is None
        finally:
            release.join()

    def test_closed_queue_refuses_producers_and_unblocks_consumers(self):
        queue = BoundedRequestQueue(2)
        queue.put(_request())
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.put(_request())
        assert queue.get(timeout=0) is not None  # queued work stays drainable
        assert queue.get(timeout=10.0) is None  # returns at once, no wait

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(0)
        with pytest.raises(ValueError):
            BoundedRequestQueue(4, policy="drop_newest")


# --------------------------------------------------------------------------- #
# admission windows and plan-key grouping
# --------------------------------------------------------------------------- #
class TestAdmissionBatcher:
    def test_window_collects_up_to_max_batch_size(self):
        queue = BoundedRequestQueue(16)
        for _ in range(5):
            queue.put(_request())
        batcher = AdmissionBatcher(queue, max_batch_size=3, max_batch_delay=0.0)
        assert len(batcher.next_window()) == 3
        assert len(batcher.next_window()) == 2

    def test_closed_empty_queue_yields_empty_window(self):
        # An open, empty queue blocks the batcher until a request arrives.
        queue = BoundedRequestQueue(4)
        queue.close()
        batcher = AdmissionBatcher(queue)
        assert batcher.next_window() == []

    def test_group_by_plan_preserves_arrival_order(self):
        key_a = ("matvec", (8, 8), W, None)
        key_b = ("matvec", (12, 12), W, None)
        a1, b1, a2, b2 = (
            _request(key=key_a),
            _request(key=key_b),
            _request(key=key_a),
            _request(key=key_b),
        )
        groups = AdmissionBatcher.group_by_plan([a1, b1, a2, b2])
        assert groups == [[a1, a2], [b1, b2]]

    def test_requests_with_kwargs_group_by_key(self):
        key = ("triangular", (8,), W, None)
        plain = _request(kind="triangular", key=key)
        lowered = SolveRequest(
            kind="triangular", operands=(), plan_key=key, kwargs={"lower": False}
        )
        groups = AdmissionBatcher.group_by_plan([plain, lowered, plain])
        assert groups == [[plain, lowered, plain]]


# --------------------------------------------------------------------------- #
# the service front door
# --------------------------------------------------------------------------- #
class TestSolverService:
    def test_submit_returns_future_with_solution_protocol(self, rng):
        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        reference = Solver(ArraySpec(W)).solve("matvec", a, x)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            future = service.submit("matvec", a, x)
            solution = future.result(timeout=30)
        assert solution.kind == "matvec"
        assert np.array_equal(solution.values, reference.values)
        assert solution.measured_steps == reference.measured_steps

    def test_routing_is_deterministic_and_key_matches_solver(self, rng):
        service = SolverService(ArraySpec(W), n_shards=4)
        try:
            a = rng.normal(size=(10, 7))
            x = rng.normal(size=7)
            key = service.plan_key("matvec", a, x)
            assert key == Solver(ArraySpec(W)).plan_key("matvec", a, x)
            assert key == service.plan_key("matvec", shape=(10, 7))
            index = service.shard_index(key)
            for _ in range(3):
                assert service.shard_index(key) == index
        finally:
            service.close()

    def test_same_plan_requests_share_one_shard_cache(self, rng):
        with SolverService(ArraySpec(W), n_shards=4) as service:
            batch = [
                (rng.normal(size=(12, 12)), rng.normal(size=12)) for _ in range(10)
            ]
            service.map("matvec", batch)
            stats = service.stats()
        home = service.shard_index(service.plan_key("matvec", shape=(12, 12)))
        assert stats.shards[home].submitted == 10
        assert stats.cache.misses == 1  # one compile for the whole fleet
        assert stats.cache.hits == 9

    def test_map_preserves_input_order_across_shards(self, rng):
        shapes = [(8, 8), (12, 10), (10, 12), (8, 8), (12, 10)]
        batch = [(rng.normal(size=s), rng.normal(size=s[1])) for s in shapes]
        expected = [
            Solver(ArraySpec(W)).solve("matvec", a, x).values for a, x in batch
        ]
        with SolverService(ArraySpec(W), n_shards=3) as service:
            results = service.map("matvec", batch)
        for solution, values in zip(results, expected):
            assert np.array_equal(solution.values, values)

    def test_execution_kwargs_flow_through(self, rng):
        t = np.tril(rng.normal(size=(8, 8))) + 5.0 * np.eye(8)
        b = rng.normal(size=8)
        reference = Solver(ArraySpec(W)).solve("triangular", t.T, b, lower=False)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            solution = service.solve("triangular", t.T, b, lower=False)
        assert np.array_equal(solution.values, reference.values)

    def test_per_request_options_route_and_apply(self, rng):
        a = rng.normal(size=(8, 8))
        x = rng.normal(size=8)
        simulate = ExecutionOptions(backend="simulate")
        with SolverService(ArraySpec(W), n_shards=2) as service:
            solution = service.solve("matvec", a, x, options=simulate)
            assert solution.plan_key[3] == simulate

    def test_submit_validates_synchronously(self, rng):
        with SolverService(ArraySpec(W), n_shards=1) as service:
            with pytest.raises(ProblemKindError):
                service.submit("fourier", rng.normal(size=(4, 4)))
            with pytest.raises(ShapeError):
                service.submit("lu", rng.normal(size=(4, 6)))

    def test_string_call_of_the_wrong_arity_fails_at_submit(self, rng):
        matrix = rng.normal(size=(8, 8))
        with SolverService(ArraySpec(W), n_shards=1) as service:
            with pytest.raises(TypeError):
                service.submit("matvec", matrix)
            with pytest.raises(ShapeError):
                service.submit("jacobi", matrix)
            with pytest.raises(TypeError):
                service.submit("sor", matrix, rng.normal(size=8), omgea=1.5)
        assert service.stats().submitted == 0

    def test_a_baseline_refuses_an_unknown_keyword_at_submit(self, rng):
        matrix, x = rng.normal(size=(W, W)), rng.normal(size=W)
        with SolverService(ArraySpec(W), n_shards=1) as service:
            with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
                service.submit("prt", matrix, x, bogus=1)
            assert service.stats().submitted == 0
            assert service.shards[0].solver.cache_stats.size == 0  # nothing built

    def test_a_served_request_is_derived_once(self, rng, monkeypatch):
        calls = {"derive": 0, "solve": 0, "solve_batch": 0}

        def counting(name):
            original = getattr(Solver, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(Solver, name, counting(name))
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        spd = a @ a.T + 8.0 * np.eye(8)
        upper = np.triu(a) + 5.0 * np.eye(8)
        calls_by_spelling = [
            (("matvec", a, x), {}),
            ((MatVec(a, x),), {}),
            (("jacobi", spd, x), {}),
            ((Jacobi(spd, x),), {}),
            (("triangular", upper, x), {"lower": False}),
            ((Triangular(upper, x, lower=False),), {}),
        ]
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for index in range(20):
                args, kwargs = calls_by_spelling[index % len(calls_by_spelling)]
                assert service.submit(*args, **kwargs).result(timeout=30)
        assert calls == {"derive": 20, "solve": 0, "solve_batch": 0}

    def test_solve_propagates_execution_errors(self, rng):
        with SolverService(ArraySpec(W), n_shards=1) as service:
            future = service.submit(
                "matvec", rng.normal(size=(8, 8)), rng.normal(size=5)
            )
            with pytest.raises(ShapeError):
                future.result(timeout=30)
        stats = service.stats()
        assert stats.failed == 1

    def test_closed_service_rejects_submissions(self, rng):
        service = SolverService(ArraySpec(W), n_shards=1)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit("matvec", rng.normal(size=(8, 8)), rng.normal(size=8))
        service.close()  # idempotent

    def test_close_drains_pending_work(self, rng):
        service = SolverService(
            ArraySpec(W), n_shards=2, max_batch_delay=0.0, queue_depth=256
        )
        batch = [(rng.normal(size=(8, 8)), rng.normal(size=8)) for _ in range(40)]
        futures = [service.submit("matvec", a, x) for a, x in batch]
        service.close(wait=True)
        assert all(future.done() for future in futures)
        assert all(future.exception() is None for future in futures)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SolverService(ArraySpec(W), n_shards=0)
        with pytest.raises(ValueError):
            SolverService(ArraySpec(W), backpressure="panic")


# --------------------------------------------------------------------------- #
# overload behaviour with a deliberately stalled worker
# --------------------------------------------------------------------------- #
def _stalled_service(monkeypatch, policy: str, queue_depth: int):
    """A 1-shard service whose worker blocks in solve until ``gate`` is set."""
    service = SolverService(
        ArraySpec(W),
        n_shards=1,
        queue_depth=queue_depth,
        backpressure=policy,
        max_batch_size=1,
        max_batch_delay=0.0,
    )
    gate = threading.Event()
    shard_solver = service.shards[0].solver
    original = shard_solver.execute_many

    def gated_solve(*args, **kwargs):
        gate.wait(timeout=30)
        return original(*args, **kwargs)

    monkeypatch.setattr(shard_solver, "execute_many", gated_solve)
    return service, gate


def _wait_until(predicate, timeout: float = 5.0) -> None:
    cutoff = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > cutoff:
            raise AssertionError("condition not reached in time")
        time.sleep(0.002)


class TestBackpressurePolicies:
    def test_reject_policy_raises_at_the_front_door(self, rng, monkeypatch):
        service, gate = _stalled_service(monkeypatch, "reject", queue_depth=2)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        try:
            first = service.submit("matvec", a, x)
            # The worker holds `first`; now fill the queue behind it.
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            queued = [service.submit("matvec", a, x) for _ in range(2)]
            with pytest.raises(ServiceOverloadedError):
                service.submit("matvec", a, x)
            gate.set()
            for future in [first, *queued]:
                assert future.result(timeout=30) is not None
        finally:
            gate.set()
            service.close()
        assert service.stats().rejected == 1

    def test_shed_oldest_policy_fails_the_displaced_future(self, rng, monkeypatch):
        service, gate = _stalled_service(monkeypatch, "shed_oldest", queue_depth=1)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        try:
            first = service.submit("matvec", a, x)
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            old = service.submit("matvec", a, x)
            new = service.submit("matvec", a, x)  # displaces `old`
            with pytest.raises(ServiceOverloadedError):
                old.result(timeout=30)
            gate.set()
            assert new.result(timeout=30) is not None
            assert first.result(timeout=30) is not None
        finally:
            gate.set()
            service.close()
        assert service.stats().shed == 1

    def test_deadline_expires_while_queued(self, rng, monkeypatch):
        service, gate = _stalled_service(monkeypatch, "block", queue_depth=8)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        try:
            unhurried = service.submit("matvec", a, x)
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            hurried = service.submit("matvec", a, x, timeout=0.005)
            time.sleep(0.03)  # let the deadline lapse while it sits queued
            gate.set()
            with pytest.raises(DeadlineExceededError):
                hurried.result(timeout=30)
            assert unhurried.result(timeout=30) is not None
        finally:
            gate.set()
            service.close()
        assert service.stats().expired == 1

    def test_bad_request_in_a_flush_group_does_not_poison_neighbours(
        self, rng, monkeypatch
    ):
        # A wrong-length x shares the plan key of a valid request (keys
        # only see the matrix shape), so both land in one flush group;
        # the failure must stay with the malformed request.
        service, gate = _stalled_service(monkeypatch, "block", queue_depth=8)
        # Re-enable grouping: the stalled helper uses singleton windows.
        batcher = service.shards[0]._batcher
        monkeypatch.setattr(batcher, "_max_batch_size", 8)
        a = rng.normal(size=(8, 8))
        good_x, bad_x = rng.normal(size=8), rng.normal(size=5)
        try:
            first = service.submit("matvec", a, good_x)
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            good = service.submit("matvec", a, good_x)
            bad = service.submit("matvec", a, bad_x)
            gate.set()
            assert np.array_equal(
                good.result(timeout=30).values, first.result(timeout=30).values
            )
            with pytest.raises(ShapeError):
                bad.result(timeout=30)
        finally:
            gate.set()
            service.close()
        stats = service.stats()
        assert stats.completed == 2 and stats.failed == 1

    @pytest.mark.parametrize(
        "kind, bad",
        [("matvec", 4), ("matvec", 1), ("jacobi", 2)],
        ids=["matvec-unpaired-tail", "matvec-inside-a-pair", "jacobi"],
    )
    def test_bad_member_fails_alone_and_the_group_runs_once(
        self, rng, monkeypatch, kind, bad
    ):
        # A same-key group of five with one wrong-length operand: the
        # four good members run once each and match their own solves.
        service, gate = _stalled_service(monkeypatch, "block", queue_depth=8)
        monkeypatch.setattr(service.shards[0]._batcher, "_max_batch_size", 8)
        matrix = rng.normal(size=(8, 8))
        matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
        first_vector = rng.normal(size=8)
        vectors = [rng.normal(size=8) for _ in range(5)]
        vectors[bad] = rng.normal(size=5)
        solo = counters.snapshot()
        reference = Solver(ArraySpec(W))
        expected = [reference.solve(kind, matrix, first_vector)] + [
            reference.solve(kind, matrix, vector)
            for index, vector in enumerate(vectors) if index != bad
        ]
        solo_sweeps = counters.delta(solo).iterative_sweeps
        before = counters.snapshot()
        try:
            first = service.submit(kind, matrix, first_vector)
            # Running means its window has closed: the five queue behind.
            _wait_until(first.running)
            group = [service.submit(kind, matrix, vector) for vector in vectors]
            gate.set()
            with pytest.raises(ShapeError):
                group.pop(bad).result(timeout=30)
            for future, want in zip([first, *group], expected):
                got = future.result(timeout=30)
                assert got.values.tobytes() == want.values.tobytes()
        finally:
            gate.set()
            service.close()
        delta = counters.delta(before)
        assert delta.plan_executions == 6  # one per request
        assert delta.iterative_sweeps == solo_sweeps
        stats = service.stats()
        assert stats.batch_size_histogram == {1: 1, 5: 1}
        assert stats.completed == 5 and stats.failed == 1

    def test_close_without_drain_fails_pending_futures(self, rng, monkeypatch):
        service, gate = _stalled_service(monkeypatch, "block", queue_depth=8)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        running = service.submit("matvec", a, x)
        _wait_until(lambda: len(service.shards[0].queue) == 0)
        pending = [service.submit("matvec", a, x) for _ in range(3)]
        gate.set()
        service.close(wait=False)
        assert running.result(timeout=30) is not None
        for future in pending:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=30)


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class TestTelemetry:
    def test_stats_account_for_every_request(self, rng):
        with SolverService(ArraySpec(W), n_shards=2, max_batch_delay=0.001) as service:
            matvec_batch = [
                (rng.normal(size=(12, 12)), rng.normal(size=12)) for _ in range(12)
            ]
            service.map("matvec", matvec_batch)
            service.solve("matmul", rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))
            stats = service.stats()

        assert stats.submitted == 13
        assert stats.completed == 13
        assert stats.failed == stats.rejected == stats.shed == stats.expired == 0
        assert stats.requests_by_kind == {"matvec": 12, "matmul": 1}
        assert stats.queue_depth == 0
        assert sum(
            size * count for size, count in stats.batch_size_histogram.items()
        ) == 13
        assert stats.batches >= 2  # two plans can never share a flush
        assert stats.latency_p50 is not None
        assert stats.latency_p95 >= stats.latency_p50
        assert stats.cache.misses == 2  # one compile per distinct plan
        assert stats.cache.hits == 11

    def test_batching_actually_groups_requests(self, rng):
        # A stuffed queue + a non-zero admission window => multi-request
        # flushes, visible in the histogram and the mean batch size.
        service = SolverService(
            ArraySpec(W), n_shards=1, max_batch_size=8, max_batch_delay=0.05,
            queue_depth=128,
        )
        try:
            a = rng.normal(size=(12, 12))
            x = rng.normal(size=12)
            service.solve("matvec", a, x)  # compile the plan first
            futures = [service.submit("matvec", a, x) for _ in range(24)]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
        finally:
            service.close()
        assert stats.mean_batch_size > 1.0
        assert max(stats.batch_size_histogram) > 1

    def test_drained_service_reads_zero_depth_in_every_series(self, rng):
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(6, 8))
        x = rng.normal(size=8)
        graph = Graph(MatVec(b, MatVec(a, x, name="inner"), name="outer"))
        service = SolverService(ArraySpec(W), n_shards=2, max_batch_delay=0.0)
        try:
            # Pin the two levels apart so every graph crosses a handoff lane.
            keys = graph.plan_keys(W, ExecutionOptions())
            service.placement.assign(keys[graph.names.index("inner")], 0)
            service.placement.assign(keys[graph.names.index("outer")], 1)
            futures = [service.submit("matvec", a, x) for _ in range(20)]
            futures += [service.submit_graph(graph) for _ in range(5)]
            for future in futures:
                future.result(timeout=30)
        finally:
            service.close()
        snapshot = service.metrics.snapshot()
        stats = service.stats()
        assert stats.handoffs == 5 and stats.max_handoff_depth >= 1
        for gauge in ("service.queue_depth", "service.handoff_depth"):
            assert list(snapshot.series(gauge).values()) == [0, 0]
        for shard in stats.shards:
            assert shard.queue_depth == snapshot.value(
                "service.queue_depth", shard=shard.shard_id
            )
        assert stats.queue_depth == 0

    def test_max_queue_depth_is_the_deepest_point_reached(
        self, rng, monkeypatch
    ):
        service, gate = _stalled_service(monkeypatch, "block", queue_depth=8)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        try:
            futures = [service.submit("matvec", a, x)]
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            futures += [service.submit("matvec", a, x) for _ in range(5)]
            assert service.stats().queue_depth == 5
            gate.set()
            for future in futures:
                future.result(timeout=30)
        finally:
            gate.set()
            service.close()
        stats = service.stats()
        assert stats.queue_depth == 0
        assert stats.max_queue_depth == 5
        assert service.metrics.snapshot().value(
            "service.queue_depth", shard=0
        ) == 0

    def test_describe_mentions_the_load_bearing_numbers(self, rng):
        with SolverService(ArraySpec(W), n_shards=2) as service:
            service.solve("matvec", rng.normal(size=(8, 8)), rng.normal(size=8))
            text = service.stats().describe()
        assert "1 submitted" in text
        assert "plan cache" in text
        assert "shard 0" in text and "shard 1" in text


# --------------------------------------------------------------------------- #
# the concurrency soak (acceptance criterion)
# --------------------------------------------------------------------------- #
class TestConcurrencySoak:
    N_CLIENTS = 8
    REQUESTS_PER_CLIENT = 50

    def test_soak_bit_identical_zero_drops(self, rng):
        shapes = [(8, 8), (12, 10), (10, 12)]
        problems = [
            ("matvec", (rng.normal(size=shape), rng.normal(size=shape[1])))
            for shape in shapes
        ]
        problems.append(
            ("matmul", (rng.normal(size=(6, 6)), rng.normal(size=(6, 6))))
        )
        reference = Solver(ArraySpec(W))
        expected = [
            reference.solve(kind, *operands).values for kind, operands in problems
        ]

        service = SolverService(
            ArraySpec(W),
            n_shards=4,
            backpressure="block",
            queue_depth=16,  # small on purpose: clients must block and recover
            max_batch_delay=0.001,
        )
        futures: "list[list[Future]]" = [[] for _ in range(self.N_CLIENTS)]
        errors: "list[BaseException]" = []

        def client(client_id: int) -> None:
            try:
                for i in range(self.REQUESTS_PER_CLIENT):
                    kind, operands = problems[(client_id + i) % len(problems)]
                    futures[client_id].append(service.submit(kind, *operands))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(client_id,))
            for client_id in range(self.N_CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert errors == []

            total = 0
            for client_id, client_futures in enumerate(futures):
                assert len(client_futures) == self.REQUESTS_PER_CLIENT
                for i, future in enumerate(client_futures):
                    solution = future.result(timeout=60)  # no dropped futures
                    index = (client_id + i) % len(problems)
                    assert np.array_equal(solution.values, expected[index])
                    total += 1
            assert total == self.N_CLIENTS * self.REQUESTS_PER_CLIENT
        finally:
            service.close()

        stats = service.stats()
        assert stats.submitted == total
        assert stats.completed == total
        assert stats.failed == stats.rejected == stats.shed == stats.expired == 0
        # Routing kept every plan on one home shard: one miss per distinct
        # plan fleet-wide, everything else warm.
        assert stats.cache.misses == len(problems)
        # One snapshot, one source: each count column is its registry
        # total, and the shard slices sum to the fleet column.
        snapshot = service.metrics.snapshot()
        for name in COUNT_COLUMNS:
            fleet = getattr(stats, name)
            assert fleet == snapshot.total(f"service.{name}"), name
            assert sum(getattr(s, name) for s in stats.shards) == fleet, name
        assert snapshot.total("service.queue_depth") == stats.queue_depth == 0


# --------------------------------------------------------------------------- #
# QoS: priority classes, shed victim selection, rate limits (ISSUE 9)
# --------------------------------------------------------------------------- #
class TestQosPrimitives:
    def test_resolve_priority_names_and_ints(self):
        from repro.service import (
            PRIORITY_HIGH,
            PRIORITY_LOW,
            PRIORITY_NORMAL,
            priority_name,
            resolve_priority,
        )

        assert resolve_priority("high") == PRIORITY_HIGH
        assert resolve_priority("NORMAL") == PRIORITY_NORMAL
        assert resolve_priority("Low") == PRIORITY_LOW
        assert resolve_priority(2) == PRIORITY_HIGH
        assert priority_name(PRIORITY_LOW) == "low"
        assert priority_name(7) == "p7"
        with pytest.raises(ValueError):
            resolve_priority("urgent")
        with pytest.raises(TypeError):
            resolve_priority(True)  # bool is not a priority level
        with pytest.raises(TypeError):
            resolve_priority(1.5)

    def test_token_bucket_with_patched_clock(self):
        from repro.service import RateLimit, TokenBucket

        now = [1000.0]
        bucket = TokenBucket(RateLimit(rate=1.0, burst=2), clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire(), "burst of 2 must be exhausted"
        now[0] += 1.0  # exactly one token refills at rate=1/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] += 100.0  # refill saturates at the burst capacity
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rate_limit_validation(self):
        from repro.service import RateLimit

        with pytest.raises(ValueError):
            RateLimit(rate=0.0)
        with pytest.raises(ValueError):
            RateLimit(rate=1.0, burst=0.0)
        assert RateLimit(rate=3.0).capacity == 3.0
        assert RateLimit(rate=3.0, burst=10.0).capacity == 10.0

    def test_client_rate_limiter_scopes_and_counts(self):
        from repro.service import ClientRateLimiter, RateLimit

        now = [0.0]
        limiter = ClientRateLimiter(
            limits={"noisy": RateLimit(rate=1.0, burst=1)},
            default=RateLimit(rate=1.0, burst=2),
            clock=lambda: now[0],
        )
        # Anonymous requests are never limited.
        assert all(limiter.admit(None) for _ in range(10))
        assert limiter.admit("noisy")
        assert not limiter.admit("noisy")
        # Unknown clients get the default limit, each with its own bucket.
        assert limiter.admit("other") and limiter.admit("other")
        assert not limiter.admit("other")
        assert limiter.admit("third")
        rejections = limiter.rejections()
        assert rejections["noisy"] == 1 and rejections["other"] == 1


class TestShedVictimSelection:
    """Deterministic shed ordering on the bare queue (no threads)."""

    @staticmethod
    def _req(priority: int, deadline=None, tag: str = "") -> SolveRequest:
        return SolveRequest(
            kind="matvec",
            operands=(tag,),
            plan_key=("matvec", (8, 8), W, None),
            priority=priority,
            deadline=deadline,
        )

    def test_lowest_priority_class_sheds_first(self):
        from repro.service import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL

        queue = BoundedRequestQueue(2, policy="shed_oldest")
        low = self._req(PRIORITY_LOW)
        high = self._req(PRIORITY_HIGH)
        queue.put(low)
        queue.put(high)
        incoming = self._req(PRIORITY_NORMAL)
        assert queue.put(incoming) is low
        assert queue.drain(10) == [high, incoming]

    def test_nearest_deadline_sheds_first_within_a_class(self):
        from repro.service import PRIORITY_LOW

        queue = BoundedRequestQueue(2, policy="shed_oldest")
        lax = self._req(PRIORITY_LOW, deadline=1e9 + 50.0)
        urgent = self._req(PRIORITY_LOW, deadline=1e9 + 1.0)
        queue.put(lax)
        queue.put(urgent)
        assert queue.put(self._req(PRIORITY_LOW, deadline=1e9 + 20.0)) is urgent

    def test_no_deadline_outranks_any_deadline(self):
        from repro.service import PRIORITY_LOW

        queue = BoundedRequestQueue(2, policy="shed_oldest")
        unhurried = self._req(PRIORITY_LOW, deadline=None)
        hurried = self._req(PRIORITY_LOW, deadline=1e12)
        queue.put(unhurried)
        queue.put(hurried)
        assert queue.put(self._req(PRIORITY_LOW)) is hurried

    def test_incoming_sheds_itself_when_weakest(self):
        from repro.service import PRIORITY_HIGH, PRIORITY_LOW

        queue = BoundedRequestQueue(2, policy="shed_oldest")
        queue.put(self._req(PRIORITY_HIGH))
        queue.put(self._req(PRIORITY_HIGH))
        incoming = self._req(PRIORITY_LOW)
        assert queue.put(incoming) is incoming
        assert len(queue) == 2  # the queue kept its stronger residents

    def test_equal_class_fifo_tie_break_with_incoming_newest(self):
        """Legacy shed-oldest behaviour is the all-ties special case."""
        queue = BoundedRequestQueue(2, policy="shed_oldest")
        oldest = self._req(1, tag="oldest")
        queue.put(oldest)
        queue.put(self._req(1, tag="middle"))
        assert queue.put(self._req(1, tag="incoming")) is oldest

    def test_handoff_lane_is_shed_exempt(self):
        from repro.service import PRIORITY_HIGH, PRIORITY_LOW

        queue = BoundedRequestQueue(1, policy="shed_oldest")
        segment = self._req(PRIORITY_LOW, tag="segment")
        queue.put_handoff(segment)
        resident = self._req(PRIORITY_LOW, tag="resident")
        queue.put(resident)
        # The handoff lane's low-priority segment is never a candidate:
        # the admission-lane resident is shed instead.
        assert queue.put(self._req(PRIORITY_HIGH)) is resident
        assert queue.get(timeout=1.0) is segment  # lane drains first, intact


class TestServiceQos:
    def test_rate_limited_client_gets_typed_rejection(self, rng):
        from repro.errors import RateLimitedError
        from repro.service import RateLimit

        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        service = SolverService(
            ArraySpec(W),
            n_shards=1,
            rate_limits={"noisy": RateLimit(rate=0.001, burst=2)},
        )
        try:
            ok = [service.submit("matvec", a, x, client_id="noisy") for _ in range(2)]
            with pytest.raises(RateLimitedError, match="noisy"):
                service.submit("matvec", a, x, client_id="noisy")
            # Anonymous and other clients are unaffected (no default limit).
            service.submit("matvec", a, x).result(timeout=30)
            service.submit("matvec", a, x, client_id="quiet").result(timeout=30)
            for future in ok:
                future.result(timeout=30)
        finally:
            service.close()
        stats = service.stats()
        assert stats.rate_limited == 1
        assert stats.completed == 4

    def test_default_rate_limit_applies_to_every_client(self, rng):
        from repro.errors import RateLimitedError
        from repro.service import RateLimit

        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        service = SolverService(
            ArraySpec(W),
            n_shards=1,
            default_rate_limit=RateLimit(rate=0.001, burst=1),
        )
        try:
            service.submit("matvec", a, x, client_id="anyone").result(timeout=30)
            with pytest.raises(RateLimitedError):
                for _ in range(10):
                    service.submit("matvec", a, x, client_id="anyone")
        finally:
            service.close()

    def test_rate_limited_graph_submission(self, rng):
        from repro.errors import RateLimitedError
        from repro.graph import Graph, MatVec
        from repro.service import RateLimit

        a = rng.normal(size=(8, 8))
        graph = Graph(MatVec(a, rng.normal(size=8), name="out"))
        service = SolverService(
            ArraySpec(W),
            n_shards=2,
            rate_limits={"bulk": RateLimit(rate=0.001, burst=1)},
        )
        try:
            service.submit_graph(graph, client_id="bulk").result(timeout=30)
            with pytest.raises(RateLimitedError):
                service.submit_graph(graph, client_id="bulk")
        finally:
            service.close()
        assert service.stats().rate_limited == 1

    def test_invalid_priority_rejected_synchronously(self, rng):
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        with SolverService(ArraySpec(W), n_shards=1) as service:
            with pytest.raises(ValueError):
                service.submit("matvec", a, x, priority="urgent")

    def test_priority_shed_prefers_low_and_labels_telemetry(
        self, rng, monkeypatch
    ):
        service, gate = _stalled_service(monkeypatch, "shed_oldest", queue_depth=2)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        try:
            first = service.submit("matvec", a, x, priority="high")
            _wait_until(lambda: len(service.shards[0].queue) == 0)
            low = service.submit("matvec", a, x, priority="low")
            normal = service.submit("matvec", a, x)  # queue now full
            high = service.submit("matvec", a, x, priority="high")
            with pytest.raises(ServiceOverloadedError, match="class low"):
                low.result(timeout=30)
            gate.set()
            for future in (first, normal, high):
                assert future.result(timeout=30) is not None
        finally:
            gate.set()
            service.close()
        stats = service.stats()
        assert stats.shed == 1
        assert stats.shed_by_priority == {"low": 1}


class TestBatcherClock:
    """The admission window runs on an injectable *monotonic* clock."""

    def test_injected_clock_governs_the_window_cutoff(self):
        # A clock that leaps 10s per reading expires the 5s window
        # between the first admission and the cutoff check — the whole
        # window must assemble instantly in wall time via drain().
        ticks = iter(range(0, 10_000, 10))
        queue = BoundedRequestQueue(8)
        for _ in range(3):
            queue.put(_request())
        batcher = AdmissionBatcher(
            queue,
            max_batch_size=8,
            max_batch_delay=5.0,
            clock=lambda: float(next(ticks)),
        )
        start = time.monotonic()
        window = batcher.next_window()
        assert len(window) == 3
        assert time.monotonic() - start < 1.0, (
            "a 5s max_batch_delay leaked into wall time despite the "
            "injected clock having expired the window"
        )

    def test_frozen_clock_still_fills_by_size(self):
        # With the injected clock stopped, the size cap (not wall time)
        # must close the window: no deadline math may fall through to a
        # different time source.
        queue = BoundedRequestQueue(8)
        for _ in range(4):
            queue.put(_request())
        batcher = AdmissionBatcher(
            queue,
            max_batch_size=4,
            max_batch_delay=30.0,
            clock=lambda: 123.456,
        )
        start = time.monotonic()
        assert len(batcher.next_window()) == 4
        assert time.monotonic() - start < 1.0

    def test_wall_clock_jumps_cannot_stretch_the_window(self, monkeypatch):
        # Regression for the monotonic requirement: a wall-clock step
        # (NTP, DST) must not affect the default batcher, which runs on
        # time.monotonic.
        queue = BoundedRequestQueue(8)
        queue.put(_request())
        monkeypatch.setattr(time, "time", lambda: -1e12)
        batcher = AdmissionBatcher(queue, max_batch_size=4, max_batch_delay=0.005)
        start = time.monotonic()
        assert len(batcher.next_window()) == 1
        assert time.monotonic() - start < 1.0


class TestSelfClockingAdmission:
    """With no linger by default, a window is the first request plus the
    backlog that queued while the worker was busy."""

    def test_default_window_does_not_linger(self):
        assert AdmissionBatcher(BoundedRequestQueue(4)).max_batch_delay == 0
        service = SolverService(ArraySpec(W))
        try:
            assert [
                shard._batcher.max_batch_delay for shard in service.shards
            ] == [0.0] * service.n_shards
        finally:
            service.close()

    def test_zero_delay_window_never_waits_for_companions(self, monkeypatch):
        queue = BoundedRequestQueue(4)
        request = _request()
        queue.put(request)
        timeouts = []
        original = queue.get

        def spy(timeout=None):
            timeouts.append(timeout)
            return original(timeout=timeout)

        monkeypatch.setattr(queue, "get", spy)
        batcher = AdmissionBatcher(queue)
        assert batcher.next_window() == [request]
        assert timeouts == [None]  # the first request only, unbounded

    def test_backlog_flushes_as_one_group(self, rng, monkeypatch):
        service = SolverService(ArraySpec(W), n_shards=1, queue_depth=32)
        entered, gate = threading.Event(), threading.Event()
        shard_solver = service.shards[0].solver
        original = shard_solver.execute_many

        def gated_solve(*args, **kwargs):
            entered.set()
            gate.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(shard_solver, "execute_many", gated_solve)
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        backlog = 6
        try:
            first = service.submit("matvec", a, x)
            # The worker is inside the first request's solve: its window
            # is closed, so everything submitted now queues behind it.
            assert entered.wait(timeout=30)
            queued = [service.submit("matvec", a, x) for _ in range(backlog)]
            gate.set()
            for future in [first, *queued]:
                assert future.result(timeout=30) is not None
        finally:
            gate.set()
            service.close()
        assert service.stats().batch_size_histogram == {1: 1, backlog: 1}

    def test_backlog_with_execution_arguments_flushes_as_one_group(
        self, rng, monkeypatch
    ):
        service = SolverService(ArraySpec(W), n_shards=1, queue_depth=32)
        entered, gate = threading.Event(), threading.Event()
        shard_solver = service.shards[0].solver
        original = shard_solver.execute_many

        def gated(*args, **kwargs):
            entered.set()
            gate.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(shard_solver, "execute_many", gated)
        lower = np.tril(rng.normal(size=(8, 8))) + 5.0 * np.eye(8)
        calls = [
            ((lower, rng.normal(size=8)), {})
            if index % 2 == 0
            else ((lower.T, rng.normal(size=8)), {"lower": False})
            for index in range(6)
        ]
        reference = Solver(ArraySpec(W))
        expected = [
            reference.solve("triangular", *operands, **kwargs)
            for operands, kwargs in calls
        ]
        try:
            first = service.submit("triangular", lower, rng.normal(size=8))
            assert entered.wait(timeout=30)
            queued = [
                service.submit("triangular", *operands, **kwargs)
                for operands, kwargs in calls
            ]
            gate.set()
            assert first.result(timeout=30) is not None
            for future, want in zip(queued, expected):
                got = future.result(timeout=30)
                assert got.values.tobytes() == want.values.tobytes()
        finally:
            gate.set()
            service.close()
        # Half the backlog carries lower=False; one key, so one group.
        assert service.stats().batch_size_histogram == {1: 1, 6: 1}
