"""Whole-pipeline jobs through the serving layer.

Acceptance: the 3-stage pipeline (matmul → matvec → refine) executes
through ``SolverService`` bit-identically to stage-by-stage ``Solver``
calls, re-submitted same-shaped graphs run shard-local with **zero** plan
builds after warmup, graph requests carry per-graph telemetry (stage
counts, fused stages, stage latencies) into the fleet snapshot, and a
failing graph resolves only its own future.

The cross-shard pipelined path adds its own criteria: a two-branch
diamond with pinned branch placement executes bit-identically to
single-shard :meth:`PipelineProgram.run` while its modeled array-step
makespan shows ≥1.5x level parallelism, and graph jobs under
backpressure (deadlines, ``shed_oldest``, ``reject``) fail whole —
no orphaned segments, no leaked handoff slots.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import (
    DeadlineExceededError,
    GraphCycleError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from repro.graph import (
    Graph,
    GraphCompiler,
    Jacobi,
    MatMul,
    MatVec,
    ProgramSegment,
    Ref,
    Refine,
)
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.nn import Bias, Relu
from repro.obs import Tracer
from repro.service import SolverService

W = 4
N = 8


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    return matrix + (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)


@pytest.fixture
def pipeline(rng):
    """The acceptance pipeline: matmul -> matvec -> refine, plus operands."""
    a = rng.normal(size=(N, N))
    b = rng.normal(size=(N, N))
    z = rng.normal(size=N)
    matrix = _spd(rng, N)
    product = MatMul(a, b, name="product")
    projected = MatVec(product, z, name="projected")
    refined = Refine(matrix, projected, name="refined")
    return Graph(refined), (a, b, z, matrix)


class TestServiceGraphs:
    def test_three_stage_pipeline_bit_identical_to_solver(self, pipeline):
        graph, (a, b, z, matrix) = pipeline
        with SolverService(ArraySpec(W), n_shards=4) as service:
            result = service.solve_graph(graph)
        reference = Solver(ArraySpec(W))
        c = reference.solve("matmul", a, b).values
        y = reference.solve("matvec", c, z).values
        x = reference.solve("refine", matrix, y).values
        assert np.array_equal(result.output("refined"), x)
        assert np.array_equal(result["product"].values, c)
        assert np.array_equal(result["projected"].values, y)

    def test_warm_resubmission_reports_zero_plan_builds(self, pipeline):
        graph, _operands = pipeline
        with SolverService(ArraySpec(W), n_shards=4) as service:
            cold = service.solve_graph(graph)
            assert not cold.warm
            before = counters.snapshot()
            results = [service.solve_graph(graph) for _ in range(5)]
            delta = counters.delta(before)
            stats = service.stats()
        # Every re-submission landed on the home shard's warm plans: the
        # graph executed with zero plan or transform construction.
        assert delta.plan_builds == 0
        assert delta.transform_constructions == 0
        for warm in results:
            assert warm.warm
            assert warm.plan_builds == 0 and warm.compile_plan_builds == 0
            assert np.array_equal(
                warm.output("refined"), cold.output("refined")
            )
        assert stats.graphs == 6

    def test_same_graph_routes_to_one_home_shard(self, pipeline):
        graph, _operands = pipeline
        with SolverService(ArraySpec(W), n_shards=4) as service:
            for _ in range(4):
                service.solve_graph(graph)
            stats = service.stats()
        homes = [shard for shard in stats.shards if shard.graphs]
        assert len(homes) == 1
        assert homes[0].graphs == 4

    def test_graph_telemetry_reaches_fleet_snapshot(self, pipeline, rng):
        graph, _operands = pipeline
        with SolverService(ArraySpec(W), n_shards=2) as service:
            service.solve_graph(graph)
            # A second, pairable graph: two independent same-shape matvecs.
            a, b = rng.normal(size=(N, N)), rng.normal(size=(N, N))
            x = rng.normal(size=N)
            paired = Graph(
                MatVec(a, x, name="left"), MatVec(b, x, name="right")
            )
            service.solve_graph(paired)
            stats = service.stats()
        assert stats.graphs == 2
        assert stats.graph_stages == 5
        assert stats.graph_fused == 1  # the left/right overlapped pair
        assert stats.stage_latency_p50 is not None
        described = stats.describe()
        assert "pipelines:" in described
        assert "2 graph(s), 5 stage(s), 1 fused" in described
        home = [shard for shard in stats.shards if shard.graphs]
        assert "pipeline" in home[0].describe()

    def test_fused_submission_shares_home_shard_and_converges(self, pipeline):
        graph, (a, b, z, _matrix) = pipeline
        with SolverService(ArraySpec(W), n_shards=4) as service:
            plain = service.solve_graph(graph)
            fused = service.solve_graph(graph, fuse=True)
            stats = service.stats()
        assert fused.fused_rewrites == 1
        assert np.allclose(
            fused.output("refined"), plain.output("refined")
        )
        homes = [shard for shard in stats.shards if shard.graphs]
        assert len(homes) == 1  # routing uses the unfused stage keys

    def test_per_request_options_reach_graph_execution(self, pipeline):
        """Regression: submit_graph's options must govern execution (and
        hence match the routing keys), not just the shard routing."""
        from repro.api import ExecutionOptions
        from repro.iterative import ConvergenceCriteria

        graph, _operands = pipeline
        capped = ExecutionOptions(
            criteria=ConvergenceCriteria(atol=1e-300, max_iter=1)
        )
        with SolverService(ArraySpec(W), n_shards=2) as service:
            default_run = service.solve_graph(graph)
            capped_run = service.solve_graph(graph, options=capped)
            warm = service.solve_graph(graph, options=capped)
        assert capped_run["refined"].stats["iterations"] == 1
        assert default_run["refined"].stats["iterations"] > 1
        # The option-carrying graph keeps the zero-recompile guarantee.
        assert warm.warm

    def test_invalid_graphs_fail_synchronously_at_submit(self, rng):
        a = rng.normal(size=(N, N))
        x = rng.normal(size=N)
        first = MatVec(a, x)
        second = MatVec(a, first)
        first.x = Ref(second)  # cycle
        with SolverService(ArraySpec(W), n_shards=2) as service:
            with pytest.raises(GraphCycleError):
                service.submit_graph(second)
            with pytest.raises(ShapeError):
                service.submit_graph(
                    MatVec(rng.normal(size=(4, 6)), MatVec(a, x))
                )
            # The service stays healthy for well-formed work.
            ok = service.solve(MatVec(a, x))
        assert ok.kind == "matvec"

    def test_failing_graph_resolves_only_its_own_future(self, pipeline, rng):
        graph, _operands = pipeline
        # Build-time checks cannot see a singular diagonal: jacobi's
        # nonzero-diagonal requirement only surfaces at execution, inside
        # the home shard, and must stay isolated to the failing request.
        from repro.graph import Jacobi

        singular = np.ones((N, N)) - np.eye(N) * 0.0
        singular[0, 0] = 0.0
        bad = Graph(Jacobi(singular, rng.normal(size=N)))
        with SolverService(ArraySpec(W), n_shards=2) as service:
            bad_future = service.submit_graph(bad)
            good = service.solve_graph(graph)
            with pytest.raises(ShapeError, match="diagonal"):
                bad_future.result()
            stats = service.stats()
        assert good.output("refined") is not None
        assert stats.failed == 1
        assert stats.completed >= 1

    def test_mixed_typed_and_graph_load_across_clients(self, pipeline, rng):
        """A small soak: graphs, typed solves and string solves interleaved."""
        import threading

        graph, (a, b, z, matrix) = pipeline
        reference = Solver(ArraySpec(W))
        expected_y = reference.solve(
            "matvec", reference.solve("matmul", a, b).values, z
        ).values
        expected_mv = reference.solve("matvec", a, z).values
        failures = []

        def client(index: int, service: SolverService) -> None:
            try:
                for round_index in range(5):
                    if (index + round_index) % 2:
                        result = service.solve_graph(graph)
                        assert np.array_equal(
                            result["projected"].values, expected_y
                        )
                    else:
                        solution = service.solve(MatVec(a, z))
                        assert np.array_equal(solution.values, expected_mv)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        with SolverService(ArraySpec(W), n_shards=4) as service:
            threads = [
                threading.Thread(target=client, args=(index, service))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not failures
        assert stats.failed == 0
        assert stats.graphs == 15  # 6 clients x 5 rounds, half graphs
        assert stats.completed == 30


N_DIAMOND = 32


def _diamond(rng):
    """Two balanced branches: relu source feeding a matvec and a
    one-sweep jacobi (517 modeled array steps each at n=32, w=4), joined
    by an elementwise add.  With the branches placed on distinct shards
    the modeled pipelined makespan halves the sequential one."""
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
    """Place the diamond's branches on shards 0 and 1 explicitly (their
    natural hash placement may collide on one shard)."""
    keys = graph.plan_keys(W, ExecutionOptions())
    service.placement.assign(keys[graph.names.index("left")], 0)
    service.placement.assign(keys[graph.names.index("right")], 1)


def _lanes_drained(service, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(
            worker.queue.handoff_depth == 0 for worker in service.shards
        ):
            return True
        time.sleep(0.005)
    return False


class TestPipelinedGraphExecution:
    def test_diamond_pipelines_across_shards_bit_identically(self, rng):
        graph = _diamond(rng)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            _pin_branches(service, graph)
            result = service.solve_graph(graph)
            assert _lanes_drained(service)
            stats = service.stats()
        reference = GraphCompiler(Solver(ArraySpec(W))).run(graph)
        for ours, theirs in zip(result.solutions, reference.solutions):
            assert np.array_equal(ours.values, theirs.values)
        # The branches really ran on distinct shards...
        assert set(result.placements) == {0, 1}
        # ...and level parallelism shows in the modeled array makespan.
        speedup = result.modeled_sequential_steps() / (
            result.modeled_pipeline_steps()
        )
        assert speedup >= 1.5
        # 4 segments: src | left, right | join; every level past the
        # first entered its shard through the handoff lane.
        assert stats.segments == 4
        assert stats.handoffs == 3
        assert stats.handoffs_rejected == 0
        assert stats.graphs == 1 and stats.completed == 1
        described = result.describe()
        assert "@shard 0" in described and "@shard 1" in described
        assert "placement: shards" in described
        assert "segments:" in stats.describe()

    def test_warm_pipelined_resubmission_keeps_zero_builds(self, rng):
        graph = _diamond(rng)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            _pin_branches(service, graph)
            cold = service.solve_graph(graph)
            assert not cold.warm
            before = counters.snapshot()
            warm_runs = [service.solve_graph(graph) for _ in range(3)]
            delta = counters.delta(before)
            stats = service.stats()
        assert delta.plan_builds == 0
        for warm in warm_runs:
            assert warm.warm
            assert warm.compile_plan_builds == 0 and warm.plan_builds == 0
            assert warm.placements == cold.placements
            assert np.array_equal(
                warm.output("join"), cold.output("join")
            )
        assert stats.graphs == 4
        assert stats.segments == 16

    def test_single_level_graph_compiles_and_builds_once_per_submit(
        self, rng
    ):
        """One compile per submit on every service size: the compile
        solver builds the plan, and no shard builds it a second time."""
        a, b = rng.normal(size=(N, N)), rng.normal(size=(N, N))
        x = rng.normal(size=N)
        graph = Graph(MatVec(a, x, name="left"), MatVec(b, x, name="right"))
        with SolverService(ArraySpec(W), n_shards=4) as service:
            before = counters.snapshot()
            cold = service.solve_graph(graph)
            cold_delta = counters.delta(before)
            before = counters.snapshot()
            warm = [service.solve_graph(graph) for _ in range(3)]
            warm_delta = counters.delta(before)
        assert cold_delta.plan_builds == 1  # the two stages share one plan
        assert cold_delta.graph_compiles == 1
        assert warm_delta.graph_compiles == 3
        assert warm_delta.plan_builds == 0
        reference = GraphCompiler(Solver(ArraySpec(W))).run(graph)
        for result in [cold, *warm]:
            assert np.array_equal(result.output("left"), reference.output("left"))
            assert np.array_equal(
                result.output("right"), reference.output("right")
            )

    def test_one_shard_service_runs_a_chain_as_one_segment(self, pipeline):
        graph, _operands = pipeline
        with SolverService(ArraySpec(W), n_shards=1) as service:
            result = service.solve_graph(graph)
            stats = service.stats()
        reference = GraphCompiler(Solver(ArraySpec(W))).run(graph)
        assert len(set(result.levels)) == 3
        for ours, theirs in zip(result.solutions, reference.solutions):
            assert np.array_equal(ours.values, theirs.values)
        assert stats.segments == 1
        assert stats.handoffs == 0
        assert stats.graphs == 1 and stats.completed == 1


class TestGraphBackpressure:
    @staticmethod
    def _slow_level_zero(monkeypatch, seconds: float) -> None:
        """Make every level-0 segment take ``seconds`` to execute."""
        original = ProgramSegment.execute

        def slow(self, outputs, solutions, latencies):
            if self.level == 0:
                time.sleep(seconds)
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", slow)

    @staticmethod
    def _wait_admissions_empty(service, shard: int = 0) -> None:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if len(service.shards[shard].queue) == 0:
                return
            time.sleep(0.002)
        raise AssertionError("worker never picked up the queued request")

    @staticmethod
    def _pin_everything(service, graph, shard: int = 0):
        """Pin a graph's stage keys and its whole-job key to one shard."""
        base = ExecutionOptions()
        stage_keys = graph.plan_keys(W, base)
        for key in stage_keys:
            service.placement.assign(key, shard)
        graph_key = ("__graph__", stage_keys, W, base)
        service.placement.assign(graph_key, shard)

    def test_deadline_mid_pipeline_fails_the_whole_request(
        self, pipeline, rng, monkeypatch
    ):
        """A segment dequeued past its job's deadline fails the whole
        graph: later levels become no-ops, nothing leaks, and the
        expiry is accounted once."""
        self._slow_level_zero(monkeypatch, 0.15)
        graph, _operands = pipeline
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            future = service.submit_graph(graph, timeout=0.05)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
            assert _lanes_drained(service)
            # The service stays healthy for subsequent work.
            ok = service.solve("matvec", a, x)
            stats = service.stats()
        assert ok.kind == "matvec"
        assert stats.expired == 1
        assert stats.graphs == 0  # the expired graph never completed
        assert stats.failed == 0  # expiry is not a failure

    def test_shed_mid_pipeline_fails_cleanly_without_orphans(
        self, pipeline, rng, monkeypatch
    ):
        """``shed_oldest`` evicting a queued *segment* fails its whole
        pipelined job; siblings never dispatch, the victim's future
        reports the shed, and the surviving job completes."""
        self._slow_level_zero(monkeypatch, 0.35)
        graph, (a, _b, z, _matrix) = pipeline
        with SolverService(
            ArraySpec(W),
            n_shards=2,
            queue_depth=1,
            backpressure="shed_oldest",
            max_batch_size=1,
        ) as service:
            self._pin_everything(service, graph)
            service.placement.assign(service.plan_key("matvec", a, z), 0)
            first = service.submit_graph(graph)
            self._wait_admissions_empty(service)  # shard 0 is executing it
            second = service.submit_graph(graph)  # fills the depth-1 queue
            probe = service.submit("matvec", a, z)  # evicts second's level 0
            with pytest.raises(ServiceOverloadedError, match="shed"):
                second.result(timeout=5.0)
            survivor = first.result(timeout=5.0)
            assert probe.result(timeout=5.0).kind == "matvec"
            assert _lanes_drained(service)
            stats = service.stats()
        assert survivor.output("refined") is not None
        assert stats.shed == 1
        assert stats.graphs == 1  # only the survivor completed

    def test_reject_policy_refuses_pipelined_admission_at_submit(
        self, pipeline, monkeypatch
    ):
        """Under ``reject`` a full admission queue refuses a new
        pipelined graph synchronously at ``submit_graph``; already
        admitted jobs are untouched."""
        self._slow_level_zero(monkeypatch, 0.35)
        graph, _operands = pipeline
        with SolverService(
            ArraySpec(W),
            n_shards=2,
            queue_depth=1,
            backpressure="reject",
            max_batch_size=1,
        ) as service:
            self._pin_everything(service, graph)
            first = service.submit_graph(graph)
            self._wait_admissions_empty(service)
            second = service.submit_graph(graph)
            with pytest.raises(ServiceOverloadedError):
                service.submit_graph(graph)
            assert first.result(timeout=5.0).output("refined") is not None
            assert second.result(timeout=5.0).output("refined") is not None
            stats = service.stats()
        assert stats.rejected >= 1
        assert stats.graphs == 2  # the admitted jobs both completed

    def test_full_handoff_lane_fails_the_next_graph_only(
        self, rng, monkeypatch
    ):
        """Shard 1 holds one level-1 segment in flight and its handoff
        lane parks 4 * queue_depth more: the next graph's handoff is
        refused, that graph alone fails with ServiceOverloadedError, and
        every parked graph completes once the shard moves again."""
        gate, held = threading.Event(), threading.Event()
        original = ProgramSegment.execute

        def gated(self, outputs, solutions, latencies):
            if self.shard == 1:
                held.set()
                gate.wait(timeout=30)
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", gated)
        depth = 2
        graphs = _two_level_graphs(rng, 4 * depth + 2)
        tracer = Tracer()
        service = SolverService(
            ArraySpec(W), n_shards=2, queue_depth=depth, max_batch_size=1,
            tracer=tracer,
        )
        lane = service.shards[1].queue
        try:
            _pin_levels(service, graphs[0])
            futures = [service.submit_graph(graphs[0])]
            assert held.wait(timeout=5.0)
            futures += [service.submit_graph(graph) for graph in graphs[1:-1]]
            deadline = time.monotonic() + 5.0
            while lane.handoff_depth < 4 * depth:
                assert time.monotonic() < deadline, "the lane never filled"
                time.sleep(0.002)
            assert lane.handoff_capacity == 4 * depth
            refused = service.submit_graph(graphs[-1])
            with pytest.raises(ServiceOverloadedError, match="handoff lane full"):
                refused.result(timeout=5.0)
            assert service.stats().handoffs_rejected == 1
        finally:
            gate.set()
        reference = GraphCompiler(Solver(ArraySpec(W)))
        for graph, future in zip(graphs, futures):
            values = future.result(timeout=5.0).values
            expected = reference.run(graph).values
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        service.close()
        _assert_nothing_leaked(service, tracer)
        stats = service.stats()
        assert stats.handoffs_rejected == 1
        assert stats.failed == 1 and stats.completed == len(futures)
        assert stats.submitted == (
            stats.completed + stats.failed + stats.shed + stats.expired
            + stats.rejected + stats.rate_limited
        )


def _two_level_graphs(rng, count: int):
    """Chains ``MatVec(m2, MatVec(m1, x))`` whose levels have distinct plan
    keys (m2 is taller than m1), so a placement can split them."""
    graphs = []
    for _ in range(count):
        m1, m2 = rng.normal(size=(N, N)), rng.normal(size=(N + 2, N))
        graphs.append(MatVec(m2, MatVec(m1, rng.normal(size=N))))
    return graphs


def _pin_levels(service, graph) -> None:
    """Level 0 on shard 0, level 1 on the last shard: on a multi-shard
    service every job hands its second level across shards."""
    first, second = Graph(graph).plan_keys(W, ExecutionOptions())
    service.placement.assign(first, 0)
    service.placement.assign(second, service.n_shards - 1)


def _assert_nothing_leaked(service, tracer) -> None:
    assert tracer.open_spans == 0
    for worker in service.shards:
        assert worker.queue.handoff_depth == 0
        assert worker.telemetry.handoff_depth.value == 0


class TestGraphShutdown:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_draining_close_resolves_every_admitted_graph(
        self, rng, n_shards
    ):
        """close(wait=True) straight after submitting: every job's second
        level still reaches its shard, and every future is its result."""
        reference = GraphCompiler(Solver(ArraySpec(W)))
        for _ in range(5):
            graphs = _two_level_graphs(rng, 10)
            tracer = Tracer()
            service = SolverService(
                ArraySpec(W), n_shards=n_shards, tracer=tracer
            )
            _pin_levels(service, graphs[0])
            futures = [service.submit_graph(graph) for graph in graphs]
            service.close(wait=True)
            for graph, future in zip(graphs, futures):
                assert future.done()
                assert np.array_equal(
                    future.result().values, reference.run(graph).values
                )
            _assert_nothing_leaked(service, tracer)
            stats = service.stats()
            assert stats.graphs == len(graphs)
            assert stats.handoffs == (len(graphs) if n_shards > 1 else 0)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_close_without_drain_fails_pending_graphs(
        self, rng, n_shards, monkeypatch
    ):
        """close(wait=False) fails every job still queued with
        ServiceClosedError; the job in flight completes on one shard and
        fails at its handoff on two."""
        gate = threading.Event()
        original = ProgramSegment.execute

        def gated(self, outputs, solutions, latencies):
            gate.wait(timeout=30)
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", gated)
        graphs = _two_level_graphs(rng, 10)
        tracer = Tracer()
        service = SolverService(
            ArraySpec(W), n_shards=n_shards, tracer=tracer, max_batch_size=1
        )
        _pin_levels(service, graphs[0])
        in_flight = service.submit_graph(graphs[0])
        TestGraphBackpressure._wait_admissions_empty(service)
        queued = [service.submit_graph(graph) for graph in graphs[1:]]
        timer = threading.Timer(0.05, gate.set)
        timer.start()
        service.close(wait=False)
        timer.join()
        for future in queued:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=5.0)
        if n_shards == 1:
            assert in_flight.result(timeout=5.0).values is not None
        else:
            with pytest.raises(ServiceClosedError):
                in_flight.result(timeout=5.0)
        _assert_nothing_leaked(service, tracer)

    def test_close_from_a_done_callback_is_refused_and_leaves_it_open(
        self, rng, monkeypatch
    ):
        """A done-callback runs on a shard worker, which can neither wait
        for the jobs behind it nor join itself: close() there raises and
        the service keeps serving."""
        gate = threading.Event()
        original = ProgramSegment.execute

        def gated(self, outputs, solutions, latencies):
            gate.wait(timeout=30)
            return original(self, outputs, solutions, latencies)

        monkeypatch.setattr(ProgramSegment, "execute", gated)
        graphs = _two_level_graphs(rng, 3)
        refused = []

        def close_from_callback(_future) -> None:
            try:
                service.close()
            except RuntimeError as exc:
                refused.append(exc)

        service = SolverService(ArraySpec(W), n_shards=2)
        _pin_levels(service, graphs[0])
        first = service.submit_graph(graphs[0])
        first.add_done_callback(close_from_callback)  # before it can finish
        gate.set()
        first.result(timeout=5.0)
        rest = [service.submit_graph(graph) for graph in graphs[1:]]
        service.close()
        assert len(refused) == 1 and "worker thread" in str(refused[0])
        reference = GraphCompiler(Solver(ArraySpec(W)))
        for graph, future in zip(graphs[1:], rest):
            assert np.array_equal(
                future.result(timeout=5.0).values, reference.run(graph).values
            )
        assert service.closed


def _memo_graphs(rng):
    """Two signatures without iterative stages (which derive their inner
    plan keys while they run): an int8 MLP, whose chains fuse, and a
    two-level matvec chain."""
    from repro.nn import MLP

    mlp = MLP([
        (rng.normal(size=(8, 10)) * 0.4, rng.normal(size=8) * 0.1),
        (rng.normal(size=(6, 8)) * 0.4, rng.normal(size=6) * 0.1),
    ])
    quantized = mlp.quantized([rng.normal(size=10) for _ in range(3)])
    return [
        quantized.graph(rng.normal(size=10)),
        Graph(_two_level_graphs(rng, 1)[0]),
    ]


def _same_outputs(result, reference) -> bool:
    return all(
        name == ref_name
        and values.dtype == expected.dtype
        and np.array_equal(
            values.view(np.uint64) if values.dtype.kind == "f" else values,
            expected.view(np.uint64) if expected.dtype.kind == "f" else expected,
        )
        for (name, values), (ref_name, expected) in zip(
            result.outputs, reference.outputs
        )
    )


class TestServiceCompileMemo:
    """submit_graph compiles through the compile solver's graph memo."""

    def test_concurrent_same_signature_submissions_bind_their_own_values(
        self, rng
    ):
        rounds = 8
        graphs = [
            [graph for _ in range(rounds) for graph in _memo_graphs(rng)]
            for _client in range(2)
        ]
        results: list = [None, None]
        errors: list = []
        barrier = threading.Barrier(2)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for graph in _memo_graphs(rng):
                service.solve_graph(graph)  # one memo entry per signature

            def client(index: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    futures = [service.submit_graph(g) for g in graphs[index]]
                    results[index] = [f.result(timeout=30) for f in futures]
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            memo = service._compile_solver.lowered_graphs
            assert len(memo) == 2
            assert memo.stats.misses == 2
        assert not errors
        for client_graphs, client_results in zip(graphs, results):
            for graph, result in zip(client_graphs, client_results):
                assert result.warm
                reference = GraphCompiler(Solver(ArraySpec(W))).compile(graph)
                assert _same_outputs(result, reference.run())

    def test_warm_submit_derives_no_stage_key(self, rng, monkeypatch):
        import sys

        from repro.api import plan as plan_module

        original = plan_module.make_plan_key
        calls: list = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, "make_plan_key", None) is original
            ):
                monkeypatch.setattr(module, "make_plan_key", counting)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for graph in _memo_graphs(rng):
                service.solve_graph(graph)
            assert calls  # the cold submits derived their keys
            calls.clear()
            for _round in range(3):
                for graph in _memo_graphs(rng):
                    assert service.solve_graph(graph).warm
        assert calls == []

    def test_home_key_is_the_graphs_plan_keys(self, pipeline, monkeypatch):
        graph, _operands = pipeline
        keys: list = []
        admit = SolverService._admit_graph

        def spy(self, program, key, *args, **kwargs):
            keys.append(key)
            return admit(self, program, key, *args, **kwargs)

        monkeypatch.setattr(SolverService, "_admit_graph", spy)
        base = ExecutionOptions()
        capped = ExecutionOptions(
            criteria=ConvergenceCriteria(atol=1e-300, max_iter=1)
        )
        with SolverService(ArraySpec(W), n_shards=2) as service:
            for _cold_then_warm in range(2):
                service.solve_graph(graph)
                service.solve_graph(graph, fuse=True)
                service.solve_graph(graph, options=capped)
        plain = ("__graph__", graph.plan_keys(W, base), W, base)
        routed = ("__graph__", graph.plan_keys(W, capped), W, capped)
        assert keys == [plain, plain, routed] * 2
