"""Serving-layer throughput: plan-keyed batched shards vs. naive serving.

The claim the :mod:`repro.service` subsystem exists to win: a mixed
concurrent workload served through ``SolverService`` — plan-keyed shard
routing (every plan compiles once, on its home shard), admission batching
(same-plan requests flush together through ``solve_batch``), bounded
queues — sustains **at least 2x** the throughput of the naive serving
model, where each request gets its own handler (one thread per request,
its own ``Solver``, no shared plan state) executed back-to-back.  The
naive model pays a plan compilation per request; the service pays one per
distinct plan *per service*.

For context the report also times the strongest sequential baseline — a
single warm ``Solver`` solving one request at a time — which isolates the
queueing/batching overhead the service adds on top of warm execution.

The cross-shard pipelined graph path carries its own claims, measured
here too: a two-branch diamond whose branches are pinned to distinct
shards achieves **at least 1.5x** level parallelism in modeled array
steps (the makespan the paper's hardware would see), and a stream of
deep-chain graphs overlaps across requests — the per-request execution
spans sum to more than the wall-clock window, which is only possible if
level k of one request ran while level k−1 of the next did.

With ``REPRO_BENCH_RECORD=1`` set, results are recorded in
``BENCH_service.json`` at the repository root (a machine-readable
trajectory point, keyed by git sha so re-runs update rather than
duplicate; CI uploads it as an artifact).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, List, Tuple

import numpy as np

from repro.analysis.trajectory import record_trajectory_point
from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.graph import Graph, GraphCompiler, Jacobi, MatVec
from repro.iterative import ConvergenceCriteria
from repro.nn import Bias, Relu
from repro.service import SolverService

W = 4
N_SHARDS = 4
N_CLIENTS = 8
MATVEC_SHAPES = ((48, 48), (32, 32), (48, 32))
MATVEC_PER_SHAPE = 40
N_MATMUL = 40
MATMUL_SHAPE = (9, 9)

DIAMOND_N = 32
#: Vector widths along the deep chain; consecutive stages get distinct
#: matrix shapes, hence distinct plan keys, hence distinct shards.
CHAIN_DIMS = (32, 28, 24, 36, 30)
N_STREAM = 6

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

Workload = List[Tuple[str, Tuple[np.ndarray, ...]]]


def _mixed_workload(rng: np.random.Generator) -> Workload:
    """An interleaved matvec/matmul request stream (deterministic)."""
    requests: Workload = []
    for shape in MATVEC_SHAPES:
        for _ in range(MATVEC_PER_SHAPE):
            requests.append(
                ("matvec", (rng.normal(size=shape), rng.normal(size=shape[1])))
            )
    for _ in range(N_MATMUL):
        requests.append(
            (
                "matmul",
                (rng.normal(size=MATMUL_SHAPE), rng.normal(size=MATMUL_SHAPE)),
            )
        )
    order = rng.permutation(len(requests))
    return [requests[index] for index in order]


def _naive_thread_per_request(workload: Workload) -> float:
    """The baseline: one handler thread per request, no shared plan state.

    Each handler builds its own ``Solver`` (the stateless-server model:
    nothing survives between requests) and runs to completion before the
    next request is admitted.  Returns elapsed seconds.
    """
    start = time.perf_counter()
    for kind, operands in workload:
        error: List[BaseException] = []

        def handler() -> None:
            try:
                Solver(ArraySpec(W)).solve(kind, *operands)
            except BaseException as exc:  # pragma: no cover - failure path
                error.append(exc)

        thread = threading.Thread(target=handler)
        thread.start()
        thread.join()
        assert not error
    return time.perf_counter() - start


def _warm_sequential(workload: Workload) -> float:
    """Context baseline: one shared warm solver, one request at a time."""
    solver = Solver(ArraySpec(W))
    for kind, operands in workload:  # warm every plan first
        solver.solve(kind, *operands)
    start = time.perf_counter()
    for kind, operands in workload:
        solver.solve(kind, *operands)
    return time.perf_counter() - start


def _serve_concurrently(workload: Workload) -> Tuple[float, Any]:
    """The subsystem under test: N_CLIENTS submitting into the shard pool."""
    service = SolverService(
        ArraySpec(W),
        n_shards=N_SHARDS,
        backpressure="block",
        queue_depth=64,
        max_batch_size=16,
        max_batch_delay=0.002,
    )
    shares = [workload[index::N_CLIENTS] for index in range(N_CLIENTS)]
    futures: List[List[Any]] = [[] for _ in range(N_CLIENTS)]
    errors: List[BaseException] = []

    def client(client_id: int) -> None:
        try:
            for kind, operands in shares[client_id]:
                futures[client_id].append(service.submit(kind, *operands))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(client_id,))
        for client_id in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client_futures in futures:
        for future in client_futures:
            future.result(timeout=120)
    elapsed = time.perf_counter() - start
    assert not errors
    stats = service.stats()
    service.close()
    return elapsed, stats


class TestServiceThroughput:
    def test_batched_serving_at_least_2x_naive(self, rng, show_report):
        from repro.analysis.report import ExperimentReport

        workload = _mixed_workload(rng)
        n_requests = len(workload)

        naive_time = _naive_thread_per_request(workload)
        warm_time = _warm_sequential(workload)
        service_time, stats = _serve_concurrently(workload)

        naive_throughput = n_requests / naive_time
        warm_throughput = n_requests / warm_time
        service_throughput = n_requests / service_time
        speedup = service_throughput / naive_throughput

        # Sanity on the serving path itself before the headline claim.
        assert stats.completed == n_requests
        assert stats.failed == stats.rejected == stats.shed == stats.expired == 0
        # Plan-keyed routing: one compile per distinct plan fleet-wide.
        assert stats.cache.misses == len(MATVEC_SHAPES) + 1
        assert stats.mean_batch_size > 1.0

        assert speedup >= 2.0, (
            f"serving gave only {speedup:.2f}x over the naive per-request "
            f"baseline ({service_throughput:.0f} vs {naive_throughput:.0f} "
            f"requests/s); admission batching or plan routing regressed"
        )

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "service_throughput",
                "unix_time": time.time(),
                "workload": {
                    "requests": n_requests,
                    "matvec_shapes": [list(s) for s in MATVEC_SHAPES],
                    "matvec_per_shape": MATVEC_PER_SHAPE,
                    "matmul": N_MATMUL,
                    "matmul_shape": list(MATMUL_SHAPE),
                    "w": W,
                    "clients": N_CLIENTS,
                    "shards": N_SHARDS,
                },
                "naive_thread_per_request": {
                    "seconds": naive_time,
                    "requests_per_second": naive_throughput,
                },
                "warm_sequential": {
                    "seconds": warm_time,
                    "requests_per_second": warm_throughput,
                },
                "service": {
                    "seconds": service_time,
                    "requests_per_second": service_throughput,
                    "mean_batch_size": stats.mean_batch_size,
                    "batch_size_histogram": {
                        str(size): count
                        for size, count in sorted(
                            stats.batch_size_histogram.items()
                        )
                    },
                    "cache_hit_rate": stats.cache.hit_rate,
                    "latency_p50_ms": (stats.latency_p50 or 0.0) * 1e3,
                    "latency_p95_ms": (stats.latency_p95 or 0.0) * 1e3,
                    "max_queue_depth": stats.max_queue_depth,
                },
                "speedup_vs_naive": speedup,
                "speedup_vs_warm_sequential": service_throughput / warm_throughput,
            }
        )

        report = ExperimentReport(
            experiment="service throughput: batched shards vs naive serving",
            description=(
                f"{n_requests} mixed requests ({N_CLIENTS} clients, "
                f"{N_SHARDS} shards, w={W}); naive = thread per request, "
                f"fresh solver each"
            ),
        )
        report.add(
            "service >= 2x naive",
            1,
            int(speedup >= 2.0),
            note=(
                f"naive {naive_throughput:.0f}/s, warm sequential "
                f"{warm_throughput:.0f}/s, service {service_throughput:.0f}/s "
                f"({speedup:.1f}x naive)"
            ),
        )
        report.add(
            "plan compiles across fleet",
            len(MATVEC_SHAPES) + 1,
            stats.cache.misses,
            note=f"mean batch size {stats.mean_batch_size:.2f}",
        )
        show_report(report)


def _diamond_graph(rng: np.random.Generator) -> Graph:
    """Balanced two-branch diamond: each branch models 517 array steps
    at n=32, w=4, so splitting the branches across shards halves the
    modeled level makespan."""
    a = rng.normal(size=(DIAMOND_N, DIAMOND_N))
    m = rng.normal(size=(DIAMOND_N, DIAMOND_N))
    m = (m + m.T) / 2.0
    m = m + (np.abs(m).sum(axis=1).max() + 1.0) * np.eye(DIAMOND_N)
    x = rng.normal(size=DIAMOND_N)
    src = Relu(x, name="src")
    left = MatVec(a, src, name="left")
    right = Jacobi(
        m,
        src,
        criteria=ConvergenceCriteria(atol=1e-30, max_iter=1),
        name="right",
    )
    return Graph(Bias(left, right, name="join"))


def _chain_graph(rng: np.random.Generator) -> Graph:
    """A deep matvec chain — one stage per level, all shapes distinct."""
    node = rng.normal(size=CHAIN_DIMS[0])
    for index in range(len(CHAIN_DIMS) - 1):
        matrix = rng.normal(size=(CHAIN_DIMS[index + 1], CHAIN_DIMS[index]))
        node = MatVec(matrix, node, name=f"stage{index}")
    return Graph(node)


class TestPipelinedGraphServing:
    def test_pipelined_graphs_overlap_and_win_level_parallelism(
        self, rng, show_report
    ):
        from repro.analysis.report import ExperimentReport

        # -- claim 1: the diamond's branches run on distinct shards and
        # the modeled array-step makespan drops by >= 1.5x.
        diamond = _diamond_graph(rng)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            keys = diamond.plan_keys(W, ExecutionOptions())
            service.placement.assign(keys[diamond.names.index("left")], 0)
            service.placement.assign(keys[diamond.names.index("right")], 1)
            diamond_result = service.solve_graph(diamond)
        reference = GraphCompiler(Solver(ArraySpec(W))).run(diamond)
        for ours, theirs in zip(
            diamond_result.solutions, reference.solutions
        ):
            assert np.array_equal(ours.values, theirs.values)
        sequential_steps = diamond_result.modeled_sequential_steps()
        pipeline_steps = diamond_result.modeled_pipeline_steps()
        modeled_speedup = sequential_steps / pipeline_steps
        assert set(diamond_result.placements) == {0, 1}
        assert modeled_speedup >= 1.5, (
            f"diamond level parallelism modeled only {modeled_speedup:.2f}x "
            f"({pipeline_steps} vs {sequential_steps} array steps); the "
            f"placed branches are not overlapping"
        )

        # -- claim 2: a stream of deep chains overlaps across requests —
        # the per-request spans sum to more than the wall window.
        chain = _chain_graph(rng)
        n_stages = len(CHAIN_DIMS) - 1
        with SolverService(ArraySpec(W), n_shards=N_SHARDS) as service:
            for index, key in enumerate(
                chain.plan_keys(W, ExecutionOptions())
            ):
                service.placement.assign(key, index % N_SHARDS)
            warm = service.solve_graph(chain)  # compile + place once
            start = time.perf_counter()
            futures = [
                service.submit_graph(chain) for _ in range(N_STREAM)
            ]
            results = [future.result(timeout=120) for future in futures]
            wall = time.perf_counter() - start
            stats = service.stats()
        tail = f"stage{n_stages - 1}"
        for result in results:
            assert result.warm
            assert np.array_equal(result.output(tail), warm.output(tail))
        span_sum = sum(result.total_seconds for result in results)
        overlap_factor = span_sum / wall
        assert span_sum > wall, (
            f"request spans sum to {span_sum * 1e3:.1f}ms inside a "
            f"{wall * 1e3:.1f}ms wall window: the stream executed "
            f"serially, no cross-request pipelining happened"
        )
        assert stats.segments == (N_STREAM + 1) * n_stages
        assert stats.handoffs == (N_STREAM + 1) * (n_stages - 1)
        assert all(shard.segments > 0 for shard in stats.shards)

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "service_pipelined_graphs",
                "unix_time": time.time(),
                "diamond": {
                    "n": DIAMOND_N,
                    "w": W,
                    "shards": 2,
                    "placements": list(diamond_result.placements),
                    "modeled_sequential_steps": sequential_steps,
                    "modeled_pipeline_steps": pipeline_steps,
                    "modeled_speedup": modeled_speedup,
                },
                "stream": {
                    "requests": N_STREAM,
                    "chain_stages": n_stages,
                    "chain_dims": list(CHAIN_DIMS),
                    "shards": N_SHARDS,
                    "wall_seconds": wall,
                    "sum_request_seconds": span_sum,
                    "overlap_factor": overlap_factor,
                    "segments": stats.segments,
                    "handoffs": stats.handoffs,
                    "handoff_lane_high_water": stats.max_handoff_depth,
                },
            },
        )

        report = ExperimentReport(
            experiment="cross-shard pipelined graph serving",
            description=(
                f"diamond n={DIAMOND_N} on 2 shards; {N_STREAM}-request "
                f"stream of {n_stages}-stage chains on {N_SHARDS} shards"
            ),
        )
        report.add(
            "diamond modeled level parallelism >= 1.5x",
            1,
            int(modeled_speedup >= 1.5),
            note=(
                f"{pipeline_steps} pipelined vs {sequential_steps} "
                f"sequential array steps ({modeled_speedup:.2f}x), "
                f"branches on shards {sorted(set(diamond_result.placements))}"
            ),
        )
        report.add(
            "stream overlaps across requests",
            1,
            int(span_sum > wall),
            note=(
                f"{span_sum * 1e3:.1f}ms of request spans in a "
                f"{wall * 1e3:.1f}ms window ({overlap_factor:.2f}x), "
                f"{stats.handoffs} handoff(s)"
            ),
        )
        show_report(report)
