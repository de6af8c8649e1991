"""Service-level tests for iterative workloads: warm shards, exact telemetry.

The headline: an 8-thread soak pushing mixed iterative + direct requests
through 4 shards performs **zero plan recompiles after warmup** — every
plan (the façade-level engines *and* the sweeps' inner per-shape plans)
compiles during a warmup pass and stays resident on its home shard — and
every concurrent result is bit-identical to a single-threaded solve.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import List, Tuple

import numpy as np
import pytest

from repro.api import ArraySpec, Solver
from repro.instrumentation import counters
from repro.service import SolverService

W = 4
N_SHARDS = 4
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 25


def spd_dominant(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    matrix += (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)
    return matrix


def mixed_problems(rng: np.random.Generator) -> List[Tuple[str, Tuple]]:
    """Mixed iterative + direct request set (square systems share shapes)."""
    a8, a10 = spd_dominant(rng, 8), spd_dominant(rng, 10)
    return [
        ("jacobi", (a8, rng.normal(size=8))),
        ("cg", (a10, rng.normal(size=10))),
        ("sor", (a8, rng.normal(size=8))),
        ("refine", (a10, rng.normal(size=10))),
        ("gauss_seidel", (a8, rng.normal(size=8))),
        ("matvec", (rng.normal(size=(12, 9)), rng.normal(size=9))),
        ("matmul", (rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))),
    ]


class TestIterativeServiceSoak:
    def test_soak_zero_recompiles_after_warmup_bit_identical(self, rng):
        problems = mixed_problems(rng)
        reference = Solver(ArraySpec(W))
        expected = [
            reference.solve(kind, *operands).values for kind, operands in problems
        ]

        service = SolverService(
            ArraySpec(W),
            n_shards=N_SHARDS,
            backpressure="block",
            queue_depth=16,
            max_batch_delay=0.001,
        )
        futures: "list[list[Future]]" = [[] for _ in range(N_CLIENTS)]
        errors: "list[BaseException]" = []
        try:
            # Warmup: one request per distinct plan key compiles every
            # façade-level plan and, by running a full solve, every inner
            # per-shape sweep plan on its home shard.  Inner plans live in
            # the shard caches too: each miss built one distinct plan, and
            # none was evicted, so no later request can miss.
            for kind, operands in problems:
                service.solve(kind, *operands)
            warm = service.stats()
            assert warm.cache.misses == warm.cache.size > len(problems)
            assert warm.cache.evictions == 0

            before = counters.snapshot()

            def client(client_id: int) -> None:
                try:
                    for i in range(REQUESTS_PER_CLIENT):
                        kind, operands = problems[(client_id + i) % len(problems)]
                        futures[client_id].append(service.submit(kind, *operands))
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(client_id,))
                for client_id in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert errors == []

            total = 0
            for client_id, client_futures in enumerate(futures):
                assert len(client_futures) == REQUESTS_PER_CLIENT
                for i, future in enumerate(client_futures):
                    solution = future.result(timeout=120)
                    index = (client_id + i) % len(problems)
                    value, want = solution.values, expected[index]
                    if isinstance(want, tuple):  # lu-style multi-part values
                        assert all(np.array_equal(v, w) for v, w in zip(value, want))
                    else:
                        assert np.array_equal(value, want)
                    total += 1
            assert total == N_CLIENTS * REQUESTS_PER_CLIENT
        finally:
            service.close()

        stats = service.stats()
        assert stats.completed == total + len(problems)
        assert stats.failed == stats.rejected == stats.shed == stats.expired == 0
        # Zero recompiles after warmup, at both cache levels: no new
        # misses in any shard's plan cache, and no plan builds anywhere
        # (counters only move on misses, so zero stays exact even though
        # the increments themselves are lock-free).
        assert stats.cache.misses == warm.cache.misses
        assert counters.delta(before).plan_builds == 0

    def test_iteration_telemetry_per_kind(self, rng):
        a = spd_dominant(rng, 8)
        b = rng.normal(size=8)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            jacobi = service.solve("jacobi", a, b)
            cg = service.solve("cg", a, b)
            service.solve("matvec", rng.normal(size=(6, 6)), rng.normal(size=6))
            stats = service.stats()
            assert stats.iterations_by_kind["jacobi"] == jacobi.stats["iterations"]
            assert stats.iterations_by_kind["cg"] == cg.stats["iterations"]
            assert "matvec" not in stats.iterations_by_kind
            assert sum(
                shard.iterations_by_kind.get("jacobi", 0) for shard in stats.shards
            ) == jacobi.stats["iterations"]
            described = stats.describe()
            assert "iterations:" in described and "jacobi=" in described

    def test_iterative_kwargs_flow_through_service(self, rng):
        a = spd_dominant(rng, 6)
        b = rng.normal(size=6)
        exact = np.linalg.solve(a, b)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            solution = service.solve("jacobi", a, b, x0=exact)
            assert solution.stats["iterations"] == 1
            assert solution.stats["converged"]

    def test_iterative_errors_stay_with_the_request(self, rng):
        from repro.errors import ConvergenceError

        diverging = np.array([[1.0, 3.0], [3.0, 1.0]])
        healthy = spd_dominant(rng, 6)
        b6 = rng.normal(size=6)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            bad = service.submit("jacobi", diverging, np.ones(2))
            good = service.submit("jacobi", healthy, b6)
            with pytest.raises(ConvergenceError):
                bad.result(timeout=60)
            assert np.allclose(
                good.result(timeout=60).values, np.linalg.solve(healthy, b6), atol=1e-8
            )
