"""Serving demo: 200 mixed concurrent requests through ``SolverService``.

The :mod:`repro.service` layer multiplexes many concurrent callers onto
the cached-plan machinery:

* requests are routed to shards by plan key — every distinct
  ``(kind, shapes, w, options)`` compiles once, on its home shard, and
  stays hot in that shard's private plan cache;
* an admission batcher hands each shard its next request plus the
  backlog queued behind it, so same-plan requests flush together through
  ``solve_batch`` (matvec pairs ride the paper's overlapped contraflow
  execution automatically).  The service default waits for no
  companions, so batches form only from a backlog; this demo sets an
  explicit 2 ms ``max_batch_delay`` so that its 8 clients' requests
  visibly group;
* bounded per-shard queues give backpressure (here: the ``block``
  policy — no request is ever dropped);
* everything is observable through one ``ServiceStats`` snapshot.

This script drives 200 mixed requests (three matvec shapes, a matmul
shape, a triangular solve) from 8 client threads, verifies every result
against direct ``Solver`` execution, and prints the stats snapshot.

Run with:  PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro import ArraySpec, Solver, SolverService

N_REQUESTS = 200
N_CLIENTS = 8
N_SHARDS = 4
W = 4


def main() -> None:
    rng = np.random.default_rng(1986)

    # A fixed pool of problems so results can be verified bit-for-bit.
    lower = np.tril(rng.normal(size=(12, 12))) + 6.0 * np.eye(12)
    pool = [
        ("matvec", (rng.normal(size=(48, 48)), rng.normal(size=48)), {}),
        ("matvec", (rng.normal(size=(32, 32)), rng.normal(size=32)), {}),
        ("matvec", (rng.normal(size=(48, 32)), rng.normal(size=32)), {}),
        ("matmul", (rng.normal(size=(9, 9)), rng.normal(size=(9, 9))), {}),
        ("triangular", (lower, rng.normal(size=12)), {"lower": True}),
    ]
    reference = Solver(ArraySpec(W))
    expected = [
        reference.solve(kind, *operands, **kwargs).values
        for kind, operands, kwargs in pool
    ]

    print("=" * 72)
    print(
        f"{N_REQUESTS} mixed requests, {N_CLIENTS} client threads, "
        f"{N_SHARDS} shards, w={W}"
    )
    print("=" * 72)

    service = SolverService(
        ArraySpec(W),
        n_shards=N_SHARDS,
        backpressure="block",
        queue_depth=64,
        max_batch_size=16,
        max_batch_delay=0.002,
    )

    futures: "list[tuple[int, object]]" = []
    futures_lock = threading.Lock()

    def client(client_id: int) -> None:
        for i in range(N_REQUESTS // N_CLIENTS):
            index = (client_id + i) % len(pool)
            kind, operands, kwargs = pool[index]
            future = service.submit(kind, *operands, **kwargs)
            with futures_lock:
                futures.append((index, future))

    threads = [
        threading.Thread(target=client, args=(client_id,))
        for client_id in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    mismatches = 0
    for index, future in futures:
        solution = future.result(timeout=60)
        if not np.array_equal(solution.values, expected[index]):
            mismatches += 1
    print(f"completed {len(futures)} requests, {mismatches} mismatches "
          f"vs direct Solver execution")
    assert mismatches == 0

    print()
    print(service.stats().describe())
    service.close()
    print()
    print("service closed; every future resolved.")


if __name__ == "__main__":
    main()
