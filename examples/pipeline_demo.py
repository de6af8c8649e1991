"""Pipeline demo: a chained matmul → matvec → refine graph, end to end.

The :mod:`repro.graph` layer replaces one-problem-at-a-time string calls
with typed problems composed into a lazy expression DAG:

* ``MatMul(A, B) @ x`` builds the chain ``y = (A B) x`` without running
  anything — operands that are problems become stage references;
* ``Refine(M, y)`` chains an iterative-refinement solve onto the
  projected vector;
* ``GraphCompiler`` validates the DAG (cycles, cross-stage shapes) and
  lowers it onto the solver's cached ``ExecutionPlan`` machinery: the
  program compiles once, and warm re-executions build **zero** plans;
* ``fuse=True`` applies the associativity rewrite ``(A B) x -> A (B x)``,
  replacing the O(n^3) matmul stage with a second O(n^2) matvec;
* the same graph submits as a single unit to ``SolverService``, landing
  on the one shard that holds all of its stage plans warm.

Every result is verified against plain numpy.

Run with:  PYTHONPATH=src python examples/pipeline_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ArraySpec,
    ExecutionOptions,
    Graph,
    GraphCompiler,
    MatMul,
    MatVec,
    Refine,
    Solver,
    SolverService,
)
from repro.iterative import ConvergenceCriteria

N = 48
W = 4


def main() -> None:
    rng = np.random.default_rng(1986)
    a = rng.normal(size=(N, N))
    b = rng.normal(size=(N, N))
    x = rng.normal(size=N)
    matrix = rng.normal(size=(N, N)) + N * np.eye(N)
    rhs_options = ExecutionOptions(
        criteria=ConvergenceCriteria(atol=1e-12, max_iter=10)
    )

    # -- build the DAG: matmul -> matvec -> refine ----------------------------
    #
    #      A ----\
    #             [product: matmul] ---\
    #      B ----/                      [projected: matvec] --\
    #      x --------------------------/                       |
    #                                                          v
    #      M -----------------------------------> [refined: refine]
    #
    projected = MatVec(MatMul(a, b, name="product"), x, name="projected")
    refined = Refine(matrix, projected, name="refined")
    graph = Graph(refined)
    print(graph.describe())
    print()

    # -- compile once, run twice: the second run is all-warm ------------------
    solver = Solver(ArraySpec(W), options=rhs_options)
    compiler = GraphCompiler(solver)
    program = compiler.compile(graph)
    print(program.describe())
    print()

    cold = program.run()
    warm = program.run()
    print(f"cold run:  {cold.total_seconds * 1e3:7.2f} ms, "
          f"{cold.compile_plan_builds + cold.plan_builds} plan build(s)")
    print(f"warm run:  {warm.total_seconds * 1e3:7.2f} ms, "
          f"{warm.plan_builds} plan build(s)  (warm={warm.warm})")
    expected = np.linalg.solve(matrix, a @ b @ x)
    assert np.allclose(warm.output("refined"), expected, atol=1e-8)
    print("verified:  refined output matches numpy.linalg.solve")
    print()
    print(warm.describe())
    print()

    # -- fuse: (A B) x  ->  A (B x), no O(n^3) stage --------------------------
    fused_program = GraphCompiler(solver, fuse=True).compile(graph)
    fused_program.run()  # warm the rewritten matvec plans
    start = time.perf_counter()
    fused = fused_program.run()
    fused_seconds = time.perf_counter() - start
    assert np.allclose(fused.output("refined"), expected, atol=1e-8)
    print(f"fused run: {fused_seconds * 1e3:7.2f} ms with "
          f"{fused.fused_rewrites} matmul->matvec rewrite(s) "
          f"(vs {warm.total_seconds * 1e3:.2f} ms unfused)")
    print()

    # -- the same graph through the serving layer -----------------------------
    with SolverService(ArraySpec(W), n_shards=4, options=rhs_options) as service:
        first = service.solve_graph(graph)
        again = service.solve_graph(graph)
        assert np.allclose(again.output("refined"), expected, atol=1e-8)
        assert again.warm, "re-submitted graph must run on warm plans"
        stats = service.stats()
    print(f"service:   2 submissions, warm re-submission built "
          f"{again.compile_plan_builds + again.plan_builds} plan(s)")
    print(stats.describe())


if __name__ == "__main__":
    main()
