"""Typed problems and composable pipeline graphs.

The front-door redesign of the package: instead of one isolated
stringly-typed call per problem (``solver.solve("matvec", a, x, b)``),
workloads are described as **typed problem objects** composed into **lazy
expression DAGs**, compiled once, and executed as a whole::

    import numpy as np
    from repro.api import ArraySpec, Solver
    from repro.graph import GraphCompiler, Graph, MatMul, MatVec, Refine

    solver = Solver(ArraySpec(w=4))
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(12, 12)), rng.normal(size=(12, 12))
    x = rng.normal(size=12)

    y = MatMul(A, B) @ x                    # operator sugar builds the DAG
    result = GraphCompiler(solver).run(y)   # compile + execute
    assert np.allclose(result.values, A @ B @ x)

    program = GraphCompiler(solver).compile(Graph(y))   # explicit compile
    warm = program.run()                                 # 0 plan builds
    assert warm.warm

Pieces:

* :mod:`~repro.graph.problems` — the typed problem classes
  (:class:`MatVec`, :class:`MatMul`, :class:`Triangular`, :class:`LU`,
  :class:`Jacobi`, :class:`SOR`, :class:`GaussSeidel`, :class:`CG`,
  :class:`Refine`, :class:`Power`, :class:`Sparse`, and the baselines
  :class:`PRT`, :class:`NaiveMatVec`, :class:`NaiveMatMul` and
  :class:`BlockPartitioned`), :class:`Ref` stage references, and the
  stable :func:`problem_types` ``kind -> class`` mapping.
* :mod:`~repro.graph.graph` — :class:`Graph`: build-time cycle
  rejection, shape inference/checking, and dependency levels.
* :mod:`~repro.graph.compiler` — :class:`GraphCompiler`: lowering
  through the solver's plan cache (shared stages dedup to one plan),
  same-plan matvec stage pairing onto overlapped array runs, and the
  opt-in matmul→matvec associativity rewrite (``fuse=True``).
* :mod:`~repro.graph.fusion` — the value-exact head→epilogue chain
  rewrite into single ``fused`` stages, applied whenever the base
  options resolve to the ``vectorized`` backend.
* :mod:`~repro.graph.program` — :class:`PipelineProgram` (the reusable
  compiled artifact), :class:`ProgramSegment` (its placed partition
  units: a run of levels on one shard) and :class:`PipelineResult` (per-stage solutions,
  outputs, residuals, latencies, cold/warm build accounting, and — when
  served — per-stage shard placements with modeled array-time
  accounting).

Whole graphs also execute through :mod:`repro.service`:
``service.submit_graph(graph)`` compiles a graph once and splits it into
placed segments streamed across shards, with every stage plan compiled
once and kept hot.
"""

from .compiler import GraphCompiler
from .graph import Graph, as_graph
from .problems import (
    CG,
    LU,
    PRT,
    BlockPartitioned,
    GaussSeidel,
    Jacobi,
    MatMul,
    MatVec,
    NaiveMatMul,
    NaiveMatVec,
    Power,
    Problem,
    Ref,
    Refine,
    SOR,
    Sparse,
    Triangular,
    problem_types,
)
from .program import (
    Binding,
    PipelineProgram,
    PipelineResult,
    PipelineStage,
    ProgramSegment,
)

__all__ = [
    "Binding",
    "BlockPartitioned",
    "CG",
    "GaussSeidel",
    "Graph",
    "GraphCompiler",
    "Jacobi",
    "LU",
    "MatMul",
    "MatVec",
    "NaiveMatMul",
    "NaiveMatVec",
    "PRT",
    "PipelineProgram",
    "PipelineResult",
    "PipelineStage",
    "ProgramSegment",
    "Power",
    "Problem",
    "Ref",
    "Refine",
    "SOR",
    "Sparse",
    "Triangular",
    "as_graph",
    "problem_types",
]
