"""repro: size-independent matrix problems on fixed-size systolic arrays.

A faithful, executable reproduction of

    J.J. Navarro, J.M. Llaberia, M. Valero,
    "Computing Size-Independent Matrix Problems on Systolic Array
    Processors", ISCA 1986, pp. 271-278.

The package contains the paper's DBT transformations (``repro.core``),
cycle-accurate simulators of H.T. Kung's linear and hexagonal contraflow
systolic arrays (``repro.systolic``), the matrix infrastructure they share
(``repro.matrices``), the comparison strategies the paper cites
(``repro.baselines``), the applications Section 4 mentions
(``repro.extensions``), and figure/report regeneration helpers
(``repro.analysis``).

Quickstart (typed problems through the plan/execute façade)::

    import numpy as np
    from repro import ArraySpec, MatVec, Solver

    solver = Solver(ArraySpec(w=4))
    A = np.random.default_rng(0).normal(size=(10, 7))
    x = np.random.default_rng(1).normal(size=7)
    solution = solver.solve(MatVec(A, x))
    assert np.allclose(solution.values, A @ x)
    print(solution.summary())

Multi-stage workloads compose typed problems into pipeline graphs
(``repro.graph``) that compile once and execute as a whole::

    from repro import Graph, GraphCompiler, MatMul

    y = MatMul(A2, B2) @ x2                     # lazy DAG via operator sugar
    result = GraphCompiler(solver).run(Graph(y))

The string spelling ``solver.solve("matvec", A, x)`` remains a supported
shim over the typed problems.
"""

from .api import (
    ArraySpec,
    ExecutionOptions,
    ExecutionPlan,
    Solution,
    Solver,
)
from .backends import available_backends, resolve_backend
from .core.analytic import (
    MatMulModel,
    MatVecModel,
    matmul_steps,
    matmul_utilization,
    matvec_steps,
    matvec_utilization,
)
from .core.dbt import DBTByRowsTransform, dbt_by_rows
from .core.dbt_transposed import DBTTransposedByRowsTransform, dbt_transposed_by_rows
from .core.matmul import MatMulSolution
from .core.matvec import MatVecSolution
from .core.operands import MatMulOperands
from .core.recovery import PartialResultMap
from .errors import (
    ArraySizeError,
    BackendError,
    BandwidthError,
    ConvergenceError,
    DeadlineExceededError,
    FeedbackError,
    GraphCycleError,
    GraphError,
    RecoveryError,
    ReproError,
    ScheduleError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShapeError,
    SimulationError,
    TransformError,
)
from .graph import (
    CG,
    LU,
    Graph,
    GraphCompiler,
    Jacobi,
    MatMul,
    MatVec,
    PipelineProgram,
    PipelineResult,
    Power,
    Problem,
    Ref,
    Refine,
    SOR,
    Sparse,
    Triangular,
    problem_types,
)
from .iterative import ConvergenceCriteria, IterativeResult
from .matrices.banded import BandMatrix
from .nn import (
    MLP,
    Bias,
    Dense,
    Dequantize,
    QuantParams,
    Quantize,
    QuantizedMLP,
    Relu,
)
from .matrices.blocks import BlockGrid
from .service import ServiceStats, SolverService
from .systolic.feedback import ShiftRegisterFeedback, SpiralFeedbackTopology
from .systolic.hex_array import HexagonalArray
from .systolic.linear_array import LinearContraflowArray, LinearProblem

__version__ = "1.1.0"

__all__ = [
    "ArraySizeError",
    "ArraySpec",
    "BackendError",
    "BandMatrix",
    "BandwidthError",
    "Bias",
    "BlockGrid",
    "CG",
    "ConvergenceCriteria",
    "ConvergenceError",
    "DBTByRowsTransform",
    "DBTTransposedByRowsTransform",
    "DeadlineExceededError",
    "Dense",
    "Dequantize",
    "ExecutionOptions",
    "ExecutionPlan",
    "FeedbackError",
    "Graph",
    "GraphCompiler",
    "GraphCycleError",
    "GraphError",
    "HexagonalArray",
    "IterativeResult",
    "Jacobi",
    "LU",
    "LinearContraflowArray",
    "LinearProblem",
    "MLP",
    "MatMul",
    "MatMulModel",
    "MatMulOperands",
    "MatMulSolution",
    "MatVec",
    "MatVecModel",
    "MatVecSolution",
    "PartialResultMap",
    "PipelineProgram",
    "PipelineResult",
    "Power",
    "Problem",
    "QuantParams",
    "Quantize",
    "QuantizedMLP",
    "RecoveryError",
    "Ref",
    "Refine",
    "Relu",
    "ReproError",
    "SOR",
    "ScheduleError",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStats",
    "ShapeError",
    "ShiftRegisterFeedback",
    "SimulationError",
    "Solution",
    "Solver",
    "SolverService",
    "Sparse",
    "SpiralFeedbackTopology",
    "TransformError",
    "Triangular",
    "__version__",
    "available_backends",
    "dbt_by_rows",
    "dbt_transposed_by_rows",
    "matmul_steps",
    "matmul_utilization",
    "matvec_steps",
    "matvec_utilization",
    "problem_types",
    "resolve_backend",
]
