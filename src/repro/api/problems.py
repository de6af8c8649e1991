"""Problem handlers: every workload of the package behind one registry.

The direct kinds — ``matvec``, ``matmul``, ``lu``, ``triangular``,
``sparse`` — the plan-cached iterative kinds — ``jacobi``, ``sor``,
``gauss_seidel``, ``cg``, ``refine``, ``power`` — plus the comparison
baselines the paper cites (``prt``, ``naive_matvec``, ``naive_matmul``,
``block_partitioned``) are each wrapped into a
:class:`~repro.api.registry.ProblemHandler` and registered at import
time.  Handlers normalize shapes for the plan-cache key, compile the
kind's executor, and return a :class:`~repro.api.solution.Solution`.  A
mat-vec or mat-mul executor already returns one (its ``raw`` is itself),
so those handlers return it unchanged; the blocked, iterative, sparse and
baseline handlers build one around their kind's result, kept in ``raw``.
:class:`~repro.api.plan.ExecutionPlan` sets every solution's
``plan_key``.

Every solve executes through a handler's positional ``execute``:
:meth:`~repro.api.solver.Solver.derive` turns a typed problem (or the
string call that builds one) into the operand tuple and execution
arguments ``execute`` takes, and ``solve_batch`` and graph stages feed
it the same way.  Every kind here links to its typed class through
:func:`repro.graph.problem_types` (see the ``problem_class`` property on
every handler).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..baselines.block_partition import BlockPartitionedMatVec
from ..baselines.naive_band import NaiveBlockMatMul, NaiveBlockMatVec
from ..baselines.prt import PRTMatVec
from ..core.plans import MatMulPlan, MatVecPlan, OverlappedMatVecPlan
from ..errors import ShapeError
from ..extensions.lu import SystolicLU
from ..extensions.sparse import BlockSparseMatVec
from ..extensions.triangular import SystolicTriangularSolver
from ..iterative import (
    ConjugateGradientSolver,
    IterativeRefinementSolver,
    IterativeResult,
    JacobiSolver,
    PowerIterationSolver,
    SORSolver,
)
from ..matrices.dense import as_matrix
from .config import ArraySpec, ExecutionOptions
from .registry import ProblemHandler, _pair_shape, register
from .solution import FeedbackStats, Solution

#: Imported for its registrations; it exports no names.
__all__: Tuple[str, ...] = ()


def _matrix_shape(value, name: str) -> Tuple[int, int]:
    return tuple(int(d) for d in as_matrix(value, name).shape)


def _square_side(shape, kind: str) -> Tuple[int]:
    """Normalize ``shape=n`` or ``shape=(n, n)`` into ``(n,)``."""
    if shape is None:
        raise ShapeError(f"{kind} needs shape=n (or an operand matrix)")
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    shape = tuple(int(d) for d in shape)
    if len(shape) == 1:
        return shape
    if len(shape) == 2 and shape[0] == shape[1]:
        return (shape[0],)
    raise ShapeError(f"{kind} needs a square problem, got shape {shape}")


class _SquareHandler(ProblemHandler):
    """Shapes of the kinds on one square matrix: ``(n,)``."""

    def shapes(self, *, operands=None, shape=None) -> Tuple[int]:
        if operands is not None:
            matrix_shape = _matrix_shape(operands[0], "matrix")
            if matrix_shape[0] != matrix_shape[1]:
                raise ShapeError(
                    f"{self.kind} needs a square matrix, got {matrix_shape}"
                )
            return (matrix_shape[0],)
        return _square_side(shape, self.kind)


# --------------------------------------------------------------------------- #
# matvec
# --------------------------------------------------------------------------- #
class MatVecHandler(ProblemHandler):
    """``y = A x + b`` on the ``w``-cell linear contraflow array."""

    kind = "matvec"

    def shapes(self, *, operands=None, shape=None) -> Tuple[int, int]:
        if operands is not None:
            return _matrix_shape(operands[0], "matrix")
        return _pair_shape(shape, self.kind)

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        n, m = shapes
        if options.overlapped:
            return OverlappedMatVecPlan(
                n, m, spec.w,
                record_trace=options.record_trace,
                backend=options.backend,
            )
        return MatVecPlan(
            n, m, spec.w,
            record_trace=options.record_trace,
            backend=options.backend,
        )

    def execute(self, plan, matrix, x, b=None) -> Solution:
        return plan.executor.execute(matrix, x, b)


# --------------------------------------------------------------------------- #
# matmul
# --------------------------------------------------------------------------- #
class MatMulHandler(ProblemHandler):
    """``C = A B + E`` on the ``w x w`` hexagonal array."""

    kind = "matmul"

    def shapes(self, *, operands=None, shape=None) -> Tuple[int, int, int]:
        if operands is not None:
            a_shape = _matrix_shape(operands[0], "A")
            b_shape = _matrix_shape(operands[1], "B")
            if a_shape[1] != b_shape[0]:
                raise ShapeError(
                    f"cannot multiply shapes {a_shape} and {b_shape}"
                )
            return (a_shape[0], a_shape[1], b_shape[1])
        if shape is None:
            raise ShapeError(
                f"{self.kind} needs shape=(n, p, m) or ((n, p), (p, m))"
            )
        shape = tuple(shape)
        if len(shape) == 3:
            return tuple(int(d) for d in shape)
        if len(shape) == 2 and all(hasattr(s, "__len__") for s in shape):
            (n, p), (p2, m) = (tuple(map(int, s)) for s in shape)
            if p != p2:
                raise ShapeError(
                    f"cannot multiply shapes {(n, p)} and {(p2, m)}"
                )
            return (n, p, m)
        raise ShapeError(f"{self.kind} needs shape=(n, p, m), got {shape}")

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        n, p, m = shapes
        return MatMulPlan(
            n, p, m, spec.w,
            verify_structure=options.verify_structure,
            backend=options.backend,
        )

    def execute(self, plan, a, b, e=None) -> Solution:
        return plan.executor.execute(a, b, e)


# --------------------------------------------------------------------------- #
# triangular solve
# --------------------------------------------------------------------------- #
class TriangularHandler(_SquareHandler):
    """``T x = b`` by blocks; products on the array, diagonal solves on host."""

    kind = "triangular"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return SystolicTriangularSolver(spec.w, backend=options.backend)

    def execute(self, plan, matrix, b, lower: bool = True) -> Solution:
        solver = plan.executor
        solve = solver.solve_lower if lower else solver.solve_upper
        result = solve(matrix, b, plans=plan.inner_plans())
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=result.x,
            measured_steps=result.array_steps,
            stats={
                "array_share": result.array_share,
                "host_operations": result.host_operations,
                "block_solves": result.block_solves,
                "matvec_calls": result.matvec_calls,
                "residual_norm": result.residual_norm,
                "lower": lower,
            },
            raw=result,
        )


# --------------------------------------------------------------------------- #
# LU factorization
# --------------------------------------------------------------------------- #
class LUHandler(_SquareHandler):
    """Blocked LU ``A = L U``; trailing updates on the hexagonal array."""

    kind = "lu"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return SystolicLU(spec.w, backend=options.backend)

    def execute(self, plan, matrix) -> Solution:
        result = plan.executor.factor(matrix, plans=plan.inner_plans())
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=(result.l, result.u),
            measured_steps=result.array_steps,
            stats={
                "array_share": result.array_share,
                "host_operations": result.host_operations,
                "update_calls": result.update_calls,
                "residual_norm": result.residual(matrix),
            },
            raw=result,
        )


# --------------------------------------------------------------------------- #
# iterative solvers (jacobi / sor / gauss_seidel / cg / refine / power)
# --------------------------------------------------------------------------- #
class _IterativeHandler(_SquareHandler):
    """Shared adapter for the :mod:`repro.iterative` plan-cached solvers.

    The compiled "plan" is the configured solver; its per-sweep products
    are plans of the same solver cache (``plan.inner_plans()``), which a
    k-sweep solve keeps hot and repeated same-shape requests through
    :mod:`repro.service` reuse across jobs.
    """

    def _wrap(self, plan, result: IterativeResult) -> Solution:
        stats = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual_norm": result.residual_norm,
            "plan_builds_first_sweep": result.plan_builds_first_sweep,
            "plan_builds_warm_sweeps": result.plan_builds_warm_sweeps,
            "cache": result.cache,
        }
        if result.eigenvalue is not None:
            stats["eigenvalue"] = result.eigenvalue
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=result.x,
            measured_steps=result.array_steps,
            stats=stats,
            raw=result,
        )

    def execute(self, plan, matrix, b, x0=None) -> Solution:
        return self._wrap(
            plan, plan.executor.solve(matrix, b, x0, plans=plan.inner_plans())
        )


class JacobiHandler(_IterativeHandler):
    """``A x = b`` by ``x_{k+1} = D^{-1} (b - R x_k)``."""

    kind = "jacobi"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return JacobiSolver(
            spec.w, criteria=options.criteria, backend=options.backend
        )


class SORHandler(_IterativeHandler):
    """``A x = b`` by weighted Gauss-Seidel relaxation (``omega``)."""

    kind = "sor"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return SORSolver(
            spec.w,
            omega=options.omega,
            criteria=options.criteria,
            backend=options.backend,
        )


class ConjugateGradientHandler(_IterativeHandler):
    """``A x = b`` for SPD ``A`` by conjugate gradients."""

    kind = "cg"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return ConjugateGradientSolver(
            spec.w, criteria=options.criteria, backend=options.backend
        )


class IterativeRefinementHandler(_IterativeHandler):
    """``A x = b`` by blocked LU plus refinement sweeps."""

    kind = "refine"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return IterativeRefinementSolver(
            spec.w, criteria=options.criteria, backend=options.backend
        )


class PowerIterationHandler(_IterativeHandler):
    """Dominant eigenpair of a square matrix by power iteration."""

    kind = "power"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return PowerIterationSolver(
            spec.w, criteria=options.criteria, backend=options.backend
        )

    def execute(self, plan, matrix, x0=None) -> Solution:
        return self._wrap(
            plan, plan.executor.solve(matrix, x0, plans=plan.inner_plans())
        )


class GaussSeidelHandler(SORHandler):
    """The ``sor`` handler under :class:`~repro.graph.GaussSeidel`'s presets."""

    kind = "gauss_seidel"


# --------------------------------------------------------------------------- #
# block-sparse matvec
# --------------------------------------------------------------------------- #
class SparseHandler(MatVecHandler):
    """``y = A x + b`` skipping zero ``w x w`` blocks of the operand.

    The band layout of the sparse transform depends on the operand's
    sparsity *pattern* (a value property), so the compiled plan holds the
    configured pipeline rather than a band skeleton; the transform is
    rebuilt per solve, exactly as the paper's refinement requires.
    """

    kind = "sparse"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return BlockSparseMatVec(
            spec.w, tolerance=options.tolerance, backend=options.backend
        )

    def execute(self, plan, matrix, x, b=None) -> Solution:
        result = plan.executor.solve(matrix, x, b)
        delays = result.run.feedback_delays() if result.run is not None else []
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=result.y,
            measured_steps=result.measured_steps,
            predicted_steps=result.dense_steps,
            measured_utilization=result.measured_utilization,
            feedback=FeedbackStats.from_delays(delays),
            stats={
                "saving": result.saving,
                "dense_steps": result.dense_steps,
                "nonzero_blocks": result.transform.nonzero_block_count,
                "skipped_blocks": result.transform.skipped_block_count,
                "separators": result.transform.separator_count,
            },
            raw=result,
        )


# --------------------------------------------------------------------------- #
# comparison baselines: each keeps the shapes of the kind it stands in for
# --------------------------------------------------------------------------- #
class PRTHandler(MatVecHandler):
    """Priester et al. single-block transformation (DBT with n_bar=m_bar=1)."""

    kind = "prt"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return PRTMatVec(spec.w, backend=options.backend)

    def execute(self, plan, matrix, x, b=None) -> Solution:
        result = plan.executor.solve(matrix, x, b, plans=plan.inner_plans())
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=result.y,
            measured_steps=result.measured_steps,
            measured_utilization=result.measured_utilization,
            feedback=FeedbackStats.from_delays(result.run.feedback_delays()),
            stats={"array_size": plan.executor.array_size},
            raw=result,
        )


def _block_baseline_solution(plan, result) -> Solution:
    """Adapt a block-by-block host-accumulation baseline's result."""
    return Solution(
        kind=plan.kind,
        w=plan.spec.w,
        values=result.result,
        measured_steps=result.total_steps,
        measured_utilization=result.utilization,
        stats={
            "processing_elements": result.processing_elements,
            "block_runs": result.block_runs,
            "external_additions": result.external_additions,
        },
        raw=result,
    )


class NaiveMatVecHandler(MatVecHandler):
    """Block-by-block ``y = A x + b`` on a ``2w - 1`` cell array."""

    kind = "naive_matvec"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return NaiveBlockMatVec(spec.w, backend=options.backend)

    def execute(self, plan, matrix, x, b=None) -> Solution:
        return _block_baseline_solution(plan, plan.executor.solve(matrix, x, b))


class NaiveMatMulHandler(MatMulHandler):
    """Block-by-block ``C = A B + E`` on a ``(2w-1) x (2w-1)`` array."""

    kind = "naive_matmul"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return NaiveBlockMatMul(spec.w, backend=options.backend)

    def execute(self, plan, a, b, e=None) -> Solution:
        return _block_baseline_solution(plan, plan.executor.solve(a, b, e))


class BlockPartitionedHandler(MatVecHandler):
    """Block-partitioned ``y = A x + b`` on a ``w`` cell array."""

    kind = "block_partitioned"

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return BlockPartitionedMatVec(spec.w, backend=options.backend)

    def execute(self, plan, matrix, x, b=None) -> Solution:
        return _block_baseline_solution(plan, plan.executor.solve(matrix, x, b))


for _handler_class in (
    MatVecHandler,
    MatMulHandler,
    TriangularHandler,
    LUHandler,
    GaussSeidelHandler,
    SparseHandler,
    JacobiHandler,
    SORHandler,
    ConjugateGradientHandler,
    IterativeRefinementHandler,
    PowerIterationHandler,
    PRTHandler,
    NaiveMatVecHandler,
    NaiveMatMulHandler,
    BlockPartitionedHandler,
):
    register(_handler_class())

# The NN inference kinds (dense / bias / relu / quantize / dequantize)
# register themselves on import, exactly like the handlers above; pulling
# the module in here keeps "import repro.api" sufficient for every kind.
from ..nn import handlers as _nn_handlers  # noqa: E402,F401

# The fused-chain kind registers the same way: the graph compiler only
# *creates* fused stages, but a persisted fused plan must re-resolve its
# handler at load time through the ordinary registry path.
from ..graph import fusion as _graph_fusion  # noqa: E402,F401
