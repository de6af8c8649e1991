"""Plan-cached iterative solvers on the fixed-size systolic arrays.

Section 4 of the paper names iterative methods (Gauss-Seidel among them)
as workloads the size-independent methodology covers.  This subpackage
opens that whole scenario family: every solver drives its per-sweep
O(n^2) products through the plans of the solver's own plan cache, so a
k-iteration solve costs one plan compilation and k - 1 (or k) *warm*
vectorized executions — zero recompiles — end to end through the
:mod:`repro.service` layer.

Solvers (and their :class:`~repro.api.solver.Solver` registry kinds):

* :class:`~repro.iterative.jacobi.JacobiSolver` — ``"jacobi"``;
* :class:`~repro.iterative.sor.SORSolver` — ``"sor"`` (weighted
  Gauss-Seidel; ``omega=1`` is exactly the seed extension) and
  ``"gauss_seidel"``, the same kind under the presets ``omega=1`` and the
  seed's stopping rule;
* :class:`~repro.iterative.cg.ConjugateGradientSolver` — ``"cg"`` for
  SPD systems;
* :class:`~repro.iterative.refine.IterativeRefinementSolver` —
  ``"refine"``, wrapping the blocked LU pipeline;
* :class:`~repro.iterative.power.PowerIterationSolver` — ``"power"`` for
  the dominant eigenpair.

All return an :class:`~repro.iterative.result.IterativeResult` carrying
the residual history, convergence status, array step budget, the solve's
inner-plan :class:`~repro.instrumentation.CacheStats`, and the cold/warm
plan-build split; stopping is controlled by one hashable
:class:`~repro.iterative.criteria.ConvergenceCriteria` (which rides in
``ExecutionOptions`` and therefore in the plan key).

The canonical request spellings are the typed problems of
:mod:`repro.graph` — ``solver.solve(Jacobi(a, b))``,
``SOR(a, b, omega=1.4)``, ``CG(a, b, criteria=...)``, ``Refine(a, b)``,
``Power(a, x0=...)``, ``GaussSeidel(a, b, criteria=...)`` — whose
``criteria``/``omega`` keywords merge into the options (and hence the
plan key) exactly like the ``ExecutionOptions`` fields of those names.  As pipeline stages they compose
with every other kind: ``LU(a).then(Refine(b))`` sequences refinement
after a factorization, and a stage reference as ``x0`` warm-starts one
method from another's output (``Power(a, x0=SOR(a, b))``).
"""

from .base import PlanCachedIterativeSolver
from .cg import ConjugateGradientSolver
from .criteria import ConvergenceCriteria
from .jacobi import JacobiSolver
from .power import PowerIterationSolver
from .refine import IterativeRefinementSolver
from .result import IterativeResult
from .sor import SORSolver

__all__ = [
    "ConjugateGradientSolver",
    "ConvergenceCriteria",
    "IterativeRefinementSolver",
    "IterativeResult",
    "JacobiSolver",
    "PlanCachedIterativeSolver",
    "PowerIterationSolver",
    "SORSolver",
]
