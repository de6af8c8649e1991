"""Unified plan/execute solver façade for the whole package.

This subpackage is the single front door to every workload the
reproduction implements::

    import numpy as np
    from repro.api import ArraySpec, Solver

    solver = Solver(ArraySpec(w=4))
    a = np.random.default_rng(0).normal(size=(10, 7))
    x = np.random.default_rng(1).normal(size=7)

    solution = solver.solve("matvec", a, x)     # first solve compiles a plan
    again = solver.solve("matvec", a, x)        # same shape: cache hit
    assert again.from_cache
    print(again.summary())

Key pieces:

* :class:`~repro.api.config.ArraySpec` / :class:`~repro.api.config.ExecutionOptions`
  — the configuration layer replacing the seed's scattered kwargs.
* :class:`~repro.api.solver.Solver` — registry-dispatched façade over the
  problem kinds (``matvec``, ``matmul``, ``lu``, ``triangular``,
  ``sparse``, the iterative kinds, the NN kinds and the comparison
  baselines), returning the common :class:`~repro.api.solution.Solution`
  protocol.  A string call builds the kind's typed problem
  (:func:`repro.graph.problem_types`), so its keywords are the typed
  constructor's: each option keyword is the :class:`ExecutionOptions`
  field it overrides.
* :meth:`~repro.api.solver.Solver.plan` — the explicit compile step: an
  immutable, LRU-cached :class:`~repro.api.plan.ExecutionPlan` keyed by
  ``(kind, shapes, w, options)``; warm solves stream values only.
* :meth:`~repro.api.solver.Solver.solve_batch` — one plan across a list
  of operand sets, with automatic pairwise-overlapped matvec execution
  (through :meth:`~repro.api.solver.Solver.execute_many`, the group path).
"""

from .config import ArraySpec, ExecutionOptions
from .plan import CacheStats, ExecutionPlan, InnerPlans, PlanCache, PlanKey
from .registry import ProblemHandler, get_handler, register, registered_kinds
from .solution import FeedbackStats, Solution
from .solver import Solver

__all__ = [
    "ArraySpec",
    "CacheStats",
    "ExecutionOptions",
    "ExecutionPlan",
    "FeedbackStats",
    "InnerPlans",
    "PlanCache",
    "PlanKey",
    "ProblemHandler",
    "Solution",
    "Solver",
    "get_handler",
    "register",
    "registered_kinds",
]
