"""The problem registry behind the unified solver façade.

Each problem kind the package can solve is described by a
:class:`ProblemHandler` and registered under a string key ("matvec",
"matmul", "lu", "triangular", "sparse", the iterative kinds, the NN
inference kinds of :mod:`repro.nn` — "dense", "bias", "relu",
"quantize", "dequantize" — plus the comparison baselines).  The
:class:`~repro.api.solver.Solver` façade resolves kinds through this
registry, so adding a workload is: implement a handler, call
:func:`register`, and register its typed problem class
(:func:`repro.graph.problems.register_problem_type`), which every call
of the kind derives through — no façade changes; unknown-kind
did-you-mean suggestions and :func:`registered_kinds` pick the new kind
up for free.
"""

from __future__ import annotations

import difflib
from typing import Dict, Optional, Tuple

from ..errors import ProblemKindError, ShapeError
from .config import ArraySpec, ExecutionOptions
from .solution import Solution

__all__ = ["ProblemHandler", "register", "get_handler", "registered_kinds"]


class ProblemHandler:
    """Interface one problem kind implements to join the registry.

    ``kind``
        The registry key.
    ``shapes(...)``
        Normalize either an operand set or an explicit ``shape=`` spec
        into the hashable shape tuple that keys the plan cache.
    ``build(...)``
        Compile the plan executor for one ``(spec, options, shapes)``.
    ``execute(...)``
        Stream one operand set through a compiled plan and return its
        :class:`Solution`.  The array kinds' executors already return one
        (a :class:`~repro.core.matvec.MatVecSolution` or
        :class:`~repro.core.matmul.MatMulSolution`), so their handlers
        return it as is; the other kinds build one around their result,
        kept in ``raw``.  The :class:`~repro.api.plan.ExecutionPlan` that
        calls ``execute`` sets ``plan_key``.  Its positional operands and
        keyword arguments are what a typed problem's ``operand_values()``
        and ``execute_kwargs()`` return, and what
        :meth:`~repro.api.solver.Solver.derive` hands on.
    """

    kind: str = ""

    def shapes(
        self,
        *,
        operands: Optional[Tuple] = None,
        shape=None,
    ) -> Tuple:
        raise NotImplementedError

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes: Tuple):
        raise NotImplementedError

    def execute(self, plan, *operands, **kwargs) -> Solution:
        raise NotImplementedError

    @property
    def problem_class(self) -> Optional[type]:
        """The typed problem class for this kind (``None`` for ``fused``).

        The stable ``kind -> problem class`` mapping lives in
        :func:`repro.graph.problem_types`; this property is the per-handler
        view of it.
        """
        from ..graph.problems import problem_types

        return problem_types().get(self.kind)


def _pair_shape(shape, kind: str) -> Tuple[int, int]:
    """Normalize ``shape=(n, m)`` into a 2-tuple of ints."""
    if shape is None:
        raise ShapeError(f"{kind} needs shape=(n, m) (or an operand matrix)")
    shape = tuple(int(d) for d in shape)
    if len(shape) != 2:
        raise ShapeError(f"{kind} needs shape=(n, m), got {shape}")
    return shape


_REGISTRY: Dict[str, ProblemHandler] = {}


def register(handler: ProblemHandler) -> ProblemHandler:
    """Register a handler under its ``kind`` (last registration wins)."""
    if not handler.kind:
        raise ValueError(f"handler {handler!r} declares no kind")
    _REGISTRY[handler.kind] = handler
    return handler


def get_handler(kind: str) -> ProblemHandler:
    """The handler for ``kind``; raises :class:`ProblemKindError` if unknown.

    Unknown kinds name the nearest registered kind (when one is close
    enough) so a typo like ``"matvce"`` points straight at ``"matvec"``
    instead of a bare KeyError.
    """
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        message = f"unknown problem kind {kind!r}"
        close = difflib.get_close_matches(str(kind), list(_REGISTRY), n=1)
        if close:
            message += f"; did you mean {close[0]!r}?"
        raise ProblemKindError(
            f"{message} (registered kinds: {known})"
        ) from None


def registered_kinds() -> Tuple[str, ...]:
    """All registered problem kinds, sorted."""
    return tuple(sorted(_REGISTRY))
