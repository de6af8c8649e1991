"""Convergence control for the plan-cached iterative solvers.

One frozen — therefore hashable, therefore plan-key-able —
:class:`ConvergenceCriteria` gathers every stopping knob the
:mod:`repro.iterative` solvers share: absolute and relative residual
tolerances, the iteration cap, and a divergence guard.  It rides inside
:class:`~repro.api.config.ExecutionOptions`, so two solves with different
criteria compile to (and cache under) different plans, exactly like any
other execution option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Dict

__all__ = [
    "ConvergenceCriteria",
    "store_declared_types",
    "store_field_hash",
    "stored_field_hash",
]

#: Declared field types (postponed annotations, so strings) that an
#: option dataclass stores exactly.
_SCALAR_TYPES: Dict[object, type] = {"bool": bool, "int": int, "float": float}


def store_declared_types(options: Any) -> None:
    """Store every bool/int/float field of a frozen option dataclass as its declared type.

    Equal options must encode to equal plan-key bytes.  ``omega=1``
    equals ``omega=1.0`` and hashes the same, so a solver caches
    them as one plan, but the canonical key encoding that places a plan
    on a shard and names its stored artifact tells ``1`` from ``1.0``
    (and ``0`` from ``False``, ``-0.0`` from ``0.0``).  Converting each
    field to its declared type, with ``-0.0`` stored as ``0.0``, makes
    equal options encode identically.

    Raises ``ValueError`` for a value the conversion would change
    (``200.5`` for an int, ``2`` for a bool) rather than rounding it,
    and for a NaN: ``nan != nan``, so a key holding one could never hit
    a cached plan.
    """
    for field_info in fields(options):
        declared = _SCALAR_TYPES.get(field_info.type)
        if declared is None:
            continue
        name = field_info.name
        value = getattr(options, name)
        try:
            stored = declared(value)
        except (TypeError, ValueError, OverflowError):
            stored = None
        else:
            if declared is float:
                if math.isnan(stored):
                    raise ValueError(f"{name} must not be NaN")
                stored += 0.0  # -0.0 + 0.0 is 0.0
        if stored is None or stored != value:
            raise ValueError(
                f"{name} must be exactly representable as "
                f"{declared.__name__}, got {value!r}"
            )
        object.__setattr__(options, name, stored)


def store_field_hash(options: Any) -> None:
    """Hash a frozen option dataclass's fields once, at construction.

    A plan key holds its options, and a plan-cache lookup hashes the key
    twice (probe, then ``move_to_end``); the dataclass-generated
    ``__hash__`` would rebuild and hash the field tuple each time.  The
    stored value is that same hash, so equal options still hash equal.
    """
    value = hash(tuple([getattr(options, item.name) for item in fields(options)]))
    object.__setattr__(options, "_hash", value)


def stored_field_hash(options: Any) -> int:
    """The ``__hash__`` of an option dataclass: its stored field hash."""
    return options._hash


@dataclass(frozen=True)
class ConvergenceCriteria:
    """When an iterative solve stops — and when it must not continue.

    ``atol`` / ``rtol``
        The iteration converges once the residual norm drops to
        ``atol + rtol * reference`` where the reference is the norm of
        the right-hand side (or the initial residual, for eigenproblems).
        At least one of the two must be positive.
    ``max_iter``
        Hard sweep cap.  Exhausting it is *not* an error: the result
        reports ``converged=False`` and carries the full history.
    ``divergence_ratio``
        Guard against runaway iterations: if the residual exceeds
        ``divergence_ratio * max(initial_residual, 1)`` — or stops being
        finite — the solver raises
        :class:`~repro.errors.ConvergenceError` instead of burning the
        remaining sweeps.  ``float("inf")`` disables the guard entirely
        (the legacy Gauss-Seidel behaviour: even a non-finite residual
        just keeps failing the convergence test until ``max_iter``).

    Fields are stored as their declared types and NaN is rejected (see
    :func:`store_declared_types`); the hash is computed once
    (:func:`store_field_hash`).
    """

    atol: float = 1e-10
    rtol: float = 0.0
    max_iter: int = 200
    divergence_ratio: float = 1e8

    def __post_init__(self) -> None:
        store_declared_types(self)
        if self.atol < 0.0 or self.rtol < 0.0:
            raise ValueError(
                f"tolerances must be >= 0, got atol={self.atol}, rtol={self.rtol}"
            )
        if self.atol == 0.0 and self.rtol == 0.0:
            raise ValueError("at least one of atol/rtol must be > 0")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.divergence_ratio > 1.0:
            raise ValueError(
                f"divergence_ratio must be > 1, got {self.divergence_ratio}"
            )
        store_field_hash(self)

    __hash__ = stored_field_hash

    def tolerance(self, reference: float) -> float:
        """The absolute residual threshold for a given reference norm."""
        return self.atol + self.rtol * reference

    def converged(self, residual: float, reference: float) -> bool:
        """Whether ``residual`` satisfies the stopping rule."""
        return residual <= self.tolerance(reference)

    def diverged(self, residual: float, initial_residual: float) -> bool:
        """Whether the divergence guard trips for ``residual``."""
        if math.isinf(self.divergence_ratio):
            return False
        if not math.isfinite(residual):
            return True
        return residual > self.divergence_ratio * max(initial_residual, 1.0)

    def merged(self, **overrides: object) -> "ConvergenceCriteria":
        """A copy with the given fields replaced (unknown names raise)."""
        return replace(self, **overrides)  # type: ignore[arg-type]
