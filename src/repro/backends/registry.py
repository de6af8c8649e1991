"""The execution engines and the ``auto`` resolution rule.

The package can *execute* a compiled plan in two ways:

``simulate``
    The register-level / cycle-faithful simulators in
    :mod:`repro.systolic`.  Authoritative for anything cycle-level —
    data-flow traces, output streams, per-cell activity — and the
    oracle the fast engine is checked against.

``vectorized``
    The NumPy diagonal-sweep engines in
    :mod:`repro.backends.vectorized`.  Every cached plan's sweep schedule
    depends only on ``(kind, shapes, w, options)``, so it is lowered once
    at plan build into a value-independent skeleton — for mat-vec, one
    lane-rotated multiply plus one sequential prefix sum — that replays
    the *same* multiply-accumulate order each array cell would perform.
    Values are bit-identical to the simulator's and the step/utilization
    metrics come from the same structural quantities; no per-cycle state
    is kept, which makes large-``N`` solves orders of magnitude faster.

``auto``
    Resolution rule, not an engine: ``simulate`` when a cycle-level
    artifact (a data-flow trace) was requested, ``vectorized`` otherwise.
"""

from __future__ import annotations

import difflib
from typing import Tuple

from ..errors import BackendError

__all__ = [
    "AUTO_BACKEND",
    "SIMULATE",
    "VECTORIZED",
    "available_backends",
    "resolve_backend",
]

#: Name of the resolution pseudo-backend.
AUTO_BACKEND = "auto"
#: Name of the cycle-accurate simulator backend.
SIMULATE = "simulate"
#: Name of the NumPy diagonal-sweep backend.
VECTORIZED = "vectorized"

_BACKENDS = (SIMULATE, VECTORIZED)


def available_backends() -> Tuple[str, ...]:
    """The engine names, sorted (``auto`` is a rule, not a backend)."""
    return _BACKENDS


def resolve_backend(name: str = AUTO_BACKEND, record_trace: bool = False) -> str:
    """Resolve a requested backend name into a concrete engine name.

    ``auto`` picks ``vectorized`` for plain value/metric execution and
    ``simulate`` when a data-flow trace is requested.  Unknown names
    raise :class:`~repro.errors.BackendError` with a did-you-mean hint,
    and so does ``vectorized`` with a requested trace, instead of
    silently dropping the trace.
    """
    if name == AUTO_BACKEND:
        return SIMULATE if record_trace else VECTORIZED
    if name not in _BACKENDS:
        names = _BACKENDS + (AUTO_BACKEND,)
        message = f"unknown execution backend {name!r}; available: {', '.join(names)}"
        close = difflib.get_close_matches(str(name), names, n=1)
        if close:
            message += f"; did you mean {close[0]!r}?"
        raise BackendError(message)
    if record_trace and name != SIMULATE:
        raise BackendError(
            f"backend {name!r} cannot record a data-flow trace; use "
            f"backend={SIMULATE!r} (or backend={AUTO_BACKEND!r}) when "
            f"record_trace is set"
        )
    return name
