"""Execution backends: how a compiled plan turns operand values into results.

The plan/execute split of :mod:`repro.api` compiles everything
shape-determined once; *backends* are the two engines that stream values
through a compiled plan:

* ``simulate`` — the register-level simulators of :mod:`repro.systolic`
  (cycle-accurate; the oracle, and the only backend that records
  data-flow traces);
* ``vectorized`` — NumPy diagonal-sweep engines that replay the same MAC
  order without per-cycle state (bit-identical values and metrics,
  orders of magnitude faster on large problems);
* ``auto`` — the resolution rule: simulator when a trace is requested,
  vectorized otherwise.

See :mod:`repro.backends.registry` for the resolver and
:mod:`repro.backends.vectorized` for the sweep engines.
"""

from .registry import (
    AUTO_BACKEND,
    SIMULATE,
    VECTORIZED,
    available_backends,
    resolve_backend,
)

__all__ = [
    "AUTO_BACKEND",
    "SIMULATE",
    "VECTORIZED",
    "available_backends",
    "resolve_backend",
]
