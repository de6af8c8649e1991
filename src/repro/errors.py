"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems (bad shapes, bad
array sizes) from simulation problems (schedule violations, feedback
underruns).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ShapeError(ReproError, ValueError):
    """An operand has a shape incompatible with the requested operation."""


class BandwidthError(ReproError, ValueError):
    """A band matrix was built or used with an invalid bandwidth."""


class ArraySizeError(ReproError, ValueError):
    """The systolic array size ``w`` is invalid for the requested problem."""


class TransformError(ReproError):
    """A DBT transformation could not be constructed or is inconsistent."""


class ScheduleError(ReproError):
    """A systolic data-flow schedule violates a structural constraint.

    Raised, for example, when two values are scheduled into the same input
    port on the same cycle, or when a feedback value is required before the
    array has produced it.
    """


class FeedbackError(ScheduleError):
    """A feedback path was used before its source value was available."""


class SimulationError(ReproError):
    """The cycle-accurate simulation reached an inconsistent state."""


class RecoveryError(ReproError):
    """Result recovery from the array output band failed a consistency check."""


class ProblemKindError(ReproError, KeyError):
    """An unknown problem kind was requested from the solver registry."""


class PlanError(ReproError):
    """An execution plan was built or used inconsistently."""


class BackendError(ReproError, ValueError):
    """An unknown execution backend was requested, or the requested
    backend cannot satisfy the execution options (e.g. a data-flow trace
    from the vectorized engine)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solve diverged (or hit a numerical breakdown).

    Raised by the :mod:`repro.iterative` solvers when the residual stops
    being finite, grows past the :class:`~repro.iterative.criteria.ConvergenceCriteria`
    divergence guard, or a method-specific invariant breaks (e.g. a
    non-positive curvature direction in conjugate gradient).  Exhausting
    ``max_iter`` without converging is *not* an error — the result simply
    reports ``converged=False``.
    """

    def __init__(
        self,
        message: str,
        iterations: int = 0,
        residual_norm: float = float("nan"),
    ):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class GraphError(ReproError):
    """A problem graph was built or used inconsistently.

    Raised by :mod:`repro.graph` when a pipeline node is malformed in a
    way that is not a plain shape mismatch — an unbound operand slot
    (``Refine(b)`` never sequenced after a matrix-carrying stage), a
    reference into a node that is not part of the graph, or a typed
    problem carrying stage references handed to the single-problem
    :meth:`~repro.api.solver.Solver.solve` path.
    """


class GraphCycleError(GraphError):
    """A problem graph contains a reference cycle.

    Pipeline graphs must be acyclic: a stage cannot (transitively) consume
    its own output.  Raised at graph *build* time, before any plan is
    compiled or operand is streamed.
    """


class PlanStoreError(ReproError):
    """A plan-store artifact could not be written.

    Raised only on the *write* side of :class:`repro.store.PlanStore`
    (an unwritable directory, a full disk, a key it cannot encode).
    The read side never raises: any unreadable, corrupt, truncated or
    version-skewed artifact is counted and skipped, so a warm start
    builds one plan fewer — persistence can slow a cold start but can
    never take a serving process down.
    """


class PlanFormatError(ReproError):
    """A plan-store artifact failed validation: framing, checksum or key.

    Internal to the store layer: :class:`repro.store.PlanStore` counts it
    and skips the artifact, so it never escapes to a caller.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` layer."""


class ServiceOverloadedError(ServiceError):
    """A shard queue was full and the backpressure policy dropped the request.

    Raised synchronously from ``submit`` under the ``"reject"`` policy, or
    delivered through the shed request's future under ``"shed_oldest"``.
    """


class ServiceClosedError(ServiceError):
    """A request was submitted to (or was still pending in) a closed service."""


class DeadlineExceededError(ServiceError):
    """A request's deadline elapsed before a worker could execute it."""


class RateLimitedError(ServiceError):
    """A client exceeded its per-client admission rate limit.

    Raised synchronously from ``SolverService.submit`` /
    ``submit_graph`` when the client's token bucket is empty — a typed
    rejection the caller can distinguish from queue overload
    (:class:`ServiceOverloadedError`) and back off on.
    """
