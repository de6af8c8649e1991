"""Typed problem objects: the canonical request representation.

Each problem kind a string call can name has a typed counterpart here —
:class:`MatVec`, :class:`MatMul`, :class:`Triangular`, :class:`LU`,
:class:`Jacobi`, :class:`SOR`, :class:`GaussSeidel`, :class:`CG`,
:class:`Refine`, :class:`Power`, :class:`Sparse` and the comparison
baselines :class:`PRT`, :class:`NaiveMatVec`, :class:`NaiveMatMul` and
:class:`BlockPartitioned` — and ``solver.solve("matvec", a, x, b)``
builds the typed problem before it solves.  A typed problem carries

* its **operand slots** (concrete arrays, or :class:`Ref` references to
  the outputs of other problems, which is what composes problems into
  pipeline graphs),
* its **option keywords** (:attr:`Problem.option_keywords`: each is an
  :class:`ExecutionOptions` field, spelled as that field —
  ``overlapped=``, ``omega=``, ``criteria=``, ``tolerance=`` — merged
  over the kind's :attr:`Problem.presets` into the solver's options),
  and
* a **derived plan key** — ``(kind, shapes, w, options)`` — identical to
  the key the string-kind path would compute, so typed requests land on
  the same cached :class:`~repro.api.plan.ExecutionPlan` (and the same
  :mod:`repro.service` shard) as their string spellings.

Composition sugar::

    y = MatMul(A, B) @ x            # matvec on the matmul's output
    z = A @ Jacobi(M, b)            # ndarray @ problem works too
    r = LU(A).then(Refine(b))       # sequence, binding Refine's matrix
                                    # (ordering only; see Problem.then)
    t = Triangular(LU(A).lower, c)  # factor selection via Ref items

The stable ``kind -> problem class`` mapping is :func:`problem_types`.
"""

from __future__ import annotations

import copy
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Type,
)
from types import MappingProxyType

import numpy as np

from ..api.config import ExecutionOptions
from ..errors import GraphError, ShapeError
from ..iterative.criteria import ConvergenceCriteria

__all__ = [
    "BlockPartitioned",
    "CG",
    "GaussSeidel",
    "LU",
    "Jacobi",
    "MatMul",
    "MatVec",
    "NaiveMatMul",
    "NaiveMatVec",
    "PRT",
    "Power",
    "Problem",
    "Ref",
    "Refine",
    "SOR",
    "Sparse",
    "Triangular",
    "problem_types",
    "register_problem_type",
]

#: A shape resolver: maps one operand slot value (array or Ref) to its
#: shape tuple, raising ShapeError with slot context on mismatch.
ShapeOf = Callable[[Any, str], Tuple[int, ...]]


class Ref:
    """A reference to the output of another pipeline node.

    ``item`` selects one element of a multi-valued output (the LU kind
    produces the factor pair ``(L, U)``; ``Ref(lu, 0)`` is ``L``).
    Problems used directly in an operand slot are wrapped into a ``Ref``
    automatically, so explicit construction is only needed for ``item``
    selection — and :attr:`LU.lower` / :attr:`LU.upper` cover that.
    """

    __slots__ = ("node", "item")

    def __init__(self, node: "Problem", item: Optional[int] = None):
        if not isinstance(node, Problem):
            raise TypeError(
                f"Ref targets a typed problem node, got {type(node).__name__}"
            )
        self.node = node
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = "" if self.item is None else f"[{self.item}]"
        return f"Ref({self.node!r}{suffix})"


def _operand(value: Any) -> Any:
    """Normalize one operand slot: problems become refs, arrays pass through."""
    if isinstance(value, Problem):
        return Ref(value)
    return value


def _unexpected_keyword(cls: type, keyword: str) -> TypeError:
    """The error Python raises for a keyword ``cls(...)`` does not take."""
    return TypeError(
        f"{cls.__name__}.__init__() got an unexpected keyword argument "
        f"{keyword!r}"
    )


class Problem:
    """Base class of the typed problem objects.

    Subclasses declare their registry ``kind``, what they ``produce``
    (``"vector"``, ``"matrix"`` or ``"factors"``), their operand slots,
    their option keywords and presets, and how operand shapes map to the
    handler's plan-key shape spec.  Identity is node identity: two
    separately constructed problems are two pipeline nodes even when
    their operands are equal.
    """

    kind: ClassVar[str] = ""
    #: What the node's ``Solution.values`` holds, for composition rules.
    produces: ClassVar[str] = "vector"
    #: The attributes behind :meth:`operand_values` and then
    #: :meth:`execute_kwargs`, one per slot and in their order: what
    #: :meth:`slot_values` reads and :meth:`with_slot_values` replaces.
    slots: ClassVar[Tuple[str, ...]] = ()
    #: The :class:`ExecutionOptions` fields the constructor takes as
    #: keywords of the same names; each is stored as an attribute of that
    #: name, ``None`` when unset.
    option_keywords: ClassVar[Tuple[str, ...]] = ()
    #: Options every solve of the kind runs under, beneath its keywords.
    presets: ClassVar[Mapping[str, Any]] = MappingProxyType({})

    #: Binary numpy ops defer to our reflected methods (``A @ problem``).
    __array_ufunc__ = None

    def __init__(
        self,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        if options is not None and not isinstance(options, ExecutionOptions):
            raise TypeError(
                f"options must be ExecutionOptions or None, got {options!r}"
            )
        for keyword in self.option_keywords:
            setattr(self, keyword, overrides.pop(keyword, None))
        if overrides:
            raise _unexpected_keyword(type(self), next(iter(overrides)))
        self.options = options
        self.name = name
        #: Pure ordering predecessors added by :meth:`then` — nodes that
        #: must complete first even though no value flows along the edge.
        self.after: Tuple["Problem", ...] = ()
        #: Whether :meth:`then` filled this node's matrix slot (partial
        #: nodes are one-shot; a second then() on one is an error).
        self._then_bound: bool = False

    # -- composition --------------------------------------------------------------
    def named(self, name: str) -> "Problem":
        """Set the node's pipeline name (chains: ``MatVec(a, x).named("y")``)."""
        self.name = str(name)
        return self

    def then(self, successor: "Problem") -> "Problem":
        """Sequence ``successor`` after this node and return it.

        If the successor was built in partial form with an unbound matrix
        slot (``LU(A).then(Refine(b))``), this node's own matrix operand
        is bound into it; either way an ordering edge is added so the
        successor executes after this node.

        ``then`` is an *ordering* combinator, not factor transplantation:
        ``LU(A).then(Refine(b))`` runs the LU stage (whose factor pair is
        available to other consumers via ``.lower``/``.upper``) and then
        a refine stage that factors internally as it always does.  When
        nothing else consumes the factors, plain ``Refine(A, b)`` does
        the same work once.
        """
        if not isinstance(successor, Problem):
            raise TypeError(
                f"then() sequences typed problems, got {type(successor).__name__}"
            )
        if getattr(successor, "matrix", False) is None:
            matrix = getattr(self, "matrix", None)
            if matrix is None:
                raise GraphError(
                    f"{type(successor).__name__} has no matrix bound and "
                    f"{type(self).__name__} carries none to forward"
                )
            setattr(successor, "matrix", matrix)
            successor._then_bound = True
        elif successor._then_bound:
            # The successor's matrix came from an earlier then(): quietly
            # keeping it while adding another ordering edge would solve
            # against the *first* predecessor's matrix — a silently wrong
            # answer.  Partial nodes are one-shot.
            raise GraphError(
                f"{type(successor).__name__} node was already sequenced by "
                f"a previous then() (its matrix is bound to that "
                f"predecessor's); build a fresh problem per pipeline stage"
            )
        successor.after = successor.after + (self,)
        return successor

    def __matmul__(self, other: Any) -> "Problem":
        if self.produces != "matrix":
            return NotImplemented
        if isinstance(other, (Problem, Ref)):
            target = other.node if isinstance(other, Ref) else other
            produces = target.produces
            if isinstance(other, Ref) and other.item is not None:
                produces = "matrix"  # a selected LU factor is a matrix
            if produces == "vector":
                return MatVec(self, other)
            if produces == "matrix":
                return MatMul(self, other)
            return NotImplemented
        ndim = len(np.shape(other))
        if ndim == 1:
            return MatVec(self, other)
        if ndim == 2:
            return MatMul(self, other)
        return NotImplemented

    def __rmatmul__(self, matrix: Any) -> "Problem":
        if len(np.shape(matrix)) != 2:
            return NotImplemented
        if self.produces == "vector":
            return MatVec(matrix, self)
        if self.produces == "matrix":
            return MatMul(matrix, self)
        return NotImplemented

    def require_bare(
        self,
        operands: Tuple[Any, ...] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        shape: Any = None,
    ) -> None:
        """Reject extra call arguments passed alongside a typed problem.

        The one guard every ``solve``/``plan_key``/``submit`` entry uses
        when handed a problem object instead of a kind string.
        """
        if operands or kwargs or shape is not None:
            raise TypeError(
                "typed problems carry their own operands and execution "
                "arguments; pass only the problem (and optionally options=)"
            )

    # -- the canonical call mapping -------------------------------------------------
    def operand_values(self) -> Tuple[Any, ...]:
        """The positional operand tuple, exactly as the handler expects it."""
        raise NotImplementedError

    def execute_kwargs(self) -> Dict[str, Any]:
        """Kind-specific execution arguments (``lower=``, ``x0=``, ...)."""
        return {}

    def slot_values(self) -> Tuple[Any, ...]:
        """Every operand and execution-argument slot, in :attr:`slots` order.

        Each is a :class:`Ref`, ``None`` (an unset optional slot) or a
        value; a slot's position here is its address within the node.
        """
        return tuple([getattr(self, name) for name in self.slots])

    def with_slot_values(self, values: Tuple[Any, ...]) -> "Problem":
        """A shallow copy of this node holding ``values`` in its slots."""
        clone = copy.copy(self)
        for name, value in zip(self.slots, values):
            setattr(clone, name, value)
        return clone

    def option_overrides(self) -> Dict[str, Any]:
        """Each of :attr:`option_keywords` with its value (``None`` = unset)."""
        return {keyword: getattr(self, keyword) for keyword in self.option_keywords}

    @classmethod
    def options_under(
        cls, base: ExecutionOptions, overrides: Mapping[str, Any]
    ) -> ExecutionOptions:
        """``base`` with this kind's :attr:`presets`, then ``overrides``, merged in.

        ``overrides`` maps option keywords to values, ``None`` meaning
        unset; a name outside :attr:`option_keywords` raises the
        ``TypeError`` the constructor would.
        """
        merged = dict(cls.presets) if cls.presets else {}  # dict(proxy) is slow
        for keyword, value in overrides.items():
            if keyword not in cls.option_keywords:
                raise _unexpected_keyword(cls, keyword)
            if value is not None:
                merged[keyword] = value
        return base.merged(**merged) if merged else base

    def resolved_options(self, base: ExecutionOptions) -> ExecutionOptions:
        """The options a solve of this problem runs under.

        The problem's own ``options`` (when set) replaces ``base``
        wholesale; the kind's presets, then the keywords this problem
        was given, are merged on top.
        """
        resolved = self.options if self.options is not None else base
        return self.options_under(resolved, self.option_overrides())

    @classmethod
    def from_call(
        cls,
        operands: Tuple[Any, ...],
        kwargs: Mapping[str, Any],
        options: Optional[ExecutionOptions] = None,
    ) -> "Problem":
        """Build the typed problem for a string-kind call.

        Constructors deliberately mirror the handlers' positional operand
        order and keyword execution arguments, and take the kind's option
        keywords, so a string call is one splat; a mismatched call or an
        unknown keyword raises ``TypeError`` exactly like the constructor
        would.  The single-operand *partial* forms some
        constructors accept (``Refine(b)``, for ``then()`` composition)
        are rejected here: for a string-kind call a missing matrix is a
        plain arity mistake and keeps its legacy :class:`ShapeError`
        diagnostic.
        """
        problem = cls(*operands, options=options, **kwargs)
        if getattr(problem, "matrix", False) is None:
            raise ShapeError(
                f"{cls.kind} needs a square system matrix as its first "
                f"operand; got {len(operands)} operand(s) (the partial "
                f"matrix-less form is a pipeline-composition spelling, "
                f"see Problem.then)"
            )
        return problem

    # -- shapes and keys -------------------------------------------------------------
    def spec_and_output(self, shape_of: ShapeOf):
        """``(plan shape spec, output shape)`` from resolved operand shapes.

        Validates every operand slot — including the cross-operand
        consistency the string path only discovers at execute time — and
        raises :class:`~repro.errors.ShapeError` otherwise.  The output
        shape is a plain dim tuple for vector/matrix producers and a
        tuple of dim tuples for factor producers.
        """
        raise NotImplementedError

    def iter_refs(self) -> Iterator[Ref]:
        """Every stage reference this problem consumes (operands + kwargs)."""
        for value in self.operand_values():
            if isinstance(value, Ref):
                yield value
        for value in self.execute_kwargs().values():
            if isinstance(value, Ref):
                yield value

    def concrete_operands(self) -> Tuple[Any, ...]:
        """Operands for single-problem execution; refs are an error here."""
        if any(True for _ in self.iter_refs()):
            raise GraphError(
                f"{type(self).__name__} references other pipeline stages; "
                f"build a Graph and run it through GraphCompiler instead of "
                f"a single-problem solve"
            )
        return self.operand_values()

    def plan_shapes(self, shape_of: Optional[ShapeOf] = None) -> Tuple:
        """The normalized plan-key shape tuple (via the kind's handler)."""
        from ..api.registry import get_handler

        if shape_of is None:
            shape_of = self._concrete_shape_of
        spec, _output = self.spec_and_output(shape_of)
        return get_handler(self.kind).shapes(shape=spec)

    def plan_key(
        self,
        w: int,
        options: Optional[ExecutionOptions] = None,
        spec: Any = None,
    ) -> Tuple:
        """The ``(kind, shapes, w, options)`` cache/routing key of this problem.

        ``spec`` is the node's resolved plan shape spec.  Without one the
        problem must be stand-alone (ref-free) and every operand is
        validated; a graph passes the spec it resolved through reference
        shapes (:meth:`repro.graph.graph.Graph.plan_keys`).
        """
        from ..api.plan import make_plan_key
        from ..api.registry import get_handler

        if spec is None:
            shapes = self.plan_shapes()
        else:
            shapes = get_handler(self.kind).shapes(shape=spec)
        base = options if options is not None else ExecutionOptions()
        return make_plan_key(self.kind, shapes, w, self.resolved_options(base))

    def _concrete_shape_of(self, value: Any, label: str) -> Tuple[int, ...]:
        if isinstance(value, Ref):
            raise GraphError(
                f"{type(self).__name__}.{label} references another stage; "
                f"shape resolution needs the enclosing Graph"
            )
        return tuple(int(dim) for dim in np.shape(value))

    # -- shared slot validators -------------------------------------------------------
    def _matrix_shape(self, shape_of: ShapeOf, value: Any, label: str):
        shape = shape_of(value, label)
        if len(shape) != 2:
            raise ShapeError(
                f"{self.kind} operand {label!r} must be a matrix, "
                f"got shape {shape}"
            )
        return shape

    def _square_shape(self, shape_of: ShapeOf, value: Any, label: str):
        shape = self._matrix_shape(shape_of, value, label)
        if shape[0] != shape[1]:
            raise ShapeError(
                f"{self.kind} needs a square {label}, got shape {shape}"
            )
        return shape

    def _vector_length(
        self, shape_of: ShapeOf, value: Any, label: str, expected: int
    ) -> None:
        shape = shape_of(value, label)
        if shape != (expected,):
            raise ShapeError(
                f"{self.kind} operand {label!r} must be a vector of length "
                f"{expected}, got shape {shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or hex(id(self))
        return f"{type(self).__name__}({label})"


# ----------------------------------------------------------------------------- #
# array kinds
# ----------------------------------------------------------------------------- #
class MatVec(Problem):
    """``y = A x + b`` on the ``w``-cell linear contraflow array."""

    kind = "matvec"
    produces = "vector"
    slots = ("matrix", "x", "b")
    option_keywords = ("overlapped",)

    def __init__(
        self,
        matrix: Any,
        x: Any,
        b: Any = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(options=options, name=name, **overrides)
        self.matrix = _operand(matrix)
        self.x = _operand(x)
        self.b = _operand(b) if b is not None else None

    def operand_values(self) -> Tuple[Any, ...]:
        if self.b is None:
            return (self.matrix, self.x)
        return (self.matrix, self.x, self.b)

    def spec_and_output(self, shape_of: ShapeOf):
        n, m = self._matrix_shape(shape_of, self.matrix, "matrix")
        self._vector_length(shape_of, self.x, "x", m)
        if self.b is not None:
            self._vector_length(shape_of, self.b, "b", n)
        return (n, m), (n,)


class Sparse(MatVec):
    """``y = A x + b`` skipping zero ``w x w`` blocks of the operand."""

    kind = "sparse"
    option_keywords = ("tolerance",)


class PRT(MatVec):
    """Priester et al.'s single-block transformation (comparison baseline)."""

    kind = "prt"
    option_keywords = ()


class NaiveMatVec(MatVec):
    """Block-by-block ``y = A x + b`` on a ``2w - 1`` cell array (baseline)."""

    kind = "naive_matvec"
    option_keywords = ()


class BlockPartitioned(MatVec):
    """Block-partitioned ``y = A x + b`` on a ``w`` cell array (baseline)."""

    kind = "block_partitioned"
    option_keywords = ()


class MatMul(Problem):
    """``C = A B + E`` on the ``w x w`` hexagonal array."""

    kind = "matmul"
    produces = "matrix"
    slots = ("a", "b", "e")

    def __init__(
        self,
        a: Any,
        b: Any,
        e: Any = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        super().__init__(options=options, name=name)
        self.a = _operand(a)
        self.b = _operand(b)
        self.e = _operand(e) if e is not None else None

    def operand_values(self) -> Tuple[Any, ...]:
        if self.e is None:
            return (self.a, self.b)
        return (self.a, self.b, self.e)

    def spec_and_output(self, shape_of: ShapeOf):
        n, p = self._matrix_shape(shape_of, self.a, "a")
        p2, m = self._matrix_shape(shape_of, self.b, "b")
        if p != p2:
            raise ShapeError(
                f"matmul cannot multiply shapes {(n, p)} and {(p2, m)}"
            )
        if self.e is not None:
            e_shape = shape_of(self.e, "e")
            if e_shape != (n, m):
                raise ShapeError(
                    f"matmul accumulator e must have shape {(n, m)}, "
                    f"got {e_shape}"
                )
        return (n, p, m), (n, m)


class NaiveMatMul(MatMul):
    """Block-by-block ``C = A B + E`` on a ``(2w-1) x (2w-1)`` array (baseline)."""

    kind = "naive_matmul"


class Triangular(Problem):
    """``T x = b`` by blocks; products on the array, diagonal solves on host.

    Partial form ``Triangular(b)`` leaves the matrix slot unbound for
    :meth:`Problem.then` to fill (``LU(A).then(Triangular(b))`` is rarely
    what you want though — prefer ``Triangular(LU(A).lower, b)``).
    """

    kind = "triangular"
    produces = "vector"
    slots = ("matrix", "b", "lower")

    def __init__(
        self,
        matrix: Any = None,
        b: Any = None,
        lower: bool = True,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        super().__init__(options=options, name=name)
        if b is None:
            matrix, b = None, matrix
        if b is None:
            raise TypeError(f"{type(self).__name__} needs a right-hand side b")
        self.matrix = _operand(matrix) if matrix is not None else None
        self.b = _operand(b)
        self.lower = bool(lower)

    def operand_values(self) -> Tuple[Any, ...]:
        return (self._bound_matrix(), self.b)

    def execute_kwargs(self) -> Dict[str, Any]:
        return {"lower": self.lower}

    def _bound_matrix(self) -> Any:
        if self.matrix is None:
            raise GraphError(
                f"{type(self).__name__} node has no matrix bound; pass one "
                f"explicitly or sequence it with .then() after a "
                f"matrix-carrying stage"
            )
        return self.matrix

    def spec_and_output(self, shape_of: ShapeOf):
        n, _ = self._square_shape(shape_of, self._bound_matrix(), "matrix")
        self._vector_length(shape_of, self.b, "b", n)
        return (n,), (n,)


class LU(Problem):
    """Blocked LU factorization ``A = L U``; produces the factor pair."""

    kind = "lu"
    produces = "factors"
    slots = ("matrix",)

    def __init__(
        self,
        matrix: Any,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
    ):
        super().__init__(options=options, name=name)
        self.matrix = _operand(matrix)

    @property
    def lower(self) -> Ref:
        """A reference to the ``L`` factor of this node's output."""
        return Ref(self, 0)

    @property
    def upper(self) -> Ref:
        """A reference to the ``U`` factor of this node's output."""
        return Ref(self, 1)

    def operand_values(self) -> Tuple[Any, ...]:
        return (self.matrix,)

    def spec_and_output(self, shape_of: ShapeOf):
        n, _ = self._square_shape(shape_of, self.matrix, "matrix")
        return (n,), ((n, n), (n, n))


# ----------------------------------------------------------------------------- #
# iterative kinds
# ----------------------------------------------------------------------------- #
class _SystemProblem(Problem):
    """Shared shape/slot logic of the ``A x = b`` iterative kinds.

    Partial form ``Kind(b)`` (one operand) leaves the matrix slot unbound
    for :meth:`Problem.then` — the idiom the factor-then-refine pipeline
    uses: ``LU(A).then(Refine(b))``.
    """

    produces = "vector"
    slots = ("matrix", "b", "x0")
    option_keywords = ("criteria",)

    def __init__(
        self,
        matrix: Any = None,
        b: Any = None,
        x0: Any = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(options=options, name=name, **overrides)
        if b is None:
            matrix, b = None, matrix
        if b is None:
            raise TypeError(f"{type(self).__name__} needs a right-hand side b")
        self.matrix = _operand(matrix) if matrix is not None else None
        self.b = _operand(b)
        self.x0 = _operand(x0) if x0 is not None else None

    def operand_values(self) -> Tuple[Any, ...]:
        if self.matrix is None:
            raise GraphError(
                f"{type(self).__name__} node has no matrix bound; pass one "
                f"explicitly or sequence it with .then() after a "
                f"matrix-carrying stage"
            )
        return (self.matrix, self.b)

    def execute_kwargs(self) -> Dict[str, Any]:
        if self.x0 is None:
            return {}
        return {"x0": self.x0}

    def spec_and_output(self, shape_of: ShapeOf):
        n, _ = self._square_shape(shape_of, self.operand_values()[0], "matrix")
        self._vector_length(shape_of, self.b, "b", n)
        if self.x0 is not None:
            self._vector_length(shape_of, self.x0, "x0", n)
        return (n,), (n,)


class Jacobi(_SystemProblem):
    """``A x = b`` by ``x_{k+1} = D^{-1} (b - R x_k)``."""

    kind = "jacobi"


class SOR(_SystemProblem):
    """``A x = b`` by weighted Gauss-Seidel relaxation."""

    kind = "sor"
    option_keywords = ("omega", "criteria")


class GaussSeidel(_SystemProblem):
    """``A x = b`` by Gauss-Seidel: SOR at ``omega = 1`` under the seed's rule.

    The seed's stopping rule is an absolute residual of ``1e-10`` within
    200 sweeps and no divergence guard, so a diverging system reports
    ``converged=False`` instead of raising.  Pass ``criteria=`` to change
    it; ``omega`` stays ``1``.
    """

    kind = "gauss_seidel"
    presets = MappingProxyType({
        "omega": 1.0,
        "criteria": ConvergenceCriteria(
            atol=1e-10, rtol=0.0, max_iter=200, divergence_ratio=float("inf")
        ),
    })


class CG(_SystemProblem):
    """``A x = b`` for SPD ``A`` by conjugate gradients."""

    kind = "cg"


class Refine(_SystemProblem):
    """``A x = b`` by blocked LU plus iterative refinement sweeps."""

    kind = "refine"


class Power(Problem):
    """Dominant eigenpair of a square matrix by power iteration."""

    kind = "power"
    produces = "vector"
    slots = ("matrix", "x0")
    option_keywords = ("criteria",)

    def __init__(
        self,
        matrix: Any,
        x0: Any = None,
        *,
        options: Optional[ExecutionOptions] = None,
        name: Optional[str] = None,
        **overrides: Any,
    ):
        super().__init__(options=options, name=name, **overrides)
        self.matrix = _operand(matrix)
        self.x0 = _operand(x0) if x0 is not None else None

    def operand_values(self) -> Tuple[Any, ...]:
        return (self.matrix,)

    def execute_kwargs(self) -> Dict[str, Any]:
        if self.x0 is None:
            return {}
        return {"x0": self.x0}

    def spec_and_output(self, shape_of: ShapeOf):
        n, _ = self._square_shape(shape_of, self.matrix, "matrix")
        if self.x0 is not None:
            self._vector_length(shape_of, self.x0, "x0", n)
        return (n,), (n,)


_PROBLEM_TYPES: Dict[str, Type[Problem]] = {
    cls.kind: cls
    for cls in (
        MatVec,
        MatMul,
        Triangular,
        LU,
        Jacobi,
        SOR,
        GaussSeidel,
        CG,
        Refine,
        Power,
        Sparse,
        PRT,
        NaiveMatVec,
        NaiveMatMul,
        BlockPartitioned,
    )
}


#: Built once: the mapping is immutable (read-only proxy over a sorted
#: dict), so the string-shim hot path pays a plain function call, not a
#: sort + allocation per solve.
_PROBLEM_TYPES_VIEW: Mapping[str, Type[Problem]] = MappingProxyType(
    dict(sorted(_PROBLEM_TYPES.items()))
)


def problem_types() -> Mapping[str, Type[Problem]]:
    """The stable ``kind -> typed problem class`` mapping (sorted by kind).

    Every kind listed here accepts both spellings through
    :class:`~repro.api.solver.Solver` — ``solve(MatVec(a, x))`` and
    ``solve("matvec", a, x)``, which builds the typed problem.  A string
    call can name only these kinds; the one registry kind missing here,
    the compiler-generated ``fused``, has no string spelling.
    """
    return _PROBLEM_TYPES_VIEW


def register_problem_type(cls: Type[Problem]) -> Type[Problem]:
    """Add a typed problem class to :func:`problem_types` (returns ``cls``).

    The extension point problem families outside this module use —
    :mod:`repro.nn` registers its five kinds through it — keeping
    :func:`problem_types` the single source of truth that
    ``Solver.problem_types()`` and every handler's ``problem_class``
    read.  Usable as a class decorator; last registration per kind wins.
    The class declares its :attr:`Problem.slots`: graphs find their
    dependencies, signatures and operand values through them.
    """
    global _PROBLEM_TYPES_VIEW
    if not (isinstance(cls, type) and issubclass(cls, Problem)):
        raise TypeError(
            f"register_problem_type expects a Problem subclass, got {cls!r}"
        )
    if not cls.kind:
        raise ValueError(f"{cls.__name__} declares no kind")
    if not cls.slots:
        raise ValueError(f"{cls.__name__} declares no slots")
    _PROBLEM_TYPES[cls.kind] = cls
    _PROBLEM_TYPES_VIEW = MappingProxyType(dict(sorted(_PROBLEM_TYPES.items())))
    return cls
