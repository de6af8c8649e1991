"""Lazy expression DAGs over typed problems.

A :class:`Graph` is built from one or more *output* problems; every
problem transitively referenced through :class:`~repro.graph.problems.Ref`
operands (or pure ordering edges from ``.then()``) becomes a node.  Build
time does all the validation the string-kind API deferred to execution:

* **cycle rejection** — a stage cannot (transitively) consume its own
  output (:class:`~repro.errors.GraphCycleError`);
* **shape inference and checking** — every operand slot is checked
  against the producing stage's inferred output shape, so a pipeline
  whose second stage cannot consume its first fails at *build/compile*
  time with a :class:`~repro.errors.ShapeError`, before any plan is
  compiled or value streamed;
* **level assignment** — nodes are topologically ordered and grouped
  into dependency levels; two nodes on the same level are provably
  independent, which is what marks stages parallelizable (and lets the
  compiler pair same-plan matvec stages onto one overlapped array run).

The graph itself holds no plans and no solver: it is a pure, reusable
description.  :meth:`plan_keys` derives the per-node cache/routing keys
for a given array size and option defaults — the same keys the
:class:`~repro.api.solver.Solver` string path computes, which is how
:mod:`repro.service` picks a graph job's home shard.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.config import ExecutionOptions
from ..errors import GraphCycleError, GraphError
from .problems import Problem, Ref

__all__ = ["Graph", "Slot", "as_graph"]

#: The :meth:`Graph.signature` mark of a slot that holds a value.
_VALUE = "value"


class Slot:
    """Stands in for the value in slot ``index`` of a graph's signature.

    :meth:`Graph.placeholders` puts one in every value slot, so a program
    lowered from that graph records where each operand comes from, not
    what it was.  ``shape`` is the value's, which is all the lowering
    reads of it.
    """

    __slots__ = ("index", "shape")

    def __init__(self, index: int, shape: Tuple[int, ...]):
        self.index = index
        self.shape = shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Slot({self.index}, shape={self.shape})"


def _ensure_handlers() -> None:
    """Make sure the problem registry is populated (idempotent import)."""
    from ..api import problems as _problems  # noqa: F401


class Graph:
    """An immutable, validated DAG of typed problems.

    Construct from output problems — positionally (auto-named) and/or as
    keywords (``Graph(y=outer)`` names the output ``"y"``)::

        t = MatVec(B, x)
        y = MatVec(A, t, name="y")
        graph = Graph(y)            # t is pulled in as a dependency

    ``nodes`` is the topological order; ``outputs`` maps the requested
    output names to their nodes.
    """

    def __init__(self, *outputs: Problem, **named_outputs: Problem):
        _ensure_handlers()
        requested: List[Tuple[Optional[str], Problem]] = []
        for problem in outputs:
            requested.append((None, problem))
        for name, problem in named_outputs.items():
            requested.append((name, problem))
        if not requested:
            raise GraphError("a Graph needs at least one output problem")
        for name, problem in requested:
            if not isinstance(problem, Problem):
                raise TypeError(
                    f"Graph outputs must be typed problems, got "
                    f"{type(problem).__name__}"
                )
        # Keyword output names live on the graph, never written back to
        # the problem objects: building a graph must not mutate shared
        # nodes another graph (or the caller) still addresses.
        self._name_overrides: Dict[Problem, str] = {
            problem: name for name, problem in requested if name is not None
        }

        order, dependencies = self._toposort(
            [problem for _name, problem in requested]
        )
        self._nodes: Tuple[Problem, ...] = order
        self._index: Dict[Problem, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._names: Tuple[str, ...] = self._assign_names()
        self._deps: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted({self._index[dep] for dep in dependencies[node]}))
            for node in self._nodes
        )
        self._levels: Tuple[int, ...] = self._assign_levels()
        self._specs, self._output_shapes = self._infer_shapes()
        self._outputs: Tuple[Tuple[str, int], ...] = tuple(
            (
                name if name is not None else self._names[self._index[problem]],
                self._index[problem],
            )
            for name, problem in requested
        )

    # -- construction internals -----------------------------------------------------
    @staticmethod
    def _dependencies(node: Problem) -> List[Problem]:
        deps = [
            value.node for value in node.slot_values() if isinstance(value, Ref)
        ]
        deps.extend(node.after)
        return deps

    def _toposort(
        self, roots: Sequence[Problem]
    ) -> Tuple[Tuple[Problem, ...], Dict[Problem, List[Problem]]]:
        """Iterative DFS post-order; grey-node re-entry is a cycle.

        Returns the order and each node's dependencies, found once.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        state: Dict[Problem, int] = {}
        order: List[Problem] = []
        dependencies: Dict[Problem, List[Problem]] = {}
        for root in roots:
            if state.get(root, WHITE) == BLACK:
                continue
            stack: List[Tuple[Problem, bool]] = [(root, False)]
            while stack:
                node, children_done = stack.pop()
                if children_done:
                    state[node] = BLACK
                    order.append(node)
                    continue
                mark = state.get(node, WHITE)
                if mark == BLACK:
                    continue
                if mark == GREY:
                    # Re-entering a node whose subtree is still open: the
                    # path from it back to itself is a reference cycle.
                    raise GraphCycleError(
                        f"problem graph contains a cycle through "
                        f"{type(node).__name__} node "
                        f"{node.name or hex(id(node))}"
                    )
                state[node] = GREY
                stack.append((node, True))
                deps = dependencies[node] = self._dependencies(node)
                for dep in deps:
                    mark = state.get(dep, WHITE)
                    if mark == GREY:
                        raise GraphCycleError(
                            f"problem graph contains a cycle through "
                            f"{type(dep).__name__} node "
                            f"{dep.name or hex(id(dep))}"
                        )
                    if mark == WHITE:
                        stack.append((dep, False))
        return tuple(order), dependencies

    def _assign_names(self) -> Tuple[str, ...]:
        """Unique per-node names: explicit names must not clash with each
        other; auto-generated names step around anything taken."""
        explicit: Dict[str, int] = {}
        for index, node in enumerate(self._nodes):
            name = self._name_overrides.get(node) or node.name
            if name is None:
                continue
            if name in explicit:
                raise GraphError(
                    f"duplicate node name {name!r} (nodes {explicit[name]} "
                    f"and {index}); name each output/stage uniquely"
                )
            explicit[name] = index
        names: List[str] = []
        taken = set(explicit)
        for index, node in enumerate(self._nodes):
            name = self._name_overrides.get(node) or node.name
            if name is None:
                counter = index
                name = f"{node.kind}_{counter}"
                while name in taken:
                    counter += 1
                    name = f"{node.kind}_{counter}"
                taken.add(name)
            names.append(name)
        return tuple(names)

    def _assign_levels(self) -> Tuple[int, ...]:
        levels: List[int] = []
        for index in range(len(self._nodes)):
            deps = self._deps[index]
            levels.append(1 + max((levels[d] for d in deps), default=-1))
        return tuple(levels)

    def _infer_shapes(self):
        """Validate every node's operands; returns (spec, output shape) maps."""
        specs: List[Tuple] = []
        output_shapes: List[Any] = []

        def shape_of_factory(consumer: Problem):
            def shape_of(value: Any, label: str) -> Tuple[int, ...]:
                if isinstance(value, Ref):
                    producer = value.node
                    if producer not in self._index:
                        raise GraphError(
                            f"{type(consumer).__name__}.{label} references a "
                            f"node outside this graph"
                        )
                    produced = output_shapes[self._index[producer]]
                    if producer.produces == "factors":
                        if value.item is None:
                            raise GraphError(
                                f"{type(consumer).__name__}.{label} consumes "
                                f"a factor pair; select one with .lower/.upper"
                            )
                        return produced[value.item]
                    if value.item is not None:
                        raise GraphError(
                            f"{type(consumer).__name__}.{label}: item "
                            f"selection on a single-valued "
                            f"{type(producer).__name__} output"
                        )
                    return produced
                return tuple(int(dim) for dim in np.shape(value))

            return shape_of

        for node in self._nodes:
            spec, output_shape = node.spec_and_output(shape_of_factory(node))
            specs.append(spec)
            output_shapes.append(output_shape)
        return tuple(specs), tuple(output_shapes)

    # -- introspection ----------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Problem, ...]:
        """All nodes in topological (dependency-first) order."""
        return self._nodes

    @property
    def names(self) -> Tuple[str, ...]:
        """Node names, aligned with :attr:`nodes`."""
        return self._names

    @property
    def outputs(self) -> Tuple[Tuple[str, int], ...]:
        """The requested graph outputs as ``(name, node index)`` pairs."""
        return self._outputs

    @property
    def levels(self) -> Tuple[int, ...]:
        """Dependency level per node; equal levels are independent stages."""
        return self._levels

    def dependencies(self, index: int) -> Tuple[int, ...]:
        """Indices of the nodes that node ``index`` depends on."""
        return self._deps[index]

    def index_of(self, node: Problem) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"{node!r} is not a node of this graph") from None

    def spec(self, index: int) -> Tuple:
        """The plan shape spec of node ``index`` (handler ``shape=`` form)."""
        return self._specs[index]

    def output_shape(self, index: int):
        """The inferred output shape of node ``index``."""
        return self._output_shapes[index]

    def signature(self) -> Tuple[Tuple, Tuple[Any, ...]]:
        """``(structure, values)``: what the graph lowers by, and its values.

        ``structure`` is hashable and holds no operand value.  It lists
        the outputs, then per node in topological order: the problem
        type, its raw and assigned names, its shape spec, its per-node
        options and option overrides, each slot of
        :meth:`~repro.graph.problems.Problem.slot_values` as a
        ``(node index, item)`` reference, ``None`` or ``"value"``, and
        the indices of its ``.then`` predecessors.  Two graphs with equal
        structures lower to the same program.

        ``values`` holds the value slots in that walk's order: slot ``k``
        is the ``k``-th ``"value"`` mark, so a value is addressed by its
        node and slot, never by its identity.
        """
        index = self._index
        structure: List[Any] = [self._outputs]
        values: List[Any] = []
        for position, node in enumerate(self._nodes):
            marks: List[Any] = []
            for value in node.slot_values():
                if isinstance(value, Ref):
                    marks.append((index[value.node], value.item))
                elif value is None:
                    marks.append(None)
                else:
                    marks.append(_VALUE)
                    values.append(value)
            structure.append((
                type(node),
                node.name,
                self._names[position],
                self._specs[position],
                node.options,
                tuple(node.option_overrides().items()),
                tuple(marks),
                tuple([index[predecessor] for predecessor in node.after]),
            ))
        return tuple(structure), tuple(values)

    def placeholders(self) -> "Graph":
        """This graph with a :class:`Slot` in place of every slot value.

        The copy shares this graph's order, names, levels and shapes, so
        it lowers exactly as this graph does; the program lowered from it
        holds slot numbers (those of :meth:`signature`) instead of values.
        """
        clones: Dict[Problem, Problem] = {}
        count = 0
        for node in self._nodes:
            slots: List[Any] = []
            for value in node.slot_values():
                if isinstance(value, Ref):
                    slots.append(Ref(clones[value.node], value.item))
                elif value is None:
                    slots.append(None)
                else:
                    shape = tuple(int(dim) for dim in np.shape(value))
                    slots.append(Slot(count, shape))
                    count += 1
            clone = node.with_slot_values(tuple(slots))
            clone.after = tuple(clones[p] for p in node.after)
            clones[node] = clone
        graph = copy.copy(self)
        graph._nodes = tuple(clones[node] for node in self._nodes)
        graph._index = {node: i for i, node in enumerate(graph._nodes)}
        graph._name_overrides = {
            clones[node]: name for node, name in self._name_overrides.items()
        }
        return graph

    def plan_keys(
        self, w: int, options: Optional[ExecutionOptions] = None
    ) -> Tuple[Tuple, ...]:
        """Per-node ``(kind, shapes, w, options)`` keys, in topological order.

        These are the keys a :class:`~repro.api.solver.Solver` of array
        size ``w`` with default ``options`` would compute for each node
        solved on its own.  They are per node, not per compiled stage:
        under ``vectorized`` options the compiler fuses head→epilogue
        chains into single ``fused`` stages with keys of their own.  The
        tuple depends only on the graph, so it doubles as the service
        routing key of the whole pipeline.
        """
        base = options if options is not None else ExecutionOptions()
        return tuple([
            node.plan_key(w, base, spec=spec)
            for node, spec in zip(self._nodes, self._specs)
        ])

    def describe(self) -> str:
        """One line per node: name, kind, level, dependencies, shapes."""
        lines = [f"Graph with {len(self._nodes)} node(s)"]
        for index, node in enumerate(self._nodes):
            deps = ", ".join(self._names[d] for d in self._deps[index]) or "-"
            lines.append(
                f"  [{self._levels[index]}] {self._names[index]}: {node.kind} "
                f"shapes={self._specs[index]} deps=({deps})"
            )
        outputs = ", ".join(name for name, _index in self._outputs)
        lines.append(f"  outputs: {outputs}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        outputs = ", ".join(name for name, _index in self._outputs)
        return f"Graph(nodes={len(self._nodes)}, outputs=[{outputs}])"


def as_graph(graph: "Graph | Problem") -> Graph:
    """Coerce a bare problem (or pass a graph through) into a :class:`Graph`."""
    if isinstance(graph, Graph):
        return graph
    if isinstance(graph, Problem):
        return Graph(graph)
    raise TypeError(
        f"expected a Graph or a typed Problem, got {type(graph).__name__}"
    )
