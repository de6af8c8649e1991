"""Lowering problem graphs onto cached execution plans.

:class:`GraphCompiler` turns a validated :class:`~repro.graph.graph.Graph`
into a :class:`~repro.graph.program.PipelineProgram`:

* every node's plan is resolved through the owning
  :class:`~repro.api.solver.Solver`'s LRU plan cache, so stages sharing a
  ``(kind, shapes, w, options)`` key — a diamond whose two middle stages
  are the same shape, or a whole warm re-compile — deduplicate to one
  compiled plan (and a warm compile builds nothing at all);
* independent stages land on the same dependency level, marked
  parallelizable; independent *same-plan matvec* stages are paired onto
  one shared overlapped array run (the paper's contraflow idle-cycle
  trick applied across stages), with values identical to sequential
  execution;
* under ``fuse=True``, a matmul whose only consumer is the matrix slot
  of a matvec is rewritten by associativity — ``(A B) x -> A (B x)`` —
  turning an O(n^3) stage into a second O(n^2) matvec.  The rewrite
  changes floating-point association, so it is opt-in and never applied
  to matmuls that are graph outputs, have other consumers, or carry an
  accumulator term;
* head→epilogue chains (``dense → bias → relu``, the quantized
  ``dense → dequantize → bias → relu → quantize``) collapse into single
  ``fused`` stages via :func:`repro.graph.fusion.fuse_epilogue_chains`.
  This rewrite is *value-exact* (the same elementwise transforms run on
  the same head output, in order) and applies whenever the base options
  resolve to the ``vectorized`` backend; ``simulate`` compilations —
  the oracle, and the only traced path — run stage by stage.

None of this reads an operand value: the lowering is a function of the
graph's :meth:`~repro.graph.graph.Graph.signature` structure, ``fuse``
and the base options.  So it runs once per signature, on a copy of the
graph whose value slots hold :class:`~repro.graph.graph.Slot`
placeholders, and is memoized as a :class:`LoweredGraph` in the solver's
graph memo (:attr:`~repro.api.solver.Solver.lowered_graphs`, bounded
like the plan cache).  Every compile then looks each stage plan up by
its stored key and binds the graph's values by slot address (node and
slot, never object identity): the planner reuse of FFTW (Frigo and
Johnson, Proc. IEEE 2005) applied to whole graphs.

The emitted program is *partitionable*: because stages carry their
dependency levels and resolved plans, :meth:`PipelineProgram.segments`
can split it under a placement into
:class:`~repro.graph.program.ProgramSegment` units — runs of levels on
one shard — that the serving layer executes across shards,
bit-identically to :meth:`PipelineProgram.run`.
"""

from __future__ import annotations

import copy
from typing import (
    Any, Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING,
)

from ..api.config import ExecutionOptions
from ..api.plan import PlanKey
from ..backends.registry import VECTORIZED, resolve_backend
from ..instrumentation import counters
from .fusion import fuse_epilogue_chains
from .graph import Graph, Slot, as_graph
from .problems import MatMul, MatVec, Problem, Ref
from .program import Binding, PipelineProgram, PipelineResult, PipelineStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.solver import Solver

__all__ = ["GraphCompiler", "LoweredGraph"]


class GraphCompiler:
    """Compiles problem graphs against one solver's plan cache.

    Parameters
    ----------
    solver:
        The :class:`~repro.api.solver.Solver` whose array spec, default
        options and plan cache the lowered program binds to.
    fuse:
        Apply the matmul→matvec associativity rewrite (changes
        floating-point association; off by default so graph execution is
        bit-identical to stage-by-stage solves).
    options:
        Base :class:`~repro.api.config.ExecutionOptions` the stages'
        per-problem overrides merge into; defaults to the solver's own
        options.  The service threads a graph request's options through
        here so a served graph compiles under exactly the options its
        routing keys were derived from.
    """

    def __init__(
        self,
        solver: "Solver",
        *,
        fuse: bool = False,
        options: Optional[ExecutionOptions] = None,
    ):
        self._solver = solver
        self._fuse = bool(fuse)
        self._options = options

    @property
    def solver(self) -> "Solver":
        return self._solver

    @property
    def fuse(self) -> bool:
        return self._fuse

    def compile(self, graph: "Graph | Problem") -> PipelineProgram:
        """Lower a graph (or a single problem) to a pipeline program."""
        lowered, values = self.lower(graph)
        return lowered.bind(self._solver, values)

    def lower(
        self, graph: "Graph | Problem"
    ) -> Tuple["LoweredGraph", Tuple[Any, ...]]:
        """The graph's memoized lowering and its slot values.

        The lowering is looked up in the solver's graph memo by the
        graph's signature structure, ``fuse`` and the base options; a
        miss lowers the graph once (rewrites, stage keys, levels, home
        keys) and memoizes it.  The values are the graph's own, in slot
        order, for :meth:`LoweredGraph.bind`.
        """
        graph = as_graph(graph)
        base = self._options if self._options is not None else self._solver.options
        structure, values = graph.signature()
        key = (structure, self._fuse, base)
        memo = self._solver.lowered_graphs
        lowered = memo.get(key)
        if lowered is None:
            lowered = self._lower(graph, base)
            memo.put(key, lowered)
        return lowered, values

    def run(self, graph: "Graph | Problem") -> PipelineResult:
        """Compile (warm compiles hit the plan cache) and execute a graph."""
        return self.compile(graph).run()

    def _lower(self, graph: Graph, base: ExecutionOptions) -> "LoweredGraph":
        """Lower one graph signature, from a copy holding no values."""
        node_keys = graph.plan_keys(self._solver.w, base)
        lowered = graph.placeholders()
        rewrites = 0
        if self._fuse:
            lowered, rewrites = _fuse_matmul_chains(lowered)
        epilogues = 0
        if (
            not base.record_trace
            and resolve_backend(base.backend) == VECTORIZED
        ):
            lowered, epilogues = fuse_epilogue_chains(lowered, base)
        stages: List[_StageSkeleton] = []
        for index, node in enumerate(lowered.nodes):
            stages.append(
                _StageSkeleton(
                    index=index,
                    name=lowered.names[index],
                    kind=node.kind,
                    key=node.plan_key(
                        self._solver.w, base, spec=lowered.spec(index)
                    ),
                    operands=tuple(
                        _binding(lowered, value)
                        for value in node.operand_values()
                    ),
                    kwargs={
                        key: _binding(lowered, value)
                        for key, value in node.execute_kwargs().items()
                    },
                    level=lowered.levels[index],
                )
            )
        return LoweredGraph(
            stages=tuple(stages),
            outputs=lowered.outputs,
            node_keys=node_keys,
            fused_rewrites=rewrites,
            fused_epilogues=epilogues,
        )


class _StageSkeleton(NamedTuple):
    """One lowered stage without its plan: what a lowering stores."""

    index: int
    name: str
    kind: str
    key: PlanKey
    operands: Tuple[Binding, ...]
    kwargs: Dict[str, Binding]
    level: int


class LoweredGraph:
    """The value-free lowering of one graph signature: a memo entry.

    Holds what a compile derives from the graph's structure alone — the
    rewritten stages with their plan keys, slot and stage bindings and
    levels, the outputs, the fusion counts, and ``node_keys``, the
    per-node :meth:`~repro.graph.graph.Graph.plan_keys` that route a
    served graph's whole-job accounting.  :meth:`bind` makes a program of
    it for one graph's values; the overlapped pairs and the program of
    the last all-cached plans are kept from earlier binds.
    """

    def __init__(
        self,
        stages: Tuple[_StageSkeleton, ...],
        outputs: Tuple[Tuple[str, int], ...],
        node_keys: Tuple[PlanKey, ...],
        fused_rewrites: int,
        fused_epilogues: int,
    ):
        self._stages = stages
        self._keys = tuple(stage.key for stage in stages)
        self._outputs = outputs
        self.node_keys = node_keys
        self._fused_rewrites = fused_rewrites
        self._fused_epilogues = fused_epilogues
        # Set by binds.  The pairs once: pairing reads the plans.  The
        # resident program by every bind that cannot reuse it: its own
        # program when every plan was cached, else None, so an evicted
        # plan is held only until the signature compiles again.  Racing
        # binds compute equal values, so a race costs a rebuild.
        self._pairs: Optional[Tuple[Tuple[int, int], ...]] = None
        self._resident: Optional[PipelineProgram] = None

    def bind(self, solver: "Solver", values: Tuple[Any, ...]) -> PipelineProgram:
        """A program of this lowering over ``values``, plans from ``solver``.

        The per-request step of every compile.  One plan-cache lookup per
        stage, by its stored key and in stage order, exactly as a cold
        compile makes them (a plan evicted since is rebuilt and charged
        as a cold compile); nothing is re-derived.  When every plan was
        cached and is the one the resident program (the last all-cached
        bind's) holds, the program shares its stages and unplaced
        segment.
        """
        counters.bump("graph_compiles")
        resolved = [solver.resolve_key(key) for key in self._keys]
        resident = self._resident
        if resident is not None and all(
            cached and plan is stage.plan
            for (plan, cached), stage in zip(resolved, resident.stages)
        ):
            return resident.bound(values)
        stages = tuple(
            PipelineStage(
                index=skeleton.index,
                name=skeleton.name,
                kind=skeleton.kind,
                plan=plan,
                operands=skeleton.operands,
                kwargs=skeleton.kwargs,
                level=skeleton.level,
                plan_cached=cached,
            )
            for skeleton, (plan, cached) in zip(self._stages, resolved)
        )
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = tuple(_mark_pairs(stages))
        # Counted from the per-stage cache-hit flags, not the
        # process-global counter: exact even while other service shards
        # compile concurrently.
        builds = sum(1 for _plan, cached in resolved if not cached)
        program = PipelineProgram(
            stages=stages,
            outputs=self._outputs,
            pairs=pairs,
            fused_rewrites=self._fused_rewrites,
            compile_plan_builds=builds,
            fused_epilogues=self._fused_epilogues,
            values=values,
        )
        self._resident = None if builds else program.bound(())
        return program


def _binding(graph: Graph, value: object) -> Binding:
    if isinstance(value, Ref):
        return Binding(source=graph.index_of(value.node), item=value.item)
    if isinstance(value, Slot):
        return Binding(slot=value.index)
    raise TypeError(
        f"a lowered stage holds a {type(value).__name__} outside every "
        f"declared slot; its problem type's slots must name each attribute "
        f"behind operand_values() and execute_kwargs()"
    )


def _mark_pairs(stages: Tuple[PipelineStage, ...]) -> List[Tuple[int, int]]:
    """Pairs of independent (same-level) stages sharing a pairable plan key."""
    groups: Dict[Tuple[int, PlanKey], List[int]] = {}
    for stage in stages:
        if stage.plan.supports_pairing:
            groups.setdefault((stage.level, stage.plan.key), []).append(
                stage.index
            )
    pairs: List[Tuple[int, int]] = []
    for indices in groups.values():
        for position in range(0, len(indices) - 1, 2):
            pairs.append((indices[position], indices[position + 1]))
    return pairs


# ----------------------------------------------------------------------------- #
# the associativity rewrite
# ----------------------------------------------------------------------------- #
def _fuse_matmul_chains(graph: Graph) -> Tuple[Graph, int]:
    """Rewrite ``MatVec(Ref(MatMul(A, B)), x)`` into ``MatVec(A, MatVec(B, x))``.

    Only exclusive, output-invisible, accumulator-free matmuls without
    node-specific options fuse: the matmul must feed exactly one
    reference — the matvec's matrix slot — and not be a requested graph
    output or the target of an ordering edge, otherwise its product is
    needed anyway and the rewrite would add work rather than remove an
    O(n^3) stage (per-node options are likewise preserved by skipping,
    never silently dropped).  Applied bottom-up and repeatedly, so a
    chain ``(A (B C)) x`` collapses into three matvec stages.

    Returns the rewritten graph and the number of rewrites applied.
    The replacement inner matvec inherits the fused matmul's node name,
    so per-stage lookups keep addressing the same pipeline position.
    """
    consumer_counts: Dict[Problem, int] = {}
    for node in graph.nodes:
        for ref in node.iter_refs():
            consumer_counts[ref.node] = consumer_counts.get(ref.node, 0) + 1
        # Ordering edges count too: a matmul some node sequences .after()
        # must still execute, so eliminating it would either resurrect it
        # through the stale edge or break the ordering contract.
        for predecessor in node.after:
            consumer_counts[predecessor] = (
                consumer_counts.get(predecessor, 0) + 1
            )
    output_nodes = {graph.nodes[index] for _name, index in graph.outputs}

    mapping: Dict[Problem, Problem] = {}
    #: Clone -> original-graph node, so exclusivity/output checks keyed by
    #: originals still apply to nodes that were copied during remapping.
    origin: Dict[Problem, Problem] = {}
    rewrites = 0

    def mapped_operand(value: object) -> object:
        if isinstance(value, Ref) and value.node in mapping:
            return Ref(mapping[value.node], value.item)
        return value

    def remap(node: Problem) -> Problem:
        """A copy of ``node`` with refs updated to rewritten targets."""
        clone: Problem = node
        for attr, value in list(vars(node).items()):
            if isinstance(value, Ref) and value.node in mapping:
                replacement: object = Ref(mapping[value.node], value.item)
            elif attr == "after" and any(p in mapping for p in value):
                replacement = tuple(mapping.get(p, p) for p in value)
            else:
                continue
            if clone is node:
                clone = copy.copy(node)
                origin[clone] = node
            setattr(clone, attr, replacement)
        return clone

    def fusable(value: object) -> bool:
        if not (isinstance(value, Ref) and value.item is None):
            return False
        target = value.node
        source = origin.get(target, target)
        if source in mapping and mapping[source] is not target:
            return False  # stale ref into a node that was rewritten away
        return (
            type(target) is MatMul  # not a baseline: its stage must run
            and target.e is None
            # A matmul with node-specific options pins how *that* stage
            # executes; the rewrite would erase the stage (and with it
            # the options), so such nodes are left intact.
            and target.options is None
            and source not in output_nodes
            and consumer_counts.get(source, 0) == 1
        )

    def fuse_matvec(matvec: MatVec) -> MatVec:
        """Collapse every exclusive matmul feeding this matvec's chain."""
        nonlocal rewrites
        while fusable(matvec.matrix):
            matmul: MatMul = matvec.matrix.node  # type: ignore[union-attr]
            inner = MatVec(
                mapped_operand(matmul.b),
                matvec.x,
                options=matvec.options,
                name=matmul.name,
            )
            inner.after = tuple(mapping.get(p, p) for p in matmul.after)
            # B may itself be an exclusive matmul: (A (B C)) x collapses
            # all the way down to a chain of matvec stages.
            inner = fuse_matvec(inner)
            replacement = MatVec(
                mapped_operand(matmul.a),
                inner,
                matvec.b,
                **matvec.option_overrides(),
                options=matvec.options,
                name=matvec.name,
            )
            replacement.after = matvec.after
            matvec = replacement
            rewrites += 1
        return matvec

    for node in graph.nodes:
        current = remap(node)
        if type(current) is MatVec:  # not Sparse: its matrix slot is the
            current = fuse_matvec(current)  # sparsity pattern, not a factor
        if current is not node:
            mapping[node] = current

    if not rewrites and not mapping:
        return graph, 0
    named = {}
    positional = []
    for name, index in graph.outputs:
        out = mapping.get(graph.nodes[index], graph.nodes[index])
        if out.name == name:
            positional.append(out)
        else:
            named[name] = out
    return Graph(*positional, **named), rewrites
