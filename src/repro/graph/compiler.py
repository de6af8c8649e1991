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

The emitted program is *partitionable*: because stages carry their
dependency levels and resolved plans, :meth:`PipelineProgram.segments`
can split it under a placement into
:class:`~repro.graph.program.ProgramSegment` units — runs of levels on
one shard — that the serving layer executes across shards,
bit-identically to :meth:`PipelineProgram.run`.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..api.config import ExecutionOptions
from ..backends.registry import VECTORIZED, resolve_backend
from ..instrumentation import counters
from .fusion import fuse_epilogue_chains
from .graph import Graph, as_graph
from .problems import MatMul, MatVec, Problem, Ref
from .program import Binding, PipelineProgram, PipelineResult, PipelineStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.solver import Solver

__all__ = ["GraphCompiler"]


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
        graph = as_graph(graph)
        counters.bump("graph_compiles")
        base_options = (
            self._options if self._options is not None else self._solver.options
        )
        rewrites = 0
        if self._fuse:
            graph, rewrites = _fuse_matmul_chains(graph)
        epilogues = 0
        if (
            not base_options.record_trace
            and resolve_backend(base_options.backend) == VECTORIZED
        ):
            graph, epilogues = fuse_epilogue_chains(graph, base_options)
        stages: List[PipelineStage] = []
        for index, node in enumerate(graph.nodes):
            options = node.resolved_options(base_options)
            plan, cached = self._solver.resolve_plan(
                node.kind, shape=graph.spec(index), options=options
            )
            stages.append(
                PipelineStage(
                    index=index,
                    name=graph.names[index],
                    kind=node.kind,
                    plan=plan,
                    operands=tuple(
                        _binding(graph, value)
                        for value in node.operand_values()
                    ),
                    kwargs={
                        key: _binding(graph, value)
                        for key, value in node.execute_kwargs().items()
                    },
                    level=graph.levels[index],
                    plan_cached=cached,
                )
            )
        return PipelineProgram(
            stages=tuple(stages),
            outputs=graph.outputs,
            pairs=tuple(_mark_pairs(stages)),
            fused_rewrites=rewrites,
            fused_epilogues=epilogues,
            # Counted from the per-stage cache-hit flags, not the
            # process-global counter: exact even while other service
            # shards compile concurrently.
            compile_plan_builds=sum(
                1 for stage in stages if not stage.plan_cached
            ),
        )

    def run(self, graph: "Graph | Problem") -> PipelineResult:
        """Compile (warm compiles hit the plan cache) and execute a graph."""
        return self.compile(graph).run()


def _binding(graph: Graph, value: object) -> Binding:
    if isinstance(value, Ref):
        return Binding(source=graph.index_of(value.node), item=value.item)
    return Binding(value=value)


def _mark_pairs(stages: List[PipelineStage]) -> List[Tuple[int, int]]:
    """Pairs of independent (same-level) stages sharing a pairable plan."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for stage in stages:
        if stage.plan.supports_pairing:
            groups.setdefault((stage.level, id(stage.plan)), []).append(
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
            isinstance(target, MatMul)
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
                overlapped=matvec.overlapped,
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
