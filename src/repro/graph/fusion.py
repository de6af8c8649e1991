"""Cross-stage epilogue fusion: collapsing head→epilogue chains.

The NN inference graphs of :mod:`repro.nn` interleave array stages with
host epilogues — ``dense → bias → relu`` in float, and the quantized
datapath ``dense → dequantize → bias → relu → quantize`` in int8.  Each
epilogue is an O(n) elementwise pass, but as separate pipeline stages
they each pay plan resolution, binding resolution, Solution wrapping and
a fresh walk over the activation vector.  This module rewrites such
chains into single :class:`Fused` stages executed by one
:class:`FusedPlan`, which streams the head's output straight through the
epilogue transforms.

The rewrite is *value-exact*: every epilogue applies the identical
elementwise computation (:class:`~repro.nn.engine.ElementwisePlan`) to
the identical head output, in the identical order, so fused results are
bit-for-bit equal to the unfused pipeline — unlike the opt-in
matmul→matvec associativity rewrite, nothing is reassociated.
:class:`~repro.graph.compiler.GraphCompiler` applies it whenever the
base options resolve to the ``vectorized`` backend; ``simulate``
compilations run stage by stage, so the oracle path never fuses.

A chain fuses only when it is *exclusively linear*:

* the head (``dense`` or ``matvec``) and every intermediate stage feed
  exactly one reference — the next stage's value slot — and nothing
  else: no second consumer, no ordering (``.then``) edge onto them, and
  none of them is a requested graph output (the chain's *tail* may be
  all of those; it survives as the fused node);
* every member runs under the compiler's base options: nodes carrying
  per-node ``options`` or option overrides pin how *that* stage
  executes, so they are left unfused rather than silently merged
  (the head's ``dtype_mode`` is the exception — it is carried onto the
  fused node, preserving the int8 datapath);
* the value flows through each epilogue's *first* operand; a stage that
  consumes the running value anywhere else (for example as a bias
  vector) terminates the chain before itself;
* fusion never adds a dependency: an epilogue whose other inputs (a
  bias vector produced by another stage, a ``.then`` edge) are not
  already ancestors of the head terminates the chain before itself.
  Otherwise the fused stage would wait on a branch the head runs
  beside, serializing stages that were independent.

Fused stages execute their epilogues inline, outside the cycle-level
machinery, so they never record data-flow traces — which the
``vectorized`` backend cannot record anyway.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from ..api.config import ArraySpec, ExecutionOptions
from ..api.registry import ProblemHandler, register
from ..api.solution import Solution
from ..backends.registry import SIMULATE
from ..core.plans import MatVecPlan
from ..errors import ShapeError
from ..nn.engine import DensePlan, ElementwisePlan
from .graph import Graph
from .problems import Problem, Ref, ShapeOf

__all__ = [
    "EPILOGUE_KINDS",
    "HEAD_KINDS",
    "Fused",
    "FusedHandler",
    "FusedPlan",
    "fuse_epilogue_chains",
]

#: Kinds that can anchor a fused chain (array stages producing a vector).
HEAD_KINDS = ("dense", "matvec")
#: Elementwise kinds that can ride a fused chain behind a head.
EPILOGUE_KINDS = ("bias", "relu", "quantize", "dequantize")

#: Extra operand slots (beyond the flowing value) per epilogue kind,
#: lifted onto the fused node as stage-prefixed execution kwargs.
_EPILOGUE_OPERANDS: Dict[str, Tuple[str, ...]] = {"bias": ("b",)}


class Fused(Problem):
    """One pipeline node standing for a fused head→epilogue chain.

    Built by :func:`fuse_epilogue_chains`, never by hand: it inherits
    the chain tail's name (so per-stage lookups keep addressing the same
    pipeline position), the head's operand slots and ``dtype_mode``, and
    every member's execution arguments under stage-prefixed keys —
    ``s0_x_zero_point`` for the head, ``s1_b`` / ``s2_scale`` / ... for
    the epilogues — which is how per-stage values (and references, like
    a bias vector produced by another stage) survive the merge.
    """

    kind = "fused"
    produces = "vector"
    option_keywords = ("dtype_mode",)

    def __init__(self, members: Tuple[Problem, ...]):
        head = members[0]
        super().__init__(
            name=members[-1].name, dtype_mode=getattr(head, "dtype_mode", None)
        )
        self.kinds: Tuple[str, ...] = tuple(member.kind for member in members)
        self.head_operands: Tuple[Any, ...] = tuple(head.operand_values())
        stage_kwargs: Dict[str, Any] = {}
        for position, member in enumerate(members):
            for key, value in member.execute_kwargs().items():
                stage_kwargs[f"s{position}_{key}"] = value
            for slot in _EPILOGUE_OPERANDS.get(member.kind, ()):
                stage_kwargs[f"s{position}_{slot}"] = getattr(member, slot)
        self.stage_kwargs = stage_kwargs

    def operand_values(self) -> Tuple[Any, ...]:
        return self.head_operands

    def execute_kwargs(self) -> Dict[str, Any]:
        return dict(self.stage_kwargs)

    def slot_values(self) -> Tuple[Any, ...]:
        return self.head_operands + tuple(self.stage_kwargs.values())

    def with_slot_values(self, values: Tuple[Any, ...]) -> "Fused":
        clone = copy.copy(self)
        heads = len(self.head_operands)
        clone.head_operands = tuple(values[:heads])
        clone.stage_kwargs = dict(zip(self.stage_kwargs, values[heads:]))
        return clone

    def spec_and_output(self, shape_of: ShapeOf):
        n, m = self._matrix_shape(shape_of, self.head_operands[0], "matrix")
        self._vector_length(shape_of, self.head_operands[1], "x", m)
        if len(self.head_operands) > 2:
            self._vector_length(shape_of, self.head_operands[2], "b", n)
        spec: List[Tuple[str, Tuple[int, ...]]] = [(self.kinds[0], (n, m))]
        for position, kind in enumerate(self.kinds[1:], start=1):
            for slot in _EPILOGUE_OPERANDS.get(kind, ()):
                self._vector_length(
                    shape_of,
                    self.stage_kwargs[f"s{position}_{slot}"],
                    f"s{position}_{slot}",
                    n,
                )
            spec.append((kind, (n,)))
        return tuple(spec), (n,)


class FusedPlan:
    """Compiled executor of one fused chain: head plan + inline epilogues.

    The head is the ordinary array plan of its kind —
    :class:`~repro.nn.engine.DensePlan` or
    :class:`~repro.core.plans.MatVecPlan`, built under the fused stage's
    resolved backend — so the array-side values and metrics are exactly
    the unfused head stage's.  The epilogues are the same
    :class:`~repro.nn.engine.ElementwisePlan` transforms the standalone
    stages run, applied to the head's output vector without leaving the
    plan, which is what makes fusion value-exact by construction.
    """

    supports_pairing = False

    def __init__(
        self,
        stages: Tuple[Tuple[str, Tuple[int, ...]], ...],
        w: int,
        backend: str = SIMULATE,
        dtype_mode: str = "float64",
    ):
        head_kind, head_shape = stages[0]
        if head_kind not in HEAD_KINDS:
            raise ShapeError(
                f"fused chains start with one of {HEAD_KINDS}, "
                f"got {head_kind!r}"
            )
        n, m = head_shape
        self._head_kind = head_kind
        # Fused stages never trace: epilogues run outside the cycle-level
        # machinery, so the compiler only fuses trace-free compilations.
        if head_kind == "dense":
            self._head: Any = DensePlan(
                n, m, w, backend=backend, dtype_mode=dtype_mode
            )
        else:
            self._head = MatVecPlan(n, m, w, backend=backend)
        for kind, shape in stages[1:]:
            if kind not in EPILOGUE_KINDS:
                raise ShapeError(
                    f"fused epilogue kinds are {EPILOGUE_KINDS}, got {kind!r}"
                )
            if shape != (n,):
                raise ShapeError(
                    f"fused epilogue {kind!r} must keep the head's output "
                    f"length {n}, got shape {shape}"
                )
        self._epilogues: Tuple[Tuple[str, ElementwisePlan], ...] = tuple(
            (kind, ElementwisePlan(kind, shape[0], w,
                                   backend=backend, dtype_mode=dtype_mode))
            for kind, shape in stages[1:]
        )
        self._dtype_mode = dtype_mode

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The member kinds, head first."""
        return (self._head_kind,) + tuple(k for k, _plan in self._epilogues)

    @property
    def dtype_mode(self) -> str:
        return self._dtype_mode

    @property
    def backend(self) -> str:
        return self._head.backend

    def execute(self, *head_operands, **stage_kwargs):
        """``(head solution, fused output values)`` for one operand set."""
        per_stage: List[Dict[str, Any]] = [
            {} for _ in range(1 + len(self._epilogues))
        ]
        for key, value in stage_kwargs.items():
            tag, _, name = key.partition("_")
            try:
                position = int(tag[1:]) if tag[:1] == "s" else -1
            except ValueError:
                position = -1
            if not (0 <= position < len(per_stage)) or not name:
                raise TypeError(
                    f"fused execution kwargs are stage-prefixed "
                    f"('s<stage>_<name>'), got {key!r}"
                )
            per_stage[position][name] = value
        if self._head_kind == "dense":
            legacy = self._head.execute(
                head_operands[0],
                head_operands[1],
                x_zero_point=per_stage[0].get("x_zero_point", 0),
            )
        else:
            b = head_operands[2] if len(head_operands) > 2 else None
            legacy = self._head.execute(head_operands[0], head_operands[1], b)
        values = legacy.y
        for position, (kind, plan) in enumerate(self._epilogues, start=1):
            kwargs = per_stage[position]
            if kind == "bias":
                values = plan.bias(values, kwargs["b"])
            elif kind == "relu":
                values = plan.relu(values)
            elif kind == "quantize":
                values = plan.quantize(
                    values, kwargs["scale"], kwargs.get("zero_point", 0)
                )
            else:
                values = plan.dequantize(
                    values, kwargs["scale"], kwargs.get("zero_point", 0)
                )
        return legacy, values


class FusedHandler(ProblemHandler):
    """Registry adapter of the ``fused`` kind.

    The composite shape spec — ``((head_kind, (n, m)), (kind, (n,)),
    ...)`` — keys the plan cache, so two chains with the same stage
    structure and shapes share one compiled :class:`FusedPlan` (and the
    key round-trips through :class:`~repro.store.PlanStore` like any
    other kind's).
    """

    kind = "fused"

    def shapes(self, *, operands=None, shape=None):
        if shape is None:
            raise ShapeError(
                "fused needs shape=((head_kind, (n, m)), (kind, (n,)), ...) "
                "(fused stages are compiler-generated, not built from "
                "operands)"
            )
        try:
            return tuple(
                (str(kind), tuple(int(dim) for dim in dims))
                for kind, dims in shape
            )
        except (TypeError, ValueError):
            raise ShapeError(
                f"malformed fused shape spec {shape!r}; expected "
                f"((head_kind, (n, m)), (kind, (n,)), ...)"
            ) from None

    def build(self, spec: ArraySpec, options: ExecutionOptions, shapes):
        return FusedPlan(
            shapes, spec.w,
            backend=options.backend,
            dtype_mode=options.dtype_mode,
        )

    def execute(self, plan, *operands, **kwargs) -> Solution:
        legacy, values = plan.executor.execute(*operands, **kwargs)
        kinds = plan.executor.kinds
        # A Solution of its own, not the head's: its values are the last
        # epilogue's output, and raw keeps the head's solution.
        return Solution(
            kind=self.kind,
            w=plan.spec.w,
            values=values,
            measured_steps=legacy.measured_steps,
            predicted_steps=legacy.predicted_steps,
            measured_utilization=legacy.measured_utilization,
            predicted_utilization=legacy.predicted_utilization,
            feedback=legacy.feedback,
            stats={
                "fused_kinds": "+".join(kinds),
                "fused_stages": len(kinds),
                "dtype_mode": plan.executor.dtype_mode,
            },
            raw=legacy,
        )


# ----------------------------------------------------------------------------- #
# the graph rewrite
# ----------------------------------------------------------------------------- #
def _head_eligible(node: Problem, base_options: ExecutionOptions) -> bool:
    if node.kind not in HEAD_KINDS or node.options is not None:
        return False
    overrides = dict(node.option_overrides())
    # The head's dtype_mode is carried onto the fused node, so it does
    # not disqualify; anything else (overlapped=, ...) pins execution.
    overrides.pop("dtype_mode", None)
    if any(value is not None for value in overrides.values()):
        return False
    if node.kind == "matvec" and base_options.overlapped:
        # An overlapped base compilation runs matvec stages on the
        # overlapped plan; the fused head would not, changing metrics.
        return False
    return True


def _clean_epilogue(node: Problem) -> bool:
    return node.options is None and all(
        value is None for value in node.option_overrides().values()
    )


def _ancestors(graph: Graph, index: int) -> set:
    """Indices of every node that node ``index`` transitively depends on."""
    seen: set = set()
    stack = list(graph.dependencies(index))
    while stack:
        dep = stack.pop()
        if dep not in seen:
            seen.add(dep)
            stack.extend(graph.dependencies(dep))
    return seen


def fuse_epilogue_chains(
    graph: Graph, base_options: Optional[ExecutionOptions] = None
) -> Tuple[Graph, int]:
    """Collapse exclusive head→epilogue chains into :class:`Fused` nodes.

    Returns the rewritten graph and the number of chains fused (the
    original graph, unchanged, when nothing fuses).  See the module
    docstring for the exact eligibility rules; the rewrite itself runs
    in three passes — detect chains, build every fused node with its
    members' *raw* references, then remap references in one topological
    walk — because a chain's lifted kwargs (a bias vector, say) may
    reference another chain's tail, which only has its replacement once
    that tail's position is reached.
    """
    base = base_options if base_options is not None else ExecutionOptions()

    # Pass 1: detect exclusively-linear chains.
    ref_consumers: Dict[Problem, List[Tuple[Problem, Ref]]] = {}
    after_targets: Dict[Problem, int] = {}
    for node in graph.nodes:
        for ref in node.iter_refs():
            ref_consumers.setdefault(ref.node, []).append((node, ref))
        for predecessor in node.after:
            after_targets[predecessor] = after_targets.get(predecessor, 0) + 1
    output_nodes = {graph.nodes[index] for _name, index in graph.outputs}

    chains: List[List[Problem]] = []
    member_of: set = set()
    for node in graph.nodes:
        if node in member_of or not _head_eligible(node, base):
            continue
        chain = [node]
        current = node
        head_ancestors: Optional[set] = None
        while True:
            # The running tail may be an output or an ordering target
            # (its replacement is remapped); members *before* it cannot
            # be, so the chain never extends past such a node.
            if current in output_nodes or after_targets.get(current):
                break
            consumers = ref_consumers.get(current, [])
            if len(consumers) != 1:
                break
            consumer, ref = consumers[0]
            if ref.item is not None or consumer.kind not in EPILOGUE_KINDS:
                break
            if consumer in member_of or not _clean_epilogue(consumer):
                break
            operands = consumer.operand_values()
            # The value must flow through the first operand slot; a stage
            # consuming it elsewhere (e.g. as its bias vector) breaks the
            # chain before itself.
            if not operands or operands[0] is not ref:
                break
            # Every other input must already precede the head, so the
            # fused node depends on nothing the head did not.
            extra = set(graph.dependencies(graph.index_of(consumer)))
            extra.discard(graph.index_of(current))
            if extra:
                if head_ancestors is None:
                    head_ancestors = _ancestors(graph, graph.index_of(node))
                if not extra <= head_ancestors:
                    break
            chain.append(consumer)
            current = consumer
        if len(chain) >= 2:
            chains.append(chain)
            member_of.update(chain)

    if not chains:
        return graph, 0

    # Pass 2: build every fused node with raw (unmapped) references.
    tail_to_fused: Dict[Problem, Fused] = {}
    for chain in chains:
        fused = Fused(tuple(chain))
        members = set(chain)
        afters: List[Problem] = []
        for member in chain:
            for predecessor in member.after:
                if predecessor not in members and predecessor not in afters:
                    afters.append(predecessor)
        fused.after = tuple(afters)
        tail_to_fused[chain[-1]] = fused

    # Pass 3: remap references in one topological walk.  By the time a
    # node is reached, every node it references already has its final
    # replacement in ``mapping`` — including other chains' tails.
    mapping: Dict[Problem, Problem] = {}

    def remapped(value: Any) -> Any:
        if isinstance(value, Ref) and value.node in mapping:
            return Ref(mapping[value.node], value.item)
        return value

    for node in graph.nodes:
        fused = tail_to_fused.get(node)
        if fused is not None:
            fused.head_operands = tuple(
                remapped(value) for value in fused.head_operands
            )
            fused.stage_kwargs = {
                key: remapped(value)
                for key, value in fused.stage_kwargs.items()
            }
            fused.after = tuple(mapping.get(p, p) for p in fused.after)
            mapping[node] = fused
            continue
        if node in member_of:
            continue  # non-tail member: absorbed into its fused node
        clone: Problem = node
        for attr, value in list(vars(node).items()):
            if isinstance(value, Ref) and value.node in mapping:
                replacement: Any = Ref(mapping[value.node], value.item)
            elif attr == "after" and any(p in mapping for p in value):
                replacement = tuple(mapping.get(p, p) for p in value)
            else:
                continue
            if clone is node:
                clone = copy.copy(node)
            setattr(clone, attr, replacement)
        if clone is not node:
            mapping[node] = clone

    named: Dict[str, Problem] = {}
    positional: List[Problem] = []
    for name, index in graph.outputs:
        out = mapping.get(graph.nodes[index], graph.nodes[index])
        if out.name == name:
            positional.append(out)
        else:
            named[name] = out
    return Graph(*positional, **named), len(chains)


register(FusedHandler())
