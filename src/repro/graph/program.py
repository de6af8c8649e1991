"""Compiled pipeline programs and their aggregated results.

A :class:`PipelineProgram` is what :class:`~repro.graph.compiler.GraphCompiler`
lowers a :class:`~repro.graph.graph.Graph` to: per-stage
:class:`~repro.api.plan.ExecutionPlan` objects (resolved through — and
deduplicated by — the owning solver's plan cache), operand bindings that
feed stage outputs or the program's bound values into downstream slots,
dependency levels marking parallelizable stages, and the pairs of
independent same-plan matvec stages that execute together on one
overlapped array run.  The bindings hold slot numbers, never values, so
programs of one graph signature share their stages and differ only in
the values they are bound to (:meth:`PipelineProgram.bound`).

Running a program streams values only: a warm program performs **zero**
plan or transform construction, which is the whole point — a multi-stage
workload re-executed under new operand values costs k plan executions,
not k Python-API round-trips with re-validation and cache probes.

Programs are *partitionable*: :meth:`PipelineProgram.segments` splits the
stage list into :class:`ProgramSegment` units under a placement policy —
one per maximal run of consecutive levels placed wholly on one shard, and
one per ``(level, shard)`` for a level split across shards — and
:meth:`run` executes the unplaced program, which is one segment.  The
serving layer (:mod:`repro.service`) executes the placed segments on
their shards with outputs streamed between them, bit-identical to
:meth:`run` because both walk identical plans over identical operand
bindings in level order.

:class:`PipelineResult` aggregates the per-stage
:class:`~repro.api.solution.Solution` objects, the requested graph
outputs, per-stage residual norms and latencies, the cold/warm
plan-build accounting for both the compile and the run, and — when the
program was served across shards — the per-stage placements plus the
modeled array-time accounting of the level-parallel schedule.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from ..api.plan import ExecutionPlan
from ..api.solution import Solution
from ..instrumentation import counters
from ..obs.tracing import NULL_SPAN, Tracer, active_span

__all__ = [
    "Binding",
    "PipelineProgram",
    "PipelineResult",
    "PipelineStage",
    "ProgramSegment",
]


@dataclass(frozen=True)
class Binding:
    """One operand (or kwarg) slot of a compiled stage.

    Either the program's bound value number ``slot`` (its graph slot
    address, see :meth:`~repro.graph.graph.Graph.signature`), or a
    reference to the output of stage ``source`` (with ``item`` selecting
    one element of a multi-valued output, e.g. an LU factor).  Holds no
    value itself, so one lowering serves every run of its signature.
    """

    slot: Optional[int] = None
    source: Optional[int] = None
    item: Optional[int] = None

    def resolve(self, outputs: List[Any], values: Tuple[Any, ...]) -> Any:
        if self.source is None:
            return values[self.slot]  # type: ignore[index]
        produced = outputs[self.source]
        if self.item is not None:
            return produced[self.item]
        return produced


@dataclass(frozen=True)
class PipelineStage:
    """One lowered stage: a resolved plan plus its operand bindings."""

    index: int
    name: str
    kind: str
    plan: ExecutionPlan
    operands: Tuple[Binding, ...]
    kwargs: Mapping[str, Binding]
    level: int
    #: Whether the stage's plan was already resident at compile time.
    plan_cached: bool


@dataclass(frozen=True)
class ProgramSegment:
    """A run of levels placed on one shard: the unit of placed execution.

    A segment holds either every stage of one or more consecutive levels
    placed wholly on ``shard``, or one shard's share of a level split
    across shards.  Its stages run in ``(level, index)`` order, so every
    input comes from an earlier stage of the segment or from a segment
    of a strictly earlier level — the property that lets the serving
    layer run each segment on its shard and stream outputs between
    segments without ever reordering value flow relative to
    :meth:`PipelineProgram.run`.  ``level`` is the first level of the
    run.  ``pairs`` are the overlapped matvec pairs falling inside this
    segment (pair members share one plan and one level, hence one
    placement, so a pair can never straddle segments).  ``values`` are
    the program's bound operand values, which slot bindings index.
    """

    level: int
    stages: Tuple[PipelineStage, ...]
    pairs: Tuple[Tuple[int, int], ...] = ()
    #: The shard the placement put every stage of this segment on.
    shard: int = 0
    values: Tuple[Any, ...] = ()

    @property
    def stage_indices(self) -> Tuple[int, ...]:
        return tuple(stage.index for stage in self.stages)

    def plan_keys(self) -> Tuple[Tuple, ...]:
        return tuple(stage.plan.key for stage in self.stages)

    def execute(
        self,
        outputs: List[Any],
        solutions: List[Optional[Solution]],
        latencies: List[float],
    ) -> None:
        """Execute this segment's stages against shared execution state.

        ``outputs``/``solutions``/``latencies`` are the whole program's
        per-stage slots; this segment reads upstream outputs from them
        and writes only its own stages' entries.  Paired stages execute
        together through the plan's overlapped contraflow path (values
        identical to sequential execution).
        """
        partner: Dict[int, int] = {}
        for first, second in self.pairs:
            partner[first] = second
            partner[second] = first
        stage_by_index = {stage.index: stage for stage in self.stages}
        values = self.values
        # One thread-local read; when nothing is tracing every stage
        # below uses the shared no-op span.
        parent = active_span()

        def finish(index: int, solution: Solution, elapsed: float) -> None:
            solutions[index] = solution
            outputs[index] = solution.values
            latencies[index] = elapsed

        for stage in self.stages:
            if solutions[stage.index] is not None:
                continue  # already produced as the second half of a pair
            operands = tuple(
                binding.resolve(outputs, values) for binding in stage.operands
            )
            partner_index = partner.get(stage.index)
            start = time.perf_counter()
            if partner_index is not None:
                partner_stage = stage_by_index[partner_index]
                partner_operands = tuple(
                    binding.resolve(outputs, values)
                    for binding in partner_stage.operands
                )
                span = (
                    NULL_SPAN
                    if parent is None
                    else parent.child(
                        f"stage {stage.name}+{partner_stage.name}",
                        category="stage",
                        kind=stage.kind,
                        level=stage.level,
                        paired=True,
                    )
                )
                with span:
                    first, second = stage.plan.execute_pair(
                        operands, partner_operands
                    )
                elapsed = time.perf_counter() - start
                counters.bump("fused_matvec_pairs")
                # The shared run's wall time is attributed to both stages.
                finish(stage.index, first, elapsed)
                finish(partner_index, second, elapsed)
                continue
            kwargs = {
                key: binding.resolve(outputs, values)
                for key, binding in stage.kwargs.items()
            }
            span = (
                NULL_SPAN
                if parent is None
                else parent.child(
                    f"stage {stage.name}",
                    category="stage",
                    kind=stage.kind,
                    level=stage.level,
                )
            )
            with span:
                solution = stage.plan.execute(*operands, **kwargs)
            finish(stage.index, solution, time.perf_counter() - start)


class PipelineProgram:
    """An executable, reusable lowering of one problem graph.

    Bound to the solver (and plan cache) that compiled it; execute with
    :meth:`run` any number of times.  ``pairs`` lists the stage-index
    pairs the compiler marked for shared overlapped execution;
    ``fused_rewrites`` counts matmul→matvec associativity rewrites the
    compiler applied (only under ``fuse=True``); ``fused_epilogues``
    counts head→epilogue chains collapsed into single ``fused`` stages
    (value-exact; applied whenever options resolve to ``vectorized``).
    ``values`` are the operand values the stages' slot bindings index,
    in :meth:`~repro.graph.graph.Graph.signature` order.
    """

    def __init__(
        self,
        stages: Tuple[PipelineStage, ...],
        outputs: Tuple[Tuple[str, int], ...],
        pairs: Tuple[Tuple[int, int], ...] = (),
        fused_rewrites: int = 0,
        compile_plan_builds: int = 0,
        fused_epilogues: int = 0,
        values: Tuple[Any, ...] = (),
    ):
        self._stages = stages
        self._outputs = outputs
        self._pairs = pairs
        self._pair_partner: Dict[int, int] = {}
        for first, second in pairs:
            self._pair_partner[first] = second
            self._pair_partner[second] = first
        self._fused_rewrites = int(fused_rewrites)
        self._compile_plan_builds = int(compile_plan_builds)
        self._fused_epilogues = int(fused_epilogues)
        self._values = values
        self._names = tuple(stage.name for stage in stages)
        self._kinds = tuple(stage.kind for stage in stages)
        self._levels = tuple(stage.level for stage in stages)
        # The unplaced program is one segment in (level, index) order: a
        # paired partner's dependencies may sit *after* the pair's first
        # member in the graph's topological order, but always on a
        # strictly lower level, so every pair fires with both members'
        # inputs resolved.  Value-free, so bound copies share it.
        self._unplaced = ProgramSegment(
            level=min((stage.level for stage in stages), default=0),
            stages=tuple(sorted(stages, key=lambda s: (s.level, s.index))),
            pairs=pairs,
        )
        self._ran = False

    def bound(self, values: Tuple[Any, ...]) -> "PipelineProgram":
        """This program over other operand values, with its own charge.

        Shares the stages, plans, pairs and unplaced segment; the copy
        starts unrun, so its first run carries this program's compile
        charge (zero for a program compiled from cached plans).
        """
        program = copy.copy(self)
        program._values = values
        program._ran = False
        return program

    # -- introspection ----------------------------------------------------------------
    @property
    def stages(self) -> Tuple[PipelineStage, ...]:
        return self._stages

    @property
    def outputs(self) -> Tuple[Tuple[str, int], ...]:
        return self._outputs

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Stage-index pairs that share one overlapped array run."""
        return self._pairs

    @property
    def fused_rewrites(self) -> int:
        return self._fused_rewrites

    @property
    def fused_epilogues(self) -> int:
        """Head→epilogue chains collapsed into single ``fused`` stages."""
        return self._fused_epilogues

    @property
    def compile_plan_builds(self) -> int:
        """Plans built (not cache-hit) while compiling this program."""
        return self._compile_plan_builds

    @property
    def n_levels(self) -> int:
        return 1 + max((stage.level for stage in self._stages), default=-1)

    def plan_keys(self) -> Tuple[Tuple, ...]:
        return tuple(stage.plan.key for stage in self._stages)

    def level_partition(self) -> Tuple[Tuple[PipelineStage, ...], ...]:
        """Stages grouped by dependency level, in level order."""
        by_level: Dict[int, List[PipelineStage]] = {}
        for stage in self._stages:
            by_level.setdefault(stage.level, []).append(stage)
        return tuple(
            tuple(sorted(by_level[level], key=lambda s: s.index))
            for level in sorted(by_level)
        )

    def segments(
        self,
        placement: Optional[Callable[[Hashable], int]] = None,
    ) -> Tuple[ProgramSegment, ...]:
        """Split the program into placed execution segments.

        ``placement`` is a plan-key → shard callable (e.g.
        ``PlacementTable.shard_of``), called once per stage; with none,
        every stage is on shard 0.  A maximal run of consecutive levels
        whose stages all sit on one shard is one segment; a level split
        across shards gets one segment per ``(level, shard)`` and ends the
        run on both sides.  With no placement the whole program is one
        segment.  Segments come in level order, and executing them in that
        order is exactly :meth:`run`'s schedule; segments sharing a
        ``level`` are independent of one another.
        """
        runs: List[Tuple[int, int, List[PipelineStage]]] = []
        extendable = False  # may the last run absorb a one-shard level?
        for group in self.level_partition():
            by_shard: Dict[int, List[PipelineStage]] = {}
            for stage in group:
                shard = 0 if placement is None else int(placement(stage.plan.key))
                by_shard.setdefault(shard, []).append(stage)
            level = group[0].level
            if len(by_shard) > 1:
                runs.extend(
                    (level, shard, by_shard[shard]) for shard in sorted(by_shard)
                )
                extendable = False
                continue
            shard, stages = next(iter(by_shard.items()))
            if extendable and runs[-1][1] == shard:
                runs[-1][2].extend(stages)
            else:
                runs.append((level, shard, stages))
            extendable = True
        segments: List[ProgramSegment] = []
        for level, shard, stages in runs:
            indices = {stage.index for stage in stages}
            pairs = tuple(
                (first, second)
                for first, second in self._pairs
                if first in indices and second in indices
            )
            segments.append(
                ProgramSegment(
                    level=level, stages=tuple(stages), pairs=pairs,
                    shard=shard, values=self._values,
                )
            )
        return tuple(segments)

    def describe(self) -> str:
        """Stage table: level partition, plan reuse, pairing."""
        unique_plans = len({id(stage.plan) for stage in self._stages})
        lines = [
            (
                f"PipelineProgram: {len(self._stages)} stage(s) over "
                f"{self.n_levels} level(s), {unique_plans} distinct plan(s), "
                f"{len(self._pairs)} overlapped pair(s), "
                f"{self._fused_rewrites} fusion rewrite(s), "
                f"{self._fused_epilogues} fused epilogue group(s)"
            )
        ]
        partition = " | ".join(
            f"{group[0].level}: " + ", ".join(stage.name for stage in group)
            for group in self.level_partition()
        )
        lines.append(f"  levels:    {partition}")
        for stage in self._stages:
            marks = []
            if stage.plan_cached:
                marks.append("warm")
            if stage.index in self._pair_partner:
                partner = self._stages[self._pair_partner[stage.index]].name
                marks.append(f"paired with {partner}")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(
                f"  [{stage.level}] {stage.name}: {stage.kind} "
                f"shapes={stage.plan.shapes}{suffix}"
            )
        outputs = ", ".join(name for name, _index in self._outputs)
        lines.append(f"  outputs: {outputs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PipelineProgram(stages={len(self._stages)}, "
            f"pairs={len(self._pairs)})"
        )

    # -- execution --------------------------------------------------------------------
    def consume_compile_charge(self) -> int:
        """The compile-time plan builds to charge to the next result.

        Charged exactly once — to the first :meth:`run` (or the first
        served execution) — so every later execution of a resident
        program reports ``warm`` as soon as execution itself builds
        nothing.
        """
        charged = 0 if self._ran else self._compile_plan_builds
        self._ran = True
        return charged

    def run(self, tracer: Optional[Tracer] = None) -> "PipelineResult":
        """Execute every stage in dependency order; returns the result.

        Runs the unplaced program as its one segment, in ``(level,
        index)`` order (built once, at construction) — stage outputs
        feed downstream operand slots in memory; paired stages execute
        together through the plan's overlapped contraflow path (values
        identical to sequential execution); everything else streams
        through its plan one stage at a time.

        Pass an enabled :class:`~repro.obs.tracing.Tracer` to profile
        the run: a ``pipeline.run`` root span opens with per-stage
        children (and, under them, the plan-level ``plan.execute`` /
        ``plan_lookup`` spans), making warm-up plan builds and cold
        inner-engine compiles visible.  Served executions instead nest
        under the request trace the service attached.
        """
        counters.bump("graph_runs")
        charged_compile_builds = self.consume_compile_charge()
        root = NULL_SPAN
        if tracer is not None and tracer.enabled:
            root = tracer.start_trace(
                "pipeline.run",
                stages=len(self._stages),
                levels=self.n_levels,
            )
        total_start = time.perf_counter()
        n = len(self._stages)
        solutions: List[Optional[Solution]] = [None] * n
        outputs: List[Any] = [None] * n
        latencies: List[float] = [0.0] * n
        unplaced = self._unplaced
        with root:
            ProgramSegment(
                unplaced.level, unplaced.stages, unplaced.pairs,
                values=self._values,
            ).execute(outputs, solutions, latencies)
        return self.assemble(
            solutions,
            outputs,
            latencies,
            total_seconds=time.perf_counter() - total_start,
            compile_plan_builds=charged_compile_builds,
        )

    def assemble(
        self,
        solutions: List[Optional[Solution]],
        outputs: List[Any],
        latencies: List[float],
        total_seconds: float,
        compile_plan_builds: int,
        placements: Tuple[int, ...] = (),
    ) -> "PipelineResult":
        """Fold executed per-stage state into a :class:`PipelineResult`.

        Shared by :meth:`run` and the serving layer's cross-shard
        pipelined execution (which passes the per-stage ``placements`` it
        executed under).
        """
        # Execution-time builds are the inner plans the iterative kinds
        # build on their first sweep; every solution reports its own
        # (per-solve, hence shard-exact) split, so summing them stays
        # correct while other service shards build concurrently — unlike
        # a diff of the process-global counter.
        run_builds = sum(
            int(solution.stats.get("plan_builds_first_sweep", 0))
            + int(solution.stats.get("plan_builds_warm_sweeps", 0))
            for solution in solutions
            if solution is not None
        )
        return PipelineResult(
            names=self._names,
            kinds=self._kinds,
            solutions=tuple(solutions),  # type: ignore[arg-type]
            outputs=tuple(
                (name, outputs[index]) for name, index in self._outputs
            ),
            stage_seconds=tuple(latencies),
            total_seconds=total_seconds,
            plan_builds=run_builds,
            compile_plan_builds=compile_plan_builds,
            fused_pairs=len(self._pairs),
            fused_rewrites=self._fused_rewrites,
            levels=self._levels,
            placements=tuple(placements),
            fused_epilogues=self._fused_epilogues,
        )


def _solution_steps(solution: Solution) -> int:
    """Modeled array steps of one stage (0 for host-epilogue kinds)."""
    steps = getattr(solution, "measured_steps", 0)
    return int(steps) if steps else 0


@dataclass(frozen=True)
class PipelineResult:
    """Aggregated result of one :meth:`PipelineProgram.run`.

    ``plan_builds`` counts plans built *during the run* — the inner
    engine plans the iterative kinds warm up on their first sweep, as
    reported per solution (engine-local accounting, exact even while
    other service shards compile concurrently).
    ``compile_plan_builds`` counts stage plans built when the program
    was compiled (charged to the first run).  A fully warm pipeline
    reports zero for both.

    ``placements`` is the per-stage shard assignment when the program
    executed through the serving layer's cross-shard pipeline (empty for
    a plain single-solver :meth:`PipelineProgram.run`).
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    solutions: Tuple[Solution, ...]
    outputs: Tuple[Tuple[str, Any], ...]
    stage_seconds: Tuple[float, ...]
    total_seconds: float
    plan_builds: int
    compile_plan_builds: int
    fused_pairs: int
    fused_rewrites: int
    levels: Tuple[int, ...] = ()
    placements: Tuple[int, ...] = ()
    #: Head→epilogue chains that executed as single ``fused`` stages.
    fused_epilogues: int = 0

    @property
    def warm(self) -> bool:
        """True when neither compile nor run built a single plan."""
        return self.plan_builds == 0 and self.compile_plan_builds == 0

    @property
    def values(self) -> Any:
        """The single graph output's values (errors if there are several)."""
        if len(self.outputs) != 1:
            names = ", ".join(name for name, _values in self.outputs)
            raise ValueError(
                f"pipeline has {len(self.outputs)} outputs ({names}); "
                f"select one with result.output(name)"
            )
        return self.outputs[0][1]

    def output(self, name: str) -> Any:
        """The values of the graph output called ``name``."""
        for output_name, values in self.outputs:
            if output_name == name:
                return values
        known = ", ".join(output_name for output_name, _values in self.outputs)
        raise KeyError(f"no pipeline output {name!r} (outputs: {known})")

    def __getitem__(self, name: str) -> Solution:
        """The per-stage :class:`Solution` of the stage called ``name``."""
        try:
            return self.solutions[self.names.index(name)]
        except ValueError:
            known = ", ".join(self.names)
            raise KeyError(f"no pipeline stage {name!r} (stages: {known})") from None

    @property
    def residuals(self) -> Mapping[str, float]:
        """Per-stage residual norms, where the stage's kind reports one."""
        found: Dict[str, float] = {}
        for name, solution in zip(self.names, self.solutions):
            residual = solution.stats.get("residual_norm")
            if residual is not None:
                found[name] = float(residual)
        return found

    @property
    def stage_latency(self) -> Mapping[str, float]:
        """Per-stage wall seconds (paired stages share their run's time)."""
        return dict(zip(self.names, self.stage_seconds))

    # -- modeled array-time accounting --------------------------------------------
    def modeled_sequential_steps(self) -> int:
        """Total modeled array steps executed one stage after another.

        The single-array (single-shard) schedule's modeled completion
        time: the sum of every stage's ``measured_steps`` (host-epilogue
        kinds report zero; paired stages each report their shared
        overlapped run, which both schedules count identically).
        """
        return sum(
            _solution_steps(solution) for solution in self.solutions
        )

    def modeled_pipeline_steps(self) -> int:
        """Modeled completion steps of the level-parallel placed schedule.

        Stages on one level are independent; placed on distinct shards
        (arrays) they run simultaneously in the modeled machine, so a
        level costs the *maximum* over shards of that shard's summed
        stage steps — against the sequential schedule's sum.  With no
        placements recorded every level collapses to one shard and this
        equals :meth:`modeled_sequential_steps`.
        """
        by_level: Dict[int, Dict[int, int]] = {}
        for index, solution in enumerate(self.solutions):
            level = self.levels[index] if self.levels else 0
            shard = self.placements[index] if self.placements else 0
            shards = by_level.setdefault(level, {})
            shards[shard] = shards.get(shard, 0) + _solution_steps(solution)
        return sum(
            max(shards.values()) for shards in by_level.values() if shards
        )

    def level_partition(self) -> Tuple[Tuple[str, ...], ...]:
        """Stage names grouped by dependency level, in level order."""
        by_level: Dict[int, List[str]] = {}
        for index, name in enumerate(self.names):
            level = self.levels[index] if self.levels else 0
            by_level.setdefault(level, []).append(name)
        return tuple(
            tuple(by_level[level]) for level in sorted(by_level)
        )

    def describe(self) -> str:
        """Multi-line per-graph report: level partition, placements, fusion,
        builds, latency."""
        build_state = "warm" if self.warm else "cold"
        lines = [
            (
                f"PipelineResult: {len(self.solutions)} stage(s) in "
                f"{self.total_seconds * 1e3:.2f} ms ({build_state}: "
                f"{self.compile_plan_builds} compile + {self.plan_builds} "
                f"run plan build(s))"
            ),
            (
                f"  fusion:    {self.fused_pairs} overlapped pair(s), "
                f"{self.fused_rewrites} matmul->matvec rewrite(s), "
                f"{self.fused_epilogues} fused epilogue group(s)"
            ),
        ]
        partition = " | ".join(
            f"{level}: " + ", ".join(names)
            for level, names in zip(
                sorted({lvl for lvl in (self.levels or (0,) * len(self.names))}),
                self.level_partition(),
            )
        )
        lines.append(f"  levels:    {partition}")
        if self.placements:
            sequential = self.modeled_sequential_steps()
            pipelined = self.modeled_pipeline_steps()
            shards = ", ".join(
                str(shard) for shard in sorted(set(self.placements))
            )
            lines.append(
                f"  placement: shards [{shards}], modeled steps "
                f"{pipelined} pipelined vs {sequential} sequential"
            )
        residuals = self.residuals
        for index, (name, solution) in enumerate(zip(self.names, self.solutions)):
            level = self.levels[index] if self.levels else 0
            extra = ""
            if self.placements:
                extra += f" @shard {self.placements[index]}"
            if name in residuals:
                extra += f", residual {residuals[name]:.3e}"
            if solution.stats.get("paired"):
                extra += ", paired"
            lines.append(
                f"  [{level}] {name}: {solution.kind} in "
                f"{self.stage_seconds[index] * 1e3:.2f} ms"
                f"{extra}"
            )
        outputs = ", ".join(name for name, _values in self.outputs)
        lines.append(f"  outputs:   {outputs}")
        return "\n".join(lines)
