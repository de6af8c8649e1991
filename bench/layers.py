"""The traced run: per-layer metrics measured from outside the program.

The program is not modified.  For the length of the traced phase,
:class:`LayerClock` wraps the public entry points of each layer —

=============  ============================================================
``kernel``     ``LinearSweepPlan.sweep``/``int_sweep`` (and the compiled
               subclass's overrides), ``HexSweepPlan.execute``
``execute``    ``ExecutionPlan.execute``/``execute_problem``/``execute_pair``
``api``        ``Solver.solve``/``solve_problem``/``solve_batch``
``graph.*``    ``GraphCompiler.compile`` and ``GraphCompiler.run`` /
               ``PipelineProgram.run``
=============  ============================================================

— with a timer that keeps a per-thread stack, so each record carries its
duration and its *self* time (duration minus the time of the layers it
called).  The service layer is read from the spans of a
``repro.obs.Tracer`` handed to ``SolverService(tracer=...)`` and from
``service.stats()``; plan builds from ``instrumentation.counters``.

Methods that a later version of the program renames or removes are
skipped (and listed in the run's header) rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import MatVec, Solver, SolverService
from repro.instrumentation import counters
from repro.obs import Tracer

import loadgen
from loadgen import (
    PACED_RATE,
    WINDOW,
    DirectTarget,
    Oracle,
    PhaseResult,
    build_service,
    median,
    percentile,
    run_direct,
    run_paced,
    run_saturated,
    load_threads,
    make_workload,
    submit,
)
from streams import Item, Workload, soak_mix

#: (layer, module, class, methods) wrapped by the traced run.
LAYER_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("kernel", "repro.backends.vectorized", "LinearSweepPlan",
     ("sweep", "int_sweep")),
    ("kernel", "repro.compiled.lowering", "CompiledLinearPlan",
     ("sweep", "int_sweep")),
    ("kernel", "repro.backends.vectorized", "HexSweepPlan", ("execute",)),
    ("execute", "repro.api.plan", "ExecutionPlan",
     ("execute", "execute_problem", "execute_pair")),
    ("api", "repro.api.solver", "Solver",
     ("solve", "solve_problem", "solve_batch")),
    ("graph.compile", "repro.graph.compiler", "GraphCompiler", ("compile",)),
    ("graph.run", "repro.graph.compiler", "GraphCompiler", ("run",)),
    ("graph.run", "repro.graph.program", "PipelineProgram", ("run",)),
)

#: Outermost frame the direct load generator opens around each request.
REQUEST = "request"


class Record:
    """One timed call into a layer."""

    __slots__ = ("layer", "duration", "self_time", "top", "thread", "tag",
                 "flops", "nbytes")

    def __init__(self, layer, duration, self_time, top, thread, tag,
                 flops=0, nbytes=0):
        self.layer = layer
        self.duration = duration
        self.self_time = self_time
        self.top = top
        self.thread = thread
        self.tag = tag
        self.flops = flops
        self.nbytes = nbytes


def _kernel_work(args: tuple) -> Tuple[int, int]:
    """Useful flops and operand+result bytes of a kernel call (computed
    from operand sizes, not measured traffic)."""
    arrays = [np.asarray(a) for a in args[1:] if a is not None]
    if len(arrays) < 2:
        return 0, 0
    a, b = arrays[0], arrays[1]
    if b.ndim == 1:  # mat-vec sweep: A (n, m), x (m,)
        flops = 2 * a.size
        out = a.shape[0] * 8
    else:  # hexagonal mat-mul: A (n, p), B (p, m)
        flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
        out = a.shape[0] * b.shape[1] * 8
    return flops, sum(x.nbytes for x in arrays) + out


class _Frame:
    """A timed region on one thread's layer stack (see LayerClock.frame)."""

    __slots__ = ("clock", "layer", "tag", "child", "t0")

    def __init__(self, clock: "LayerClock", layer: str, tag: Any = None):
        self.clock = clock
        self.layer = layer
        self.tag = tag
        self.child = 0.0

    def __enter__(self) -> "_Frame":
        self.clock._stack().append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.clock._close(self, time.perf_counter() - self.t0)
        return False


class LayerClock:
    """Installs timing wrappers on the layer entry points while active."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.skipped: List[str] = []
        self._local = threading.local()
        self._saved: List[Tuple[type, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def frame(self, layer: str, tag: Any = None) -> _Frame:
        """Time one region as ``layer``; a context manager."""
        return _Frame(self, layer, tag)

    def _close(self, frame: _Frame, duration: float, args: tuple = ()) -> None:
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None and parent.layer == frame.layer:
            # Same layer re-entered (solve -> solve_problem): one call.
            parent.child += frame.child
            return
        if parent is not None:
            parent.child += duration
        flops, nbytes = _kernel_work(args) if frame.layer == "kernel" else (0, 0)
        self.records.append(Record(
            frame.layer, duration, duration - frame.child, parent is None,
            threading.current_thread().name, frame.tag, flops, nbytes,
        ))

    def _wrap(self, layer: str, fn):
        clock = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tag = None
            if layer == "execute":
                tag = getattr(args[0], "kind", None)
            elif layer == "graph.run" and len(args) > 1:
                tag = args[1]  # GraphCompiler.run(graph)
            frame = _Frame(clock, layer, tag)
            clock._stack().append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock._close(frame, perf_counter() - t0, args)

        return timed

    def __enter__(self) -> "LayerClock":
        for layer, module_name, class_name, methods in LAYER_METHODS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                fn = cls.__dict__.get(method)
                if fn is None:
                    if not any(method in base.__dict__ for base in cls.__mro__):
                        self.skipped.append(f"{class_name}.{method}")
                    continue
                self._saved.append((cls, method, fn))
                setattr(cls, method, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> bool:
        for cls, method, fn in reversed(self._saved):
            setattr(cls, method, fn)
        self._saved.clear()
        return False


def _us(values: List[float]) -> float:
    return percentile(values, 0.5) * 1e6 if values else 0.0


class RssPeak:
    """Samples resident memory every 2 ms on a helper thread."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-rss")

    @staticmethod
    def current() -> int:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * 4096

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.current())
            self._stop.wait(0.002)

    def __enter__(self) -> "RssPeak":
        self.base = self.current()
        self.peak = self.base
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.current())
        return False

    @property
    def grown_mb(self) -> float:
        return (self.peak - self.base) / 2**20


def cold_setup(workload: Workload, oracle: Oracle, build_target):
    """One set-up with each entry kind's cold first call timed and its
    resident-memory growth sampled.  Returns (per-kind rows of
    (seconds, MB), plan builds, wrong outputs)."""
    before = counters.snapshot()
    target = build_target()
    rows: Dict[str, Tuple[float, float]] = {}
    wrong = 0
    for index, entry in enumerate(workload.entries):
        if entry.kind in rows:
            wrong += not oracle.pin(index, target(index))
            continue
        with RssPeak() as rss:
            started = time.perf_counter()
            result = target(index)
            elapsed = time.perf_counter() - started
        rows[entry.kind] = (elapsed, rss.grown_mb)
        wrong += not oracle.pin(index, result)
    return rows, counters.delta(before).plan_builds, wrong


def _graph_kind(graph: Any) -> str:
    kinds = {getattr(node, "kind", "") for node in getattr(graph, "nodes", ())}
    if "quantize" in kinds or "dequantize" in kinds:
        return "nn_int8"
    if "dense" in kinds:
        return "nn_float"
    return "graph"


def model_counts(results: List[Any]) -> Tuple[int, float]:
    """Sum of measured array steps and mean measured utilization."""
    steps = 0
    utils: List[float] = []
    for result in results:
        solutions = getattr(result, "solutions", None) or (result,)
        for solution in solutions:
            steps += int(getattr(solution, "measured_steps", 0) or 0)
            util = getattr(solution, "measured_utilization", None)
            if util is not None:
                utils.append(float(util))
    return steps, (sum(utils) / len(utils) if utils else 0.0)


def _per_call(fn, budget: float = 0.04, minimum: int = 3) -> float:
    """Mean seconds per call of ``fn`` over about ``budget`` seconds."""
    calls = 0
    t0 = time.perf_counter()
    while calls < minimum or time.perf_counter() - t0 < budget:
        fn()
        calls += 1
    return (time.perf_counter() - t0) / calls


def ladder(solver: Solver, n: int, seed: int, rounds: int = 15
           ) -> Dict[str, float]:
    """One warm mat-vec, one layer at a time, on the same operands.

    ``A @ x`` -> ``LinearSweepPlan.sweep`` -> ``ExecutionPlan.execute`` ->
    ``Solver.solve(MatVec)`` -> unloaded ``SolverService.submit().result()``.
    The service gets the solver's already-built plan on its home shard.
    Steps are timed in interleaved rounds; each is the median round.
    A step whose entry point no longer exists reads 0.
    """
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal((n, n)), rng.standard_normal(n)
    plan = solver.plan("matvec", shape=(n, n))
    sweep = getattr(plan.executor, "sweep_plan", None)
    service = SolverService(solver.spec)
    try:
        key = service.plan_key(MatVec(a, x))
        service.shards[service.shard_index(key)].solver.adopt_plan(plan)
        steps = {
            "numpy": lambda: a @ x,
            "sweep": (lambda: sweep.sweep(a, x, None)) if sweep else None,
            "execute": lambda: plan.execute(a, x),
            "solve": lambda: solver.solve(MatVec(a, x)),
            "submit": lambda: service.submit(MatVec(a, x)).result(
                timeout=loadgen.RESULT_TIMEOUT),
        }
        samples: Dict[str, List[float]] = {step: [] for step in steps}
        for fn in steps.values():
            if fn is not None:
                fn()
        for _ in range(rounds):
            for step, fn in steps.items():
                samples[step].append(_per_call(fn) if fn is not None else 0.0)
    finally:
        service.close()
    return {step: median(values) for step, values in samples.items()}


def service_spans(tracer: Tracer) -> Dict[str, List[float]]:
    """Per-request service timings (seconds) from the tracer's spans."""
    by_trace: Dict[int, List[Any]] = defaultdict(list)
    for span in tracer.spans():
        by_trace[span.trace_id].append(span)
    out: Dict[str, List[float]] = defaultdict(list)
    batches = set()
    for spans in by_trace.values():
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None or root.end is None or root.status != "ok":
            continue
        wall = root.end - root.start
        timed = defaultdict(float)
        for span in spans:
            if span.parent_id != root.span_id or span.end is None:
                continue
            name = span.name
            if name.startswith("segment"):
                name = "execute"
            timed[name] += span.end - span.start
            if name == "execute":
                batches.add((span.track, span.start, span.end))
        out["wall"].append(wall)
        for name in ("admission_wait", "queue_wait", "batch_assembly",
                     "execute"):
            out[name].append(timed[name])
        out["self"].append(wall - timed["execute"])
    out["unique_execute"] = [end - start for _track, start, end in batches]
    return out


def run_traced(name: str, seed: int, seconds: float
               ) -> Tuple[Dict[str, Tuple[float, str, int]], Dict[str, Any]]:
    """The traced run of one workload: metric -> (value, unit, samples)."""
    workload = make_workload(name, seed)
    oracle = Oracle(workload)
    threads = load_threads(name)
    tally = {"attempted": 0, "failed": 0, "refused": 0, "wrong": 0}
    metrics: Dict[str, Tuple[float, str, int]] = {}
    share = seconds / 3.0

    def count(phase: PhaseResult) -> None:
        for key in ("attempted", "failed", "refused", "wrong"):
            tally[key] += getattr(phase, key)

    # -- set-up: one cold build per entry kind ---------------------------------
    if name == "serve_mix":
        def build_target():
            build_target.service = SolverService(workload.w)

            def call(index):
                item = Item(index, "high", 2, "warmup")
                return submit(build_target.service, workload, item).result(
                    timeout=loadgen.RESULT_TIMEOUT)
            return call
    else:
        def build_target():
            build_target.direct = DirectTarget(workload.w)
            return lambda index: build_target.direct.call(workload, index)
    rows, builds, wrong = cold_setup(workload, oracle, build_target)
    tally["wrong"] += wrong
    metrics["build.plan_s_total"] = (sum(r[0] for r in rows.values()), "s",
                                     len(rows))
    metrics["build.plan_s_max"] = (max(r[0] for r in rows.values()), "s",
                                   len(rows))
    metrics["build.rss_mb_max"] = (max(r[1] for r in rows.values()), "MB",
                                   len(rows))
    metrics["build.count"] = (builds, "count", len(rows))

    # -- the layer ladder, before anything else runs -----------------------------
    if name == "kernel_large":
        steps_s = ladder(build_target.direct.solver, 1024, seed)
    else:
        steps_s = ladder(Solver(workload.w), 32, seed)
    previous = None
    for step, value in steps_s.items():
        metrics[f"ladder.{step}_us"] = (value * 1e6, "us", 1)
        if previous is not None:
            metrics[f"ladder.{step}_self_us"] = (
                (value - steps_s[previous]) * 1e6, "us", 1)
        previous = step
    metrics["kernel.vs_numpy"] = (steps_s["sweep"] / steps_s["numpy"],
                                  "ratio", 1)

    clock = LayerClock()
    tracer = Tracer(enabled=True)
    builds_before = counters.snapshot()
    if name == "serve_mix":
        service = build_target.service
        try:
            untraced = run_saturated(service, workload, oracle, share,
                                     threads, WINDOW)
        finally:
            service.close()
        count(untraced)
        with clock:
            # The traced service's own warm-up builds are set-up, not
            # builds after warm-up.
            warmup = counters.snapshot()
            service, bad = build_service(workload, oracle, tracer=tracer)
            builds_before.plan_builds += counters.delta(warmup).plan_builds
            tally["wrong"] += bad
            tracer.clear()
            clock.records.clear()
            try:
                paced = run_paced(service, workload, oracle, share / 2,
                                  PACED_RATE, keep=True)
                traced = run_saturated(service, workload, oracle, share / 2,
                                       threads, WINDOW, start=len(paced.lags),
                                       keep=True)
                stats = service.stats()
            finally:
                service.close()
        count(paced)
        count(traced)
        results = paced.results + traced.results
        offered = paced.attempted / paced.elapsed
        lag_p99 = percentile(paced.lags, 0.99)
        spans = service_spans(tracer)
        cache = stats.cache
        graph_stages, graph_fused = stats.graph_stages, stats.graph_fused
        service_stats = stats
        service_refused = stats.rejected + stats.shed + tally["refused"]
        service_failed = stats.failed
    else:
        target = build_target.direct
        untraced = run_direct(target, workload, oracle, share)
        count(untraced)
        cache_before = target.solver.cache_stats
        with clock:
            traced = run_direct(target, workload, oracle, share, keep=True,
                                around=lambda: clock.frame(REQUEST))
        count(traced)
        after = target.solver.cache_stats
        cache = type(after)(after.hits - cache_before.hits,
                            after.misses - cache_before.misses,
                            0, after.size, after.maxsize)
        results = traced.results
        offered = traced.attempted / traced.elapsed
        lag_p99 = percentile(traced.lags, 0.99)
        graph_stages = sum(len(r.solutions) for r in results
                           if hasattr(r, "solutions"))
        graph_fused = sum(
            r.fused_pairs + r.fused_rewrites + getattr(r, "fused_epilogues", 0)
            for r in results if hasattr(r, "solutions"))
    builds_after = counters.delta(builds_before).plan_builds
    records = list(clock.records)

    # -- kernel -----------------------------------------------------------------
    kernel = [r for r in records if r.layer == "kernel"]
    busy = sum(r.duration for r in kernel)
    if name == "serve_mix":
        wall = sum(spans["unique_execute"])
    else:
        wall = sum(r.duration for r in records if r.layer == REQUEST)
    metrics["kernel.busy_ms"] = (busy * 1e3, "ms", len(kernel))
    metrics["kernel.calls"] = (len(kernel), "count", len(kernel))
    metrics["kernel.share"] = (busy / wall if wall else 0.0, "ratio",
                               len(kernel))
    flops = sum(r.flops for r in kernel)
    metrics["kernel.gflops"] = (flops / busy / 1e9 if busy else 0.0,
                                "GFLOP/s", len(kernel))
    metrics["kernel.bytes_computed"] = (float(sum(r.nbytes for r in kernel)),
                                        "bytes", len(kernel))

    # -- execute / api ----------------------------------------------------------
    execute = [r for r in records if r.layer == "execute"]
    metrics["execute.self_us"] = (_us([r.self_time for r in execute]), "us",
                                  len(execute))
    for kind in ("matvec", "matmul"):
        chosen = [r.self_time for r in execute if r.tag == kind]
        metrics[f"execute.self_us.{kind}"] = (_us(chosen), "us", len(chosen))
    metrics["execute.calls"] = (len(execute), "count", len(execute))
    api = [r for r in records if r.layer == "api"]
    metrics["api.self_us"] = (_us([r.self_time for r in api]), "us", len(api))
    lookups = cache.hits + cache.misses
    metrics["api.plan_hit_rate"] = (cache.hits / lookups if lookups else 0.0,
                                    "ratio", lookups)
    metrics["api.plan_builds_after_warmup"] = (builds_after, "count", 1)

    # -- graph: the workload's own graphs, else a direct probe ------------------
    graph_records = [r for r in records if r.layer.startswith("graph")]
    if name != "direct_small":
        probe = soak_mix(seed, w=workload.w)
        probe.items = [i for i in probe.items if probe.entries[i.entry].is_graph]
        probe_oracle = Oracle(probe)
        probe_target = DirectTarget(probe.w)
        with LayerClock() as probe_clock:
            for index in range(len(probe.entries)):
                if probe.entries[index].is_graph:
                    probe_target.call(probe, index)
            probe_clock.records.clear()
            probe_phase = run_direct(probe_target, probe, probe_oracle,
                                     min(1.0, share / 2), keep=True)
        tally["wrong"] += probe_phase.wrong
        graph_records = [r for r in probe_clock.records
                         if r.layer.startswith("graph")]
        if name == "kernel_large":
            graph_stages = sum(len(r.solutions) for r in probe_phase.results)
            graph_fused = sum(r.fused_pairs + r.fused_rewrites
                              + getattr(r, "fused_epilogues", 0)
                              for r in probe_phase.results)
    compiles = [r.duration for r in graph_records if r.layer == "graph.compile"]
    metrics["graph.compile_us"] = (_us(compiles), "us", len(compiles))
    runs: Dict[str, List[float]] = defaultdict(list)
    for r in graph_records:
        if r.layer == "graph.run":
            runs[_graph_kind(r.tag)].append(r.self_time)
    for kind in ("graph", "nn_float", "nn_int8"):
        metrics[f"graph.run_self_us.{kind}"] = (_us(runs[kind]), "us",
                                                len(runs[kind]))
    metrics["graph.stages"] = (graph_stages, "count", 1)
    metrics["graph.fused_stages"] = (graph_fused, "count", 1)

    # -- service: the loaded service, else unloaded requests --------------------
    if name != "serve_mix":
        probe_tracer = Tracer(enabled=True)
        service = SolverService(workload.w, tracer=probe_tracer)
        try:
            if name == "kernel_large":
                # Hand the shards the plans set-up already built (a cold
                # n=1024 build costs seconds); the kernel mix is mat-vec
                # and mat-mul only, whose plan shape is the operand shape.
                solver = target.solver
                for entry in workload.entries:
                    problem = entry.make()
                    shape = entry.operands[0].shape
                    if problem.kind == "matmul":
                        shape += (entry.operands[1].shape[1],)
                    plan = solver.plan(problem.kind, shape=shape)
                    home = service.shard_index(service.plan_key(problem))
                    service.shards[home].solver.adopt_plan(plan)
            for index in range(len(workload.entries)):
                submit(service, workload, Item(index, "high", 2, "warmup")
                       ).result(timeout=loadgen.RESULT_TIMEOUT)
            probe_tracer.clear()
            end = time.perf_counter() + min(2.0, share / 2)
            served = 0
            while time.perf_counter() < end or served < 20:
                item = workload.items[served % len(workload.items)]
                result = submit(service, workload, item).result(timeout=60)
                tally["wrong"] += not oracle.check(item.entry, result)
                served += 1
            service_stats = service.stats()
        finally:
            service.close()
        spans = service_spans(probe_tracer)
        service_refused = service_stats.rejected + service_stats.shed
        service_failed = service_stats.failed
    for name_, key in (("admission_wait", "admission_wait"),
                       ("queue_wait", "queue_wait")):
        values = spans[key]
        metrics[f"service.{name_}_ms_p50"] = (
            percentile(values, 0.5) * 1e3, "ms", len(values))
        metrics[f"service.{name_}_ms_p99"] = (
            percentile(values, 0.99) * 1e3, "ms", len(values))
    for key in ("batch_assembly", "execute", "self"):
        values = spans[key]
        metrics[f"service.{key}_ms_p50"] = (
            percentile(values, 0.5) * 1e3, "ms", len(values))
    histogram = service_stats.batch_size_histogram
    batches = sum(histogram.values())
    metrics["service.batch_size_mean"] = (
        sum(size * n for size, n in histogram.items()) / batches
        if batches else 0.0, "count", batches)
    metrics["service.max_queue_depth"] = (service_stats.max_queue_depth,
                                          "count", 1)
    metrics["service.handoffs"] = (service_stats.handoffs, "count", 1)
    metrics["service.refused"] = (service_refused, "count", 1)
    metrics["service.failed"] = (service_failed, "count", 1)

    # -- obs, model, load generator ---------------------------------------------
    metrics["obs.trace_overhead"] = (
        untraced.throughput / traced.throughput - 1.0
        if traced.throughput else 0.0, "ratio", traced.completed)
    steps, utilization = model_counts(results)
    metrics["model.steps"] = (steps, "count", len(results))
    metrics["model.utilization"] = (utilization, "ratio", len(results))
    metrics["loadgen.offered_rps"] = (offered, "1/s", len(results))
    metrics["loadgen.lag_p99_ms"] = (lag_p99 * 1e3, "ms", len(results))

    # -- do the layers add up to the request wall? ------------------------------
    if name == "serve_mix":
        worker = [r for r in records
                  if r.top and r.thread.startswith("repro-service")]
        covered = sum(r.duration for r in worker)
        executed = sum(spans["unique_execute"])
        coverage = covered / executed if executed else 0.0
        walls = sum(spans["wall"])
        unattributed = sum(spans["execute"]) * (1.0 - coverage)
        ratio = 1.0 - unattributed / walls if walls else 0.0
    else:
        named = sum(r.self_time for r in records if r.layer != REQUEST)
        ratio = named / wall if wall else 0.0
    metrics["layers.sum_ratio"] = (ratio, "ratio", len(records))
    info = dict(tally, fingerprint=workload.fingerprint(), threads=threads,
                skipped=clock.skipped,
                build_rows={k: [round(v[0], 4), round(v[1], 1)]
                            for k, v in rows.items()})
    return metrics, info
