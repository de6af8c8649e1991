"""Targets, set-up and the three load shapes the benchmark drives.

A *target* answers one stream item: :class:`DirectTarget` calls a warm
``Solver`` / ``GraphCompiler`` on the caller's thread; a
``SolverService`` answers through futures.  The load shapes are

* :func:`run_direct` — one thread, closed loop, one request at a time;
* :func:`run_paced` — an open loop from one generator thread at a fixed
  offered rate, each request timed from the moment it was due;
* :func:`run_saturated` — a closed loop of client threads, each keeping
  a window of requests in flight.

Every output is checked against the workload's :class:`Oracle`.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import ArraySpec, GraphCompiler, Solver, SolverService
from repro.errors import RateLimitedError, ServiceOverloadedError

from streams import (
    Item,
    Workload,
    expected_outputs,
    kernel_mix,
    numpy_check,
    result_values,
    soak_mix,
)

#: Seconds to wait for any one future before calling the run broken.
RESULT_TIMEOUT = 60.0
#: serve_mix paced phase: fixed offered rate (about a third of the
#: saturated capacity measured on a 2-core machine, so a slower host
#: still keeps up) and the guard that makes a window valid.
PACED_RATE = 300.0
LAG_BOUND_MS = 100.0
MIN_OFFERED_SHARE = 0.95
#: serve_mix saturated phase: closed-loop clients and in-flight window.
CLIENTS = 2
WINDOW = 8


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def load_threads(workload: str) -> int:
    """Threads that generate load; the benchmark is one process."""
    threads = CLIENTS if workload == "serve_mix" else 1
    if threads > nproc():
        raise SystemExit(
            f"load generator needs {threads} threads but nproc={nproc()}"
        )
    return threads


def make_workload(name: str, seed: int) -> Workload:
    return kernel_mix(seed) if name == "kernel_large" else soak_mix(seed)


class Oracle:
    """Expected output per pool entry; counts wrong answers."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.expected = expected_outputs(workload)

    def pin(self, entry: int, result: Any) -> bool:
        """Accept a fast-path output as the expected value of an entry
        that has none yet, after its NumPy check; compare otherwise."""
        if self.expected[entry] is None:
            values = result_values(result)
            if not numpy_check(self.workload.entries[entry], values):
                return False
            self.expected[entry] = values.copy()
            return True
        return self.check(entry, result)

    def check(self, entry: int, result: Any) -> bool:
        expected = self.expected[entry]
        values = result_values(result)
        return values.shape == expected.shape and bool(
            np.array_equal(values, expected)
        )


class DirectTarget:
    """A warm ``Solver`` plus ``GraphCompiler``, no service in the path."""

    def __init__(self, w: int):
        self.solver = Solver(ArraySpec(w))
        self.compiler = GraphCompiler(self.solver)

    def call(self, workload: Workload, entry: int) -> Any:
        spec = workload.entries[entry]
        if spec.is_graph:
            return self.compiler.run(spec.make())
        return self.solver.solve(spec.make())


def submit(service: SolverService, workload: Workload, item) -> Any:
    """Submit one stream item with its priority class and client id."""
    spec = workload.entries[item.entry]
    if spec.is_graph:
        return service.submit_graph(
            spec.make(), priority=item.priority, client_id=item.client_id
        )
    return service.submit(
        spec.make(), priority=item.priority, client_id=item.client_id
    )


def warm(call: Callable[[int], Any], workload: Workload, oracle: Oracle,
         cold_times: Optional[Dict[str, float]] = None) -> int:
    """Answer every pool entry once; returns the number of wrong outputs.

    The first answer per entry kind builds that kind's plans; its wall
    time is recorded in ``cold_times`` under the entry kind.
    """
    wrong = 0
    for index, entry in enumerate(workload.entries):
        started = time.perf_counter()
        result = call(index)
        if cold_times is not None and entry.kind not in cold_times:
            cold_times[entry.kind] = time.perf_counter() - started
        wrong += not oracle.pin(index, result)
    return wrong


def build_direct(workload: Workload, oracle: Oracle,
                 cold_times: Optional[Dict[str, float]] = None
                 ) -> Tuple[DirectTarget, int]:
    target = DirectTarget(workload.w)
    wrong = warm(lambda i: target.call(workload, i), workload, oracle,
                 cold_times)
    return target, wrong


def build_service(workload: Workload, oracle: Oracle, tracer=None,
                  cold_times: Optional[Dict[str, float]] = None
                  ) -> Tuple[SolverService, int]:
    """A default-configured service (4 shards), warmed on every entry."""
    service = SolverService(workload.w, tracer=tracer)

    def call(index: int) -> Any:
        item = Item(entry=index, class_name="high", priority=2,
                    client_id="warmup")
        return submit(service, workload, item).result(timeout=RESULT_TIMEOUT)

    try:
        wrong = warm(call, workload, oracle, cold_times)
    except BaseException:
        service.close()
        raise
    return service, wrong


@dataclass
class PhaseResult:
    """Outcome tally of one measured phase."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    elapsed: float = 0.0
    latencies: List[float] = field(default_factory=list)  # seconds
    lags: List[float] = field(default_factory=list)  # generator lateness
    results: List[Any] = field(default_factory=list)  # kept when asked

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def merge(self, other: "PhaseResult") -> None:
        for name in ("attempted", "completed", "failed", "refused", "wrong"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies.extend(other.latencies)


def run_direct(target: DirectTarget, workload: Workload, oracle: Oracle,
               seconds: float, start: int = 0, keep: bool = False,
               around: Optional[Callable[[], Any]] = None) -> PhaseResult:
    """One thread, one request at a time, for ``seconds``.

    ``lags`` records the generator's own gap between one answer and the
    next call.  ``keep`` retains every result (for model counts).
    ``around`` returns a context manager entered around each call (the
    traced run's request frame).
    """
    phase = PhaseResult()
    items = workload.items
    count = len(items)
    index = start
    clock = time.perf_counter
    began = clock()
    deadline = began + seconds
    previous = began
    while True:
        now = clock()
        if now >= deadline:
            break
        entry = items[index % count].entry
        index += 1
        t0 = clock()
        phase.lags.append(t0 - previous)
        if around is None:
            result = target.call(workload, entry)
        else:
            with around():
                result = target.call(workload, entry)
        t1 = clock()
        phase.latencies.append(t1 - t0)
        phase.attempted += 1
        phase.completed += 1
        if not oracle.check(entry, result):
            phase.wrong += 1
        if keep:
            phase.results.append(result)
        previous = clock()
    phase.elapsed = clock() - began
    return phase


def _settle(futures: List[Tuple[int, Any]], oracle: Oracle,
            phase: PhaseResult, keep: bool) -> List[bool]:
    """Wait for every future; tally failures and wrong outputs.

    Returns per-future success (completed with a correct output).
    """
    ok = []
    for entry, future in futures:
        try:
            result = future.result(timeout=RESULT_TIMEOUT)
        except Exception:  # a request that failed is a miss, not a crash
            phase.failed += 1
            ok.append(False)
            continue
        phase.completed += 1
        if not oracle.check(entry, result):
            phase.wrong += 1
            ok.append(False)
            continue
        if keep:
            phase.results.append(result)
        ok.append(True)
    return ok


def run_paced(service: SolverService, workload: Workload, oracle: Oracle,
              seconds: float, rate: float, start: int = 0,
              keep: bool = False) -> PhaseResult:
    """Open loop at ``rate`` requests/s from the calling thread.

    Request ``i`` is due at ``t0 + i / rate``; its latency runs from that
    due time to its future resolving, so a stall also charges the
    requests queued behind it.  Refused and failed requests count as
    infinite latency.  ``lags`` is how late each submission was.
    """
    phase = PhaseResult()
    items = workload.items
    total = max(1, int(seconds * rate))
    done = [0.0] * total
    due = [0.0] * total
    futures: List[Tuple[int, Any]] = []
    positions: List[int] = []
    clock = time.perf_counter
    began = clock()
    for i in range(total):
        due[i] = began + i / rate
        wait = due[i] - clock()
        if wait > 0:
            time.sleep(wait)
        item = items[(start + i) % len(items)]
        phase.lags.append(clock() - due[i])
        phase.attempted += 1
        try:
            future = submit(service, workload, item)
        except (ServiceOverloadedError, RateLimitedError):
            phase.refused += 1
            continue

        def stamp(_future, i=i) -> None:
            done[i] = clock()

        future.add_done_callback(stamp)
        futures.append((item.entry, future))
        positions.append(i)
    sent = clock() - began
    ok = _settle(futures, oracle, phase, keep)
    phase.elapsed = sent
    latencies = [
        done[i] - due[i] if good else float("inf")
        for i, good in zip(positions, ok)
    ]
    latencies.extend([float("inf")] * phase.refused)
    phase.latencies = latencies
    return phase


def run_saturated(service: SolverService, workload: Workload, oracle: Oracle,
                  seconds: float, clients: int, window: int,
                  start: int = 0, keep: bool = False) -> PhaseResult:
    """Closed loop: ``clients`` threads, ``window`` requests in flight each.

    Client ``k`` takes stream items ``start + k, start + k + clients, ...``.
    Throughput is every completed request over the time from the first
    submission to the last future settling.
    """
    phases = [PhaseResult() for _ in range(clients)]
    errors: List[BaseException] = []
    items = workload.items
    clock = time.perf_counter
    began = clock()
    deadline = began + seconds

    def client(k: int) -> None:
        phase = phases[k]
        inflight: Deque[Tuple[int, Any]] = deque()
        index = start + k
        try:
            while clock() < deadline:
                item = items[index % len(items)]
                index += clients
                phase.attempted += 1
                try:
                    inflight.append(
                        (item.entry, submit(service, workload, item))
                    )
                except (ServiceOverloadedError, RateLimitedError):
                    phase.refused += 1
                    continue
                if len(inflight) >= window:
                    _settle([inflight.popleft()], oracle, phase, keep)
            _settle(list(inflight), oracle, phase, keep)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
        for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    total = PhaseResult(elapsed=clock() - began)
    for phase in phases:
        total.merge(phase)
        total.results.extend(phase.results)
    return total


#: Host-speed reference: fixed NumPy work that is benchmark code only,
#: so no change to the program can move it.  "small" mirrors a small
#: solve (tiny arrays, Python overhead), "large" a memory-bound sweep.
#: The nominal rates (units/s) were typical on a 2-core x86-64 VM; they
#: only set the scale of the normalized figures.
REFERENCE_NOMINAL = {"small": 2400.0, "large": 150.0}


def reference_rate(kind: str, budget: float = 0.2) -> float:
    """Units of the ``kind`` reference work this host runs per second now."""
    n, repeats = (1024, 1) if kind == "large" else (24, 50)
    a = np.full((n, n), 1.5)
    x = np.full(n, 0.5)
    units = 0
    t0 = time.perf_counter()
    while units < 3 or time.perf_counter() - t0 < budget:
        for _ in range(repeats):
            rows = np.cumsum(a * x[None, :], axis=1)
            sorted({"last": rows[:, -1].copy(), "units": units})
        units += 1
    return units / (time.perf_counter() - t0)


def paced_windows(run_window: Callable[[int], Any], windows: int,
                  kind: str) -> Tuple[List[Any], List[float]]:
    """Run ``windows`` windows with the reference measured around each.

    ``run_window(k)`` runs window ``k``.  Returns the windows' results
    and, per window, the factor (nominal / measured reference rate, the
    mean of the readings before and after it) that scales a figure from
    this host's current speed to the nominal one.
    """
    rates = [reference_rate(kind)]
    results = []
    for k in range(windows):
        results.append(run_window(k))
        rates.append(reference_rate(kind))
    nominal = REFERENCE_NOMINAL[kind]
    factors = [
        nominal / ((before + after) / 2)
        for before, after in zip(rates, rates[1:])
    ]
    return results, factors


def windowed(phases: List[PhaseResult],
             factors: List[float]) -> Dict[str, float]:
    """Host-normalized throughput and latency p50/p99: medians over windows.

    Each window's figure is scaled by its factor from
    :func:`paced_windows` (throughput times it, latency divided by it),
    so a host that slows down for a while moves the reference and the
    workload together and the ratio stays put; the median over windows
    keeps a burst in one window from moving the run's figure.  A window's
    p99 needs 1000 samples; with fewer per window, p99 is taken over all
    samples, scaled by the mean factor.
    """
    out = {"throughput": median(
        [phase.throughput * f for phase, f in zip(phases, factors)]
    )}
    latencies = [sample for phase in phases for sample in phase.latencies]
    if latencies:
        if min(len(phase.latencies) for phase in phases) >= 1000:
            p99s = [percentile(phase.latencies, 0.99) / f
                    for phase, f in zip(phases, factors)]
        else:
            p99s = [percentile(latencies, 0.99) * len(factors) / sum(factors)]
        out["p50"] = median([percentile(phase.latencies, 0.5) / f
                             for phase, f in zip(phases, factors)])
        out["p99"] = median(p99s)
    out["samples"] = len(latencies)
    return out


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[rank]


def median(values: List[float]) -> float:
    return float(statistics.median(values))
