"""The replay/soak proof: sustained mixed QoS load, zero recompiles.

The :mod:`repro.soak` harness replays a seeded mixed stream (matvec /
matmul / jacobi / pipelined graphs / NN forward passes, across three
priority classes and their client pools) through a full
``SolverService`` — plan store attached, rate limits armed — and this
module asserts the serving stack's operational claims:

* **Sustained throughput**: the measured phase holds an RPS floor while
  every request class completes or fails *typed* (rate-limited / shed /
  deadline — never a stray exception).
* **SLO under QoS**: high-priority p99 stays inside its SLO; under
  deliberate overload (tiny queues, ``shed_oldest``) the low class sheds
  first and the high class keeps its completion rate.  When the high
  class alone overfills a queue, the promise is class order and exact
  accounting, not a completion rate.
* **Zero recompiles**: after the warm-up replay, the whole stream runs
  with ``plan_builds == 0`` — every plan is resident, compiled once or
  loaded from the store.
* **Span hygiene**: the tracer ends every run with ``open_spans == 0``;
  admission, shed, rejection and failure paths all close their trees.
* **Cold-start = warm-start** (the acceptance criterion): a *fresh
  process* opening the same plan store serves its first request with
  zero plan builds, within 2x the warm median latency (subprocess-
  measured, so nothing in-process can leak warmth).

Scale is environment-switched: the tier-1 run uses a few hundred
requests (seconds); setting ``REPRO_SOAK_FULL=1`` runs the ~1M-request
soak (minutes — bench mode only).  Either way, with
``REPRO_BENCH_RECORD=1`` set, the result lands in ``BENCH_soak.json``
keyed by git sha.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.trajectory import record_trajectory_point
from repro.soak import SoakConfig, run_soak

#: Full soak (~1M requests) only under REPRO_SOAK_FULL=1; the default is
#: a tier-1-sized smoke that exercises every code path of the big run.
FULL = os.environ.get("REPRO_SOAK_FULL", "") == "1"
N_REQUESTS = 1_000_000 if FULL else 600
#: Sustained-throughput floor (requests/second, completed).  The service
#: measures ~1.5-2k on a developer container; the floors leave headroom
#: for slow CI machines while still catching an order-of-magnitude
#: regression.
RPS_FLOOR = 400.0 if FULL else 100.0
#: Per-class p99 SLO (seconds) for the uncontended sustained phase.
P99_SLO = {"high": 0.25, "normal": 0.40, "low": 0.60}

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_soak.json"

#: The overload tests' service and load: tiny per-shard queues under
#: ``shed_oldest``, 16 requests in flight per client, and 50 req/s
#: limits on the low class's batch clients.
OVERLOAD = dict(
    requests=1_200,
    queue_depth=8,
    backpressure="shed_oldest",
    inflight=16,
    rate_limits={"batch-0": 50.0, "batch-1": 50.0},
)


def _assert_overload_keeps_class_order(result) -> float:
    """What ``shed_oldest`` promises under any overload; returns the high
    class's completion rate.

    Every request resolves exactly once, to a result or a typed error;
    the low class sheds at least as much as the high class and completes
    no larger share; the batch clients' rate limits fire; every span
    closes; nothing recompiles.
    """
    for name, stats in result.by_class.items():
        resolved = (
            stats.completed + stats.shed + stats.rate_limited
            + stats.deadline_exceeded
        )
        assert stats.submitted == resolved, (
            f"{name}: {stats.submitted} submitted, {resolved} resolved"
        )
        assert stats.other_errors == 0
    high, low = result.by_class["high"], result.by_class["low"]
    assert low.shed >= high.shed, (
        f"shed inversion: low shed {low.shed}, high shed {high.shed}"
    )
    assert low.rate_limited > 0, (
        "the batch clients' 50 req/s rate limits never fired"
    )
    high_rate = high.completed / high.submitted
    low_rate = low.completed / low.submitted
    assert high_rate >= low_rate, (
        f"completion inversion under overload: high {high_rate:.3f} "
        f"vs low {low_rate:.3f}"
    )
    assert result.open_spans == 0
    assert result.counter_delta.plan_builds == 0
    return high_rate


class TestSoak:
    def test_sustained_mixed_load_meets_slo(self, tmp_path):
        config = SoakConfig(
            requests=N_REQUESTS,
            store_root=str(tmp_path / "plans"),
        )
        result = run_soak(config)

        assert result.submitted == N_REQUESTS
        # Uncontended (block policy, ample queues): everything completes.
        assert result.completed == result.submitted, (
            f"lost requests: {result.to_dict()}"
        )
        assert result.rps >= RPS_FLOOR, (
            f"sustained only {result.rps:.0f} req/s "
            f"(floor {RPS_FLOOR:.0f}) over {result.elapsed:.2f}s"
        )
        for name, slo in P99_SLO.items():
            p99 = result.by_class[name].percentile(0.99)
            assert p99 <= slo, (
                f"{name} p99 {p99 * 1e3:.1f}ms exceeds its "
                f"SLO {slo * 1e3:.0f}ms"
            )
        # The zero-recompile claim: warm-up made every plan resident.
        assert result.counter_delta.plan_builds == 0, (
            f"{result.counter_delta.plan_builds} plans rebuilt during the "
            f"measured phase — warm-up coverage regressed"
        )
        # Span hygiene: every admission/execution path closed its tree.
        assert result.open_spans == 0
        # The store saw every warm-up compile written through.
        assert result.store_stats is not None
        assert result.store_stats["writes"] > 0

        record_trajectory_point(
            BENCH_PATH,
            {
                "benchmark": "soak_replay",
                "unix_time": time.time(),
                "mode": "full" if FULL else "smoke",
                **result.to_dict(),
            },
        )

    def test_overload_sheds_low_class_first(self):
        """Tiny queues + shed_oldest: the low class absorbs the overload.

        The high class's closed-loop window fits one shard's queue (2
        clients x 4 in flight = ``queue_depth`` 8), so a full queue
        always holds a lower-class request to shed, and the high class
        sheds nothing.  It runs at the service default of no linger.
        """
        config = SoakConfig(
            **OVERLOAD, inflight_by_class={"high": 4}, max_batch_delay=0.0
        )
        result = run_soak(config)
        high, low = result.by_class["high"], result.by_class["low"]

        high_rate = _assert_overload_keeps_class_order(result)
        assert high.shed == 0, (
            f"high class shed {high.shed} although every full queue held a "
            f"lower class"
        )
        assert low.shed > 0, "the overload never reached the low class"
        assert high_rate >= 0.95, (
            f"high class lost {1 - high_rate:.1%} under an overload the "
            f"low class should have absorbed"
        )

    def test_one_class_overfilling_its_shard_sheds_only_itself(self):
        """One class alone overfills a queue: class order, not capacity.

        2 high clients x 16 in flight against 8-slot queues can fill a
        shard with high-class requests alone.  ``shed_oldest`` sheds a
        request only when nothing of a lower class is queued on its
        shard, so there the high class sheds its own oldest request; no
        priority policy can do better.  The test asserts class order and
        exact accounting, not a completion rate: under a class's own
        overflow that is a capacity figure.
        """
        result = run_soak(SoakConfig(**OVERLOAD))
        _assert_overload_keeps_class_order(result)

    def test_cold_process_first_request_hits_warm_latency(self, tmp_path):
        """A fresh process on a warmed store: 0 builds, ~warm latency."""
        store_root = str(tmp_path / "plans")
        # Phase 1 (this process): warm the store and measure warm latency.
        import numpy as np

        from repro.service import SolverService
        from repro.store import PlanStore

        rng = np.random.default_rng(7)
        a, x = rng.standard_normal((24, 24)), rng.standard_normal(24)
        service = SolverService(4, n_shards=2, store=PlanStore(store_root))
        service.submit("matvec", a, x).result(30.0)  # compile + persist
        warm = []
        for _ in range(30):
            t0 = time.perf_counter()
            service.submit("matvec", a, x).result(30.0)
            warm.append(time.perf_counter() - t0)
        service.close()
        warm_median = sorted(warm)[len(warm) // 2]

        # Phase 2: a genuinely cold interpreter opens the same store.
        probe = (
            "import json, time, numpy as np\n"
            "from repro.instrumentation import counters\n"
            "from repro.service import SolverService\n"
            "from repro.store import PlanStore\n"
            f"store = PlanStore({store_root!r})\n"
            "service = SolverService(4, n_shards=2, store=store)\n"
            "rng = np.random.default_rng(7)\n"
            "a, x = rng.standard_normal((24, 24)), rng.standard_normal(24)\n"
            "before = counters.snapshot()\n"
            "t0 = time.perf_counter()\n"
            "service.submit('matvec', a, x).result(30.0)\n"
            "first = time.perf_counter() - t0\n"
            "delta = counters.delta(before)\n"
            "service.close()\n"
            "print(json.dumps({'first_s': first,"
            " 'plan_builds': delta.plan_builds,"
            " 'store_hits': store.stats.hits}))\n"
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        cold = json.loads(out.stdout.strip().splitlines()[-1])

        assert cold["plan_builds"] == 0, (
            f"cold process compiled {cold['plan_builds']} plans despite the "
            f"warmed store"
        )
        assert cold["store_hits"] >= 1  # warm_start preloaded from disk
        # 2x warm median, with an absolute floor absorbing scheduler
        # noise at millisecond scales.
        budget = max(2.0 * warm_median, 0.05)
        assert cold["first_s"] <= budget, (
            f"cold first request took {cold['first_s'] * 1e3:.1f}ms; "
            f"budget {budget * 1e3:.1f}ms (warm median "
            f"{warm_median * 1e3:.1f}ms)"
        )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
