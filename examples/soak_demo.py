"""Soak demo: plan persistence + QoS admission under a seeded mixed load.

Three acts, narrated on stdout:

1. **Cold run** — a service with a fresh :class:`~repro.store.PlanStore`
   replays a seeded soak stream.  Every distinct plan compiles once and
   its key is written through to disk as a checksummed artifact.
2. **Warm restart** — a brand-new service opens the same store, builds
   every stored plan key on its placed shard (``warm_start``), and
   replays the same stream with **zero** plan builds after construction:
   restart cost moved ahead of the first request.
3. **Overload** — tiny queues under ``shed_oldest`` plus per-client rate
   limits on the batch clients, with the high class's in-flight window
   sized to fit one shard's queue.  The low class absorbs the overload
   (rate-limited + shed first) while the high class keeps completing —
   and every shed/rejection path closes its trace span
   (``open_spans == 0``).

Run with:  PYTHONPATH=src python examples/soak_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.soak import SoakConfig, run_soak

REQUESTS = 600


def _show(title: str, result) -> None:
    print(f"--- {title} ---")
    print(
        f"  {result.completed}/{result.submitted} completed in "
        f"{result.elapsed:.2f}s  ({result.rps:.0f} req/s)"
    )
    print(
        f"  warm-up: {result.warmup_requests} requests, "
        f"{result.warmup_plan_builds} plan build(s); measured phase built "
        f"{result.counter_delta.plan_builds} plan(s)"
    )
    for name in ("high", "normal", "low"):
        stats = result.by_class[name]
        print(
            f"  {name:>6}: {stats.completed:4d} ok"
            f"  p50 {stats.percentile(0.5) * 1e3:6.2f}ms"
            f"  p99 {stats.percentile(0.99) * 1e3:6.2f}ms"
            f"  shed {stats.shed:3d}  rate-limited {stats.rate_limited:3d}"
        )
    if result.store_stats is not None:
        print(f"  store: {result.store_stats}")
    print(f"  open spans after run: {result.open_spans}")
    print()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_root = str(Path(tmp) / "plans")

        cold = run_soak(SoakConfig(requests=REQUESTS, store_root=store_root))
        _show("cold start (empty store)", cold)

        warm = run_soak(SoakConfig(requests=REQUESTS, store_root=store_root))
        _show("warm restart (store-preloaded shards)", warm)
        assert warm.warmup_plan_builds == 0, "warm restart should build nothing"

        overload = run_soak(
            SoakConfig(
                requests=2 * REQUESTS,
                queue_depth=8,
                backpressure="shed_oldest",
                inflight=16,
                inflight_by_class={"high": 4},
                max_batch_delay=0.0,
                rate_limits={"batch-0": 50.0, "batch-1": 50.0},
            )
        )
        _show("overload (shed_oldest + batch-client rate limits)", overload)
        high = overload.by_class["high"]
        low = overload.by_class["low"]
        print(
            f"QoS held: high completed {high.completed}/{high.submitted}, "
            f"low absorbed {low.shed} shed(s) + "
            f"{low.rate_limited} rate-limit rejection(s)."
        )


if __name__ == "__main__":
    main()
