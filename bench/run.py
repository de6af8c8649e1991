"""One benchmark from kernel to service for the systolic-array solver.

Usage (from the repository root)::

    python3 bench/run.py --workload direct_small --seed 1 --seconds 20 --trace 0

Workloads (see ``bench/README.md`` for why each exists):

``kernel_large``
    one thread, one warm ``Solver`` at w=8: mat-vec at n=512 and
    n=1024 and 64x64 mat-mul.  The sweep kernel dominates.
``direct_small``
    one thread, a warm ``Solver`` + ``GraphCompiler`` at w=4 on the
    soak mix (small mat-vec/mat-mul, jacobi, graphs, MLPs).  The
    façade and plan execute dominate.
``serve_mix``
    the same soak stream through a default ``SolverService``: a paced
    open-loop phase, then a saturated closed-loop phase.

Set-up time, throughput and median latency are normalized to a nominal
host speed by a fixed reference timed around every window
(``loadgen.reference_rate``).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (``bench/layers.py``).  Every
output is checked against the ``simulate`` oracle; any wrong, failed or
refused request makes the run exit nonzero.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("kernel_large", "direct_small", "serve_mix")
#: Set-ups per run; ``setup_s`` is their median.  kernel_large's take
#: ~5 s each; the small workloads' take milliseconds and need more.
SETUP_REPS = 3
SMALL_SETUP_REPS = 11
#: Measured windows per phase; throughput and latency are medians over
#: them.
WINDOWS = 6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paced_guard(phase) -> Tuple[bool, float, float]:
    """(valid, lag p99 ms, achieved offered rate) of a paced phase."""
    from loadgen import LAG_BOUND_MS, MIN_OFFERED_SHARE, PACED_RATE, percentile

    lag_p99 = percentile(phase.lags, 0.99) * 1e3
    offered = phase.attempted / phase.elapsed if phase.elapsed > 0 else 0.0
    valid = lag_p99 <= LAG_BOUND_MS and offered >= MIN_OFFERED_SHARE * PACED_RATE
    return valid, lag_p99, offered


def run_end_to_end(name: str, seed: int, seconds: float
                   ) -> Tuple[Dict[str, Tuple[float, str, int]], Dict[str, int]]:
    """Untraced run of one workload: metric -> (value, unit, samples)."""
    from loadgen import (
        LAG_BOUND_MS,
        MIN_OFFERED_SHARE,
        PACED_RATE,
        WINDOW,
        Oracle,
        build_direct,
        build_service,
        load_threads,
        make_workload,
        median,
        paced_windows,
        run_direct,
        run_paced,
        run_saturated,
        windowed,
    )

    workload = make_workload(name, seed)
    oracle = Oracle(workload)
    threads = load_threads(name)
    small = name != "kernel_large"
    reps = SMALL_SETUP_REPS if small else SETUP_REPS
    ref = "small" if small else "large"
    if name == "serve_mix":
        def build():
            return build_service(workload, oracle)

        def close(service):
            service.close()
    else:
        def build():
            return build_direct(workload, oracle)

        def close(target):
            pass
    held = []  # the latest set-up; earlier ones are closed first, so
    #            peak memory reflects one set-up, not ``reps`` of them

    def timed_build(_k):
        while held:
            close(held.pop())
        started = time.perf_counter()
        target, bad = build()
        held.append(target)
        return time.perf_counter() - started, bad

    built, setup_factors = paced_windows(timed_build, reps, ref)
    if name == "serve_mix":
        # Each warm-up request waits out the 2 ms batching window, so
        # service set-up is timer-bound too: kept raw.
        setup_factors = [1.0] * reps
    setups = [took / f for (took, _bad), f in zip(built, setup_factors)]
    wrong = sum(bad for _took, bad in built)
    target = held[0]
    window = seconds / 2 / WINDOWS
    if name == "serve_mix":
        try:
            # A window the generator could not keep on schedule (a stall
            # of the whole process on a shared host) is invalid: it is
            # not a latency reading and is run again, up to WINDOWS times.
            paced, valid = [], []
            start = 0
            while len(valid) < WINDOWS and len(paced) < 2 * WINDOWS:
                phase = run_paced(target, workload, oracle, window,
                                  PACED_RATE, start=start)
                start += phase.attempted
                paced.append(phase)
                if paced_guard(phase)[0]:
                    valid.append(phase)
            guards = [paced_guard(phase) for phase in valid or paced]
            lag_p99 = max(lag for _valid, lag, _offered in guards)
            offered = min(rate for _valid, _lag, rate in guards)
            if len(valid) < WINDOWS:
                print(f"paced phase: {len(paced) - len(valid)} of "
                      f"{len(paced)} windows INVALID (lag p99 over "
                      f"{LAG_BOUND_MS} ms or offered under "
                      f"{MIN_OFFERED_SHARE:.0%} of {PACED_RATE}/s)",
                      file=sys.stderr)
            saturated, rate_factors = paced_windows(
                lambda k: run_saturated(target, workload, oracle, window,
                                        threads, WINDOW,
                                        start=start + k * 10_000),
                WINDOWS, ref)
        finally:
            target.close()
        phases = paced + saturated
        # Paced latency is mostly the service's 2 ms batching window and
        # queueing, which do not scale with host speed: not normalized.
        latency = windowed(valid or paced, [1.0] * len(valid or paced))
        rate = windowed(saturated, rate_factors)
        completed = sum(phase.completed for phase in saturated)
    else:
        phases, factors = paced_windows(
            lambda k: run_direct(target, workload, oracle, 2 * window,
                                 start=k * 100_000),
            WINDOWS, ref)
        latency = rate = windowed(phases, factors)
        completed = sum(phase.completed for phase in phases)
    tally = {"attempted": 0, "failed": 0, "refused": 0, "wrong": wrong}
    for phase in phases:
        for key in ("attempted", "failed", "refused", "wrong"):
            tally[key] += getattr(phase, key)
    bad = tally["failed"] + tally["refused"] + tally["wrong"]
    # A miss (inf) in the tail reads as the whole run.
    p50, p99 = (min(latency[q], seconds) for q in ("p50", "p99"))
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_per_s": (rate["throughput"], "1/s", completed),
        "latency_p50_ms": (p50 * 1e3, "ms", latency["samples"]),
        "success_rate": (1.0 - bad / max(1, tally["attempted"]), "ratio",
                         tally["attempted"]),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    # p99 is printed, not gated: on a shared 2-core host its run-to-run
    # spread exceeds any bound the benchmark may set.
    info = dict(tally, fingerprint=workload.fingerprint(), threads=threads,
                latency_p99_ms=round(p99 * 1e3, 4),
                latency_p99_samples=latency["samples"])
    if name == "serve_mix":
        info["paced_offered_rps"] = round(offered, 1)
        info["paced_lag_p99_ms"] = round(lag_p99, 3)
        info["paced_windows"] = len(paced)
        info["paced_valid_windows"] = len(valid)
    return metrics, info


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    from loadgen import nproc

    if args.trace:
        from layers import run_traced

        metrics, info = run_traced(args.workload, args.seed, args.seconds)
    else:
        metrics, info = run_end_to_end(args.workload, args.seed, args.seconds)
    bad = info["failed"] + info["refused"] + info["wrong"]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **info,
    }
    print(json.dumps(header, sort_keys=True))
    for metric, (value, unit, samples) in metrics.items():
        print(f"{metric:<36} {value:>14.6g} {unit:<6} n={samples}")
    result: Dict[str, Any] = {
        "correct": bad == 0,
        "attempted": max(1, info["attempted"]),
        "failed": info["failed"] + info["refused"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit, _samples) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
