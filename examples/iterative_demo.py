"""Tour of the plan-cached iterative solver subsystem (`repro.iterative`).

Builds one diagonally dominant SPD system and solves it with every
iterative kind the registry serves — Jacobi, SOR (omega sweep), conjugate
gradient, LU-backed iterative refinement — then finds its dominant
eigenpair by power iteration.  Along the way it prints the part the
subsystem exists to demonstrate: each k-sweep solve compiles its plans
once and reports *zero* plan builds on every warm sweep, with ASCII
convergence curves from the recorded residual histories.

Run with:  python examples/iterative_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import ArraySpec, ConvergenceCriteria, ExecutionOptions, Solver


def spd_system(n: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """A seeded SPD, strictly diagonally dominant system ``A x = b``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    matrix += (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)
    return matrix, rng.normal(size=n)


def convergence_curve(history: list[float], width: int = 44) -> str:
    """Log-scale ASCII sparkline of a residual history."""
    if not history:
        return "(no sweeps)"
    logs = np.log10(np.maximum(np.asarray(history), 1e-300))
    lo, hi = float(logs.min()), float(logs.max())
    span = max(hi - lo, 1e-9)
    lines = []
    for k, value in enumerate(history, start=1):
        bar = "#" * max(1, int(round(width * (np.log10(max(value, 1e-300)) - lo) / span)))
        lines.append(f"      sweep {k:>3}  {value:10.3e}  {bar}")
    return "\n".join(lines)


def main() -> None:
    w, n = 4, 24
    matrix, b = spd_system(n)
    exact = np.linalg.solve(matrix, b)
    solver = Solver(ArraySpec(w=w))

    print(f"SPD diagonally dominant system, n={n}, array size w={w}")
    print(f"iterative kinds registered: "
          f"{', '.join(k for k in solver.kinds() if k in ('jacobi', 'sor', 'cg', 'refine', 'power'))}")
    print("=" * 72)

    for kind, options in (
        ("jacobi", None),
        ("sor", ExecutionOptions(omega=1.4)),
        ("cg", None),
        ("refine", None),
    ):
        label = kind if options is None else f"{kind} (omega={options.omega})"
        solution = solver.solve(kind, matrix, b, options=options)
        result = solution.raw
        print(f"\n[{label}] {'converged' if result.converged else 'did not converge'} "
              f"in {result.iterations} sweep(s), "
              f"max |error| vs direct solve: {np.max(np.abs(solution.values - exact)):.2e}")
        print(f"    plan builds: {result.plan_builds_first_sweep} on the first sweep, "
              f"{result.plan_builds_warm_sweeps} on all warm sweeps; "
              f"inner cache {result.cache.hits} hits / {result.cache.misses} misses")
        shown = result.residual_history[:8]
        print(convergence_curve(shown))
        if len(result.residual_history) > len(shown):
            print(f"      ... {len(result.residual_history) - len(shown)} more sweeps "
                  f"down to {result.residual_norm:.3e}")

    print("\n[power] dominant eigenpair of the same matrix")
    power = solver.solve(
        "power",
        matrix,
        options=ExecutionOptions(
            criteria=ConvergenceCriteria(atol=1e-9, rtol=1e-9, max_iter=5000)
        ),
    )
    top = float(np.max(np.abs(np.linalg.eigvalsh(matrix))))
    print(f"    lambda_max = {power.stats['eigenvalue']:.8f} "
          f"(numpy says {top:.8f}) after {power.stats['iterations']} sweeps")

    print("\nwarm reuse across jobs: solving the same shape again...")
    again = solver.solve("jacobi", matrix, np.roll(b, 1))
    print(f"    from_cache={again.from_cache}, plan builds on any sweep: "
          f"{again.stats['plan_builds_first_sweep'] + again.stats['plan_builds_warm_sweeps']}")
    print(f"\nfacade plan cache after the tour: {solver.cache_stats}")


if __name__ == "__main__":
    main()
