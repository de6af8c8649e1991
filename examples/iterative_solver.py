"""Solving a discretized heat-conduction system with the Section 4 applications.

The paper closes by listing the problems the same methodology handles:
triangular systems, the Gauss-Seidel iteration, LU decomposition and
inverses.  This example builds the classic 1-D steady-state heat equation
(a diagonally dominant tridiagonal-plus-coupling system), solves it three
ways through one :class:`repro.Solver` on a single 3-cell / 3x3-cell
array pair —

* Gauss-Seidel iteration (matrix-vector products on the linear array),
* blocked LU factorization followed by triangular solves (trailing updates
  on the hexagonal array), and
* explicit inversion (for the sake of exercising the inverse path),

— and compares all of them against NumPy's direct solver.

Run with:  python examples/iterative_solver.py
"""

from __future__ import annotations

import numpy as np

from repro import ArraySpec, ConvergenceCriteria, Solver
from repro.extensions import SystolicLU


def heat_system(points: int, conductivity: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference system for a heated rod with fixed end temperatures."""
    matrix = np.zeros((points, points))
    rhs = np.zeros(points)
    for i in range(points):
        matrix[i, i] = 2.0 * conductivity + 0.05  # slight diagonal boost
        if i > 0:
            matrix[i, i - 1] = -conductivity
        if i < points - 1:
            matrix[i, i + 1] = -conductivity
    rhs[0] = 100.0 * conductivity      # hot end
    rhs[-1] = 25.0 * conductivity      # cool end
    rhs += 0.5                         # uniform internal heating
    return matrix, rhs


def main() -> None:
    w = 3
    points = 12
    matrix, rhs = heat_system(points)
    exact = np.linalg.solve(matrix, rhs)
    solver = Solver(ArraySpec(w=w))

    print(f"1-D heat equation with {points} interior points, array size w={w}")
    print("=" * 70)

    print("\n[1] Gauss-Seidel iteration (products on the linear array)")
    # The kind is SOR at omega = 1; its stopping rule is the one option it
    # takes as a keyword (no divergence guard, as in the seed iteration).
    gs = solver.solve(
        "gauss_seidel",
        matrix,
        rhs,
        criteria=ConvergenceCriteria(
            atol=1e-10, rtol=0.0, max_iter=500, divergence_ratio=float("inf")
        ),
    )
    print(f"    converged: {gs.stats['converged']} after {gs.stats['iterations']} sweeps")
    print(f"    final residual: {gs.stats['residual_norm']:.2e}")
    print(f"    array steps spent: {gs.measured_steps}")
    print(f"    max |error| vs direct solve: {np.max(np.abs(gs.values - exact)):.2e}")

    print("\n[2] Blocked LU + triangular solves (updates on the hexagonal array)")
    factorization = solver.solve("lu", matrix)
    lower, upper = factorization.values
    print(f"    ||A - L U|| = {factorization.stats['residual_norm']:.2e}")
    print(f"    trailing updates on the array: {factorization.stats['update_calls']}, "
          f"array share of arithmetic: {factorization.stats['array_share']:.2f}")
    forward = solver.solve("triangular", lower, rhs, lower=True)
    backward = solver.solve("triangular", upper, forward.values, lower=False)
    print(f"    max |error| vs direct solve: {np.max(np.abs(backward.values - exact)):.2e}")

    print("\n[3] Explicit inverse (LU + triangular inverses + one matrix product)")
    inverse = SystolicLU(w).invert(matrix)
    solution = inverse.inverse @ rhs
    print(f"    ||A^-1 A - I|| = {np.linalg.norm(inverse.inverse @ matrix - np.eye(points)):.2e}")
    print(f"    array share of arithmetic: {inverse.array_share:.2f}")
    print(f"    max |error| vs direct solve: {np.max(np.abs(solution - exact)):.2e}")

    print(f"\nplan cache after the three strategies: {solver.cache_stats}")
    print("\nTemperature profile (direct solve):")
    bar_scale = 40.0 / exact.max()
    for i, temperature in enumerate(exact):
        bar = "#" * int(round(temperature * bar_scale))
        print(f"    x={i:>2}  {temperature:8.2f}  {bar}")


if __name__ == "__main__":
    main()
