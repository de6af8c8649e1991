"""Unit tests for the Section 4 applications in ``repro.extensions``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, Solver
from repro.errors import ShapeError
from repro.extensions.lu import SystolicLU
from repro.extensions.triangular import SystolicTriangularSolver
from repro.graph import GaussSeidel


def lower_triangular(rng, n, dominance=3.0):
    matrix = np.tril(rng.uniform(0.5, 1.5, size=(n, n)))
    np.fill_diagonal(matrix, dominance + rng.uniform(0.5, 1.0, size=n))
    return matrix


def diagonally_dominant(rng, n, dominance=None):
    matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    strength = dominance if dominance is not None else n
    np.fill_diagonal(matrix, strength + np.abs(matrix).sum(axis=1))
    return matrix


class TestTriangularSolver:
    @pytest.mark.parametrize("n,w", [(4, 2), (8, 3), (9, 3), (7, 4)])
    def test_lower_solve(self, rng, n, w):
        matrix = lower_triangular(rng, n)
        b = rng.uniform(-1.0, 1.0, size=n)
        result = SystolicTriangularSolver(w).solve_lower(matrix, b)
        assert np.allclose(matrix @ result.x, b)
        assert result.residual_norm < 1e-8

    @pytest.mark.parametrize("n,w", [(4, 2), (8, 3), (6, 3)])
    def test_upper_solve(self, rng, n, w):
        matrix = lower_triangular(rng, n).T
        b = rng.uniform(-1.0, 1.0, size=n)
        result = SystolicTriangularSolver(w).solve_upper(matrix, b)
        assert np.allclose(matrix @ result.x, b)

    def test_array_carries_off_diagonal_work(self, rng):
        matrix = lower_triangular(rng, 12)
        b = rng.uniform(size=12)
        result = SystolicTriangularSolver(3).solve_lower(matrix, b)
        assert result.matvec_calls == 3  # one per block row after the first
        assert result.array_operations > 0
        assert 0.0 < result.array_share < 1.0

    def test_array_share_grows_with_problem_size(self, rng):
        small = SystolicTriangularSolver(3).solve_lower(
            lower_triangular(rng, 6), rng.uniform(size=6)
        )
        large = SystolicTriangularSolver(3).solve_lower(
            lower_triangular(rng, 18), rng.uniform(size=18)
        )
        assert large.array_share > small.array_share

    def test_validation(self, rng):
        solver = SystolicTriangularSolver(3)
        with pytest.raises(ShapeError):
            solver.solve_lower(rng.uniform(size=(3, 4)), rng.uniform(size=3))
        with pytest.raises(ShapeError):
            solver.solve_lower(lower_triangular(rng, 4), rng.uniform(size=3))
        singular = np.tril(rng.uniform(size=(3, 3)))
        singular[1, 1] = 0.0
        with pytest.raises(ShapeError):
            solver.solve_lower(singular, rng.uniform(size=3))


def gauss_seidel(matrix, b, x0=None, **criteria):
    """The ``gauss_seidel`` kind's result on a ``w = 3`` solver.

    Keywords replace fields of the kind's preset stopping rule.
    """
    rule = GaussSeidel.presets["criteria"].merged(**criteria)
    solver = Solver(ArraySpec(3))
    return solver.solve("gauss_seidel", matrix, b, x0=x0, criteria=rule).raw


class TestGaussSeidel:
    def test_converges_on_diagonally_dominant_system(self, rng):
        matrix = diagonally_dominant(rng, 8)
        b = rng.uniform(-1.0, 1.0, size=8)
        result = gauss_seidel(matrix, b, atol=1e-10)
        assert result.converged
        assert np.allclose(matrix @ result.x, b, atol=1e-8)
        assert result.residual_history[-1] <= result.residual_history[0]

    def test_respects_initial_guess(self, rng):
        matrix = diagonally_dominant(rng, 6)
        b = rng.uniform(size=6)
        exact = np.linalg.solve(matrix, b)
        result = gauss_seidel(matrix, b, x0=exact)
        assert result.iterations == 1
        assert result.converged

    def test_iteration_cap(self, rng):
        matrix = diagonally_dominant(rng, 6, dominance=1.0)
        b = rng.uniform(size=6)
        result = gauss_seidel(matrix, b, atol=1e-16, max_iter=2)
        assert result.iterations == 2
        assert not result.converged

    def test_counts_array_steps(self, rng):
        matrix = diagonally_dominant(rng, 6)
        b = rng.uniform(size=6)
        result = gauss_seidel(matrix, b)
        assert result.array_steps > 0

    def test_validation(self, rng):
        with pytest.raises(ShapeError):
            gauss_seidel(rng.uniform(size=(3, 4)), rng.uniform(size=3))
        with pytest.raises(ShapeError):
            gauss_seidel(diagonally_dominant(rng, 4), rng.uniform(size=3))
        zero_diag = rng.uniform(size=(3, 3))
        zero_diag[0, 0] = 0.0
        with pytest.raises(ShapeError):
            gauss_seidel(zero_diag, rng.uniform(size=3))


class TestLU:
    @pytest.mark.parametrize("n,w", [(4, 2), (6, 3), (9, 3), (8, 4)])
    def test_factorization_reconstructs_matrix(self, rng, n, w):
        matrix = diagonally_dominant(rng, n)
        result = SystolicLU(w).factor(matrix)
        assert result.residual(matrix) < 1e-8
        assert np.allclose(np.triu(result.l, 1), 0.0)
        assert np.allclose(np.tril(result.u, -1), 0.0)
        assert np.allclose(np.diag(result.l), 1.0)

    def test_trailing_updates_run_on_the_array(self, rng):
        matrix = diagonally_dominant(rng, 9)
        result = SystolicLU(3).factor(matrix)
        assert result.update_calls == 2
        assert result.array_operations > 0
        assert result.array_share > 0.3

    def test_single_block_factorization_is_host_only(self, rng):
        matrix = diagonally_dominant(rng, 3)
        result = SystolicLU(3).factor(matrix)
        assert result.update_calls == 0
        assert result.array_operations == 0

    def test_zero_pivot_detected(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ShapeError):
            SystolicLU(2).factor(matrix)

    def test_triangular_inverse(self, rng):
        matrix = np.tril(rng.uniform(0.5, 1.5, size=(6, 6)))
        np.fill_diagonal(matrix, 3.0)
        result = SystolicLU(3).invert_triangular(matrix, lower=True)
        assert np.allclose(result.inverse @ matrix, np.eye(6), atol=1e-8)

    def test_dense_inverse(self, rng):
        matrix = diagonally_dominant(rng, 6)
        result = SystolicLU(3).invert(matrix)
        assert np.allclose(result.inverse @ matrix, np.eye(6), atol=1e-7)
        assert result.array_share > 0.0

    def test_validation(self, rng):
        with pytest.raises(ShapeError):
            SystolicLU(2).factor(rng.uniform(size=(3, 4)))
