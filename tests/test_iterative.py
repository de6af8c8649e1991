"""Unit tests for the plan-cached iterative solver subsystem."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import ConvergenceError, ShapeError
from repro.graph import SOR
from repro.instrumentation import CacheStats, counters
from repro.iterative import (
    ConjugateGradientSolver,
    ConvergenceCriteria,
    IterativeRefinementSolver,
    IterativeResult,
    JacobiSolver,
    PowerIterationSolver,
    SORSolver,
)


def spd_dominant(rng: np.random.Generator, n: int, boost: float = 1.0) -> np.ndarray:
    """A symmetric, strictly diagonally dominant (hence SPD) matrix."""
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    matrix += (np.abs(matrix).sum(axis=1).max() + boost) * np.eye(n)
    return matrix


class TestConvergenceCriteria:
    def test_defaults_and_tolerance(self):
        criteria = ConvergenceCriteria()
        assert criteria.atol == 1e-10
        assert criteria.max_iter == 200
        assert criteria.tolerance(100.0) == criteria.atol
        scaled = ConvergenceCriteria(atol=1e-12, rtol=1e-8)
        assert scaled.tolerance(10.0) == 1e-12 + 1e-7

    def test_converged_and_diverged(self):
        criteria = ConvergenceCriteria(atol=1e-6, divergence_ratio=100.0)
        assert criteria.converged(1e-7, 0.0)
        assert not criteria.converged(1e-5, 0.0)
        assert criteria.diverged(float("nan"), 1.0)
        assert criteria.diverged(1e9, 2.0)
        assert not criteria.diverged(50.0, 2.0)  # 50 < 100 * max(2, 1)
        unguarded = ConvergenceCriteria(divergence_ratio=float("inf"))
        assert not unguarded.diverged(1e300, 1.0)
        # inf disables the guard entirely — even non-finite residuals run
        # to the iteration cap (the legacy Gauss-Seidel behaviour).
        assert not unguarded.diverged(float("inf"), 1.0)
        assert not unguarded.diverged(float("nan"), 1.0)

    def test_merged_and_hashable(self):
        criteria = ConvergenceCriteria()
        tighter = criteria.merged(atol=1e-14)
        assert tighter.atol == 1e-14 and criteria.atol == 1e-10
        assert hash(criteria) != hash(tighter)  # participates in plan keys

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceCriteria(atol=-1.0)
        with pytest.raises(ValueError):
            ConvergenceCriteria(atol=0.0, rtol=0.0)
        with pytest.raises(ValueError):
            ConvergenceCriteria(max_iter=0)
        with pytest.raises(ValueError):
            ConvergenceCriteria(divergence_ratio=1.0)


class TestJacobi:
    def test_converges_and_matches_direct_solve(self, rng):
        matrix = spd_dominant(rng, 9)
        b = rng.normal(size=9)
        result = JacobiSolver(3).solve(matrix, b)
        assert result.converged
        assert result.method == "jacobi"
        assert np.allclose(result.x, np.linalg.solve(matrix, b), atol=1e-8)
        assert result.residual_norm == result.residual_history[-1]
        assert len(result.residual_history) == result.iterations
        assert result.array_steps > 0

    def test_respects_initial_guess(self, rng):
        matrix = spd_dominant(rng, 6)
        b = rng.normal(size=6)
        exact = np.linalg.solve(matrix, b)
        result = JacobiSolver(3).solve(matrix, b, x0=exact)
        assert result.iterations == 1
        assert result.converged

    def test_iteration_cap_is_not_an_error(self, rng):
        matrix = spd_dominant(rng, 6)
        b = rng.normal(size=6)
        criteria = ConvergenceCriteria(atol=1e-280, max_iter=3)
        result = JacobiSolver(3, criteria=criteria).solve(matrix, b)
        assert result.iterations == 3
        assert not result.converged

    def test_divergence_guard_raises_typed_error(self, rng):
        # Spectral radius of the Jacobi iteration matrix is 3 here.
        matrix = np.array([[1.0, 3.0], [3.0, 1.0]])
        b = np.array([1.0, -1.0])
        criteria = ConvergenceCriteria(divergence_ratio=1e4)
        with pytest.raises(ConvergenceError) as excinfo:
            JacobiSolver(3, criteria=criteria).solve(matrix, b)
        assert excinfo.value.iterations > 0
        assert np.isfinite(excinfo.value.residual_norm)

    def test_validation(self, rng):
        solver = JacobiSolver(3)
        with pytest.raises(ShapeError):
            solver.solve(rng.normal(size=(3, 4)), rng.normal(size=3))
        with pytest.raises(ShapeError):
            solver.solve(spd_dominant(rng, 4), rng.normal(size=3))
        with pytest.raises(ShapeError):
            solver.solve(spd_dominant(rng, 4), rng.normal(size=4), x0=rng.normal(size=3))
        zero_diag = spd_dominant(rng, 3)
        zero_diag[1, 1] = 0.0
        with pytest.raises(ShapeError):
            solver.solve(zero_diag, rng.normal(size=3))


class TestSOR:
    def test_omega_one_is_gauss_seidel_bit_for_bit(self, rng):
        matrix = spd_dominant(rng, 8)
        b = rng.normal(size=8)
        sor = SORSolver(3, omega=1.0).solve(matrix, b)
        legacy = Solver(ArraySpec(3)).solve("gauss_seidel", matrix, b).raw
        assert np.array_equal(sor.x, legacy.x)
        assert sor.iterations == legacy.iterations
        assert sor.residual_history == legacy.residual_history
        assert sor.array_steps == legacy.array_steps

    @pytest.mark.parametrize("omega", [0.8, 1.2, 1.5])
    def test_relaxed_sweeps_converge(self, rng, omega):
        matrix = spd_dominant(rng, 10)
        b = rng.normal(size=10)
        result = SORSolver(4, omega=omega).solve(matrix, b)
        assert result.converged
        assert np.allclose(result.x, np.linalg.solve(matrix, b), atol=1e-8)

    def test_omega_validated(self):
        for omega in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                SORSolver(3, omega=omega)


class TestConjugateGradient:
    def test_converges_in_at_most_n_iterations(self, rng):
        n = 8
        matrix = spd_dominant(rng, n)
        b = rng.normal(size=n)
        result = ConjugateGradientSolver(3).solve(matrix, b)
        assert result.converged
        assert result.iterations <= n + 1
        assert np.allclose(result.x, np.linalg.solve(matrix, b), atol=1e-8)

    def test_nonzero_initial_guess(self, rng):
        matrix = spd_dominant(rng, 6)
        b = rng.normal(size=6)
        result = ConjugateGradientSolver(3).solve(matrix, b, x0=rng.normal(size=6))
        assert result.converged
        assert np.allclose(result.x, np.linalg.solve(matrix, b), atol=1e-8)

    def test_rejects_nonsymmetric(self, rng):
        matrix = spd_dominant(rng, 5)
        matrix[0, 1] += 1.0
        with pytest.raises(ShapeError):
            ConjugateGradientSolver(3).solve(matrix, rng.normal(size=5))

    def test_indefinite_matrix_raises_convergence_error(self, rng):
        matrix = np.diag([1.0, -1.0, 2.0, 3.0])
        b = np.ones(4)
        with pytest.raises(ConvergenceError):
            ConjugateGradientSolver(3).solve(matrix, b)


class TestIterativeRefinement:
    def test_polishes_to_direct_accuracy(self, rng):
        matrix = spd_dominant(rng, 10)
        b = rng.normal(size=10)
        result = IterativeRefinementSolver(4).solve(matrix, b)
        assert result.converged
        assert result.iterations <= 3  # LU solve + a refinement sweep or two
        assert np.allclose(result.x, np.linalg.solve(matrix, b), atol=1e-9)

    def test_second_solve_reuses_every_plan(self, rng):
        solver = IterativeRefinementSolver(3)
        matrix = spd_dominant(rng, 7)
        first = solver.solve(matrix, rng.normal(size=7))
        assert first.plan_builds_first_sweep > 0
        before = counters.snapshot()
        second = solver.solve(spd_dominant(rng, 7), rng.normal(size=7))
        assert counters.delta(before).plan_builds == 0
        assert second.plan_builds_first_sweep == 0
        assert second.plan_builds_warm_sweeps == 0


class TestPowerIteration:
    def test_finds_dominant_eigenpair(self, rng):
        eigenvalues = np.array([9.0, 3.0, 1.0, 0.5])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        matrix = q @ np.diag(eigenvalues) @ q.T
        result = PowerIterationSolver(3).solve(matrix)
        assert result.converged
        assert result.eigenvalue == pytest.approx(9.0, rel=1e-8)
        dominant = q[:, 0]
        overlap = abs(float(result.x @ dominant))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_zero_start_vector_rejected(self, rng):
        with pytest.raises(ShapeError):
            PowerIterationSolver(3).solve(np.eye(3), x0=np.zeros(3))

    def test_rectangular_rejected(self, rng):
        with pytest.raises(ShapeError):
            PowerIterationSolver(3).solve(rng.normal(size=(3, 4)))


class TestWarmPlanReuse:
    """The acceptance criterion: k sweeps, zero recompiles after the first."""

    def test_50_sweep_jacobi_n256_builds_zero_plans_after_first_sweep(self, rng):
        n, w, sweeps = 256, 8, 50
        matrix = spd_dominant(rng, n)
        b = rng.normal(size=n)
        solver = Solver(
            ArraySpec(w),
            options=ExecutionOptions(
                criteria=ConvergenceCriteria(atol=1e-280, max_iter=sweeps)
            ),
        )
        before = counters.snapshot()
        solution = solver.solve("jacobi", matrix, b)
        delta = counters.delta(before)

        assert solution.stats["iterations"] == sweeps
        assert delta.iterative_sweeps == sweeps
        # One plan compiled during the first sweep, none afterwards.
        assert solution.stats["plan_builds_first_sweep"] == 1
        assert solution.stats["plan_builds_warm_sweeps"] == 0
        cache = solution.stats["cache"]
        assert isinstance(cache, CacheStats)
        assert cache.misses == 1
        assert cache.hits == sweeps - 1
        assert cache.hit_rate > 0.97

    def test_iterative_result_protocol(self, rng):
        result = JacobiSolver(3).solve(spd_dominant(rng, 6), rng.normal(size=6))
        assert isinstance(result, IterativeResult)
        assert 0.0 <= result.residual_reduction <= 1.0
        text = result.summary()
        assert "jacobi" in text and "plan cache" in text


class TestRegistryIntegration:
    def test_kinds_registered(self):
        kinds = Solver.kinds()
        for kind in ("jacobi", "sor", "cg", "refine", "power"):
            assert kind in kinds

    def test_facade_solve_and_plan_cache(self, rng):
        matrix = spd_dominant(rng, 8)
        b = rng.normal(size=8)
        b2 = rng.normal(size=8)
        solver = Solver(ArraySpec(3))
        first = solver.solve("cg", matrix, b)
        assert not first.from_cache
        assert np.allclose(first.values, np.linalg.solve(matrix, b), atol=1e-8)
        before = counters.snapshot()
        second = solver.solve("cg", matrix, b2)
        assert second.from_cache  # same engine, warm inner plans
        assert counters.delta(before).plan_builds == 0
        assert np.allclose(second.values, np.linalg.solve(matrix, b2), atol=1e-8)

    def test_sor_omega_routes_through_options(self, rng):
        matrix = spd_dominant(rng, 8)
        b = rng.normal(size=8)
        solver = Solver(ArraySpec(3))
        relaxed = solver.solve("sor", matrix, b, options=ExecutionOptions(omega=1.3))
        plain = solver.solve("sor", matrix, b)
        assert relaxed.plan_key != plain.plan_key  # omega is part of the key
        assert np.allclose(relaxed.values, np.linalg.solve(matrix, b), atol=1e-8)

    def test_power_through_facade(self, rng):
        matrix = spd_dominant(rng, 6)
        solution = Solver(ArraySpec(3)).solve("power", matrix)
        assert solution.stats["eigenvalue"] == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvalsh(matrix)))), rel=1e-6
        )

    def test_criteria_participate_in_plan_key(self, rng):
        solver = Solver(ArraySpec(3))
        loose = solver.plan_key("jacobi", shape=8)
        tight = solver.plan_key(
            "jacobi",
            shape=8,
            options=ExecutionOptions(criteria=ConvergenceCriteria(atol=1e-14)),
        )
        assert loose != tight

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            ExecutionOptions(omega=2.0)
        with pytest.raises(ValueError):
            ExecutionOptions(criteria="tight")  # type: ignore[arg-type]


#: The seed's Gauss-Seidel stopping rule, the ``gauss_seidel`` preset.
SEED_RULE = ConvergenceCriteria(
    atol=1e-10, rtol=0.0, max_iter=200, divergence_ratio=float("inf")
)


class TestGaussSeidelShim:
    """The ``gauss_seidel`` kind keeps the seed's Gauss-Seidel behaviour."""

    def test_gauss_seidel_is_sor_under_its_presets(self, rng):
        matrix = spd_dominant(rng, 7)
        b = rng.normal(size=7)
        solver = Solver(ArraySpec(3))
        seidel = solver.solve("gauss_seidel", matrix, b)
        sor = Solver(ArraySpec(3)).solve(SOR(matrix, b, omega=1.0, criteria=SEED_RULE))
        assert np.array_equal(seidel.values.view(np.uint64), sor.values.view(np.uint64))
        assert seidel.stats["iterations"] == sor.stats["iterations"]
        assert seidel.stats["converged"] and sor.stats["converged"]
        key = solver.derive("gauss_seidel", matrix, b)[0]
        assert solver.plan_key("gauss_seidel", shape=7) == key
        assert key[3].omega == 1.0 and key[3].criteria == SEED_RULE

    def test_gauss_seidel_kind_still_served(self, rng):
        matrix = spd_dominant(rng, 6)
        b = rng.normal(size=6)
        solution = Solver(ArraySpec(3)).solve("gauss_seidel", matrix, b)
        assert solution.stats["converged"]
        assert np.allclose(solution.values, np.linalg.solve(matrix, b), atol=1e-8)

    def test_divergence_reports_converged_false_like_the_seed(self, rng):
        """The kind must never raise on divergence — even to inf."""
        diverging = np.array([[1.0, 10.0], [10.0, 1.0]])
        b = np.ones(2)
        capped = SEED_RULE.merged(max_iter=300)
        # The residual legitimately overflows to inf on the way to the
        # iteration cap; that arithmetic noise is the point of the test.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            result = Solver(ArraySpec(3)).solve(
                "gauss_seidel", diverging, b, criteria=capped
            )
            assert not result.stats["converged"]
            assert result.stats["iterations"] == 300
            solution = Solver(ArraySpec(3)).solve("gauss_seidel", diverging, b)
            assert not solution.stats["converged"]
