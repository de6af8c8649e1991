"""Tests for the unified ``repro.api`` solver façade.

Covers the acceptance criteria of the api redesign: registry dispatch for
all six primary problem kinds, plan-cache hit/miss accounting, the
zero-transform-construction property of warm solves, ``solve_batch``
equivalence with sequential solves, and the one plan cache that inner
products share with direct solves.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.api import (
    ArraySpec,
    ExecutionOptions,
    ExecutionPlan,
    Solver,
    get_handler,
    registered_kinds,
)
from repro.api.plan import PlanCache
from repro.backends.vectorized import LinearSweepPlan
from repro.core.plans import MatVecPlan
from repro.errors import ProblemKindError, ShapeError
from repro.graph import Jacobi, MatVec, NaiveMatVec
from repro.iterative import ConvergenceCriteria
from repro.instrumentation import CacheStats, LRUCache, counters

#: The shared LRU and the plan cache built on it drive the same tests.
CACHE_TYPES = pytest.mark.parametrize(
    "cache_type", [PlanCache, LRUCache], ids=lambda cls: cls.__name__
)


@pytest.fixture
def solver():
    return Solver(ArraySpec(w=4))


class TestConfig:
    def test_array_spec_validates(self):
        assert ArraySpec(3).w == 3
        assert ArraySpec.of(5).w == 5
        assert ArraySpec.of(ArraySpec(2)).w == 2
        with pytest.raises(Exception):
            ArraySpec(0)

    def test_options_are_hashable_and_mergeable(self):
        options = ExecutionOptions()
        assert hash(options) == hash(ExecutionOptions())
        overlapped = options.merged(overlapped=True)
        assert overlapped.overlapped and not options.overlapped
        with pytest.raises(ValueError):
            ExecutionOptions(tolerance=-1.0)

    def test_fields_are_stored_as_their_declared_types(self):
        options = ExecutionOptions(
            record_trace=0, omega=1, tolerance=-0.0,
            criteria=ConvergenceCriteria(rtol=0, max_iter=7.0),
        )
        assert options == ExecutionOptions(
            record_trace=False, omega=1.0, tolerance=0.0,
            criteria=ConvergenceCriteria(rtol=0.0, max_iter=7),
        )
        assert type(options.record_trace) is bool
        assert type(options.omega) is float
        assert str(options.tolerance) == "0.0"  # not -0.0
        assert type(options.criteria.rtol) is float
        assert type(options.criteria.max_iter) is int
        capped = ConvergenceCriteria(max_iter=np.int64(50))
        assert capped == ConvergenceCriteria(max_iter=50)
        assert type(capped.max_iter) is int

    def test_values_a_conversion_would_change_are_rejected(self):
        for bad in (
            {"record_trace": 2},
            {"overlapped": None},
            {"omega": "1.0"},
        ):
            with pytest.raises(ValueError, match="exactly representable"):
                ExecutionOptions(**bad)
        with pytest.raises(ValueError, match="max_iter"):
            ConvergenceCriteria(max_iter=3.5)

    def test_nan_tolerances_are_rejected_at_construction(self):
        # nan != nan, so a plan key holding one never hits the cache:
        # every solve would build (and cache) a fresh plan.
        nan = float("nan")
        for field in ("tolerance",):
            with pytest.raises(ValueError, match=f"{field} must not be NaN"):
                ExecutionOptions(**{field: nan})
        for field in ("atol", "rtol"):
            with pytest.raises(ValueError, match=f"{field} must not be NaN"):
                ConvergenceCriteria(**{field: nan})
        # Infinity stays legal: it disables the divergence guard.
        unguarded = ConvergenceCriteria(divergence_ratio=float("inf"))
        assert unguarded.divergence_ratio == float("inf")


class TestRegistryDispatch:
    """All six primary kinds solve correctly through the one façade."""

    def test_kinds_registered(self):
        kinds = registered_kinds()
        for kind in ("matvec", "matmul", "lu", "triangular", "gauss_seidel", "sparse"):
            assert kind in kinds

    def test_unknown_kind_raises(self, solver):
        with pytest.raises(ProblemKindError):
            solver.solve("cholesky", np.eye(3))
        with pytest.raises(ProblemKindError):
            get_handler("cholesky")

    def test_matvec(self, solver, rng):
        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        b = rng.normal(size=10)
        solution = solver.solve("matvec", a, x, b)
        assert solution.kind == "matvec"
        assert np.allclose(solution.values, a @ x + b)
        assert solution.measured_steps == solution.predicted_steps
        assert solution.feedback.count > 0
        assert solution.feedback.min_delay == solution.feedback.max_delay == 4
        assert "measured" in solution.summary()

    def test_matmul(self, solver, rng):
        a = rng.normal(size=(6, 9))
        b = rng.normal(size=(9, 5))
        e = rng.normal(size=(6, 5))
        solution = solver.solve("matmul", a, b, e)
        assert np.allclose(solution.values, a @ b + e)
        assert solution.measured_steps == solution.predicted_steps
        assert solution.feedback.regular is not None

    def test_lu(self, solver, rng):
        a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        solution = solver.solve("lu", a)
        l, u = solution.values
        assert np.allclose(l @ u, a)
        assert 0.0 < solution.stats["array_share"] <= 1.0

    def test_triangular_both_orientations(self, solver, rng):
        t = np.tril(rng.normal(size=(7, 7))) + 5 * np.eye(7)
        b = rng.normal(size=7)
        lower = solver.solve("triangular", t, b, lower=True)
        assert np.allclose(lower.values, np.linalg.solve(t, b))
        upper = solver.solve("triangular", t.T, b, lower=False)
        assert np.allclose(upper.values, np.linalg.solve(t.T, b))

    def test_gauss_seidel(self, solver, rng):
        a = rng.normal(size=(5, 5)) + 6 * np.eye(5)
        b = rng.normal(size=5)
        solution = solver.solve("gauss_seidel", a, b)
        assert solution.stats["converged"]
        assert np.allclose(a @ solution.values, b, atol=1e-8)

    def test_sparse(self, solver, rng):
        a = np.zeros((8, 8))
        a[:4, :4] = rng.normal(size=(4, 4))
        x = rng.normal(size=8)
        solution = solver.solve("sparse", a, x)
        assert np.allclose(solution.values, a @ x)
        assert solution.stats["skipped_blocks"] == 3
        assert solution.measured_steps < solution.stats["dense_steps"]

    def test_baseline_kinds_also_dispatch(self, solver, rng):
        a = rng.normal(size=(6, 5))
        x = rng.normal(size=5)
        for kind in ("naive_matvec", "block_partitioned"):
            solution = solver.solve(kind, a, x)
            assert np.allclose(solution.values, a @ x)
        block = rng.normal(size=(4, 4))
        x_block = rng.normal(size=4)
        prt = solver.solve("prt", block, x_block)
        assert np.allclose(prt.values, block @ x_block)
        mm = solver.solve("naive_matmul", a.T, a)
        assert np.allclose(mm.values, a.T @ a)


class TestDerive:
    """``Solver.derive``: one call -> (plan key, operands, execution kwargs)."""

    @pytest.mark.parametrize(
        "kind, overrides, field, value",
        [
            ("matvec", {"overlapped": True}, "overlapped", True),
            ("sor", {"omega": 1.5}, "omega", 1.5),
            ("sparse", {"tolerance": 0.5}, "tolerance", 0.5),
        ],
    )
    def test_constructor_overrides_ride_in_the_key(
        self, solver, rng, kind, overrides, field, value
    ):
        a, v = rng.normal(size=(8, 8)), rng.normal(size=8)
        key, operands, kwargs = solver.derive(kind, a, v, **overrides)
        assert getattr(key[3], field) == value
        assert kwargs == {}
        assert operands[0] is a and operands[1] is v
        # Executing under the key's options derives the key again.
        assert solver.derive(kind, *operands, options=key[3], **kwargs)[0] == key

    def test_typed_and_string_calls_derive_alike(self, solver, rng):
        a, b, x0 = rng.normal(size=(8, 8)), rng.normal(size=8), rng.normal(size=8)
        typed = solver.derive(Jacobi(a, b, x0=x0))
        string = solver.derive("jacobi", a, b, x0=x0)
        assert typed[0] == string[0] == solver.plan_key(Jacobi(a, b))
        assert typed[2] == string[2] == {"x0": x0}

    def test_string_only_kinds_pass_through(self, solver, rng):
        """The baseline kinds, once string-only, derive like every kind:
        through their typed classes, which refuse unknown keywords."""
        a, x = rng.normal(size=(6, 5)), rng.normal(size=5)
        key, operands, kwargs = solver.derive("naive_matvec", a, x)
        assert key == solver.plan_key("naive_matvec", shape=(6, 5))
        assert key == solver.plan_key(NaiveMatVec(a, x))
        assert operands == (a, x) and kwargs == {}
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            solver.derive("naive_matvec", a, x, extra=1)

    def test_wrong_arity_fails_at_derivation(self, solver, rng):
        a = rng.normal(size=(8, 8))
        with pytest.raises(TypeError):
            solver.derive("matvec", a)
        with pytest.raises(ShapeError):
            solver.derive("jacobi", a)


class TestPlanCache:
    def test_hit_miss_accounting(self, solver, rng):
        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        first = solver.solve("matvec", a, x)
        second = solver.solve("matvec", a, x)
        stats = solver.cache_stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert not first.from_cache
        assert second.from_cache

    def test_explicit_plan_then_solve_hits(self, rng):
        """The acceptance scenario: plan once, solve twice, second hits."""
        solver = Solver(ArraySpec(w=4))
        plan = solver.plan("matvec", shape=(10, 7))
        assert isinstance(plan, ExecutionPlan)

        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        b = rng.normal(size=10)
        first = solver.solve("matvec", a, x, b)
        assert first.from_cache  # the explicit plan() call seeded the cache

        before = counters.snapshot()
        second = solver.solve("matvec", a, x, b)
        delta = counters.delta(before)
        assert second.from_cache
        assert delta.transform_constructions == 0  # zero new transform construction
        assert delta.plan_builds == 0
        assert np.array_equal(first.values, second.values)

        direct = MatVecPlan(*a.shape, 4).execute(a, x, b)
        assert np.array_equal(second.values, direct.y)

    def test_warm_matmul_builds_no_operands(self, solver, rng):
        a = rng.normal(size=(6, 9))
        b = rng.normal(size=(9, 5))
        solver.solve("matmul", a, b)
        before = counters.snapshot()
        warm = solver.solve("matmul", a, b)
        assert warm.from_cache
        assert counters.delta(before).transform_constructions == 0

    def test_distinct_shapes_and_options_get_distinct_plans(self, solver, rng):
        a = rng.normal(size=(10, 7))
        x = rng.normal(size=7)
        solver.solve("matvec", a, x)
        solver.solve("matvec", rng.normal(size=(8, 8)), rng.normal(size=8))
        plain = solver.plan("matvec", shape=(10, 7))
        overlapped = solver.plan("matvec", shape=(10, 7), overlapped=True)
        assert plain is not overlapped
        assert solver.cache_stats.size == 3

    def test_plan_is_immutable(self, solver):
        plan = solver.plan("matvec", shape=(6, 6))
        with pytest.raises(AttributeError):
            plan.kind = "matmul"

    def test_plan_shape_mismatch_raises(self, solver, rng):
        plan = solver.plan("matvec", shape=(6, 6))
        with pytest.raises(ShapeError):
            plan.execute(rng.normal(size=(5, 6)), rng.normal(size=6))

    def test_lru_eviction(self, rng):
        solver = Solver(ArraySpec(w=3), plan_cache_size=2)
        for n in (3, 4, 5):
            solver.solve("matvec", rng.normal(size=(n, 3)), rng.normal(size=3))
        stats = solver.cache_stats
        assert stats.size == 2
        assert stats.evictions == 1

    @CACHE_TYPES
    def test_cache_object_directly(self, cache_type):
        cache = cache_type(maxsize=1)
        assert cache.get(("matvec", (2, 2), 3, ExecutionOptions())) is None
        assert cache.stats.misses == 1

    def test_lru_get_refreshes_recency_and_counts(self):
        cache = LRUCache(maxsize=2)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") is None  # evicted
        assert cache.get("c") == "C"
        assert cache.stats == CacheStats(1, 1, 1, 2, 2)
        assert cache.get("b") == "B"  # now most recently used
        cache.put("d", "D")  # so "c" is evicted
        assert "c" not in cache and "b" in cache and "d" in cache
        assert cache.stats == CacheStats(2, 1, 2, 2, 2)

    def test_empty_cache_hit_rate_is_zero_not_an_error(self):
        from repro.api.plan import CacheStats

        assert PlanCache(maxsize=4).stats.hit_rate == 0.0
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).hit_rate == pytest.approx(0.75)

    def test_evictions_survive_clear(self, rng):
        solver = Solver(ArraySpec(w=3), plan_cache_size=2)
        for n in (3, 4, 5):
            solver.solve("matvec", rng.normal(size=(n, 3)), rng.normal(size=3))
        assert solver.cache_stats.evictions == 1
        solver._cache.clear()
        stats = solver.cache_stats
        assert stats.size == 0
        assert stats.evictions == 1  # lifetime counters survive clear()
        assert stats.hit_rate == 0.0  # no hits yet, and no division by zero


class TestSolveBatch:
    def test_batch_matches_sequential(self, rng):
        solver = Solver(ArraySpec(w=4))
        batch = [
            (rng.normal(size=(10, 7)), rng.normal(size=7), rng.normal(size=10))
            for _ in range(5)
        ]
        batched = solver.solve_batch("matvec", batch)
        sequential = [solver.solve("matvec", *entry) for entry in batch]
        assert len(batched) == 5
        for got, want in zip(batched, sequential):
            assert np.array_equal(got.values, want.values)

    def test_batch_pairs_overlap_and_save_steps(self, rng):
        solver = Solver(ArraySpec(w=3))
        batch = [(rng.normal(size=(9, 9)), rng.normal(size=9)) for _ in range(4)]
        batched = solver.solve_batch("matvec", batch)
        assert all(solution.stats.get("paired") for solution in batched)
        # A pair shares one overlapped run: its cycle count is far below
        # two sequential executions of the paper's plain formula.
        sequential_steps = solver.solve("matvec", *batch[0]).measured_steps
        assert batched[0].measured_steps < 2 * sequential_steps * 0.75

    def test_odd_batch_tail_runs_plain(self, rng):
        solver = Solver(ArraySpec(w=3))
        batch = [(rng.normal(size=(6, 6)), rng.normal(size=6)) for _ in range(3)]
        batched = solver.solve_batch("matvec", batch)
        assert batched[-1].stats.get("paired") is None
        for entry, solution in zip(batch, batched):
            assert np.allclose(solution.values, entry[0] @ entry[1])

    def test_mixed_shape_batch_still_correct(self, rng):
        solver = Solver(ArraySpec(w=3))
        batch = [
            (rng.normal(size=(6, 6)), rng.normal(size=6)),
            (rng.normal(size=(9, 6)), rng.normal(size=6)),
            (rng.normal(size=(6, 6)), rng.normal(size=6)),
        ]
        batched = solver.solve_batch("matvec", batch)
        for entry, solution in zip(batch, batched):
            assert np.allclose(solution.values, entry[0] @ entry[1])

    def test_interleaved_shapes_still_pair(self, rng):
        """An (A, B, A, B) batch pairs by plan, not by adjacency."""
        solver = Solver(ArraySpec(w=3))
        shape_a, shape_b = (6, 6), (9, 6)
        batch = [
            (rng.normal(size=shape_a), rng.normal(size=6)),
            (rng.normal(size=shape_b), rng.normal(size=6)),
            (rng.normal(size=shape_a), rng.normal(size=6)),
            (rng.normal(size=shape_b), rng.normal(size=6)),
        ]
        batched = solver.solve_batch("matvec", batch)
        assert all(solution.stats.get("paired") for solution in batched)
        # Results come back in the original (interleaved) order ...
        for entry, solution in zip(batch, batched):
            assert np.array_equal(
                solution.values, solver.solve("matvec", *entry).values
            )
        # ... and two overlapped runs replace four sequential ones.
        assert batched[0].measured_steps < solver.plan(
            "matvec", shape=shape_a
        ).executor.model.steps * 1.5

    def test_interleaved_shapes_pair_when_the_cache_rebuilds_plans(self, rng):
        """Pairs form by plan key, so a one-plan cache still pairs all four.

        The (A, B, A, B) batch runs as two plan-keyed groups, the A's
        and then the B's, so a one-plan cache builds each plan once:
        the B group evicts A's plan only after both A's have run.
        """
        solver = Solver(ArraySpec(w=3), plan_cache_size=1)
        batch = [
            (rng.normal(size=shape), rng.normal(size=6))
            for shape in ((6, 6), (9, 6), (6, 6), (9, 6))
        ]
        batched = solver.solve_batch("matvec", batch)
        assert solver.cache_stats.misses == 2
        assert all(solution.stats.get("paired") for solution in batched)
        for entry, solution in zip(batch, batched):
            assert np.array_equal(
                solution.values, Solver(ArraySpec(w=3)).solve("matvec", *entry).values
            )

    def test_interleaved_batch_odd_tails_run_plain(self, rng):
        solver = Solver(ArraySpec(w=3))
        batch = [
            (rng.normal(size=(6, 6)), rng.normal(size=6)),
            (rng.normal(size=(9, 6)), rng.normal(size=6)),
            (rng.normal(size=(6, 6)), rng.normal(size=6)),
            (rng.normal(size=(9, 6)), rng.normal(size=6)),
            (rng.normal(size=(6, 6)), rng.normal(size=6)),
        ]
        batched = solver.solve_batch("matvec", batch)
        paired = [bool(solution.stats.get("paired")) for solution in batched]
        # Three 6x6 entries: first two pair, the last runs plain; both
        # 9x6 entries pair.
        assert paired == [True, True, True, True, False]
        for entry, solution in zip(batch, batched):
            assert np.allclose(solution.values, entry[0] @ entry[1])

    def test_batch_other_kind_is_sequential(self, rng):
        solver = Solver(ArraySpec(w=3))
        batch = [
            (rng.normal(size=(4, 5)), rng.normal(size=(5, 3)))
            for _ in range(2)
        ]
        batched = solver.solve_batch("matmul", batch)
        for (a, b), solution in zip(batch, batched):
            assert np.allclose(solution.values, a @ b)
        assert batched[1].from_cache


class TestSolveBatchEdgeCases:
    def test_single_entry_batch_runs_plain_and_matches_solo(self, rng):
        solver = Solver(ArraySpec(w=4))
        a, x = rng.normal(size=(9, 9)), rng.normal(size=9)
        batched = solver.solve_batch("matvec", [(a, x)])
        assert len(batched) == 1
        assert batched[0].stats.get("paired") is None
        solo = solver.solve("matvec", a, x)
        assert np.array_equal(batched[0].values, solo.values)
        assert batched[0].measured_steps == solo.measured_steps

    def test_odd_length_batches_keep_input_order(self, rng):
        solver = Solver(ArraySpec(w=4))
        for length in (1, 3, 5, 7):
            batch = [
                (rng.normal(size=(8, 8)), rng.normal(size=8))
                for _ in range(length)
            ]
            batched = solver.solve_batch("matvec", batch)
            assert len(batched) == length
            # Distinct operands per entry: order mixups cannot cancel out.
            for (a, x), solution in zip(batch, batched):
                assert np.array_equal(
                    solution.values, solver.solve("matvec", a, x).values
                )

    def test_wrong_arity_entry_is_rejected(self, rng):
        solver = Solver(ArraySpec(w=4))
        a, x = rng.normal(size=(6, 6)), rng.normal(size=6)
        with pytest.raises(ValueError, match="operand sets"):
            solver.solve_batch("matvec", [(a, x), (a, x, None, x)])

    def test_mixed_kind_operands_are_rejected_not_solved(self, rng):
        solver = Solver(ArraySpec(w=4))
        matvec_entry = (rng.normal(size=(6, 6)), rng.normal(size=6))
        matmul_entry = (rng.normal(size=(6, 6)), rng.normal(size=(6, 3)))
        with pytest.raises(ShapeError):
            solver.solve_batch("matvec", [matvec_entry, matmul_entry])

    def test_unknown_kind_is_rejected(self, rng):
        solver = Solver(ArraySpec(w=4))
        with pytest.raises(ProblemKindError):
            solver.solve_batch("fourier", [(rng.normal(size=(4, 4)),)])

    def test_empty_batch_returns_empty_list(self):
        assert Solver(ArraySpec(w=4)).solve_batch("matvec", []) == []


class TestExecuteMany:
    def test_a_bad_pair_member_sweeps_nothing(self, rng, monkeypatch):
        """A pair validates both members before it sweeps either."""
        solver = Solver(ArraySpec(w=4))
        entries = [
            ((rng.normal(size=(8, 8)), rng.normal(size=8)), {}) for _ in range(5)
        ]
        entries[1] = ((entries[1][0][0], rng.normal(size=7)), {})
        sweeps = []
        original = LinearSweepPlan.sweep

        def counted(self, *operands):
            sweeps.append(operands)
            return original(self, *operands)

        monkeypatch.setattr(LinearSweepPlan, "sweep", counted)
        outcomes = solver.execute_many(
            solver.plan_key("matvec", shape=(8, 8)), entries
        )
        assert isinstance(outcomes[1], ShapeError)
        assert len(sweeps) == 4  # one per good member
        for index in (0, 2, 3, 4):
            (a, x), _kwargs = entries[index]
            assert np.allclose(outcomes[index].values, a @ x)


class TestSolverLifetime:
    def test_context_manager_resets_on_exit(self, rng):
        with Solver(ArraySpec(w=4)) as solver:
            solver.solve("matvec", rng.normal(size=(8, 8)), rng.normal(size=8))
            assert solver.cache_stats.size == 1
        assert solver.cache_stats.size == 0
        assert solver.cache_stats.misses == 1  # accounting history survives

    def test_reset_preserves_cache_stats_and_recompiles(self, rng):
        solver = Solver(ArraySpec(w=4))
        a, x = rng.normal(size=(8, 8)), rng.normal(size=8)
        first = solver.solve("matvec", a, x)
        solver.reset()
        before = counters.snapshot()
        again = solver.solve("matvec", a, x)
        assert counters.delta(before).plan_builds == 1  # cache was dropped
        assert not again.from_cache
        assert np.array_equal(again.values, first.values)
        stats = solver.cache_stats
        assert stats.misses == 2 and stats.hits == 0  # history preserved

    def test_plan_key_is_public_and_matches_cached_plan(self, rng):
        solver = Solver(ArraySpec(w=4))
        a, x = rng.normal(size=(10, 7)), rng.normal(size=7)
        key = solver.plan_key("matvec", a, x)
        assert key == solver.plan_key("matvec", shape=(10, 7))
        assert key == solver.plan("matvec", shape=(10, 7)).key
        assert hash(key) == hash(solver.plan_key("matvec", a, x))
        overlapped = solver.plan_key("matvec", a, x, overlapped=True)
        assert overlapped != key


class TestOnePlanCache:
    """Inner products are plans of the solver cache, like direct solves."""

    @staticmethod
    def _dominant(rng, n: int) -> np.ndarray:
        a = rng.normal(size=(n, n))
        return a + np.diag(np.abs(a).sum(axis=1) + 1.0)

    def test_jacobi_inner_product_is_the_plain_matvec_plan(self, rng):
        n = 12
        solver = Solver(ArraySpec(w=4))
        criteria = ConvergenceCriteria(atol=1e-12, max_iter=20)
        a, b = self._dominant(rng, n), rng.normal(size=n)
        solver.solve(Jacobi(a, b, criteria=criteria))
        before = counters.snapshot()
        solution = solver.solve(MatVec(rng.normal(size=(n, n)), rng.normal(size=n)))
        assert solution.from_cache
        assert counters.delta(before).plan_builds == 0
        assert solver.cache_stats.size == 2  # the jacobi plan and one (n, n) mat-vec

    def test_warm_triangular_solve_builds_no_plans(self, rng):
        """40 blocks: 39 distinct block shapes, all held by the one cache."""
        n = 160
        lower = np.tril(rng.normal(size=(n, n))) + n * np.eye(n)
        b = rng.normal(size=n)
        solver = Solver(ArraySpec(w=4))
        cold = solver.solve("triangular", lower, b)
        before = counters.snapshot()
        warm = solver.solve("triangular", lower, b)
        assert counters.delta(before).plan_builds == 0
        assert np.array_equal(warm.values, cold.values)
        assert solver.cache_stats.evictions == 0

    def test_dropped_solver_is_freed_by_reference_counting(self, rng):
        """A plan holds its source solver weakly: no plan -> solver cycle."""
        n = 8
        solver = Solver(ArraySpec(w=4))
        gc.disable()
        try:
            solver.solve(Jacobi(self._dominant(rng, n), rng.normal(size=n)))
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
        finally:
            gc.enable()


class TestPlanCacheThreadSafety:
    def test_hammer_shared_solver(self, rng):
        """Many threads, few cache slots: no torn LRU state, no lost counts."""
        solver = Solver(ArraySpec(w=4), plan_cache_size=2)
        shapes = [(8, 8), (10, 8), (8, 10), (12, 12)]
        problems = {
            shape: (rng.normal(size=shape), rng.normal(size=shape[1]))
            for shape in shapes
        }
        expected = {
            shape: np.asarray(a) @ np.asarray(x)
            for shape, (a, x) in problems.items()
        }
        n_threads, per_thread = 8, 24
        barrier = threading.Barrier(n_threads)
        failures: "list[BaseException]" = []

        def hammer(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(per_thread):
                    shape = shapes[(seed + i) % len(shapes)]
                    a, x = problems[shape]
                    solution = solver.solve("matvec", a, x)
                    assert np.allclose(solution.values, expected[shape])
                    if i % 10 == 0:
                        solver.reset()  # concurrent clear() stays consistent
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        stats = solver.cache_stats
        # Every solve performs exactly one cache lookup; under races a
        # lookup is either a hit or a miss, never lost or double-counted.
        assert stats.hits + stats.misses == n_threads * per_thread
        assert stats.size <= 2

    @CACHE_TYPES
    def test_hammer_cache_object_directly(self, cache_type):
        cache = cache_type(maxsize=4)
        sentinel = object()
        keys = [("matvec", (n, n), 4, None) for n in range(8)]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        failures: "list[BaseException]" = []

        def hammer(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(200):
                    key = keys[(seed * 7 + i) % len(keys)]
                    if cache.get(key) is None:
                        cache.put(key, sentinel)  # type: ignore[arg-type]
                    if i % 50 == 49:
                        cache.clear()
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(n_threads)
        ]
        # Switch threads often, so a lost hit/miss update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = cache.stats
        assert stats.hits + stats.misses == n_threads * 200
        assert stats.size <= 4
        assert len(cache) <= 4


class TestSolutionProtocol:
    def test_summary_is_uniform_across_kinds(self, rng):
        solver = Solver(ArraySpec(w=3))
        a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        solutions = [
            solver.solve("matvec", a, rng.normal(size=6)),
            solver.solve("matmul", a, a),
            solver.solve("lu", a),
            solver.solve("triangular", np.tril(a), rng.normal(size=6)),
            solver.solve("gauss_seidel", a, rng.normal(size=6)),
            solver.solve("sparse", a, rng.normal(size=6)),
        ]
        for solution in solutions:
            text = solution.summary()
            assert "steps" in text
            assert "feedback" in text
            assert solution.plan_key is not None

    def test_report_from_solution(self, rng):
        from repro.analysis.report import ExperimentReport

        solver = Solver(ArraySpec(w=3))
        solution = solver.solve("matvec", rng.normal(size=(6, 6)), rng.normal(size=6))
        report = ExperimentReport.from_solution(solution)
        assert report.all_match
        assert len(report.rows) == 2


class TestOneObjectPerSolve:
    """An array solve builds one result object: the one its plan returns."""

    @staticmethod
    def _record(monkeypatch, plan_class, method: str = "execute"):
        """Patch ``plan_class.<method>`` to keep what every call returns."""
        returned = []
        original = getattr(plan_class, method)

        def recording(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            returned.append(result)
            return result

        monkeypatch.setattr(plan_class, method, recording)
        return returned

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    def test_matvec_and_matmul_return_the_core_solution(
        self, rng, monkeypatch, backend
    ):
        from repro.core.matmul import MatMulSolution
        from repro.core.matvec import MatVecSolution
        from repro.core.plans import MatMulPlan
        from repro.graph import MatMul

        solver = Solver(ArraySpec(3), ExecutionOptions(backend=backend))
        a = rng.normal(size=(7, 5))
        cases = [
            (MatVecPlan, MatVec(a, rng.normal(size=5)), MatVecSolution),
            (MatMulPlan, MatMul(a, rng.normal(size=(5, 4))), MatMulSolution),
        ]
        for plan_class, problem, solution_type in cases:
            returned = self._record(monkeypatch, plan_class)
            solution = solver.solve(problem)
            assert len(returned) == 1 and solution is returned[0]
            assert solution.raw is solution
            assert type(solution.raw) is solution_type
            assert solution.kind == problem.kind
            assert solution.plan_key == solver.plan_key(problem)

    @pytest.mark.parametrize("backend", ["simulate", "vectorized"])
    @pytest.mark.parametrize("dtype_mode", ["float64", "int8"])
    def test_dense_returns_the_dense_plan_solution(
        self, rng, monkeypatch, backend, dtype_mode
    ):
        from repro.core.matvec import MatVecSolution
        from repro.nn import Dense
        from repro.nn.engine import DensePlan

        returned = self._record(monkeypatch, DensePlan)
        solver = Solver(ArraySpec(3), ExecutionOptions(backend=backend))
        matrix = rng.integers(-127, 128, size=(6, 5)).astype(np.int8)
        x = rng.integers(-127, 128, size=5).astype(np.int8)
        if dtype_mode == "float64":
            matrix, x = matrix.astype(float), x.astype(float)
        problem = Dense(matrix, x, x_zero_point=3, dtype_mode=dtype_mode)
        solution = solver.solve(problem)
        assert len(returned) == 1 and solution is returned[0]
        assert solution.raw is solution
        assert type(solution.raw) is MatVecSolution
        assert solution.kind == "dense"
        assert solution.stats == {"dtype_mode": dtype_mode}
        assert solution.plan_key == solver.plan_key(problem)
        expected = matrix.astype(np.int64) @ (x.astype(np.int64) - 3)
        assert np.array_equal(solution.values, expected)
        if dtype_mode == "int8":
            assert solution.values.dtype == np.int32

    def test_paired_members_are_marked_in_place(self, rng, monkeypatch):
        returned = self._record(monkeypatch, MatVecPlan, "execute_pair")
        solver = Solver(ArraySpec(3))
        a = rng.normal(size=(7, 5))
        first, second = solver.solve_batch(
            "matvec", [(a, rng.normal(size=5)), (a, rng.normal(size=5))]
        )
        assert returned == [(first, second)]
        key = solver.plan_key("matvec", shape=(7, 5))
        for member in (first, second):
            assert member.raw is member
            assert member.stats == {"overlapped": True, "paired": True}
            assert member.predicted_steps is None
            assert member.predicted_utilization is None
            assert member.raw.predicted_steps is None
            assert member.raw.model.steps > 0
            assert member.plan_key == key

    def test_fused_stage_raw_is_its_head_solution(self, rng, monkeypatch):
        from repro import Graph, GraphCompiler
        from repro.nn import Bias, Dense, Relu
        from repro.nn.engine import DensePlan

        returned = self._record(monkeypatch, DensePlan)
        graph = Graph(Relu(Bias(
            Dense(rng.normal(size=(6, 5)), rng.normal(size=5)),
            rng.normal(size=6),
        )))
        solver = Solver(ArraySpec(3))
        result = GraphCompiler(solver, fuse=True).run(graph)
        (fused,) = result.solutions
        assert fused.kind == "fused"
        assert len(returned) == 1 and fused.raw is returned[0]
        assert fused.raw is not fused
        assert fused.plan_key is not None
