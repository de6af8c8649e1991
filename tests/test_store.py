"""Plan persistence: round-trip fidelity and corruption robustness.

Two families of guarantees:

* **Round-trip bit-identity** — for every primary problem kind (and both
  ``dtype_mode`` settings of the NN dense kind), a plan compiled with a
  store attached, reloaded into a *fresh* solver, executes the same
  operands to bit-identical values with **zero** plan builds.
* **Fail-open reads** — a store artifact that is truncated, bit-flipped,
  version-bumped, magic-corrupted or replaced with garbage must never
  crash a load: every such artifact is reported as a miss-with-error
  (``plan_store_errors`` bumped), the solver silently recompiles, and
  the healthy write-through replaces the bad artifact on disk.

Plus the store's own contract details: stable content-hash filenames
(``canonical_key_bytes``-derived, ``PYTHONHASHSEED``-independent),
atomic writes, readonly mode, ``warm_start`` preloading through the
service, and the :class:`~repro.errors.PlanStoreError` write-side
failure surface.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import PlanStoreError
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.service import SolverService, canonical_key_bytes
from repro.store import FORMAT_VERSION, MAGIC, PlanStore
from repro.store.format import HEADER_SIZE, decode_plan, encode_plan

W = 4


def _criteria():
    return ConvergenceCriteria(atol=1e-12, max_iter=50)


def _workloads(rng):
    """(label, kind, operands, kwargs, options) per primary kind/mode."""
    n = 6
    a = rng.normal(size=(n, n))
    dominant = a + np.diag(np.abs(a).sum(axis=1) + 1.0)
    spd = dominant @ dominant.T + n * np.eye(n)
    lower = np.tril(rng.normal(size=(n, n))) + n * np.eye(n)
    int_matrix = rng.integers(-128, 128, size=(5, 7)).astype(np.int8)
    int_x = rng.integers(-128, 128, size=7).astype(np.int8)
    iter_opts = ExecutionOptions(criteria=_criteria())
    return [
        ("matvec", "matvec", (a, rng.normal(size=n)), {}, None),
        ("matmul", "matmul", (a, rng.normal(size=(n, 4))), {}, None),
        ("jacobi", "jacobi", (dominant, rng.normal(size=n)), {}, iter_opts),
        ("cg", "cg", (spd, rng.normal(size=n)), {}, iter_opts),
        ("sor", "sor", (dominant, rng.normal(size=n)), {}, iter_opts),
        ("power", "power", (spd,), {}, iter_opts),
        ("refine", "refine", (dominant, rng.normal(size=n)), {}, iter_opts),
        ("lu", "lu", (dominant,), {}, None),
        (
            "triangular", "triangular",
            (lower, rng.normal(size=n)), {"lower": True}, None,
        ),
        (
            "dense-float64", "dense",
            (a, rng.normal(size=n)), {},
            ExecutionOptions(dtype_mode="float64"),
        ),
        (
            "dense-int8", "dense",
            (int_matrix, int_x), {"x_zero_point": 3},
            ExecutionOptions(dtype_mode="int8"),
        ),
        ("relu", "relu", (rng.normal(size=n),), {}, None),
        ("bias", "bias", (rng.normal(size=n), rng.normal(size=n)), {}, None),
    ]


class TestRoundTrip:
    def test_every_kind_round_trips_bit_identically(self, tmp_path):
        """Store-restored plans replay every kind to identical bits."""
        rng = np.random.default_rng(20260808)
        workloads = _workloads(rng)
        writer = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        baseline = {}
        for label, kind, operands, kwargs, options in workloads:
            solution = writer.solve(kind, *operands, options=options, **kwargs)
            baseline[label] = solution.values

        reader_store = PlanStore(tmp_path, readonly=True)
        reader = Solver(ArraySpec(W), store=reader_store)
        before = counters.snapshot()
        for label, kind, operands, kwargs, options in workloads:
            replayed = reader.solve(kind, *operands, options=options, **kwargs)
            assert np.array_equal(replayed.values, baseline[label]), (
                f"{label}: store round-trip changed the values"
            )
        delta = counters.delta(before)
        assert delta.plan_builds == 0, (
            f"{delta.plan_builds} rebuilds despite a fully-warmed store"
        )
        assert delta.plan_store_hits == len(workloads)
        assert delta.plan_store_errors == 0

    @pytest.mark.parametrize(
        "kind, shapes",
        [("matvec", [(10, 9), (9,)]), ("matmul", [(9, 7), (7, 10)])],
    )
    def test_vectorized_plan_restores_template_free(self, tmp_path, kind, shapes):
        """A restored vectorized plan serves with no transform built and
        the feedback digest a fresh build computes."""
        rng = np.random.default_rng(11)
        operands = [rng.normal(size=shape) for shape in shapes]
        options = ExecutionOptions(backend="vectorized")
        fresh = Solver(ArraySpec(W), options=options).solve(kind, *operands)
        Solver(ArraySpec(W), options=options, store=PlanStore(tmp_path)).solve(
            kind, *operands
        )

        reader = Solver(
            ArraySpec(W), options=options,
            store=PlanStore(tmp_path, readonly=True),
        )
        before = counters.snapshot()
        replayed = [reader.solve(kind, *operands) for _cold_then_warm in range(2)]
        delta = counters.delta(before)
        assert delta.plan_store_hits == 1 and delta.plan_builds == 0
        assert delta.transform_constructions == 0
        assert fresh.feedback.count > 0
        for solution in replayed:
            assert np.array_equal(solution.values, fresh.values)
            assert solution.feedback == fresh.feedback
            assert solution.measured_steps == fresh.measured_steps

    def test_filenames_are_stable_content_hashes(self, tmp_path):
        solver = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        rng = np.random.default_rng(0)
        a, x = rng.normal(size=(5, 5)), rng.normal(size=5)
        solver.solve("matvec", a, x)
        store = PlanStore(tmp_path)
        (key,) = store.keys()
        # The artifact name is derived from the canonical key encoding —
        # the same bytes `stable_placement_hash` digests — so a store
        # written by any process maps keys to the same files.
        import hashlib

        expected = hashlib.blake2b(
            canonical_key_bytes(key), digest_size=16
        ).hexdigest() + ".plan"
        assert store.path_for(key).name == expected
        assert key in store and len(store) == 1

    def test_encode_decode_inverse(self, tmp_path):
        solver = Solver(ArraySpec(W))
        plan = solver.plan("matvec", shape=(5, 5))
        key, decoded = decode_plan(encode_plan(plan))
        assert key == plan.key
        assert decoded.kind == plan.kind
        assert decoded.shapes == plan.shapes
        assert decoded.options == plan.options


class TestCorruptionFuzz:
    """Seeded fuzz: no damaged artifact may crash a read path."""

    def _seed_artifact(self, tmp_path):
        solver = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        rng = np.random.default_rng(1)
        a, x = rng.normal(size=(6, 6)), rng.normal(size=6)
        solver.solve("matvec", a, x)
        store = PlanStore(tmp_path)
        (key,) = store.keys()
        return store.path_for(key), key, (a, x)

    def _assert_falls_back(self, tmp_path, operands, expected_errors=1):
        """A fresh solver over the damaged store recompiles, no raise."""
        before = counters.snapshot()
        solver = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        solution = solver.solve("matvec", *operands)
        delta = counters.delta(before)
        assert solution.values.shape == operands[1].shape
        assert delta.plan_builds == 1, "fallback recompile did not happen"
        assert delta.plan_store_errors >= expected_errors
        return solver

    def test_truncations_never_crash(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        blob = path.read_bytes()
        rng = random.Random(42)
        cut_points = {0, 1, HEADER_SIZE - 1, HEADER_SIZE, len(blob) - 1} | {
            rng.randrange(len(blob)) for _ in range(10)
        }
        for cut in sorted(cut_points):
            path.write_bytes(blob[:cut])
            self._assert_falls_back(tmp_path, operands)
            # The fallback's write-through healed the artifact; re-damage
            # from the pristine blob each round.
            assert path.read_bytes() == blob

    def test_bit_flips_never_crash(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        blob = bytearray(path.read_bytes())
        rng = random.Random(1337)
        for _ in range(24):
            position = rng.randrange(len(blob))
            mutated = bytearray(blob)
            mutated[position] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(mutated))
            before = counters.snapshot()
            solver = Solver(ArraySpec(W), store=PlanStore(tmp_path))
            solution = solver.solve("matvec", *operands)
            delta = counters.delta(before)
            # A header/payload flip is caught by magic/version/checksum
            # validation and recompiles; builds + store hits must account
            # for every request either way, and nothing ever raises.
            assert delta.plan_builds + delta.plan_store_hits == 1
            assert np.allclose(
                solution.values, operands[0] @ operands[1], atol=1e-9
            )

    def test_version_bump_falls_back(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        blob = bytearray(path.read_bytes())
        offset = len(MAGIC)
        blob[offset:offset + 4] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(bytes(blob))
        self._assert_falls_back(tmp_path, operands)

    def test_bad_magic_falls_back(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:len(MAGIC)] = b"NOTAPLAN"
        path.write_bytes(bytes(blob))
        self._assert_falls_back(tmp_path, operands)

    def test_garbage_file_falls_back(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        path.write_bytes(random.Random(7).randbytes(512))
        self._assert_falls_back(tmp_path, operands)

    def test_plans_iterator_skips_invalid_artifacts(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        (tmp_path / "junk.plan").write_bytes(b"not a plan at all")
        store = PlanStore(tmp_path)
        loaded = list(store.plans())
        assert len(loaded) == 1 and loaded[0][0] == key
        assert store.stats.errors == 1


class TestStoreSurface:
    def test_readonly_store_never_writes(self, tmp_path):
        store = PlanStore(tmp_path, readonly=True)
        solver = Solver(ArraySpec(W), store=store)
        rng = np.random.default_rng(2)
        solver.solve("matvec", rng.normal(size=(4, 4)), rng.normal(size=4))
        assert len(os.listdir(tmp_path)) == 0
        assert store.stats.writes == 0

    def test_unwritable_root_raises_plan_store_error(self, tmp_path, monkeypatch):
        # chmod is no barrier when the suite runs as root; fail the
        # atomic-replace seam itself.
        store = PlanStore(tmp_path)
        plan = Solver(ArraySpec(W)).plan("matvec", shape=(4, 4))
        monkeypatch.setattr(
            "repro.store.store.os.replace",
            lambda *_a, **_k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(PlanStoreError):
            store.save(plan.key, plan)
        assert store.stats.writes == 0

    def test_write_through_is_counted_not_raised_on_solve(
        self, tmp_path, monkeypatch
    ):
        """An unwritable store slows nothing and fails nothing."""
        store = PlanStore(tmp_path)
        solver = Solver(ArraySpec(W), store=store)
        monkeypatch.setattr(
            "repro.store.store.os.replace",
            lambda *_a, **_k: (_ for _ in ()).throw(OSError("disk full")),
        )
        before = counters.snapshot()
        rng = np.random.default_rng(3)
        a, x = rng.normal(size=(4, 4)), rng.normal(size=4)
        solution = solver.solve("matvec", a, x)
        assert np.allclose(solution.values, a @ x, atol=1e-9)
        assert counters.delta(before).plan_store_errors >= 1

    def test_adopt_plan_rejects_mismatched_geometry(self, tmp_path):
        plan = Solver(ArraySpec(W)).plan("matvec", shape=(4, 4))
        with pytest.raises(ValueError):
            Solver(ArraySpec(W + 1)).adopt_plan(plan)

    def test_service_warm_start_preloads_placed_shards(self, tmp_path):
        rng = np.random.default_rng(4)
        pairs = [
            (rng.normal(size=(n, n)), rng.normal(size=n)) for n in (4, 6, 9)
        ]
        service = SolverService(W, n_shards=2, store=PlanStore(tmp_path))
        for a, x in pairs:
            service.submit("matvec", a, x).result(30.0)
        expected = {a.shape for a, _x in pairs}
        service.close()

        cold = SolverService(W, n_shards=2, store=PlanStore(tmp_path))
        try:
            # warm_start ran in the constructor; replaying builds nothing.
            before = counters.snapshot()
            for a, x in pairs:
                result = cold.submit("matvec", a, x).result(30.0)
                assert np.allclose(result.values, a @ x, atol=1e-9)
            assert counters.delta(before).plan_builds == 0
            assert len(expected) == 3
        finally:
            cold.close()

    def test_warm_start_skips_foreign_geometry(self, tmp_path):
        rng = np.random.default_rng(5)
        a, x = rng.normal(size=(5, 5)), rng.normal(size=5)
        service = SolverService(W, n_shards=1, store=PlanStore(tmp_path))
        service.submit("matvec", a, x).result(30.0)
        service.close()
        other = SolverService(
            W + 2, n_shards=1, store=PlanStore(tmp_path, readonly=True)
        )
        try:
            assert other.warm_start() == 0
        finally:
            other.close()

    def test_clear_empties_the_store(self, tmp_path):
        store = PlanStore(tmp_path)
        solver = Solver(ArraySpec(W), store=store)
        rng = np.random.default_rng(6)
        solver.solve("matvec", rng.normal(size=(4, 4)), rng.normal(size=4))
        assert len(store) == 1
        store.clear()
        assert len(store) == 0 and list(store.plans()) == []
