"""Plan persistence: a store of plan keys, warm-started by the service.

Three families of guarantees:

* **Round-trip bit-identity** — for every primary problem kind (and both
  ``dtype_mode`` settings of the NN dense kind), a key written through by
  a solver is built by a *fresh* service's warm start, and replaying the
  same operands gives bit-identical values with **zero** plan builds
  after construction.  Every artifact is its key: under 1 kB whatever
  the plan's size, and it re-encodes to its payload byte for byte.
* **Fail-open reads** — an artifact that is truncated, bit-flipped,
  version-bumped, magic-corrupted or replaced with garbage, and every
  hostile payload behind a correct checksum, is counted
  (``plan_store_errors``) and skipped by ``keys()`` and by a warm start,
  never raised; the first request then builds the plan and its
  write-through heals the artifact.  Nothing is ever unpickled.

Plus the store's own contract details: stable content-hash filenames
(``canonical_key_bytes``-derived, ``PYTHONHASHSEED``-independent),
atomic writes, readonly mode, ``warm_start`` placement through the
service, and the :class:`~repro.errors.PlanStoreError` write-side
failure surface.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.errors import PlanFormatError, PlanStoreError
from repro.graph import Graph, GraphCompiler
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.nn import Bias, Dense, Relu
from repro.service import SolverService, canonical_key_bytes
from repro.store import FORMAT_VERSION, MAGIC, PlanStore
from repro.store.format import HEADER_SIZE, decode_key, encode_key

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


def _fused_graph(rng):
    """A dense -> bias -> relu chain: one ``fused`` stage once compiled."""
    a, x, b = rng.normal(size=(12, 10)), rng.normal(size=10), rng.normal(size=12)
    return Graph(y=Relu(Bias(Dense(a, x, name="dense"), b), name="act"))


def _write_store(root, workloads, graph=None):
    """Solve every workload (and run ``graph``) through a writing solver.

    Returns the writer and the values it computed, by label.
    """
    writer = Solver(ArraySpec(W), store=PlanStore(root))
    values = {
        label: writer.solve(kind, *operands, options=options, **kwargs).values
        for label, kind, operands, kwargs, options in workloads
    }
    if graph is not None:
        values["fused"] = GraphCompiler(writer).compile(graph).run().values
    return writer, values


def _replay(service, workloads, graph=None):
    """Every workload (and ``graph``) through ``service``; values by label."""
    values = {
        label: service.submit(
            kind, *operands, options=options, **kwargs
        ).result(30.0).values
        for label, kind, operands, kwargs, options in workloads
    }
    if graph is not None:
        values["fused"] = service.submit_graph(graph).result(30.0).values
    return values


def _artifact(payload: bytes) -> bytes:
    """``payload`` framed with a valid header and a correct checksum."""
    checksum = hashlib.blake2b(payload, digest_size=16).digest()
    return MAGIC + FORMAT_VERSION.to_bytes(4, "big") + checksum + payload


class TestRoundTrip:
    def test_every_kind_round_trips_bit_identically(self, tmp_path):
        """Warm-started plans replay every kind to identical bits."""
        rng = np.random.default_rng(20260808)
        workloads = _workloads(rng)
        writer, baseline = _write_store(tmp_path, workloads)

        store = PlanStore(tmp_path, readonly=True)
        before = counters.snapshot()
        service = SolverService(W, n_shards=2, store=store)
        try:
            built = counters.delta(before)
            replayed = _replay(service, workloads)
        finally:
            service.close()
        for label, values in replayed.items():
            assert np.array_equal(values, baseline[label]), (
                f"{label}: store round-trip changed the values"
            )
        delta = counters.delta(before)
        assert delta.plan_builds == built.plan_builds, (
            f"{delta.plan_builds - built.plan_builds} builds after a warm start"
        )
        # Every plan the writer built is one key, built once at warm
        # start: one per workload, plus the inner plans no workload
        # shares (triangular's and lu's block products; the
        # jacobi-family (6, 6) mat-vec is the matvec workload's own plan).
        assert built.plan_builds == writer.cache_stats.size == 16
        assert delta.plan_store_hits == store.stats.hits == 16
        assert delta.plan_store_errors == 0

    def test_iterative_artifact_holds_no_inner_plan(self, tmp_path):
        """A solved jacobi plan's artifact is its key alone."""
        rng = np.random.default_rng(7)
        n = 64
        a = rng.normal(size=(n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)
        solver = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        solver.solve("jacobi", a, rng.normal(size=n))
        data = PlanStore(tmp_path).path_for(solver.plan_key("jacobi", shape=n))
        data = data.read_bytes()
        assert b"MatVecPlan" not in data
        assert len(data) < 1024

    @pytest.mark.parametrize(
        "kind, shapes",
        [("matvec", [(10, 9), (9,)]), ("matmul", [(9, 7), (7, 10)])],
    )
    def test_vectorized_plan_restores_template_free(self, tmp_path, kind, shapes):
        """A warm-started vectorized plan serves with no transform built,
        the feedback digest a fresh build computes and (mat-mul) the same
        chain values in ``run.c_band``, bit for bit."""
        rng = np.random.default_rng(11)
        operands = [rng.normal(size=shape) for shape in shapes]
        options = ExecutionOptions(backend="vectorized")
        fresh = Solver(ArraySpec(W), options=options).solve(kind, *operands)
        Solver(ArraySpec(W), options=options, store=PlanStore(tmp_path)).solve(
            kind, *operands
        )

        before = counters.snapshot()
        reader = SolverService(
            W, n_shards=2, options=options,
            store=PlanStore(tmp_path, readonly=True),
        )
        try:
            built = counters.delta(before)
            replayed = [
                reader.submit(kind, *operands).result(30.0)
                for _cold_then_warm in range(2)
            ]
        finally:
            reader.close()
        delta = counters.delta(before)
        assert delta.plan_store_hits == 1
        assert built.plan_builds == delta.plan_builds == 1  # at warm start
        assert delta.transform_constructions == 0
        assert fresh.feedback.count > 0
        for solution in replayed:
            assert np.array_equal(solution.values, fresh.values)
            assert solution.feedback == fresh.feedback
            assert solution.measured_steps == fresh.measured_steps
            if kind == "matmul":
                assert np.array_equal(
                    solution.raw.run.c_band.to_dense().view(np.uint64),
                    fresh.raw.run.c_band.to_dense().view(np.uint64),
                )

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
        expected = hashlib.blake2b(
            canonical_key_bytes(key), digest_size=16
        ).hexdigest() + ".plan"
        assert store.path_for(key).name == expected
        assert key in store and len(store) == 1

    def test_encode_decode_inverse(self, tmp_path):
        """Every stored key decodes to itself and its payload is exactly
        the key's canonical encoding, for every kind a fused key included."""
        rng = np.random.default_rng(8)
        _write_store(tmp_path, _workloads(rng), _fused_graph(rng))
        artifacts = sorted(tmp_path.iterdir())
        assert len(artifacts) == 17
        kinds = set()
        for path in artifacts:
            data = path.read_bytes()
            key = decode_key(data)
            assert encode_key(key) == data
            assert canonical_key_bytes(key) == data[HEADER_SIZE:]
            kinds.add(key[0])
        assert {"fused", "jacobi", "dense", "triangular"} <= kinds

    def test_no_artifact_exceeds_1kb(self, tmp_path):
        """An artifact is its key, whatever the size of the plan: the
        largest plans of the benchmark and every kind of the soak mix."""
        rng = np.random.default_rng(9)
        _write_store(tmp_path, _workloads(rng), _fused_graph(rng))
        store = PlanStore(tmp_path)
        solver = Solver(ArraySpec(8))
        for kind, shape in [("matmul", (128, 128, 128)), ("matvec", (2048, 2048))]:
            store.save(solver.plan_key(kind, shape=shape))  # keys: no build
        sizes = [path.stat().st_size for path in tmp_path.iterdir()]
        assert len(sizes) == 19
        assert max(sizes) < 1024, sorted(sizes)


class TestWarmStart:
    def test_second_warm_start_builds_nothing(self, tmp_path):
        rng = np.random.default_rng(12)
        _write_store(tmp_path, _workloads(rng))
        store = PlanStore(tmp_path)
        service = SolverService(W, n_shards=2, store=store)
        try:
            hits = store.stats.hits
            assert hits > 0  # one per key the construction built
            before = counters.snapshot()
            assert service.warm_start() == 0
            assert counters.delta(before).plan_builds == 0
            # A hit is a key built into a plan; reading keys counts none.
            assert store.stats.hits == hits
            assert counters.delta(before).plan_store_hits == 0
        finally:
            service.close()

    def test_a_stored_gauss_seidel_key_keeps_its_criteria(self, tmp_path):
        """A warm start builds a stored key as stored: the kind's preset
        stopping rule is not applied over the one the key holds."""
        rng = np.random.default_rng(15)
        a = rng.normal(size=(6, 6))
        matrix = a + np.diag(np.abs(a).sum(axis=1) + 1.0)
        b = rng.normal(size=6)
        rule = ConvergenceCriteria(
            atol=1e-12, rtol=0.0, max_iter=60, divergence_ratio=float("inf")
        )
        writer = Solver(ArraySpec(W), store=PlanStore(tmp_path))
        written = writer.solve("gauss_seidel", matrix, b, criteria=rule)
        assert written.plan_key[3].criteria == rule
        service = SolverService(W, n_shards=2, store=PlanStore(tmp_path, readonly=True))
        try:
            before = counters.snapshot()
            replayed = service.submit(
                "gauss_seidel", matrix, b, criteria=rule
            ).result(30.0)
            assert counters.delta(before).plan_builds == 0
        finally:
            service.close()
        assert replayed.plan_key == written.plan_key
        assert np.array_equal(replayed.values, written.values)

    def test_construction_writes_nothing(self, tmp_path):
        """A warm start reads keys and builds plans; it writes no key back,
        even to a writable store."""
        rng = np.random.default_rng(13)
        _write_store(tmp_path, _workloads(rng))
        stamps = {path: path.stat().st_mtime_ns for path in tmp_path.iterdir()}
        store = PlanStore(tmp_path)
        before = counters.snapshot()
        service = SolverService(W, n_shards=2, store=store)
        service.close()
        assert counters.delta(before).plan_builds == 16
        assert store.stats.writes == counters.delta(before).plan_store_writes == 0
        assert {p: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == stamps

    def test_store_never_unpickles(self, tmp_path, monkeypatch):
        """With every unpickling entry point refusing, a service still
        warm-starts every kind (a fused key included) and replays each
        one bit-identically with 0 plan builds."""
        rng = np.random.default_rng(14)
        workloads, graph = _workloads(rng), _fused_graph(rng)
        _writer, baseline = _write_store(tmp_path, workloads, graph)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the plan store unpickled something")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        store = PlanStore(tmp_path, readonly=True)
        assert any(key[0] == "fused" for key in store.keys())
        service = SolverService(W, n_shards=2, store=store)
        try:
            before = counters.snapshot()
            replayed = _replay(service, workloads, graph)
            assert counters.delta(before).plan_builds == 0
        finally:
            service.close()
        assert replayed.keys() == baseline.keys()
        for label, values in replayed.items():
            assert np.array_equal(values, baseline[label]), label


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
        """``keys()`` and a warm-starting service skip the damaged artifact,
        counted, without raising; the first request builds the plan."""
        before = counters.snapshot()
        assert PlanStore(tmp_path).keys() == []
        service = SolverService(W, n_shards=1, store=PlanStore(tmp_path))
        try:
            warm = counters.delta(before)
            solution = service.submit("matvec", *operands).result(30.0)
        finally:
            service.close()
        delta = counters.delta(before)
        assert np.allclose(solution.values, operands[0] @ operands[1], atol=1e-9)
        assert warm.plan_builds == 0
        assert delta.plan_builds == 1, "the first request did not build"
        # Once for keys(), once for the warm start.
        assert delta.plan_store_errors >= 2 * expected_errors

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
            # The request's write-through healed the artifact; re-damage
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
            # Magic, version and checksum catch a flip anywhere: the
            # artifact is skipped and the first request builds the plan.
            self._assert_falls_back(tmp_path, operands)
            assert path.read_bytes() == bytes(blob)

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

    def test_keys_skip_invalid_artifacts(self, tmp_path):
        path, key, operands = self._seed_artifact(tmp_path)
        (tmp_path / "junk.plan").write_bytes(b"not a plan at all")
        store = PlanStore(tmp_path)
        assert store.keys() == [key]
        assert store.stats.errors == 1


def _options_bytes() -> bytes:
    """The payload of a valid mat-vec key with default options."""
    return canonical_key_bytes(("matvec", (5, 6), W, ExecutionOptions()))


def _legacy_pickle() -> bytes:
    """A version-7 style payload: a pickled plan mapping."""
    plan = Solver(ArraySpec(W)).plan("jacobi", shape=6)
    return pickle.dumps(
        {
            "key": plan.key, "kind": plan.kind, "shapes": plan.shapes,
            "spec": plan.spec, "options": plan.options,
            "executor": plan.executor,
        }
    )


#: Payloads that pass the checksum but are no plan key, each with the
#: reason the decoder must give.
HOSTILE_PAYLOADS = {
    "pickle": (_legacy_pickle, "no key value starts at byte 0"),
    "foreign_dataclass": (
        lambda: canonical_key_bytes(("matvec", (5, 6), W, ArraySpec(W))),
        "class 'ArraySpec' may not appear",
    ),
    "unknown_field": (
        lambda: _options_bytes()[:-1] + b"s4:evili1;;",
        "unexpected keyword argument 'evil'",
    ),
    "missing_field": (
        lambda: _options_bytes().replace(b"s10:dtype_modes7:float64", b""),
        "not in canonical form",
    ),
    "refused_omega": (
        lambda: _options_bytes().replace(
            b"s5:omegaf1.0;", b"s5:omegaf2.0;"
        ),
        "omega must satisfy",
    ),
    "unknown_backend": (
        lambda: _options_bytes().replace(
            b"s7:backends4:auto", b"s7:backends4:evil"
        ),
        "unknown execution backend 'evil'",
    ),
    "non_canonical_int": (
        lambda: _options_bytes().replace(b"i5;", b"i005;", 1),
        "not in canonical form",
    ),
    "trailing_bytes": (lambda: _options_bytes() + b"i1;", "after the key"),
    "deep_nesting": (lambda: b"t1:" * 10_000 + b"i1;", "nests deeper than"),
    "unregistered_kind": (
        lambda: canonical_key_bytes(
            ("no_such_kind", (5, 6), W, ExecutionOptions())
        ),
        "unknown problem kind 'no_such_kind'",
    ),
    "zero_w": (
        lambda: canonical_key_bytes(("matvec", (5, 6), 0, ExecutionOptions())),
        "array size must be >= 1",
    ),
}


class TestHostileArtifacts:
    @pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
    def test_hostile_payload_is_counted_not_raised(self, tmp_path, case):
        build, reason = HOSTILE_PAYLOADS[case]
        artifact = _artifact(build())
        with pytest.raises(PlanFormatError, match=reason):
            decode_key(artifact)
        (tmp_path / "hostile.plan").write_bytes(artifact)
        good = ("matvec", (4, 4), W, ExecutionOptions())
        PlanStore(tmp_path).save(good)

        before = counters.snapshot()
        store = PlanStore(tmp_path, readonly=True)
        assert store.keys() == [good]
        assert store.stats.errors == counters.delta(before).plan_store_errors == 1
        service = SolverService(W, n_shards=2, store=store)
        service.close()
        delta = counters.delta(before)
        assert store.stats.errors == delta.plan_store_errors == 2
        assert delta.plan_builds == 1  # the good key only

    def test_valid_options_payload_is_a_key(self):
        """The control: the unmodified payload decodes."""
        key = decode_key(_artifact(_options_bytes()))
        assert key == ("matvec", (5, 6), W, ExecutionOptions())

    def test_key_that_does_not_build_is_counted_and_skipped(self, tmp_path):
        """A well-formed key whose shapes its kind refuses decodes, but the
        warm start counts it as an error and builds the rest."""
        store = PlanStore(tmp_path)
        store.save(("matvec", (0, 4), W, ExecutionOptions()))
        store.save(("matvec", (4, 4), W, ExecutionOptions()))
        service = SolverService(W, n_shards=1, store=store)
        try:
            assert service.shards[0].solver.cache_stats.size == 1
            assert store.stats.errors == 1
        finally:
            service.close()


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
        key = Solver(ArraySpec(W)).plan_key("matvec", shape=(4, 4))
        monkeypatch.setattr(
            "repro.store.store.os.replace",
            lambda *_a, **_k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(PlanStoreError):
            store.save(key)
        assert store.stats.writes == 0
        assert store.stats.errors == 1
        assert os.listdir(tmp_path) == []  # the temp file is gone too

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
        # The one write, at build, failed; the store and the process
        # counter saw the same one.
        assert store.stats.errors == counters.delta(before).plan_store_errors == 1

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
        store = PlanStore(tmp_path, readonly=True)
        before = counters.snapshot()
        other = SolverService(W + 2, n_shards=1, store=store)
        try:
            assert other.warm_start() == 0
            # A key of another w is read but never built: no hit.
            assert store.stats.hits == 0
            assert counters.delta(before).plan_store_hits == 0
        finally:
            other.close()

    def test_clear_empties_the_store(self, tmp_path):
        store = PlanStore(tmp_path)
        store.save(Solver(ArraySpec(W)).plan_key("matvec", shape=(4, 4)))
        assert len(store) == 1
        store.clear()
        assert len(store) == 0 and store.keys() == []
