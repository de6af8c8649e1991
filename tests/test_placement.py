"""The plan-placement layer: stable routing, overrides, telemetry.

Acceptance: routing keys hash identically in every interpreter
(regression for the ``hash(plan_key) % n_shards`` bug — built-in ``hash``
salts strings per process via ``PYTHONHASHSEED``, so the old routing
scattered a warm shard layout across restarts), the
:class:`~repro.service.placement.PlacementTable` honours per-key
overrides over the default policy, and its snapshots expose the observed
key→shard layout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.service import (
    PlacementTable,
    SolverService,
    canonical_key_bytes,
    stable_placement_hash,
)
from repro.service import placement as placement_module
from repro.service.placement import decode_key_bytes

W = 4
N = 8

_SOLVER = Solver(ArraySpec(W))

#: Shape specs per kind, grouped: specs in one group name one shape.
_SHAPE_SPELLINGS = {
    "matvec": (((N, N), (np.int64(N), N), [N, N]), ((N, 12),)),
    "matmul": (((4, 4, 4), ((4, 4), (4, 4))), ((4, 8, 4),)),
    "jacobi": ((N, (N, N), np.int64(N)), (6,)),
    "lu": ((N, (N, N)), (6,)),
}
#: Option values, grouped: values in one group compare equal, so a
#: Solver caches them as one plan and placement must encode them alike.
_OPTION_SPELLINGS = {
    "omega": ((1, 1.0), (1.5,)),
    "record_trace": ((0, False), (True, 1)),
    "tolerance": ((-0.0, 0.0), (1e-12,)),
    "criteria": (
        (
            ConvergenceCriteria(),
            ConvergenceCriteria(rtol=0),
            ConvergenceCriteria(rtol=0.0),
        ),
        (ConvergenceCriteria(atol=1e-9, max_iter=7),),
    ),
}

_option_groups = st.tuples(
    *(st.integers(0, len(groups) - 1) for groups in _OPTION_SPELLINGS.values())
)
_stage_layouts = st.sampled_from(sorted(_SHAPE_SPELLINGS)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.integers(0, len(_SHAPE_SPELLINGS[kind]) - 1),
        _option_groups,
    )
)
#: A key's layout names its value (kind, shape group, option groups);
#: graph layouts are ``("__graph__", (stage, stage), option groups)``.
_key_layouts = st.one_of(
    _stage_layouts,
    st.tuples(
        st.just("__graph__"),
        st.tuples(_stage_layouts, _stage_layouts),
        _option_groups,
    ),
)


def _spell(draw, layout):
    """Build a solver key for ``layout``, each part spelled at random."""
    kind, shape, option_groups = layout
    options = ExecutionOptions(**{
        name: draw(st.sampled_from(groups[group]))
        for (name, groups), group in zip(
            _OPTION_SPELLINGS.items(), option_groups
        )
    })
    if kind == "__graph__":
        stages = tuple(_spell(draw, stage) for stage in shape)
        return ("__graph__", stages, W, options)
    spec = draw(st.sampled_from(_SHAPE_SPELLINGS[kind][shape]))
    return _SOLVER.plan_key(kind, shape=spec, options=options)


@st.composite
def _key_pairs(draw):
    """Two solver-built keys, and whether their layouts name one value."""
    first = draw(_key_layouts)
    second = first if draw(st.booleans()) else draw(_key_layouts)
    return _spell(draw, first), _spell(draw, second), first == second


def _respelled(kind, **field):
    """The pair of ``kind`` keys that differ only in how one option
    field's equal values are spelled."""
    ((name, (left, right)),) = field.items()
    keys = []
    for value in (left, right):
        options = ExecutionOptions(**{name: value})
        if kind == "__graph__":
            stage = _SOLVER.plan_key("matvec", shape=(N, N), options=options)
            keys.append(("__graph__", (stage, stage), W, options))
        else:
            shape = _SHAPE_SPELLINGS[kind][0][0]
            keys.append(_SOLVER.plan_key(kind, shape=shape, options=options))
    return keys[0], keys[1], True

#: Computes the stable hashes and shard placements of string-bearing
#: routing keys; the parent runs it under different PYTHONHASHSEED values
#: and asserts identical output (built-in hash() would differ).
_ROUTING_SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from repro.api import ArraySpec, ExecutionOptions, Solver
    from repro.iterative import ConvergenceCriteria
    from repro.service import PlacementTable, stable_placement_hash

    solver = Solver(ArraySpec(4))
    a, x = np.ones((8, 8)), np.ones(8)
    plain = solver.plan_key("matvec", a, x)
    capped = ExecutionOptions(
        criteria=ConvergenceCriteria(atol=1e-9, max_iter=7)
    )
    iterative = solver.plan_key("jacobi", a, x, options=capped)
    graph_key = ("__graph__", (plain, iterative), 4, capped)
    table = PlacementTable(5)
    for key in (plain, iterative, graph_key):
        print(stable_placement_hash(key), table.shard_of(key))
    """
)


def _routing_output(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _ROUTING_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestStableHash:
    def test_plan_keys_hash_identically_across_interpreters(self):
        """The regression the placement layer exists for: string-bearing
        plan keys (kind names, option dataclasses) must route to the same
        shard in every process, whatever PYTHONHASHSEED says."""
        salted_one = _routing_output("0")
        salted_two = _routing_output("12345")
        assert salted_one == salted_two
        # And both match this interpreter's own view of the same keys.
        solver = Solver(ArraySpec(W))
        a, x = np.ones((N, N)), np.ones(N)
        plain = solver.plan_key("matvec", a, x)
        first_hash, first_shard = salted_one.splitlines()[0].split()
        assert int(first_hash) == stable_placement_hash(plain)
        assert int(first_shard) == PlacementTable(5).shard_of(plain)

    def test_distinct_values_encode_distinctly(self):
        pairs = [
            ("1", 1),
            (1, 1.0),
            (True, 1),
            (None, 0),
            (("a", "b"), ("ab",)),
            ((1, (2, 3)), ((1, 2), 3)),
            (ExecutionOptions(), ExecutionOptions(overlapped=True)),
            (
                ExecutionOptions(
                    criteria=ConvergenceCriteria(atol=1e-9, max_iter=7)
                ),
                ExecutionOptions(
                    criteria=ConvergenceCriteria(atol=1e-9, max_iter=8)
                ),
            ),
        ]
        for left, right in pairs:
            assert stable_placement_hash(left) != stable_placement_hash(
                right
            ), (left, right)

    def test_equal_values_hash_equal(self):
        key = ("matvec", ((N, N), (N,)), W, ExecutionOptions())
        same = ("matvec", ((N, N), (N,)), W, ExecutionOptions())
        assert stable_placement_hash(key) == stable_placement_hash(same)
        # Lists and tuples canonicalize identically (shapes sometimes
        # arrive as lists from user code).
        assert stable_placement_hash([1, 2]) == stable_placement_hash((1, 2))

    def test_equal_options_hash_equal_however_built(self):
        """Options hash once, at construction, whichever way they are
        built: the constructor, ``merged()`` and the key decoder give
        equal options one hash, and so one plan-cache entry."""
        criteria = ConvergenceCriteria(atol=1e-9, max_iter=7)
        built = ExecutionOptions(omega=1.5, criteria=criteria)
        merged = ExecutionOptions().merged(
            omega=1.5, criteria=ConvergenceCriteria().merged(
                atol=1e-9, max_iter=7
            ),
        )
        key = _SOLVER.plan_key("sor", shape=N, options=built)
        decoded = decode_key_bytes(canonical_key_bytes(key))[3]
        for options in (merged, decoded):
            assert options == built and options is not built
            assert hash(options) == hash(built)
            assert hash(options.criteria) == hash(criteria)
        solver = Solver(ArraySpec(W))
        for options in (built, merged, decoded):
            solver.plan("sor", shape=N, options=options)
        stats = solver.cache_stats
        assert (stats.size, stats.misses, stats.hits) == (1, 1, 2)

    def test_unencodable_key_raises_with_context(self):
        with pytest.raises(TypeError, match="stable placement"):
            stable_placement_hash(("matvec", object()))


class TestPlacementTable:
    def test_default_policy_is_stable_hash_modulo(self):
        table = PlacementTable(3)
        key = ("matvec", ((N, N), (N,)), W, ExecutionOptions())
        assert table.shard_of(key) == stable_placement_hash(key) % 3
        assert table.shard_of(key) == table.shard_of(key)

    def test_override_wins_and_release_restores(self):
        table = PlacementTable(4)
        key = ("jacobi", ((N, N), (N,)), W, ExecutionOptions())
        default = table.shard_of(key)
        pinned = (default + 1) % 4
        table.assign(key, pinned)
        assert table.shard_of(key) == pinned
        assert table.overrides() == {key: pinned}
        assert table.release(key)
        assert table.shard_of(key) == default
        assert not table.release(key)  # already gone

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n_shards"):
            PlacementTable(0)
        with pytest.raises(ValueError, match="track_limit"):
            PlacementTable(2, track_limit=-1)
        table = PlacementTable(2)
        with pytest.raises(ValueError, match="shard must be in"):
            table.assign("key", 2)
        with pytest.raises(ValueError, match="shard must be in"):
            table.assign("key", -1)
        # A shard is an integer: no silent truncation of 1.5 or True.
        for bad in (1.5, True, np.True_, "1", None):
            with pytest.raises(TypeError, match="shard must be an integer"):
                table.assign("key", bad)
        assert table.overrides() == {}
        table.assign("key", np.int64(1))
        assert table.overrides() == {"key": 1}
        assert type(table.overrides()["key"]) is int

    def test_snapshot_reports_lookups_overrides_and_load(self):
        table = PlacementTable(2)
        table.assign("hot", 1)
        for key in ("hot", "hot", "cold"):
            table.shard_of(key)
        snap = table.snapshot()
        assert snap.n_shards == 2
        assert snap.lookups == 3
        assert snap.override_hits == 2
        assert snap.encodes == 1  # only "cold" took the hash policy
        assert snap.overrides == {"hot": 1}
        assert snap.assignments["hot"] == 1
        assert sum(snap.shard_load.values()) == 2  # hot + cold tracked
        described = table.describe()
        assert "3 lookup(s), 1 encode(s)" in described
        assert "1 override(s) (2 hit(s))" in described

    def test_tracking_is_bounded_to_newest_keys(self):
        table = PlacementTable(2, track_limit=3)
        for index in range(10):
            table.shard_of(("key", index))
        snap = table.snapshot()
        assert len(snap.assignments) == 3
        assert set(snap.assignments) == {("key", i) for i in (7, 8, 9)}
        # A zero limit disables tracking entirely.
        untracked = PlacementTable(2, track_limit=0)
        untracked.shard_of("whatever")
        assert untracked.snapshot().assignments == {}


class TestPlacementMemo:
    @settings(max_examples=150, deadline=None)
    @example(pair=_respelled("matvec", omega=(1, 1.0)))
    @example(pair=_respelled("jacobi", record_trace=(0, False)))
    @example(pair=_respelled("matvec", tolerance=(-0.0, 0.0)))
    @example(pair=_respelled(
        "jacobi",
        criteria=(ConvergenceCriteria(rtol=0), ConvergenceCriteria(rtol=0.0)),
    ))
    @example(pair=_respelled("__graph__", omega=(1, 1.0)))
    @given(pair=_key_pairs())
    def test_equal_solver_keys_encode_equally_and_route_by_hash(self, pair):
        """The memo's soundness condition: solver-built keys that compare
        equal encode to the same bytes, so a table warmed by one answers
        for the other exactly as the hash policy would."""
        first, second, one_value = pair
        assert (first == second) == one_value
        if first == second:
            assert canonical_key_bytes(first) == canonical_key_bytes(second)
        table = PlacementTable(5)
        table.shard_of(first)
        assert table.shard_of(second) == stable_placement_hash(second) % 5

    @pytest.mark.parametrize("looked_up", [False, True])
    def test_release_forgets_a_shard_routed_under_the_override(
        self, looked_up
    ):
        table = PlacementTable(4)
        key = ("jacobi", ((N, N), (N,)), W, ExecutionOptions())
        hashed = stable_placement_hash(key) % 4
        table.assign(key, (hashed + 1) % 4)
        if looked_up:
            assert table.shard_of(key) == (hashed + 1) % 4
        assert table.release(key)
        assert table.shard_of(key) == hashed

    def test_warm_key_is_not_re_encoded(self, monkeypatch):
        encoded = []

        def counting_hash(key):
            encoded.append(key)
            return stable_placement_hash(key)

        monkeypatch.setattr(
            placement_module, "stable_placement_hash", counting_hash
        )
        key = ("matvec", ((N, N), (N,)), W, ExecutionOptions())
        table = PlacementTable(3, track_limit=2)
        shards = {table.shard_of(key) for _ in range(5)}
        assert shards == {stable_placement_hash(key) % 3}
        assert len(encoded) == table.snapshot().encodes == 1
        # A key evicted from the bounded map is encoded again.
        table.shard_of("other")
        table.shard_of("third")
        table.shard_of(key)
        assert len(encoded) == table.snapshot().encodes == 4
        # With tracking off there is no memo: every lookup encodes.
        untracked = PlacementTable(3, track_limit=0)
        for _ in range(3):
            untracked.shard_of(key)
        assert untracked.snapshot().encodes == 3
        assert len(encoded) == 7

    def test_concurrent_lookups_route_by_hash(self):
        keys = [
            ("matvec", ((n, n), (n,)), W, ExecutionOptions())
            for n in range(4, 24)
        ]
        expected = {key: stable_placement_hash(key) % 4 for key in keys}
        # Fewer tracked slots than keys, so evictions race the lookups.
        table = PlacementTable(4, track_limit=8)
        wrong, finished = [], []

        def route(offset):
            for step in range(400):
                key = keys[(offset + step) % len(keys)]
                if table.shard_of(key) != expected[key]:
                    wrong.append(key)
            finished.append(offset)

        threads = [
            threading.Thread(target=route, args=(offset,))
            for offset in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert wrong == []
        snap = table.snapshot()
        assert snap.lookups == 8 * 400
        assert len(snap.assignments) <= 8


class TestServiceRouting:
    def test_shard_index_uses_the_placement_table(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=3) as service:
            key = service.plan_key("matvec", a, x)
            assert service.shard_index(key) == (
                stable_placement_hash(key) % 3
            )
            # Rebalancing through the service's table moves the key for
            # subsequent lookups.
            target = (service.shard_index(key) + 1) % 3
            service.placement.assign(key, target)
            assert service.shard_index(key) == target

    @pytest.mark.parametrize(
        "left, right",
        [
            (ExecutionOptions(omega=1), ExecutionOptions()),
            (
                ExecutionOptions(record_trace=0),
                ExecutionOptions(record_trace=False),
            ),
            (
                ExecutionOptions(tolerance=-0.0),
                ExecutionOptions(tolerance=0.0),
            ),
            (
                ExecutionOptions(criteria=ConvergenceCriteria(rtol=0)),
                ExecutionOptions(criteria=ConvergenceCriteria(rtol=0.0)),
            ),
        ],
        ids=["omega", "record_trace", "tolerance", "rtol"],
    )
    def test_equal_options_route_to_one_shard_and_build_one_plan(
        self, rng, left, right
    ):
        # Equal options are one plan to a Solver, so they must also be
        # one key to placement: same bytes, same shard, one build.
        assert left == right and hash(left) == hash(right)
        assert canonical_key_bytes(left) == canonical_key_bytes(right)
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=4) as service:
            keys = [
                service.plan_key("matvec", a, x, options=options)
                for options in (left, right)
            ]
            assert service.shard_index(keys[0]) == service.shard_index(keys[1])
            before = counters.snapshot()
            for options in (left, right):
                service.solve("matvec", a, x, options=options)
            assert counters.delta(before).plan_builds == 1

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("matvec", {"overlapped": True}),
            ("sparse", {"tolerance": 0.5}),
            ("sor", {"omega": 1.5}),
            ("jacobi", {"criteria": ConvergenceCriteria(atol=1e-9, max_iter=50)}),
            ("dense", {"dtype_mode": "int8"}),
        ],
    )
    def test_string_override_routes_by_the_key_it_runs_under(
        self, rng, kind, overrides
    ):
        """A constructor override in a string submission is key material:
        the request routes by its typed twin's key, and only that key's
        home shard builds and caches the plan."""
        if kind == "dense":
            matrix = rng.integers(-5, 5, size=(N, N)).astype(np.int8)
            vector = rng.integers(-5, 5, size=N).astype(np.int8)
        else:
            matrix = rng.normal(size=(N, N)) + 2 * N * np.eye(N)
            vector = rng.normal(size=N)
        twin = Solver.problem_types()[kind](matrix, vector, **overrides)
        with SolverService(ArraySpec(W), n_shards=4) as service:
            key = service.plan_key(twin)
            solution = service.submit(kind, matrix, vector, **overrides).result(
                timeout=30.0
            )
            assert solution.plan_key == key
            assert key in service.placement.snapshot().assignments
            home = service.shards[service.shard_index(key)]
            holders = [
                worker for worker in service.shards if key in worker.solver._cache
            ]
            assert holders == [home]
            before = counters.snapshot()
            service.submit(twin).result(timeout=30.0)
            assert counters.delta(before).plan_builds == 0

    def test_warm_submits_do_not_re_encode(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=3) as service:
            service.solve("matvec", a, x)
            before = service.placement.snapshot()
            futures = [service.submit("matvec", a, x) for _ in range(50)]
            for future in futures:
                future.result(timeout=30.0)
            after = service.placement.snapshot()
        assert after.lookups - before.lookups >= 50
        assert after.encodes == before.encodes

    def test_stats_carry_the_placement_snapshot(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            service.solve("matvec", a, x)
            stats = service.stats()
        assert stats.placement is not None
        assert stats.placement.n_shards == 2
        assert stats.placement.lookups >= 1
        assert "placement:" in stats.describe()
