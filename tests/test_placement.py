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

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.instrumentation import counters
from repro.iterative import ConvergenceCriteria
from repro.service import (
    PlacementTable,
    SolverService,
    canonical_key_bytes,
    stable_placement_hash,
)

W = 4
N = 8

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

    def test_snapshot_reports_lookups_overrides_and_load(self):
        table = PlacementTable(2)
        table.assign("hot", 1)
        for key in ("hot", "hot", "cold"):
            table.shard_of(key)
        snap = table.snapshot()
        assert snap.n_shards == 2
        assert snap.lookups == 3
        assert snap.override_hits == 2
        assert snap.overrides == {"hot": 1}
        assert snap.assignments["hot"] == 1
        assert sum(snap.shard_load.values()) == 2  # hot + cold tracked
        described = table.describe()
        assert "3 lookup(s)" in described
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
            (ExecutionOptions(sor_omega=1), ExecutionOptions()),
            (
                ExecutionOptions(record_trace=0),
                ExecutionOptions(record_trace=False),
            ),
            (
                ExecutionOptions(sparse_tolerance=-0.0),
                ExecutionOptions(sparse_tolerance=0.0),
            ),
            (
                ExecutionOptions(criteria=ConvergenceCriteria(rtol=0)),
                ExecutionOptions(criteria=ConvergenceCriteria(rtol=0.0)),
            ),
        ],
        ids=["sor_omega", "record_trace", "sparse_tolerance", "rtol"],
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

    def test_stats_carry_the_placement_snapshot(self, rng):
        a, x = rng.normal(size=(N, N)), rng.normal(size=N)
        with SolverService(ArraySpec(W), n_shards=2) as service:
            service.solve("matvec", a, x)
            stats = service.stats()
        assert stats.placement is not None
        assert stats.placement.n_shards == 2
        assert stats.placement.lookups >= 1
        assert "placement:" in stats.describe()
