"""Trajectory writes are opt-in: ``REPRO_BENCH_RECORD=1`` or nothing.

The benchmarks call :func:`record_trajectory_point` on every run, and the
tier-1 suite runs the benchmarks, so without the flag a test run must
leave the ``BENCH_*.json`` files alone.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.trajectory import record_trajectory_point


def test_without_flag_nothing_is_written(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    fresh = tmp_path / "BENCH_fresh.json"
    trajectory = record_trajectory_point(
        fresh, {"benchmark": "b", "git_sha": "abc", "speedup": 1.0}
    )
    assert not fresh.exists()
    # The caller still sees the point it would have recorded.
    assert trajectory == [{"benchmark": "b", "git_sha": "abc", "speedup": 1.0}]

    existing = tmp_path / "BENCH_existing.json"
    existing.write_text(json.dumps([{"benchmark": "b", "git_sha": "old"}]))
    before = existing.read_bytes()
    trajectory = record_trajectory_point(
        existing, {"benchmark": "b", "git_sha": "new"}
    )
    assert existing.read_bytes() == before
    assert [point["git_sha"] for point in trajectory] == ["old", "new"]


@pytest.mark.parametrize("value", ["0", "", "true"])
def test_only_the_value_1_records(tmp_path, monkeypatch, value):
    monkeypatch.setenv("REPRO_BENCH_RECORD", value)
    path = tmp_path / "BENCH_x.json"
    record_trajectory_point(path, {"benchmark": "b", "git_sha": None})
    assert not path.exists()


def test_with_flag_the_point_is_written(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    path = tmp_path / "BENCH_x.json"
    trajectory = record_trajectory_point(
        path, {"benchmark": "b", "git_sha": "abc", "speedup": 2.0}
    )
    assert json.loads(path.read_text()) == trajectory
    assert trajectory == [{"benchmark": "b", "git_sha": "abc", "speedup": 2.0}]
