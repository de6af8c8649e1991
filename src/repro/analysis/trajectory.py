"""Idempotent benchmark-trajectory files (``BENCH_*.json``).

The benchmark suite can append one machine-readable point per run to a
JSON trajectory at the repository root (CI uploads them as artifacts).
Because the tier-1 suite runs the benchmarks too, writing is opt-in:
:func:`record_trajectory_point` writes only when the environment sets
``REPRO_BENCH_RECORD=1``, so running the tests never modifies tracked
files.

Each point is keyed on ``(benchmark, git_sha)``: a re-run at the same
commit *updates* the existing point in place, while a run at a new
commit appends.  Outside a git checkout (or when git is unavailable) the
sha is ``None`` and points at the unknown sha likewise update in place.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["current_git_sha", "record_trajectory_point"]

#: Environment variable that turns trajectory writes on (value ``"1"``).
RECORD_ENV = "REPRO_BENCH_RECORD"


def current_git_sha(root: "Path | str") -> Optional[str]:
    """The full HEAD sha of the checkout containing ``root`` (or ``None``)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def _load_trajectory(path: Path) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):  # pragma: no cover - corrupt file
        return []
    return existing if isinstance(existing, list) else []


def record_trajectory_point(
    path: "Path | str",
    payload: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """Add (or update) one point of a benchmark trajectory file.

    ``payload`` must carry a ``"benchmark"`` name; a ``"git_sha"`` field
    is stamped automatically from the file's checkout unless the caller
    already set one.  The point replaces an existing entry with the same
    ``(benchmark, git_sha)`` key — re-runs update, they never duplicate —
    and is appended otherwise.  Returns the full trajectory; the file is
    written only when ``REPRO_BENCH_RECORD=1`` is set.
    """
    path = Path(path)
    payload = dict(payload)
    if "git_sha" not in payload:
        payload["git_sha"] = current_git_sha(path.parent if path.parent != Path("") else ".")
    key = (payload.get("benchmark"), payload.get("git_sha"))
    trajectory = _load_trajectory(path)
    for index, entry in enumerate(trajectory):
        if (entry.get("benchmark"), entry.get("git_sha")) == key:
            trajectory[index] = payload
            break
    else:
        trajectory.append(payload)
    if os.environ.get(RECORD_ENV) == "1":
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory
