"""The plan store: a content-addressed directory of compiled plans.

Plans are value-independent — keyed only by ``(kind, shapes, w,
options)`` — which makes a compiled gather table a perfect durable
artifact: any process that derives the same key can reuse the same
compiled geometry.  A :class:`PlanStore` is a flat directory of
artifacts in the :mod:`repro.store.format` framing, each named by a
BLAKE2b-128 digest of the key's canonical placement encoding
(:func:`repro.service.placement.canonical_key_bytes` — the same bytes
that route the key to a shard, so the on-disk name and the shard
placement can never disagree about what a key *is*).

Contract, load side: :meth:`PlanStore.load` returns the plan or
``None`` — never raises.  A missing artifact is a miss; an unreadable,
truncated, corrupt, version-skewed or miskeyed artifact is an *error*
(counted separately, ``plan_store_errors``) but still just ``None``:
the caller compiles as if the store were cold.  Write side:
:meth:`save` is atomic (temp file + ``os.replace``) so a crashed writer
can never leave a half-written artifact that a later reader would have
to distrust; a plan it cannot encode or write is counted as an error
and raised as :class:`~repro.errors.PlanStoreError` — which the
:class:`~repro.api.solver.Solver` write-through path catches, keeping
persistence strictly best-effort on the serving path.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..api.plan import ExecutionPlan, PlanKey
from ..errors import PlanStoreError
from ..instrumentation import counters
from ..service.placement import canonical_key_bytes
from .format import PlanFormatError, decode_plan, encode_plan

__all__ = ["PlanStore", "StoreStats"]

#: Artifact filename suffix.
SUFFIX = ".plan"

#: Digest width of the content-hash filenames (hex chars = 2x this).
_NAME_DIGEST_SIZE = 16


def _artifact_name(key: PlanKey) -> str:
    digest = hashlib.blake2b(
        canonical_key_bytes(key), digest_size=_NAME_DIGEST_SIZE
    ).hexdigest()
    return digest + SUFFIX


@dataclass(frozen=True)
class StoreStats:
    """Lifetime accounting of one :class:`PlanStore` instance."""

    hits: int = 0
    misses: int = 0
    errors: int = 0
    writes: int = 0

    def describe(self) -> str:
        return (
            f"PlanStore: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.errors} error(s), {self.writes} write(s)"
        )


class PlanStore:
    """A directory of persisted :class:`~repro.api.plan.ExecutionPlan`.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created unless ``readonly``).
    readonly:
        When true, :meth:`save` becomes a no-op returning ``None`` —
        for serving fleets that warm-start from a shared artifact
        directory they must not mutate.

    Thread-safe: filesystem operations are naturally concurrent (loads
    read distinct immutable files, saves replace atomically) and the
    stats counters serialize on one lock.
    """

    def __init__(self, root: "Path | str", readonly: bool = False):
        self._root = Path(root)
        self._readonly = bool(readonly)
        if not self._readonly:
            self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._errors = 0
        self._writes = 0

    # -- introspection ----------------------------------------------------------
    @property
    def root(self) -> Path:
        return self._root

    @property
    def readonly(self) -> bool:
        return self._readonly

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                errors=self._errors,
                writes=self._writes,
            )

    def path_for(self, key: PlanKey) -> Path:
        """The artifact path ``key`` maps to (whether or not it exists)."""
        return self._root / _artifact_name(key)

    def __contains__(self, key: PlanKey) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        """Artifacts currently on disk (not loads or validity)."""
        try:
            return sum(
                1 for entry in self._root.iterdir()
                if entry.name.endswith(SUFFIX)
            )
        except OSError:
            return 0

    def _count(self, field: str, bump: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)
        counters.bump(bump)

    # -- the read side (never raises) ---------------------------------------------
    def load(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """The persisted plan for ``key``, or ``None``.

        A missing artifact counts a miss; an invalid one counts an
        error.  Both return ``None`` so the caller falls back to
        compiling — the store can only ever *remove* cold-start cost.
        The loaded plan's key must equal the requested key (a hash
        collision or renamed artifact is treated as corruption).
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._count("_misses", "plan_store_misses")
            return None
        except OSError:
            self._count("_errors", "plan_store_errors")
            return None
        try:
            stored_key, plan = decode_plan(data)
        except PlanFormatError:
            self._count("_errors", "plan_store_errors")
            return None
        if stored_key != key:
            self._count("_errors", "plan_store_errors")
            return None
        self._count("_hits", "plan_store_hits")
        return plan

    def keys(self) -> List[PlanKey]:
        """The keys of every *valid* artifact on disk (invalid: counted)."""
        return [key for key, _plan in self.plans()]

    def plans(self) -> Iterator[Tuple[PlanKey, ExecutionPlan]]:
        """Iterate every valid persisted plan (for warm-starting).

        Invalid artifacts are skipped and counted as errors; iteration
        never raises.  Each yielded plan is a fresh deserialization —
        callers own placing it somewhere its executions serialize (the
        service adopts each plan onto its placed shard).
        """
        try:
            entries = sorted(
                entry for entry in self._root.iterdir()
                if entry.name.endswith(SUFFIX)
            )
        except OSError:
            return
        for path in entries:
            try:
                data = path.read_bytes()
            except OSError:
                self._count("_errors", "plan_store_errors")
                continue
            try:
                key, plan = decode_plan(data)
            except PlanFormatError:
                self._count("_errors", "plan_store_errors")
                continue
            if path.name != _artifact_name(key):
                self._count("_errors", "plan_store_errors")
                continue
            self._count("_hits", "plan_store_hits")
            yield key, plan

    # -- the write side -----------------------------------------------------------
    def save(self, key: PlanKey, plan: ExecutionPlan) -> Optional[Path]:
        """Persist ``plan`` under ``key`` atomically; the artifact path.

        Returns ``None`` (silently) on a readonly store.  Raises
        :class:`~repro.errors.PlanStoreError` when the plan cannot be
        encoded or the artifact cannot be written (after counting the
        failure in :attr:`stats` and ``plan_store_errors``) — callers on
        a hot path catch it and keep serving from the in-memory cache.
        """
        if self._readonly:
            return None
        if plan.key != key:
            raise PlanStoreError(
                f"plan key {plan.key!r} does not match store key {key!r}"
            )
        path = self.path_for(key)
        try:
            data = encode_plan(plan)
        except Exception as exc:
            self._count("_errors", "plan_store_errors")
            raise PlanStoreError(
                f"cannot serialize plan {plan.describe()}: {exc!r}"
            ) from exc
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}.{id(plan):x}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._count("_errors", "plan_store_errors")
            raise PlanStoreError(
                f"cannot write plan artifact {path}: {exc!r}"
            ) from exc
        self._count("_writes", "plan_store_writes")
        return path

    def clear(self) -> int:
        """Delete every artifact; the number removed."""
        if self._readonly:
            raise PlanStoreError("cannot clear a readonly store")
        removed = 0
        try:
            entries = list(self._root.iterdir())
        except OSError:
            return 0
        for entry in entries:
            if not entry.name.endswith(SUFFIX):
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        return (
            f"PlanStore at {self._root} "
            f"({len(self)} artifact(s){', readonly' if self._readonly else ''}); "
            + self.stats.describe()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanStore(root={str(self._root)!r}, readonly={self._readonly})"
        )
