"""The plan store: a content-addressed directory of plan keys.

Plans are value-independent — a pure function of ``(kind, shapes, w,
options)`` — so the key is all a process needs to rebuild a plan that
any other process built.  A :class:`PlanStore` is a flat directory of
keys in the :mod:`repro.store.format` framing, each named by a
BLAKE2b-128 digest of the key's canonical placement encoding
(:func:`repro.service.placement.canonical_key_bytes` — the same bytes
that route the key to a shard, so the on-disk name and the shard
placement can never disagree about what a key *is*).

Contract, read side: :meth:`PlanStore.keys` returns every valid key and
never raises.  An unreadable, truncated, corrupt, version-skewed or
misnamed artifact is counted (``plan_store_errors``) and skipped, as is
a key a reader fails to build (:meth:`count_error`).  Write side:
:meth:`save` is atomic (temp file + ``os.replace``) so a crashed writer
can never leave a half-written artifact that a later reader would have
to distrust; a key it cannot encode or write is counted as an error and
raised as :class:`~repro.errors.PlanStoreError` — which the
:class:`~repro.api.solver.Solver` write-through path catches, keeping
persistence strictly best-effort on the serving path.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..api.plan import PlanKey
from ..errors import PlanFormatError, PlanStoreError
from ..instrumentation import counters
from ..service.placement import canonical_key_bytes
from .format import decode_key, encode_key

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
    errors: int = 0
    writes: int = 0


class PlanStore:
    """A directory of persisted plan keys.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created unless ``readonly``).
    readonly:
        When true, :meth:`save` becomes a no-op returning ``None`` —
        for serving fleets that warm-start from a shared artifact
        directory they must not mutate.

    Thread-safe: filesystem operations are naturally concurrent (reads
    open distinct immutable files, saves replace atomically) and the
    stats counters serialize on one lock.
    """

    def __init__(self, root: "Path | str", readonly: bool = False):
        self._root = Path(root)
        self._readonly = bool(readonly)
        if not self._readonly:
            self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._errors = 0
        self._writes = 0

    # -- introspection ----------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                hits=self._hits, errors=self._errors, writes=self._writes
            )

    def path_for(self, key: PlanKey) -> Path:
        """The artifact path ``key`` maps to (whether or not it exists)."""
        return self._root / _artifact_name(key)

    def __contains__(self, key: PlanKey) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        """Artifacts currently on disk (not reads or validity)."""
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
    def keys(self) -> List[PlanKey]:
        """The key of every valid artifact on disk, in filename order.

        Reading counts no hit: a hit is a stored key a warm start built
        (:meth:`count_hit`).  An unreadable or invalid artifact, or one
        whose name is not its key's digest, counts an error and is
        skipped.
        """
        try:
            entries = sorted(
                entry for entry in self._root.iterdir()
                if entry.name.endswith(SUFFIX)
            )
        except OSError:
            return []
        keys: List[PlanKey] = []
        for path in entries:
            try:
                key = decode_key(path.read_bytes())
            except (OSError, PlanFormatError):
                self.count_error()
                continue
            if path.name != _artifact_name(key):
                self.count_error()
                continue
            keys.append(key)
        return keys

    def count_hit(self) -> None:
        """Count one stored key that a warm start built into a plan."""
        self._count("_hits", "plan_store_hits")

    def count_error(self) -> None:
        """Count one unusable artifact: invalid, or a key that did not build."""
        self._count("_errors", "plan_store_errors")

    # -- the write side -----------------------------------------------------------
    def save(self, key: PlanKey) -> Optional[Path]:
        """Persist ``key`` atomically; the artifact path.

        Returns ``None`` (silently) on a readonly store.  Raises
        :class:`~repro.errors.PlanStoreError` when the key cannot be
        encoded or the artifact cannot be written (after counting the
        failure in :attr:`stats` and ``plan_store_errors``) — callers on
        a hot path catch it and keep serving from the in-memory cache.
        """
        if self._readonly:
            return None
        try:
            data = encode_key(key)
        except TypeError as exc:
            self.count_error()
            raise PlanStoreError(f"cannot encode plan key {key!r}: {exc!r}") from exc
        path = self.path_for(key)
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident():x}"
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self.count_error()
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
