"""Explicit plan placement: which shard owns which plan key.

Routing used to be an arithmetic accident — ``hash(plan_key) % n_shards``
— with two problems this module exists to fix.  First, Python salts
``str`` hashes per interpreter (``PYTHONHASHSEED``), so any key carrying a
kind string routed *differently across processes*: a warm shard layout
could not be reproduced, compared, or reasoned about between runs.
Second, the mapping was invisible and immutable — no way to inspect where
a hot key lives, and no way to move it.

:func:`stable_placement_hash` replaces the salted hash with a keyed-less
BLAKE2b digest over a canonical byte encoding of the key (strings, ints,
floats, tuples, and the frozen option dataclasses that appear in plan
keys), so a key's shard is a pure function of the key and the shard
count — identical in every process, on every run.

:class:`PlacementTable` makes the mapping a first-class object: the
default policy is the stable hash modulo ``n_shards``, per-key overrides
rebalance individual keys (``assign`` / ``release``), and
:meth:`snapshot` exposes the table — default policy traffic, override
hits, stable-hash encodes, and the recently-routed key→shard assignments
— to the service's fleet telemetry.

The stable hash encodes the whole key, tens of microseconds for a
mat-vec key and hundreds for an int8 MLP graph key, so the table computes
it once per key: the recently-routed map (``track_limit`` newest keys)
doubles as the memo, and a warm key routes by a dict probe.  The memo is
sound because equal plan keys encode to equal bytes (option fields are
stored as their declared types), so remembering a shard under ``==``
never changes where a key routes.

The same-key→same-shard discipline is what keeps each plan compiled
once fleet-wide: placing every lookup of a key on one shard means one
shard's cache holds, and one thread executes, that key's plan.
``assign`` therefore only governs *subsequent* lookups; in-flight work
keeps the placement it was admitted under, and operators rebalancing a
hot key should quiesce it first (the table does not migrate running
work).
"""

from __future__ import annotations

import hashlib
import numbers
import operator
import threading
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Tuple

from ..api.config import ExecutionOptions
from ..errors import PlanFormatError
from ..iterative.criteria import ConvergenceCriteria

__all__ = [
    "PlacementSnapshot",
    "PlacementTable",
    "canonical_key_bytes",
    "decode_key_bytes",
    "stable_placement_hash",
]

#: How many recently-routed keys a table keeps for snapshots, by default.
DEFAULT_TRACK_LIMIT = 256

#: The only classes :func:`decode_key_bytes` constructs, by encoded name.
_KEY_DATACLASSES: Dict[str, Callable[..., Any]] = {
    cls.__name__: cls for cls in (ExecutionOptions, ConvergenceCriteria)
}

#: The deepest nesting :func:`decode_key_bytes` reads.  A fused plan key,
#: the deepest, nests 4 levels (key, shapes, stage, dims).
_MAX_DEPTH = 8


def _encode(value: Any, out: List[bytes]) -> None:
    """Append a canonical, type-prefixed byte encoding of ``value``.

    Covers exactly the value types that occur in routing keys — ``None``,
    bools, ints, floats, strings, bytes, tuples/lists, and frozen
    dataclasses (:class:`~repro.api.config.ExecutionOptions`,
    :class:`~repro.iterative.criteria.ConvergenceCriteria`) — each behind
    a distinct prefix so no two different values share an encoding.
    """
    if value is None:
        out.append(b"n;")
    elif isinstance(value, bool):
        out.append(b"b1;" if value else b"b0;")
    elif isinstance(value, numbers.Integral):
        out.append(b"i%d;" % int(value))
    elif isinstance(value, numbers.Real):
        # repr() round-trips doubles exactly and is stable across
        # platforms for the finite values option fields hold.
        out.append(b"f" + repr(float(value)).encode("ascii") + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"y%d:" % len(value))
        out.append(value)
    elif isinstance(value, (tuple, list)):
        out.append(b"t%d:" % len(value))
        for item in value:
            _encode(item, out)
    elif is_dataclass(value) and not isinstance(value, type):
        out.append(b"d" + type(value).__name__.encode("utf-8") + b":")
        for field_info in fields(value):
            _encode(field_info.name, out)
            _encode(getattr(value, field_info.name), out)
        out.append(b";")
    else:
        raise TypeError(
            f"cannot derive a stable placement for a routing key containing "
            f"{type(value).__name__!r}; placement keys are built from None, "
            f"bools, numbers, strings, tuples and frozen option dataclasses"
        )


def canonical_key_bytes(key: Hashable) -> bytes:
    """The canonical byte encoding of a routing key.

    The exact bytes :func:`stable_placement_hash` digests for shard
    routing — exposed so other layers that need a content-addressed view
    of a plan key (the :mod:`repro.store` persistence layer names its
    on-disk artifacts by a digest of these bytes) can never drift from
    the encoding that places the key on a shard.
    """
    encoded: List[bytes] = []
    _encode(key, encoded)
    return b"".join(encoded)


def decode_key_bytes(data: bytes) -> Any:
    """The plan key whose :func:`canonical_key_bytes` are ``data``.

    Reads bools, ints, floats, strings and tuples, and builds no class
    but the two option dataclasses, each through its validating
    constructor.  Anything else raises
    :class:`~repro.errors.PlanFormatError`: an unknown tag or class,
    malformed or trailing bytes, nesting deeper than ``_MAX_DEPTH``, a
    refused option, or bytes that do not re-encode to themselves.
    """
    try:
        key, end = _decode(data, 0, 0)
    except PlanFormatError:
        raise
    except Exception as exc:  # a refused option, a malformed number
        raise PlanFormatError(f"undecodable key: {exc!r}") from exc
    if end != len(data):
        raise PlanFormatError(f"{len(data) - end} byte(s) after the key")
    if canonical_key_bytes(key) != data:
        raise PlanFormatError("key bytes are not in canonical form")
    return key


def _decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """The value encoded at ``data[pos:]`` and the offset just past it."""
    if depth > _MAX_DEPTH:
        raise PlanFormatError(f"key nests deeper than {_MAX_DEPTH} levels")
    tag = data[pos:pos + 1]
    if tag == b"b" and data[pos + 1:pos + 2] in (b"0", b"1"):
        if data[pos + 2:pos + 3] == b";":
            return data[pos + 1:pos + 2] == b"1", pos + 3
    if tag in (b"i", b"f"):
        end = data.index(b";", pos)
        text = data[pos + 1:end].decode("ascii")
        return (int(text) if tag == b"i" else float(text)), end + 1
    if tag in (b"s", b"t", b"d"):
        colon = data.index(b":", pos)
        head = data[pos + 1:colon].decode("ascii")
        pos = colon + 1
        if tag == b"s":
            size = int(head)
            text = data[pos:pos + size]
            if size < 0 or len(text) != size:
                raise PlanFormatError("string runs past the end of the key")
            return text.decode("utf-8"), pos + size
        if tag == b"t":
            items: List[Any] = []
            for _ in range(int(head)):
                item, pos = _decode(data, pos, depth + 1)
                items.append(item)
            return tuple(items), pos
        cls = _KEY_DATACLASSES.get(head)
        if cls is None:
            raise PlanFormatError(f"class {head!r} may not appear in a key")
        values: Dict[str, Any] = {}
        while data[pos:pos + 1] != b";":
            name, pos = _decode(data, pos, depth + 1)
            if not isinstance(name, str) or name in values:
                raise PlanFormatError(f"bad field name {name!r} in {head}")
            values[name], pos = _decode(data, pos, depth + 1)
        return cls(**values), pos + 1
    raise PlanFormatError(f"no key value starts at byte {pos}")


def stable_placement_hash(key: Hashable) -> int:
    """A process-independent 64-bit hash of a routing key.

    Unlike built-in ``hash()`` — whose ``str`` component is salted per
    interpreter via ``PYTHONHASHSEED`` — this digest depends only on the
    key's value, so ``stable_placement_hash(key) % n_shards`` names the
    same shard in every process, every run.
    """
    digest = hashlib.blake2b(canonical_key_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class PlacementSnapshot:
    """Immutable view of one :class:`PlacementTable` for telemetry."""

    n_shards: int
    #: Total ``shard_of`` lookups served.
    lookups: int
    #: Lookups answered by a per-key override rather than the hash policy.
    override_hits: int
    #: Lookups that encoded the key and computed its stable hash; memo
    #: and override hits do not.
    encodes: int
    #: The current explicit key→shard overrides.
    overrides: Mapping[Hashable, int]
    #: Recently-routed key→shard assignments (bounded; newest kept).
    assignments: Mapping[Hashable, int]

    @property
    def shard_load(self) -> Mapping[int, int]:
        """Tracked keys per shard — the observable placement balance."""
        load: Dict[int, int] = {}
        for shard in self.assignments.values():
            load[shard] = load.get(shard, 0) + 1
        return load

    def describe(self) -> str:
        load = ", ".join(
            f"shard {shard}: {count} key(s)"
            for shard, count in sorted(self.shard_load.items())
        )
        return (
            f"PlacementTable over {self.n_shards} shard(s): "
            f"{self.lookups} lookup(s), {self.encodes} encode(s), "
            f"{len(self.overrides)} override(s) "
            f"({self.override_hits} hit(s)){'; ' + load if load else ''}"
        )


class PlacementTable:
    """Inspectable, rebalanceable key→shard mapping for the serving layer.

    ``shard_of`` is the single routing entry point: explicit overrides
    win, everything else falls to the stable-hash default policy.  The
    recently-routed map, bounded to the ``track_limit`` newest keys, is
    also the policy's memo, so a warm key's lookup is a dict probe and
    only a key new to the map (or evicted from it) is encoded and hashed.
    With ``track_limit=0`` nothing is remembered and every lookup encodes.
    All methods are thread-safe (one lock).

    The memo identifies keys by ``==``, as the override dict does, so it
    needs keys that compare equal to encode equally.  Plan keys do; mixed
    ad-hoc keys such as ``1`` and ``1.0`` do not, and the first of them
    routed would decide the shard of both.
    """

    def __init__(self, n_shards: int, track_limit: int = DEFAULT_TRACK_LIMIT):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if track_limit < 0:
            raise ValueError(f"track_limit must be >= 0, got {track_limit}")
        self._n_shards = int(n_shards)
        self._track_limit = int(track_limit)
        self._lock = threading.Lock()
        self._overrides: Dict[Hashable, int] = {}
        self._assignments: Dict[Hashable, int] = {}
        self._lookups = 0
        self._override_hits = 0
        self._encodes = 0

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def shard_of(self, key: Hashable) -> int:
        """The shard that owns ``key``: its override, else its stable hash
        (remembered from the key's last lookup while it is tracked)."""
        with self._lock:
            self._lookups += 1
            # Popped so the key re-enters the map below as its newest.
            remembered = self._assignments.pop(key, None)
            shard = self._overrides.get(key)
            if shard is not None:
                self._override_hits += 1
            elif remembered is not None:
                shard = remembered
            else:
                self._encodes += 1
                shard = stable_placement_hash(key) % self._n_shards
            if self._track_limit:
                self._assignments[key] = shard
                if len(self._assignments) > self._track_limit:
                    self._assignments.pop(next(iter(self._assignments)))
            return shard

    # -- rebalance API ------------------------------------------------------------
    def assign(self, key: Hashable, shard: int) -> None:
        """Pin ``key`` to ``shard``, overriding the default policy.

        Governs *subsequent* lookups only: work already admitted under the
        previous placement finishes where it was routed, so rebalance a
        key only when it is quiescent (its next request compiles, or
        loads, the plan on the new shard).  ``shard`` must be an integer
        (NumPy integers included) in ``[0, n_shards)``: anything else
        raises :class:`TypeError`, an out-of-range index
        :class:`ValueError`.
        """
        try:
            # operator.index admits NumPy integers; a bool is not a shard.
            index = None if isinstance(shard, bool) else operator.index(shard)
        except TypeError:
            index = None
        if index is None:
            raise TypeError(
                f"shard must be an integer, got {type(shard).__name__} "
                f"{shard!r}"
            )
        if not 0 <= index < self._n_shards:
            raise ValueError(
                f"shard must be in [0, {self._n_shards}), got {index}"
            )
        with self._lock:
            self._overrides[key] = index

    def release(self, key: Hashable) -> bool:
        """Drop ``key``'s override (back to the hash policy); False if none."""
        with self._lock:
            if self._overrides.pop(key, None) is None:
                return False
            # The remembered shard may be the override's; the next lookup
            # must route by the hash again.
            self._assignments.pop(key, None)
            return True

    def overrides(self) -> Dict[Hashable, int]:
        """A copy of the current explicit overrides."""
        with self._lock:
            return dict(self._overrides)

    # -- observability ------------------------------------------------------------
    def snapshot(self) -> PlacementSnapshot:
        with self._lock:
            return PlacementSnapshot(
                n_shards=self._n_shards,
                lookups=self._lookups,
                override_hits=self._override_hits,
                encodes=self._encodes,
                overrides=dict(self._overrides),
                assignments=dict(self._assignments),
            )

    def describe(self) -> str:
        return self.snapshot().describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"PlacementTable(n_shards={self._n_shards}, "
                f"overrides={len(self._overrides)}, lookups={self._lookups})"
            )
