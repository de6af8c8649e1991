"""The on-disk plan artifact format: framing, versioning, checksums.

One artifact holds one compiled plan.  The layout is a fixed header
followed by a pickled payload::

    offset  size  field
    0       8     magic            b"RPROPLAN"
    8       4     format version   big-endian uint32 (FORMAT_VERSION)
    12      16    payload checksum BLAKE2b-128 of the payload bytes
    28      -     payload          pickle of a PlanPayload mapping

The payload carries everything needed to rebuild an
:class:`~repro.api.plan.ExecutionPlan` *except* the registry handler:
``{"key", "kind", "shapes", "spec", "options", "executor"}``.  Handlers
are process-local singletons resolved from the problem registry
(:func:`~repro.api.registry.get_handler`) at load time, so an artifact
never freezes registry state and a loaded plan dispatches through the
same handler object a freshly compiled one would.

Reading is strictly validate-then-trust: magic, version and checksum are
checked *before* the payload is unpickled, and the decoded plan's
recomputed key must equal the key stored in the payload.  Every reader
in :class:`~repro.store.store.PlanStore` treats any
:class:`PlanFormatError` as "artifact unusable, recompile" — corruption
degrades a cold start, it never crashes a process.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any, Dict, Tuple

from ..api.plan import ExecutionPlan, PlanKey, make_plan_key
from ..api.registry import get_handler

__all__ = [
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "PlanFormatError",
    "decode_plan",
    "encode_plan",
]

#: Artifact file signature; anything else is not a plan artifact.
MAGIC = b"RPROPLAN"

#: Bump on any incompatible payload change.  Readers reject every other
#: version (newer *or* older) — a version skew is a recompile, never a
#: best-effort parse of bytes written by different code.  Version 3:
#: vectorized plans carry their precomputed run metrics and feedback
#: digest, and no simulate-only template.
FORMAT_VERSION = 3

_VERSION_STRUCT = struct.Struct(">I")
_CHECKSUM_SIZE = 16

#: Total fixed-header bytes preceding the payload.
HEADER_SIZE = len(MAGIC) + _VERSION_STRUCT.size + _CHECKSUM_SIZE


class PlanFormatError(Exception):
    """An artifact failed validation (framing, checksum, or payload).

    Internal to the store layer: :class:`~repro.store.store.PlanStore`
    converts it into a counted fallback-to-compile, so it never escapes
    to solver callers.
    """


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()


def encode_plan(plan: ExecutionPlan) -> bytes:
    """Serialize one compiled plan into artifact bytes.

    Raises :class:`pickle.PicklingError` (or whatever the executor's
    reduction raises) when the plan cannot be serialized; the store's
    write path wraps that into :class:`~repro.errors.PlanStoreError`.
    """
    payload_dict: Dict[str, Any] = {
        "key": plan.key,
        "kind": plan.kind,
        "shapes": plan.shapes,
        "spec": plan.spec,
        "options": plan.options,
        "executor": plan.executor,
    }
    payload = pickle.dumps(payload_dict, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join(
        (MAGIC, _VERSION_STRUCT.pack(FORMAT_VERSION), _checksum(payload), payload)
    )


def decode_plan(data: bytes) -> Tuple[PlanKey, ExecutionPlan]:
    """Validate artifact bytes and rebuild the plan they carry.

    Returns ``(key, plan)``.  Raises :class:`PlanFormatError` on any
    defect: short/garbled header, wrong magic, version skew, checksum
    mismatch, unpicklable or structurally wrong payload, or a payload
    whose stored key disagrees with the key recomputed from its own
    fields (a tampered or miskeyed artifact).
    """
    if len(data) < HEADER_SIZE:
        raise PlanFormatError(
            f"artifact truncated: {len(data)} bytes < {HEADER_SIZE}-byte header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise PlanFormatError("bad magic: not a plan artifact")
    offset = len(MAGIC)
    (version,) = _VERSION_STRUCT.unpack_from(data, offset)
    if version != FORMAT_VERSION:
        raise PlanFormatError(
            f"format version {version} != supported {FORMAT_VERSION}"
        )
    offset += _VERSION_STRUCT.size
    expected = data[offset : offset + _CHECKSUM_SIZE]
    payload = data[HEADER_SIZE:]
    if _checksum(payload) != expected:
        raise PlanFormatError("payload checksum mismatch (corrupt artifact)")
    try:
        decoded = pickle.loads(payload)
    except Exception as exc:
        raise PlanFormatError(f"payload unpicklable: {exc!r}") from exc
    if not isinstance(decoded, dict):
        raise PlanFormatError(
            f"payload is {type(decoded).__name__}, expected a mapping"
        )
    try:
        key = decoded["key"]
        kind = decoded["kind"]
        shapes = decoded["shapes"]
        spec = decoded["spec"]
        options = decoded["options"]
        executor = decoded["executor"]
    except KeyError as exc:
        raise PlanFormatError(f"payload missing field {exc.args[0]!r}") from exc
    try:
        handler = get_handler(kind)
    except Exception as exc:
        raise PlanFormatError(f"unknown plan kind {kind!r}") from exc
    if make_plan_key(kind, shapes, spec.w, options) != key:
        raise PlanFormatError(
            "stored key disagrees with the payload's own fields"
        )
    plan = ExecutionPlan(
        kind=kind,
        shapes=shapes,
        spec=spec,
        options=options,
        executor=executor,
        handler=handler,
    )
    return key, plan
