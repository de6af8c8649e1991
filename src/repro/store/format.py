"""The on-disk plan artifact format: framing, versioning, checksums.

One artifact holds one plan key.  The layout is a fixed header followed
by the key's canonical encoding::

    offset  size  field
    0       8     magic            b"RPROPLAN"
    8       4     format version   big-endian uint32 (FORMAT_VERSION)
    12      16    payload checksum BLAKE2b-128 of the payload bytes
    28      -     payload          canonical_key_bytes(key)

A plan is a pure function of its key ``(kind, shapes, w, options)``, so
the key, a few hundred bytes whatever the plan's size, is all a reader
needs to build it again (as FFTW re-plans from its stored wisdom).

Reading is validate-then-trust: magic, version and checksum are checked
before :func:`~repro.service.placement.decode_key_bytes` parses the
payload, and the result must be a key of a registered kind and a valid
array size.  Nothing is unpickled.  Every defect raises
:class:`~repro.errors.PlanFormatError`, which
:class:`~repro.store.store.PlanStore` counts and skips.
"""

from __future__ import annotations

import hashlib
import struct

from ..api.config import ExecutionOptions
from ..api.plan import PlanKey
from ..api.registry import get_handler
from ..errors import PlanFormatError
from ..matrices.padding import validate_array_size
from ..service.placement import canonical_key_bytes, decode_key_bytes

__all__ = [
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "PlanFormatError",
    "decode_key",
    "encode_key",
]

#: Artifact file signature; anything else is not a plan artifact.
MAGIC = b"RPROPLAN"

#: Bump on any incompatible payload change.  Readers reject every other
#: version (newer *or* older) — a version skew is a skipped artifact,
#: never a best-effort parse of bytes written by different code.
#: Since version 8 the payload is the plan key's canonical encoding, so
#: the version moves only with that encoding, never with plan internals;
#: versions up to 7 held a pickled plan.  Version 9: the options lost
#: the two Gauss-Seidel fields and renamed two others to ``omega`` and
#: ``tolerance``, the keywords that override them.
FORMAT_VERSION = 9

_VERSION_STRUCT = struct.Struct(">I")
_CHECKSUM_SIZE = 16

#: Total fixed-header bytes preceding the payload.
HEADER_SIZE = len(MAGIC) + _VERSION_STRUCT.size + _CHECKSUM_SIZE


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()


def encode_key(key: PlanKey) -> bytes:
    """The artifact bytes of one plan key.

    Raises :class:`TypeError` for a key holding a value the canonical
    encoding does not cover; the store's write path wraps that into
    :class:`~repro.errors.PlanStoreError`.
    """
    payload = canonical_key_bytes(key)
    return b"".join(
        (MAGIC, _VERSION_STRUCT.pack(FORMAT_VERSION), _checksum(payload), payload)
    )


def decode_key(data: bytes) -> PlanKey:
    """Validate artifact bytes and read back the plan key they carry.

    Raises :class:`~repro.errors.PlanFormatError` on any defect:
    short/garbled header, wrong magic, version skew, checksum mismatch,
    a payload :func:`~repro.service.placement.decode_key_bytes` refuses,
    or a value that is not a plan key of a registered kind and a valid
    array size.
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
    key = decode_key_bytes(payload)
    try:
        kind, shapes, w, options = key
        get_handler(kind)
        validate_array_size(w)
    except Exception as exc:
        raise PlanFormatError(f"not a usable plan key: {exc!r}") from exc
    if not (
        isinstance(shapes, tuple)
        and type(w) is int
        and isinstance(options, ExecutionOptions)
    ):
        raise PlanFormatError("payload is not a (kind, shapes, w, options) key")
    return key
