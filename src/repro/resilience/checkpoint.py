"""Crash-safe policy checkpoints (atomic, checksummed PLMF envelopes).

A data plane that compiles its policy from ACL source on every start
pays the full build on the recovery path — exactly when latency matters
most.  A checkpoint amortizes that: the engine's frozen policy plus its
coherence stamps (engine epoch, matcher generation) are written as one
checksummed envelope around the PLMF wire form, with the classic
crash-safe dance — write to a temporary file in the same directory,
``fsync`` it, ``os.replace`` over the destination, ``fsync`` the
directory — so a crash at any instant leaves either the old checkpoint
or the new one, never a torn file.

Restore is the inverse and *trusts nothing*: magic, version, length and
a SHA-256 digest over the stamps and payload are all validated (any
failure raises :class:`~repro.core.serialize.FormatError`), and the
PLMF payload goes through the full ``deserialize_frozen`` validation
gauntlet.  :func:`recover` is the startup shape: restore when the
checkpoint is valid, otherwise fall back to the caller's
rebuild-from-ACL-source callable and say which path was taken — the
engine mirrors that into its metrics so silent slow starts don't hide.

Format (little-endian)::

    magic "PLMC" | version u16 | flags u16 | epoch u64 | generation i64
    | payload length u64 | sha256(stamps + payload) 32 bytes | payload

where ``payload`` is :func:`repro.core.serialize.serialize_frozen`
output and the digest covers ``pack("<QqQ", epoch, generation, len)``
followed by the payload bytes.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.serialize import FormatError, deserialize_frozen, serialize_frozen

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "RecoveryReport",
    "serialize_checkpoint",
    "deserialize_checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "recover",
]

CHECKPOINT_MAGIC = b"PLMC"
CHECKPOINT_VERSION = 1

_ENVELOPE = struct.Struct("<4sHHQqQ32s")
_STAMPS = struct.Struct("<QqQ")


@dataclass(frozen=True)
class Checkpoint:
    """A validated, decoded checkpoint."""

    #: the restored frozen policy (serving-ready, no trie rebuild)
    matcher: Any
    #: engine epoch at checkpoint time
    epoch: int
    #: matcher generation at checkpoint time (restored onto ``matcher``)
    generation: int


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one :func:`recover` call."""

    #: the serving matcher (restored or rebuilt)
    matcher: Any
    #: True when the checkpoint validated and was restored
    restored: bool
    #: engine epoch carried by the checkpoint (0 when rebuilt)
    epoch: int
    #: one-line reason when the checkpoint was rejected (None on restore)
    error: Optional[str] = None


def serialize_checkpoint(matcher: Any, epoch: int = 0, generation: Optional[int] = None) -> bytes:
    """Pack the policy + stamps into the checksummed envelope.  The
    payload is ``matcher``'s frozen plane: a frozen matcher is written
    as it is (the engine passes its own plane), a trie is frozen first."""
    from ..core.frozen import freeze

    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if generation is None:
        generation = getattr(matcher, "generation", 0) or 0
    payload = serialize_frozen(freeze(matcher))
    stamps = _STAMPS.pack(epoch, generation, len(payload))
    digest = hashlib.sha256(stamps + payload).digest()
    header = _ENVELOPE.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0, epoch, generation, len(payload), digest
    )
    return header + payload


def deserialize_checkpoint(data: bytes) -> Checkpoint:
    """Validate and decode an envelope; :class:`FormatError` on any
    corruption (bad magic/version, short read, digest mismatch, or a
    payload the PLMF decoder rejects)."""
    if len(data) < _ENVELOPE.size:
        raise FormatError("truncated checkpoint header")
    magic, version, _flags, epoch, generation, payload_len, digest = _ENVELOPE.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if _flags != 0:
        # No flags are defined yet; a nonzero field is corruption (the
        # header sits outside the digest, so this check is the cover).
        raise FormatError(f"unsupported checkpoint flags {_flags:#06x}")
    payload = data[_ENVELOPE.size:]
    if len(payload) != payload_len:
        raise FormatError(
            f"checkpoint size mismatch: header says {payload_len} payload bytes, "
            f"got {len(payload)}"
        )
    stamps = _STAMPS.pack(epoch, generation, payload_len)
    if hashlib.sha256(stamps + payload).digest() != digest:
        raise FormatError("checkpoint digest mismatch (corrupt or tampered)")
    matcher = deserialize_frozen(payload)
    # The stamp survives the round trip: layers above compare
    # generations to detect staleness, so a restored policy must not
    # restart the counter.
    matcher.generation = generation
    return Checkpoint(matcher=matcher, epoch=epoch, generation=generation)


def write_checkpoint(
    path: str | os.PathLike,
    matcher: Any,
    epoch: int = 0,
    generation: Optional[int] = None,
) -> int:
    """Atomically write a checkpoint; returns the bytes written.

    tmp file + ``fsync`` + ``os.replace`` + directory ``fsync``: readers
    always see a complete old or complete new checkpoint.
    """
    data = serialize_checkpoint(matcher, epoch=epoch, generation=generation)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = f"{path}.tmp.{os.getpid()}"
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return len(data)
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)
    return len(data)


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load and validate a checkpoint file (``FormatError`` on
    corruption, ``OSError`` when the file is unreadable)."""
    with open(path, "rb") as handle:
        return deserialize_checkpoint(handle.read())


def recover(
    path: str | os.PathLike,
    rebuild: Callable[[], Any],
    on_error: Optional[Callable[[str], None]] = None,
) -> RecoveryReport:
    """Startup recovery: restore the checkpoint, or rebuild from source.

    A valid checkpoint restores in O(bytes) with its generation counter
    preserved; a missing, unreadable or corrupt one falls back to the
    ``rebuild`` callable (compile from ACL source) and reports why.
    ``on_error`` (e.g. a logger) receives the one-line reason.
    """
    try:
        checkpoint = read_checkpoint(path)
    except (FormatError, OSError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        if on_error is not None:
            on_error(reason)
        return RecoveryReport(matcher=rebuild(), restored=False, epoch=0, error=reason)
    return RecoveryReport(
        matcher=checkpoint.matcher, restored=True, epoch=checkpoint.epoch
    )
