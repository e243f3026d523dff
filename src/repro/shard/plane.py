"""Publishing PLMF images into shared memory, and mapping them back.

One compiled frozen plane serves every shard worker: the parent
serializes the :class:`~repro.core.frozen.FrozenMatcher` once
(:func:`~repro.core.serialize.serialize_frozen`), writes the wire bytes
into a ``multiprocessing.shared_memory`` segment, and workers rebuild a
read-only plane *in place* over the mapping —
:func:`~repro.core.serialize.deserialize_frozen` casts typed views over
the buffer instead of copying, so N processes share one copy of the
arrays (the cache-sharing argument of arXiv 1804.09254, applied across
processes instead of across cores of one address space).

Because the kernel rounds segments up to page multiples and PLMF
decoding checks the payload length exactly, each segment carries a tiny
framing header: magic ``PLMS`` plus the payload length as a u64.

Lifecycle: the *parent* owns every segment — it creates, retires and
unlinks them as policy updates publish new images (see
:class:`~repro.shard.engine.ShardedEngine`, the shard pool).  Workers only ever attach.
Because workers are children of the publishing parent, the whole tree
shares one ``resource_tracker`` process: a worker's attach re-registers
the same name (an idempotent set-add there), worker exits trigger no
cleanup, and the parent's single unlink-on-retire keeps the tracker
consistent.  Do NOT ``resource_tracker.unregister`` in workers — with a
shared tracker that would erase the parent's registration and turn the
eventual unlink into a tracker error.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import Optional, Tuple

from ..core.frozen import FrozenMatcher
from ..core.serialize import FormatError, deserialize_frozen, serialize_frozen

__all__ = [
    "PublishedPlane",
    "publish_plane",
    "attach_plane",
    "detach_plane",
    "SEGMENT_MAGIC",
]

SEGMENT_MAGIC = b"PLMS"

#: magic + payload length u64; the segment may be longer (page rounding)
_SEGMENT_HEADER = struct.Struct("<4sQ")


class PublishedPlane:
    """One PLMF image living in a shared-memory segment (parent side).

    ``stamp`` is the publisher's monotonic sequence number — workers
    remap lazily when a batch arrives carrying a newer stamp, and the
    parent retires (closes + unlinks) a plane once every live worker
    has acknowledged a newer one.
    """

    __slots__ = ("stamp", "shm", "payload_len")

    def __init__(self, stamp: int, shm: shared_memory.SharedMemory, payload_len: int) -> None:
        self.stamp = stamp
        self.shm = shm
        self.payload_len = payload_len

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def size_bytes(self) -> int:
        return _SEGMENT_HEADER.size + self.payload_len

    def retire(self) -> None:
        """Close the parent's mapping and unlink the segment.

        Workers still attached keep their mapping alive (POSIX shm
        semantics: the name goes away, the pages survive until the last
        map drops).
        """
        try:
            self.shm.close()
        except BufferError:  # a live local view still references it
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def publish_plane(frozen: FrozenMatcher, stamp: int) -> PublishedPlane:
    """Serialize ``frozen`` and place the wire bytes in a new segment."""
    wire = serialize_frozen(frozen)
    shm = shared_memory.SharedMemory(
        create=True, size=_SEGMENT_HEADER.size + len(wire)
    )
    _SEGMENT_HEADER.pack_into(shm.buf, 0, SEGMENT_MAGIC, len(wire))
    shm.buf[_SEGMENT_HEADER.size : _SEGMENT_HEADER.size + len(wire)] = wire
    return PublishedPlane(stamp, shm, len(wire))


def attach_plane(name: str) -> Tuple[FrozenMatcher, shared_memory.SharedMemory]:
    """Map a published segment and rebuild the plane over it, zero-copy.

    Returns ``(matcher, shm)``; the caller must keep ``shm`` referenced
    for as long as the matcher is used and hand both to
    :func:`detach_plane` when done.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        magic, payload_len = _SEGMENT_HEADER.unpack_from(shm.buf, 0)
        if magic != SEGMENT_MAGIC:
            raise FormatError(f"bad segment magic {magic!r}")
        if _SEGMENT_HEADER.size + payload_len > shm.size:
            raise FormatError("segment shorter than its declared payload")
        payload = memoryview(shm.buf)[
            _SEGMENT_HEADER.size : _SEGMENT_HEADER.size + payload_len
        ]
        matcher = deserialize_frozen(payload)
    except Exception:
        shm.close()
        raise
    return matcher, shm


def detach_plane(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Drop a worker's mapping.

    The plane's arrays are memoryviews into ``shm.buf``; the caller
    must drop every reference to the matcher *before* calling, or
    CPython refuses the close with ``BufferError`` — in that case the
    mapping is simply kept (leaked until process exit), which is safe,
    just untidy.
    """
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # a live view still references the buffer
            pass
