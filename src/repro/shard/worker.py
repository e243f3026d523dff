"""The shard worker: one process, one pipe, one decoded plane.

A worker holds no state beyond its own copy of the frozen plane, decoded
from the PLMF image the pool sends it.  It answers in *leaf indices*
into that plane — entries never cross the process boundary; the parent
resolves indices against its own plane, from which the image was
serialized (leaf numbering is a pure function of the wire bytes, so the
processes agree by construction).  The flow cache lives in the parent
engine, so a worker only ever sees cache misses.

The protocol is a tuple per message, strictly request/reply from the
worker's point of view:

``("batch", stamp, image, queries)``
    Walk ``queries`` (one contiguous slice of the parent's misses) and
    reply ``("ok", indices)`` with one leaf index per query, ``-1`` for
    no match.

``("count", stamp, image, queries)``
    The replay fast path: same walk, but the reply aggregates to
    ``("ok", {leaf_index: occurrences})`` so a multi-million-packet
    replay ships back a dict the size of the rule set, not the trace.

``("report",)`` / ``("stop",)``
    Introspection and orderly shutdown.

Every ``batch``/``count`` carries the stamp of the plane it must be
answered from, and the PLMF image of that plane when the worker has not
acknowledged the stamp yet (``None`` otherwise).  A worker decodes a
new image **lazily right here**, before the walk, which is the worker
half of the cross-shard swap: serialize the new plane → bump the stamp
→ each worker loads it with its next request.

Faults inside a request are reported as ``("err", site, repr)`` and the
worker keeps serving; only ``stop``, a closed pipe, or SIGKILL end it
(the parent's timeout + respawn ladder handles the latter two).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Optional

from ..core.serialize import deserialize_frozen

__all__ = ["shard_worker_main"]


class _WorkerState:
    """Mutable per-process serving state (the decoded plane)."""

    __slots__ = ("shard_index", "stamp", "matcher", "lookups", "loads", "batches")

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self.stamp = -1
        self.matcher: Optional[Any] = None
        self.lookups = 0
        self.loads = 0
        self.batches = 0

    def load(self, stamp: int, image: Optional[bytes]) -> None:
        """Serve plane ``stamp``: decode ``image`` when one is sent."""
        if image is not None:
            self.matcher = deserialize_frozen(image)
            self.stamp = stamp
            self.loads += 1
        elif stamp != self.stamp:
            raise LookupError(f"plane {stamp} requested, plane {self.stamp} held")

    def resolve(self, queries: list[int]) -> list[int]:
        """Leaf indices for ``queries``, one batch walk."""
        self.lookups += len(queries)
        self.batches += 1
        return self.matcher.lookup_batch_indices(queries)

    def report(self) -> dict[str, Any]:
        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "stamp": self.stamp,
            "lookups": self.lookups,
            "loads": self.loads,
            "batches": self.batches,
        }


def shard_worker_main(conn: Any, shard_index: int, plane_stamp: int, image: bytes) -> None:
    """Entry point of one worker process (module-level: spawn-picklable)."""
    state = _WorkerState(shard_index)
    try:
        state.load(plane_stamp, image)
    except Exception as exc:  # parent sees the error, then EOF
        try:
            conn.send(("err", "shard_load", repr(exc)))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; nothing left to serve
            op = None
            try:
                # Unpack inside the guard: a malformed message (non-tuple,
                # empty) must be a bad *request*, not a dead worker.
                op = msg[0]
                if op == "batch" or op == "count":
                    _, stamp, image, queries = msg
                    state.load(stamp, image)
                    indices = state.resolve(queries)
                    if op == "count":
                        conn.send(("ok", dict(Counter(indices))))
                    else:
                        conn.send(("ok", indices))
                elif op == "report":
                    conn.send(("ok", state.report()))
                elif op == "stop":
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("err", "shard_protocol", f"unknown op {op!r}"))
            except (BrokenPipeError, OSError):
                break
            except Exception as exc:  # keep serving after a bad request
                site = f"shard_{op}" if isinstance(op, str) else "shard_protocol"
                try:
                    conn.send(("err", site, repr(exc)))
                except (BrokenPipeError, OSError):
                    break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
