"""The shard worker: one process, one pipe, one mapped plane.

A worker holds no state beyond its mapping of the shared frozen plane.
It answers in *leaf indices* into that plane — entries never cross the
process boundary; the parent resolves indices against its own copy of
the same PLMF image (leaf numbering is a pure function of the wire
bytes, so the processes agree by construction).  The flow cache lives
in the parent engine, so a worker only ever sees cache misses.

The protocol is a tuple per message, strictly request/reply from the
worker's point of view:

``("batch", stamp, name, queries)``
    Walk ``queries`` (one contiguous slice of the parent's misses) and
    reply ``("ok", indices)`` with one leaf index per query, ``-1`` for
    no match.

``("count", stamp, name, queries)``
    The replay fast path: same walk, but the reply aggregates to
    ``("ok", {leaf_index: occurrences})`` so a multi-million-packet
    replay ships back a dict the size of the rule set, not the trace.

``("report",)`` / ``("ping", token)`` / ``("stop",)``
    Introspection, liveness and orderly shutdown.

Every ``batch``/``count`` carries the publisher's ``(stamp, name)`` for
the plane it must be answered from.  A worker holding an older plane
**remaps lazily right here** — attach the new segment, drop the old
mapping — which is the worker half of the atomic cross-shard swap:
publish new PLMF → bump stamp → workers remap on next touch.

Faults inside a request are reported as ``("err", site, repr)`` and the
worker keeps serving; only ``stop``, a closed pipe, or SIGKILL end it
(the parent's timeout + respawn ladder handles the latter two).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from .plane import attach_plane, detach_plane

__all__ = ["shard_worker_main"]


class _WorkerState:
    """Mutable per-process serving state (the plane mapping)."""

    __slots__ = ("shard_index", "stamp", "matcher", "shm", "lookups", "remaps", "batches")

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self.stamp = -1
        self.matcher: Optional[Any] = None
        self.shm: Optional[Any] = None
        self.lookups = 0
        self.remaps = 0
        self.batches = 0

    def remap(self, stamp: int, name: str) -> None:
        if stamp == self.stamp and self.matcher is not None:
            return
        matcher, shm = attach_plane(name)
        old_shm = self.shm
        self.matcher = None  # drop plane views before closing the mapping
        detach_plane(old_shm)
        self.matcher, self.shm, self.stamp = matcher, shm, stamp
        self.remaps += 1

    def resolve(self, queries: list[int]) -> list[int]:
        """Leaf indices for ``queries``, one batch walk."""
        self.lookups += len(queries)
        self.batches += 1
        return self.matcher.lookup_batch_indices(queries)

    def report(self) -> dict[str, Any]:
        import os

        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "stamp": self.stamp,
            "lookups": self.lookups,
            "remaps": self.remaps,
            "batches": self.batches,
        }


def shard_worker_main(
    conn: Any, shard_index: int, plane_stamp: int, plane_name: str
) -> None:
    """Entry point of one worker process (module-level: spawn-picklable)."""
    state = _WorkerState(shard_index)
    try:
        state.remap(plane_stamp, plane_name)
    except Exception as exc:  # parent sees the error, then EOF
        try:
            conn.send(("err", "shard_attach", repr(exc)))
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
                    _, stamp, name, queries = msg
                    state.remap(stamp, name)
                    indices = state.resolve(queries)
                    if op == "count":
                        conn.send(("ok", dict(Counter(indices))))
                    else:
                        conn.send(("ok", indices))
                elif op == "report":
                    conn.send(("ok", state.report()))
                elif op == "ping":
                    conn.send(("ok", msg[1]))
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
        state.matcher = None
        detach_plane(state.shm)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
