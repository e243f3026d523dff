"""The shard worker: one process, one pipe, one mapped plane.

Each worker owns a private :class:`~repro.engine.FlowCache` keyed by
query and valued with *leaf indices* into the shared frozen plane —
entries never cross the process boundary; the parent resolves indices
against its own copy of the same PLMF image (leaf numbering is a pure
function of the wire bytes, so the processes agree by construction).

The protocol is a tuple per message, strictly request/reply from the
worker's point of view:

``("batch", stamp, name, queries)``
    Resolve ``queries`` (already flow-hash partitioned by the parent)
    and reply ``("ok", (indices, cache_hits))`` with one leaf index per
    query, ``-1`` for no match.

``("count", stamp, name, queries)``
    The replay fast path: same resolve, but the reply aggregates to
    ``("ok", ({leaf_index: occurrences}, cache_hits))`` so a multi-
    million-packet replay ships back a dict the size of the rule set,
    not the trace.

``("report",)`` / ``("ping", token)`` / ``("stop",)``
    Introspection, liveness and orderly shutdown.

Every ``batch``/``count`` carries the publisher's ``(stamp, name)`` for
the plane it must be answered from.  A worker holding an older plane
**remaps lazily right here** — attach the new segment, drop the old
mapping, clear the flow cache (indices are only meaningful within one
image) — which is the worker half of the atomic cross-shard swap:
publish new PLMF → bump stamp → workers remap on next touch.

Faults inside a request are reported as ``("err", site, repr)`` and the
worker keeps serving; only ``stop``, a closed pipe, or SIGKILL end it
(the parent's timeout + respawn ladder handles the latter two).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from ..engine import FlowCache
from .plane import attach_plane, detach_plane

__all__ = ["shard_worker_main"]


class _WorkerState:
    """Mutable per-process serving state (plane mapping + flow cache)."""

    __slots__ = (
        "shard_index", "cache", "stamp", "matcher", "shm",
        "lookups", "cache_hits", "remaps", "batches",
    )

    def __init__(self, shard_index: int, cache_size: int) -> None:
        self.shard_index = shard_index
        self.cache = FlowCache(cache_size)
        self.stamp = -1
        self.matcher: Optional[Any] = None
        self.shm: Optional[Any] = None
        self.lookups = 0
        self.cache_hits = 0
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
        self.cache.clear()  # leaf indices do not survive an image swap
        self.remaps += 1

    def resolve(self, queries: list[int]) -> tuple[list[int], int]:
        """Leaf indices for ``queries``, cache first, batch-walk the rest."""
        cache = self.cache
        indices = [0] * len(queries)
        hits, misses = cache.probe(queries, indices)
        if misses:
            unique = list(misses)
            walked = self.matcher.lookup_batch_indices(unique)
            for positions, j in zip(misses.values(), walked):
                for i in positions:
                    indices[i] = j
            if len(unique) < len(queries) - hits:
                # A query missed more than once in this burst.  The
                # cache keeps rows in the order of each query's last
                # miss, as one put per missed packet would.
                rows = sorted(zip(unique, walked), key=lambda row: misses[row[0]][-1])
                unique = [q for q, _ in rows]
                walked = [j for _, j in rows]
            cache.fill(unique, walked)
        self.lookups += len(queries)
        self.cache_hits += hits
        self.batches += 1
        return indices, hits

    def report(self) -> dict[str, Any]:
        import os

        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "stamp": self.stamp,
            "lookups": self.lookups,
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": self.cache_hits / self.lookups if self.lookups else 0.0,
            "cache_rows": len(self.cache),
            "remaps": self.remaps,
            "batches": self.batches,
        }


def shard_worker_main(
    conn: Any,
    shard_index: int,
    cache_size: int,
    plane_stamp: int,
    plane_name: str,
) -> None:
    """Entry point of one worker process (module-level: spawn-picklable)."""
    state = _WorkerState(shard_index, cache_size)
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
                    indices, hits = state.resolve(queries)
                    if op == "count":
                        conn.send(("ok", (dict(Counter(indices)), hits)))
                    else:
                        conn.send(("ok", (indices, hits)))
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
