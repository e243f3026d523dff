"""The shard pool: N worker processes resolving one engine's cache misses.

A :class:`~repro.engine.ClassificationEngine` built with
``EngineConfig(shards=N)`` owns one :class:`ShardedEngine`.  The engine
keeps everything that is state — flow cache, guard rail, updates,
checkpoints, metrics — and hands the pool only the unique queries its
cache missed, where an in-process engine would walk its frozen plane::

    parent                                         workers
    ──────────────────────────────────────         ──────────────────
    ClassificationEngine                            shard 0: own plane
      · flow cache, GuardRail, updates              shard 1: own plane
      · misses ─▶ ShardedEngine.lookup_batch          ...
    frozen plane ── serialize_frozen ──▶ PLMF image ──▶ each worker, once
                                                       per stamp, over its pipe

The pool cuts the misses into N contiguous slices, one per worker; each
worker walks its own plane, decoded from the pool's PLMF image, and
answers with leaf indices, which the pool maps back to entries through
the parent's plane.  Whenever the engine's plane object changes (a
refreeze after an update, a policy swap, a restore) the pool serializes
it under a new stamp before the next slice goes out, and each worker
gets the image with its first request that names the new stamp (a
respawned worker gets the current one in its spawn arguments).

Worker death is degradation, not an outage: the dead worker's slice is
answered from the parent's plane (``local_fallback_lookups``, a
``shard_worker`` fault on the engine's guard), the worker is respawned
up to ``shard_max_restarts`` times, and the engine's ``health`` reads
``degraded`` while any shard is down.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter
from itertools import islice
from typing import Any, Iterable, Optional, Sequence

from ..core.frozen import FrozenMatcher
from ..core.serialize import serialize_frozen
from ..core.table import TernaryEntry
from .worker import shard_worker_main

__all__ = ["ShardedEngine", "flow_shard"]


_MIX_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a full-avalanche 64-bit mix."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MIX_MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MIX_MASK
    return x ^ (x >> 31)


def flow_shard(query: int, shards: int) -> int:
    """A stable flow-to-bucket hash (canary slicing, stream buckets).

    Deterministic across processes and runs (no ``PYTHONHASHSEED``
    dependence) and avalanched: the query is folded into 64-bit limbs
    through the splitmix64 finalizer, so every header bit — not just
    the low-order ones — perturbs the bucket.  CPython's ``hash`` on an
    int is the value mod 2^61-1, which with power-of-two bucket counts
    made a constant low field (a fixed dst port, say) pin all traffic
    to one bucket.
    """
    mixed = _splitmix64(query & _MIX_MASK)
    query >>= 64
    while query:
        mixed = _splitmix64(mixed ^ (query & _MIX_MASK))
        query >>= 64
    return mixed % shards


class _ShardDead(Exception):
    """Internal: the worker behind a handle is gone for this request."""


class _ShardHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "proc", "conn", "alive", "restarts", "last_stamp", "last_error", "routed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: Any = None
        self.alive = False
        self.restarts = 0
        self.last_stamp = -1
        self.last_error: Optional[str] = None
        #: queries this shard's worker resolved (cumulative)
        self.routed = 0


class ShardedEngine:
    """The shard pool behind one :class:`~repro.engine.ClassificationEngine`.

    The engine constructs it when ``config.shards > 0`` (reach it as
    ``engine.pool``) and closes it in ``engine.close()``.  It resolves
    miss batches (:meth:`lookup_batch`), answers single queries from
    the parent's plane (:meth:`lookup`), and replays whole traces
    (:meth:`replay`).
    """

    def __init__(self, engine: Any) -> None:
        import multiprocessing

        plane = engine._lookup_target()
        if not isinstance(plane, FrozenMatcher):
            raise TypeError(
                f"shards need a matcher the frozen plane compiles; "
                f"{type(engine._matcher).__name__} does not"
            )
        self.config = engine.config
        self._guard = engine.resilience
        self._engine = weakref.ref(engine)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._plane: Optional[FrozenMatcher] = None
        #: the PLMF image of ``_plane`` and its stamp, which grows by one
        #: per plane served
        self._image = b""
        self._stamp = 0
        self._closed = False
        self._shards: list[_ShardHandle] = []
        self.worker_deaths = 0
        self.respawns = 0
        self.local_fallback_lookups = 0
        self.sharded_batches = 0
        self.serve(plane)
        self._shards = [self._spawn(i) for i in range(self.config.shards)]

    # -- serving a plane (the swap half) ---------------------------------

    def serve(self, plane: FrozenMatcher) -> None:
        """Make ``plane`` the one misses resolve against: serialize it
        under a new stamp when it is not the plane served last (a plane
        never changes in place).  Each worker loads the new image with
        its next request."""
        if plane is self._plane:
            return
        self._image = serialize_frozen(plane)
        self._plane = plane
        self._stamp += 1

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, index: int, restarts: int = 0) -> _ShardHandle:
        handle = _ShardHandle(index)
        handle.restarts = restarts
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, index, self._stamp, self._image),
            name=f"palmtrie-shard-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.alive = True
        handle.last_stamp = self._stamp
        return handle

    def _mark_dead(self, handle: _ShardHandle, exc: BaseException) -> None:
        if handle.alive:
            handle.alive = False
            self.worker_deaths += 1
        handle.last_error = repr(exc)
        if self._guard is not None:
            self._guard.record_fault("shard_worker", exc)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc is not None:
            handle.proc.terminate()
            handle.proc.join(timeout=1.0)

    def _ensure_alive(self, handle: _ShardHandle) -> Optional[_ShardHandle]:
        """The serving handle for a shard slot, respawning if the ladder
        allows; None when the shard is past ``shard_max_restarts`` (its
        slice is answered by the parent from then on)."""
        if handle.alive:
            return handle
        if handle.restarts >= self.config.shard_max_restarts:
            return None
        try:
            replacement = self._spawn(handle.index, restarts=handle.restarts + 1)
        except OSError as exc:  # pragma: no cover - fork failure
            handle.last_error = repr(exc)
            return None
        replacement.routed = handle.routed
        replacement.last_error = handle.last_error
        self._shards[handle.index] = replacement
        self.respawns += 1
        return replacement

    def _recv_reply(self, handle: _ShardHandle) -> Any:
        """Receive one pending reply (the request was already sent)."""
        try:
            if not handle.conn.poll(self.config.shard_timeout):
                raise TimeoutError(
                    f"shard {handle.index} silent for {self.config.shard_timeout}s"
                )
            reply = handle.conn.recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError) as exc:
            self._mark_dead(handle, exc)
            raise _ShardDead from exc
        if reply[0] != "ok":
            # The worker survived a bad request; the request did not.
            if self._guard is not None:
                self._guard.record_fault(reply[1], RuntimeError(reply[2]))
            raise _ShardDead
        return reply[1]

    def _call(self, handle: _ShardHandle, message: tuple) -> Any:
        """One request/reply on a worker pipe; raises ``_ShardDead``."""
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._mark_dead(handle, exc)
            raise _ShardDead from exc
        return self._recv_reply(handle)

    # -- resolving misses --------------------------------------------------

    def _fan_out(self, op: str, queries: Sequence[int]) -> list[tuple[list[int], Any]]:
        """Send ``op`` over N contiguous slices of ``queries`` and gather
        the replies: ``(slice, reply)`` per slice, in query order, with
        reply None where the parent must answer the slice itself (its
        worker is dead, abandoned, or failed the request)."""
        if self._closed:
            raise RuntimeError("shard pool is closed")
        size = -(-len(queries) // len(self._shards))
        slices = [queries[i : i + size] for i in range(0, len(queries), size)]
        stamp = self._stamp
        pending: list[Optional[_ShardHandle]] = []
        for index, part in enumerate(slices):
            handle = self._ensure_alive(self._shards[index])
            if handle is not None:
                image = self._image if handle.last_stamp != stamp else None
                try:
                    handle.conn.send((op, stamp, image, part))
                except (BrokenPipeError, OSError) as exc:
                    self._mark_dead(handle, exc)
                    handle = None
            pending.append(handle)
        gathered: list[tuple[list[int], Any]] = []
        for handle, part in zip(pending, slices):
            reply = None
            if handle is not None:
                try:
                    reply = self._recv_reply(handle)
                except _ShardDead:
                    pass
                else:
                    handle.last_stamp = stamp
                    handle.routed += len(part)
            gathered.append((part, reply))
        return gathered

    def _local_indices(self, queries: Sequence[int]) -> list[int]:
        """Degraded path: a slice no worker answered, walked on the
        parent's copy of the plane."""
        self.local_fallback_lookups += len(queries)
        if self._guard is not None:
            self._guard.degraded_lookups += len(queries)
        return self._plane.lookup_batch_indices(queries)

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        """One query never amortizes a process hop: answer it from the
        parent's plane."""
        return self._plane.lookup(query)

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Resolve distinct misses across the workers, in query order."""
        if len(queries) <= 1:
            return [self.lookup(query) for query in queries]
        best_of = self._plane._leaf_best
        results: list[Optional[TernaryEntry]] = []
        for part, indices in self._fan_out("batch", queries):
            if indices is None:
                indices = self._local_indices(part)
            results.extend([best_of[j] if j >= 0 else None for j in indices])
        self.sharded_batches += 1
        return results

    def replay(self, trace: Iterable[int], chunk_size: int = 8192) -> dict[str, Any]:
        """Replay a trace through the workers and count its verdicts.

        No per-query answers and no flow cache: each chunk goes out in
        contiguous slices, workers reply ``{leaf index: occurrences}``
        dictionaries the size of the rule set, and the parent sums them.
        The engine is refreshed first, so the replay sees every update
        applied before it.  This is the path ``bench_shards`` measures.
        """
        engine = self._engine()
        if engine is not None:
            engine.refresh()
        totals: Counter = Counter()
        queries = 0
        started = time.perf_counter()
        trace_iter = iter(trace)
        while True:
            chunk = list(islice(trace_iter, chunk_size))
            if not chunk:
                break
            queries += len(chunk)
            for part, counts in self._fan_out("count", chunk):
                # A worker's {index: count} dict, or the fallback's raw
                # indices: Counter.update sums the one, counts the other.
                totals.update(counts if counts is not None else self._local_indices(part))
        seconds = time.perf_counter() - started
        best_of = self._plane._leaf_best
        verdicts: Counter = Counter()
        missed = totals.pop(-1, 0)
        for j, count in totals.items():
            verdicts[best_of[j].value] += count
        return {
            "queries": queries,
            "seconds": seconds,
            "qps": queries / seconds if seconds > 0 else 0.0,
            "matched": queries - missed,
            "missed": missed,
            "verdicts": dict(verdicts),
            "shards": len(self._shards),
            "local_fallback_lookups": self.local_fallback_lookups,
        }

    # -- health / observability ------------------------------------------

    @property
    def shards_alive(self) -> int:
        return sum(1 for h in self._shards if h.alive)

    def collect_metrics(self, registry: Any) -> None:
        """Per-shard gauges/counters, labeled ``{"shard": i}`` (the
        engine's metrics collector calls this before every export)."""
        for handle in self._shards:
            labels = {"shard": str(handle.index)}
            registry.gauge(
                "shard_alive", "1 while this shard's worker serves", labels=labels
            ).set(1.0 if handle.alive else 0.0)
            registry.counter(
                "shard_routed_lookups_total",
                "cache misses resolved by this shard's worker",
                labels=labels,
            ).set_total(handle.routed)
            registry.counter(
                "shard_restarts_total",
                "times this shard's worker was respawned",
                labels=labels,
            ).set_total(handle.restarts)
        registry.counter(
            "shard_worker_deaths_total", "worker processes lost"
        ).set_total(self.worker_deaths)
        registry.counter(
            "shard_local_fallback_lookups_total",
            "queries served by the parent because a shard was down",
        ).set_total(self.local_fallback_lookups)

    def worker_reports(self) -> list[dict[str, Any]]:
        """Ask every live worker for its own counters (best effort)."""
        reports: list[dict[str, Any]] = []
        for handle in self._shards:
            if not handle.alive:
                reports.append({
                    "shard": handle.index,
                    "alive": False,
                    "restarts": handle.restarts,
                    "last_error": handle.last_error,
                })
                continue
            try:
                report = self._call(handle, ("report",))
            except _ShardDead:
                report = {"shard": handle.index, "alive": False,
                          "last_error": handle.last_error}
            else:
                report["alive"] = True
                report["restarts"] = handle.restarts
            reports.append(report)
        return reports

    def report(self) -> dict[str, Any]:
        """The ``shards`` section of the engine's report."""
        return {
            "count": len(self._shards),
            "alive": self.shards_alive,
            "stamp": self._stamp,
            "plane_bytes": len(self._image),
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "local_fallback_lookups": self.local_fallback_lookups,
            "sharded_batches": self.sharded_batches,
            "workers": self.worker_reports(),
        }

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._shards:
            if not handle.alive:
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._shards:
            if handle.proc is not None:
                handle.proc.join(timeout=2.0)
                if handle.proc.is_alive():  # pragma: no cover - stuck worker
                    handle.proc.terminate()
                    handle.proc.join(timeout=1.0)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
