"""The sharded multi-process data plane front-end.

:class:`ShardedEngine` serves the same ``lookup`` / ``lookup_batch`` /
``report`` surface as :class:`~repro.engine.ClassificationEngine`, but
fans batches across N worker processes, RSS-style: the shard of a query
is :func:`flow_shard` — a splitmix64-style avalanche over the packed
5-tuple, so every header bit perturbs the shard choice (CPython's int
hash is near-identity and would let a constant low-order field pin the
shard) — and a flow always lands on the same worker, so that worker's
private :class:`~repro.engine.FlowCache` sees the whole flow.

Topology::

    parent (control plane + fallback)          workers (data plane)
    ───────────────────────────────────        ─────────────────────
    ClassificationEngine (inner)                shard 0: FlowCache ─┐
      · updates, checkpoints, GuardRail         shard 1: FlowCache ─┼── one
      · serves scalar lookup() locally             ...              │  shared
    FrozenMatcher  ── serialize_frozen ──▶  PLMF in shared memory ◀─┘  mapping

Every worker maps the *same* PLMF image zero-copy
(:mod:`repro.shard.plane`), so memory stays O(1) in the worker count.
Policy updates are atomic cross-shard swaps built from the pieces the
update and resilience planes already provide: the parent applies the
update to the inner engine, republishes a fresh image under a new
monotonic stamp keyed by the inner ``(epoch, generation)`` coherence
stamp, and workers remap lazily when the next batch names the new
stamp — no barrier, no torn reads (old image stays mapped until every
live worker has acknowledged a newer one).

Worker death is degradation, not an outage: the affected flow-hash
bucket is re-resolved through the inner engine (GuardRail accounting
via ``record_fault("shard_worker")``), the worker is respawned up to
``shard_max_restarts`` times, and ``health`` reads ``degraded`` while
any shard is down — the same ladder semantics the resilience plane
gives the in-process engine.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Iterable, Optional, Sequence, Union

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.frozen import FrozenMatcher
from ..core.multibit import MultibitPalmtrie
from ..core.plus import PalmtriePlus
from ..core.table import TernaryEntry, TernaryMatcher
from ..engine import ClassificationEngine
from .plane import PublishedPlane, publish_plane
from .worker import shard_worker_main

__all__ = ["ShardedEngine", "flow_shard"]


_MIX_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a full-avalanche 64-bit mix."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MIX_MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MIX_MASK
    return x ^ (x >> 31)


def flow_shard(query: int, shards: int) -> int:
    """The RSS role: which worker owns this flow.

    Deterministic across processes and runs (no ``PYTHONHASHSEED``
    dependence) and avalanched: the query is folded into 64-bit limbs
    through the splitmix64 finalizer, so every header bit — not just
    the low-order ones — perturbs the shard choice.  CPython's ``hash``
    on an int is the value mod 2^61-1, which with power-of-two shard
    counts made a constant low field (a fixed dst port, say) pin all
    traffic to one worker.
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

    __slots__ = (
        "index", "proc", "conn", "alive", "restarts",
        "last_stamp", "last_error", "routed", "worker_cache_hits",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: Any = None
        self.alive = False
        self.restarts = 0
        self.last_stamp = -1
        self.last_error: Optional[str] = None
        #: queries routed to this shard by the parent (cumulative)
        self.routed = 0
        #: flow-cache hits the worker reported back (cumulative)
        self.worker_cache_hits = 0


class ShardedEngine:
    """N worker processes over one shared frozen plane, one surface.

    Build one with ``ClassificationEngine.from_config(matcher,
    EngineConfig(shards=N))`` (or :func:`repro.serve`).  Control-plane
    calls — updates, checkpoints, metrics, resilience — delegate to an
    inner :class:`~repro.engine.ClassificationEngine`; attributes not
    overridden here fall through to it, so the whole engine surface
    keeps working.  Call :meth:`close` (or use the engine as a context
    manager) to stop the workers and unlink the shared segments.
    """

    def __init__(
        self,
        matcher: Union[TernaryMatcher, Any],
        config: Optional[EngineConfig] = None,
        *,
        start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing

        config = config if config is not None else DEFAULT_CONFIG
        if config.shards <= 0:
            raise ValueError(
                f"ShardedEngine needs config.shards >= 1, got {config.shards}"
            )
        # The fallback ladder is load-bearing here (dead workers degrade
        # into the inner engine), so resilience is always on.
        inner_config = config.replace(
            shards=0, resilience=config.resilience or True
        )
        self.config = config
        self._inner = ClassificationEngine(matcher, inner_config)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            start_method or ("fork" if "fork" in methods else "spawn")
        )
        self._publish_seq = 0
        self._planes: dict[int, PublishedPlane] = {}
        self._plane: Optional[FrozenMatcher] = None
        self._stamp = -1
        self._published_for: Optional[tuple[int, int]] = None
        self._closed = False
        #: parent-side aggregate counters for report()/metrics
        self.worker_deaths = 0
        self.respawns = 0
        self.local_fallback_lookups = 0
        self.sharded_batches = 0
        #: query -> owning shard memo (bounded; see _scatter)
        self._owner_memo: dict[int, int] = {}
        self._republish(force=True)
        self._shards = [self._spawn(i) for i in range(config.shards)]
        registry = self._inner.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    # -- plane publishing (the atomic swap half) ------------------------

    def _make_plane(self) -> FrozenMatcher:
        matcher = self._inner.matcher
        layout = self.config.frozen_layout
        if isinstance(matcher, FrozenMatcher):
            from ..core.frozen import freeze

            # freeze() folds the config's layout in (a no-op when it
            # matches what the plane was compiled with) and refreezes a
            # dirty plane.
            plane = freeze(matcher, layout=None if layout == "build" else layout)
            if plane._dirty:
                plane._refreeze()
            return plane
        if isinstance(matcher, (MultibitPalmtrie, PalmtriePlus)):
            return FrozenMatcher.from_matcher(matcher, layout=layout)
        # Any other matcher: rebuild a frozen plane from its entries.
        return FrozenMatcher.build(
            list(matcher.entries()),
            matcher.key_length,
            stride=self.config.stride or 8,
            layout=layout,
        )

    def _republish(self, force: bool = False) -> None:
        """Publish a fresh PLMF image if the policy moved (or ``force``).

        Staleness is the update plane's coherence stamp: the inner
        ``(epoch, generation)`` pair.  Publishing never blocks workers —
        they keep answering from the old image until a batch carries
        the new stamp.
        """
        stamp_key = (
            self._inner.epoch,
            getattr(self._inner.matcher, "generation", 0),
        )
        if not force and self._published_for == stamp_key:
            return
        plane = self._make_plane()
        self._publish_seq += 1
        published = publish_plane(
            plane,
            self._publish_seq,
            epoch=stamp_key[0],
            generation=stamp_key[1],
        )
        self._planes[self._publish_seq] = published
        self._plane = plane
        self._stamp = self._publish_seq
        self._published_for = stamp_key
        self._retire_stale()

    def _retire_stale(self) -> None:
        """Unlink images every live worker has moved past."""
        floor = self._stamp
        for handle in getattr(self, "_shards", ()):
            if handle.alive:
                floor = min(floor, handle.last_stamp)
        for stamp in [s for s in self._planes if s < floor]:
            self._planes.pop(stamp).retire()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, index: int, restarts: int = 0) -> _ShardHandle:
        handle = _ShardHandle(index)
        handle.restarts = restarts
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                index,
                self.config.cache_size,
                self._stamp,
                self._planes[self._stamp].name,
            ),
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
        guard = self._inner.resilience
        if guard is not None:
            guard.record_fault("shard_worker", exc)
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
        bucket is served by the inner engine from then on)."""
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
        replacement.worker_cache_hits = handle.worker_cache_hits
        replacement.last_error = handle.last_error
        self._shards[handle.index] = replacement
        self.respawns += 1
        return replacement

    def _call(self, handle: _ShardHandle, message: tuple) -> Any:
        """One request/reply on a worker pipe; raises ``_ShardDead``."""
        try:
            handle.conn.send(message)
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
            guard = self._inner.resilience
            if guard is not None:
                guard.record_fault(reply[1], RuntimeError(reply[2]))
            raise _ShardDead
        return reply[1]

    def _recv_reply(self, handle: _ShardHandle) -> Any:
        """Receive one pending reply (send already happened)."""
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
            guard = self._inner.resilience
            if guard is not None:
                guard.record_fault(reply[1], RuntimeError(reply[2]))
            raise _ShardDead
        return reply[1]

    # -- the serving surface ---------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        """Scalar lookups stay parent-local: one query never amortizes a
        process hop (the same reason the paper batches before
        vectorizing)."""
        return self._inner.lookup(query)

    def lookup_value(self, query: int, default: Any = None) -> Any:
        entry = self.lookup(query)
        return default if entry is None else entry.value

    def _local_resolve(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Degraded path: a dead shard's bucket through the inner engine."""
        self.local_fallback_lookups += len(queries)
        guard = self._inner.resilience
        if guard is not None:
            guard.degraded_lookups += len(queries)
        return self._inner.lookup_batch(queries)

    def _scatter(self, queries: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
        """Partition ``queries`` by owning shard: per shard, its queries
        and their positions in ``queries``.

        The owner comes through a bounded memo: :func:`flow_shard`
        folds a 128-bit key through two splitmix64 rounds, about a
        microsecond of Python, and hot flows repeat.  Scan traffic never
        repeats a query, so the memo is cleared at 65,536 rows instead
        of growing with the attack (as the stream pipeline's flow-bucket
        memo is)."""
        memo = self._owner_memo
        owner_of = memo.get
        n = len(self._shards)
        buckets: list[list[int]] = [[] for _ in range(n)]
        slots: list[list[int]] = [[] for _ in range(n)]
        for i, q in enumerate(queries):
            s = owner_of(q)
            if s is None:
                if len(memo) >= 65_536:
                    memo.clear()
                s = memo[q] = flow_shard(q, n)
            buckets[s].append(q)
            slots[s].append(i)
        return buckets, slots

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Flow-hash scatter, worker walk, index gather, local resolve.

        Workers answer in *leaf indices*; the parent resolves entries
        against its own copy of the published plane, so entry objects
        never cross a process boundary.
        """
        if self._closed:
            return self._inner.lookup_batch(queries)
        self._republish()  # catch direct matcher mutations via the stamp
        n = len(self._shards)
        results: list[Optional[TernaryEntry]] = [None] * len(queries)
        buckets, slots = self._scatter(queries)
        stamp = self._stamp
        name = self._planes[stamp].name
        pending: list[_ShardHandle] = []
        local: list[int] = []  # shard slots served by the fallback
        for s in range(n):
            if not buckets[s]:
                continue
            handle = self._ensure_alive(self._shards[s])
            if handle is None:
                local.append(s)
                continue
            try:
                handle.conn.send(("batch", stamp, name, buckets[s]))
                pending.append(handle)
            except (BrokenPipeError, OSError) as exc:
                self._mark_dead(handle, exc)
                local.append(s)
        best_of = self._plane._leaf_best
        for handle in pending:
            s = handle.index
            try:
                indices, hits = self._recv_reply(handle)
            except _ShardDead:
                local.append(s)
                continue
            handle.last_stamp = stamp
            handle.routed += len(buckets[s])
            handle.worker_cache_hits += hits
            for i, j in zip(slots[s], indices):
                if j >= 0:
                    results[i] = best_of[j]
        for s in local:
            for i, entry in zip(slots[s], self._local_resolve(buckets[s])):
                results[i] = entry
        self.sharded_batches += 1
        self._retire_stale()
        return results

    def replay(
        self, trace: Iterable[int], chunk_size: int = 8192
    ) -> dict[str, Any]:
        """The streaming data-plane path: replay a trace, count verdicts.

        Unlike :meth:`lookup_batch` (which must return per-query
        answers in order), a replay only needs aggregates — so workers
        reply with ``{leaf index: occurrences}`` dictionaries the size
        of the rule set, the parent pipelines (partitioning chunk k+1
        while the workers chew chunk k), and per-query parent work is
        one owner-memo probe and two list appends.  This is the path
        ``bench_shards`` measures and ``palmtrie-repro replay
        --shards N`` serves.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        self._republish()
        n = len(self._shards)
        totals: Counter = Counter()
        queries = 0
        started = time.perf_counter()

        # Workers count in leaf-index space; a dead shard's bucket is
        # resolved by the inner engine, which speaks entries — so the
        # fallback counts land in *verdict value* space and the two are
        # merged at the end.
        fallback_verdicts: Counter = Counter()
        fallback_missed = 0

        def dispatch(buckets: list[list[int]]) -> None:
            nonlocal fallback_missed
            stamp = self._stamp
            name = self._planes[stamp].name
            pending: list[tuple[_ShardHandle, int]] = []
            local: list[int] = []
            for s in range(n):
                if not buckets[s]:
                    continue
                handle = self._ensure_alive(self._shards[s])
                if handle is None:
                    local.append(s)
                    continue
                try:
                    handle.conn.send(("count", stamp, name, buckets[s]))
                    pending.append((handle, s))
                except (BrokenPipeError, OSError) as exc:
                    self._mark_dead(handle, exc)
                    local.append(s)
            for handle, s in pending:
                try:
                    counts, hits = self._recv_reply(handle)
                except _ShardDead:
                    local.append(s)
                    continue
                handle.last_stamp = self._stamp
                handle.routed += len(buckets[s])
                handle.worker_cache_hits += hits
                totals.update(counts)
            for s in local:
                for entry in self._local_resolve(buckets[s]):
                    if entry is None:
                        fallback_missed += 1
                    else:
                        fallback_verdicts[entry.value] += 1

        chunk: list[int] = []
        prepared: Optional[list[list[int]]] = None
        for q in trace:
            chunk.append(q)
            if len(chunk) >= chunk_size:
                if prepared is not None:
                    dispatch(prepared)
                queries += len(chunk)
                prepared = self._scatter(chunk)[0]
                chunk = []
        if chunk:
            if prepared is not None:
                dispatch(prepared)
            queries += len(chunk)
            prepared = self._scatter(chunk)[0]
        if prepared is not None:
            dispatch(prepared)
        seconds = time.perf_counter() - started

        best_of = self._plane._leaf_best
        verdicts: Counter = Counter(fallback_verdicts)
        missed = fallback_missed
        matched = sum(fallback_verdicts.values())
        for j, count in totals.items():
            if j < 0:
                missed += count
            else:
                verdicts[best_of[j].value] += count
                matched += count
        self._retire_stale()
        return {
            "queries": queries,
            "seconds": seconds,
            "qps": queries / seconds if seconds > 0 else 0.0,
            "matched": matched,
            "missed": missed,
            "verdicts": dict(verdicts),
            "shards": len(self._shards),
            "worker_cache_hits": sum(h.worker_cache_hits for h in self._shards),
            "local_fallback_lookups": self.local_fallback_lookups,
        }

    # -- updates (delegate, then swap) -----------------------------------

    def insert(self, entry: TernaryEntry) -> None:
        self._inner.insert(entry)
        self._republish()

    def delete(self, key: Any) -> bool:
        removed = self._inner.delete(key)
        self._republish()
        return removed

    def apply_updates(self, ops: Iterable[Any]) -> Any:
        report = self._inner.apply_updates(ops)
        self._republish()
        return report

    def replace_matcher(self, matcher: Union[TernaryMatcher, Any]) -> None:
        self._inner.replace_matcher(matcher)
        self._republish()

    def refresh(self) -> None:
        self._inner.refresh()
        self._republish()

    def invalidate_all(self) -> int:
        dropped = self._inner.invalidate_all()
        # Force a stamp bump so every worker drops its flow cache too.
        self._republish(force=True)
        return dropped

    def checkpoint(self, path: Any) -> int:
        return self._inner.checkpoint(path)

    def mark_last_good(self, path: Any = None) -> int:
        return self._inner.mark_last_good(path)

    def restore_last_good(self, path: Any = None) -> None:
        # The inner restore swaps through the *inner* replace_matcher,
        # which bypasses the sharded republish — force one so workers
        # remap to the restored plane now, not at the next lazy stamp
        # check (a rollback must not leave workers on the bad plane).
        self._inner.restore_last_good(path)
        self._republish(force=True)

    @classmethod
    def from_checkpoint(
        cls, path: Any, config: Optional[EngineConfig] = None, **kwargs: Any
    ) -> "ShardedEngine":
        config = config if config is not None else DEFAULT_CONFIG
        recovered = ClassificationEngine.from_checkpoint(
            path, config=config.replace(shards=0), **kwargs
        )
        engine = cls(recovered.matcher, config)
        # Carry the recovery provenance across: the sharded facade must
        # report the same restore/rebuild counters and coherence epoch
        # the in-process recovery established, and its workers must
        # republish under the recovered epoch's stamp.
        inner = engine._inner
        inner.checkpoint_restores = recovered.checkpoint_restores
        inner.checkpoint_rebuilds = recovered.checkpoint_rebuilds
        inner.last_recovery = recovered.last_recovery
        inner.epoch = recovered.epoch
        engine._republish(force=True)
        return engine

    # -- health / observability ------------------------------------------

    @property
    def health(self) -> str:
        """Worst of the inner ladder and the worker fleet."""
        inner = self._inner.health
        if inner == "quarantined":
            return inner
        if any(not h.alive for h in self._shards):
            return "degraded"
        return inner

    @property
    def shards_alive(self) -> int:
        return sum(1 for h in self._shards if h.alive)

    def _collect_metrics(self) -> None:
        """Per-shard gauges/counters, labeled ``{"shard": i}`` (runs as
        a registry collector before every export)."""
        registry = self._inner.metrics
        if registry is None:  # pragma: no cover - collector unhooked
            return
        for handle in self._shards:
            labels = {"shard": str(handle.index)}
            registry.gauge(
                "shard_alive", "1 while this shard's worker serves", labels=labels
            ).set(1.0 if handle.alive else 0.0)
            registry.counter(
                "shard_routed_lookups_total",
                "queries routed to this shard by flow hash",
                labels=labels,
            ).set_total(handle.routed)
            registry.counter(
                "shard_worker_cache_hits_total",
                "flow-cache hits reported by this shard's worker",
                labels=labels,
            ).set_total(handle.worker_cache_hits)
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
        summary = self._inner.report()
        current = self._planes.get(self._stamp)
        summary["health"] = self.health
        summary["shards"] = {
            "count": len(self._shards),
            "alive": self.shards_alive,
            "stamp": self._stamp,
            "published_for": self._published_for,
            "published_planes": len(self._planes),
            "plane_bytes": current.size_bytes if current is not None else 0,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "local_fallback_lookups": self.local_fallback_lookups,
            "sharded_batches": self.sharded_batches,
            "workers": self.worker_reports(),
        }
        pipeline = getattr(self, "stream_pipeline", None)
        if pipeline is not None:
            summary["stream"] = pipeline.report()
        return summary

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
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
        for published in self._planes.values():
            published.retire()
        self._planes.clear()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- delegation --------------------------------------------------------

    @property
    def inner(self) -> ClassificationEngine:
        """The in-process engine behind the shard fan-out (control
        plane, fallback tier, stats, metrics, resilience)."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        # Everything not overridden (stats, matcher, epoch, metrics,
        # resilience, enable_metrics, ...) serves from the inner engine.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)
