"""Bounded-queue streaming pipeline with explicit backpressure.

Batch replay gives the engine infinite patience: every packet waits in
a Python list until ``lookup_batch`` gets to it.  A live data plane has
a finite in-flight budget, and what happens when arrivals outrun
service is a *policy decision* this module makes explicit:

``drop``
    Tail drop at admission, the NIC-ring behaviour: an arrival that
    finds the queue full is discarded and counted.  Cheapest, loses
    packets silently downstream.
``block``
    Backpressure the source: the pipeline serves micro-batches until
    there is room, then admits.  Nothing is lost; latency absorbs the
    overload (the TCP-friendly shape).
``shed``
    Load shedding at admission: the overflow packet is answered
    *immediately* with the fail-closed verdict (no match — implicit
    deny) without touching the matcher, and counted.  The firewall
    stance: under attack, refuse cheap rather than answer late.

Every packet's fate is decided by arithmetic over burst sizes, queue
capacity (``max_inflight``) and the per-interval service budget
(``service_quantum``) — no timing races — so shed/drop/block counters
are exactly reproducible from a seeded scenario, which is what lets CI
gate them.

The queue holds *burst segments*, not packets: an admitted chunk of
a burst is one ``[burst, lo, hi, arrival, base]`` item (the packets
``burst[lo:hi]``, stamped ``arrival``, whose verdicts land at
``base + position``), and a packet counter (the backlog) sits beside
the deque.  Capacity, block, drop and shed decisions read that counter,
so admission costs one append per chunk whatever the burst size.  A
burst's chunks share one segment while it is queued, so the queue
never holds more segments than bursts.  Segments reference the
source's list; when a ``service_quantum`` leaves part of a burst
queued, that part is copied into its own list before the source is
asked for the next burst, so a source that refills one buffer in place
cannot change packets already admitted.

Service happens in *adaptive micro-batches*: each cycle drains
``min(backlog, batch_max)`` queries (capped by what is left of the
quantum) from the head segments, splitting the last one if needed,
through the engine's ``lookup_batch`` — one slice of the burst, or the
concatenated slices when the batch spans bursts — and writes the
verdicts back with slice assignment.  A lightly-loaded pipeline serves
single packets at minimum latency and a loaded one amortises the
per-batch overhead across up to ``batch_max`` packets — the classic
interrupt-coalescing trade, made by backlog instead of by timer.

Latency telemetry rides the hot path the way data-plane monitors
(sFlow, P4TG's histogram RTT monitoring) afford it:

* the **pipeline-wide** latency histogram — the one p50/p999 and the
  CI gate read — is *exact* over every served packet, at amortised
  cost: packets of one arrival burst share one latency value, so each
  micro-batch contributes one ``(latency, n)`` observation per burst
  segment, not one per packet;
* the **per-flow bank** (``flow_buckets`` log-bucketed histograms
  indexed by :func:`repro.shard.flow_shard`) *samples* every
  ``flow_sample``-th served packet on a deterministic stride — the
  flow-hash fold per packet is what blows the budget, so attribution
  pays it only on samples (with a per-query memo for the flows that
  repeat);
* a served micro-batch is only *held* (one list append); the
  histograms observe the held batches in one loop every
  ``_FOLD_BATCHES`` batches, at the end of a run and before anything
  reads them, so the per-batch work runs warm instead of between two
  engine calls.

Together they hold the observability plane's <2 % hot-path budget
(``stream_hist_overhead_ratio`` in CI) while keeping the gated
quantiles exact.
"""

from __future__ import annotations

import time
import weakref
from collections import deque
from itertools import repeat
from typing import Any, Callable, Iterable, Optional

from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.timing import safe_rate

__all__ = [
    "DROPPED",
    "POLICIES",
    "StreamReport",
    "StreamPipeline",
    "batch_replay",
]


class _Dropped:
    """Sentinel verdict for packets tail-dropped at admission."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DROPPED"


#: served micro-batches held before the histograms observe them in one
#: loop (see StreamPipeline._fold)
_FOLD_BATCHES = 256

#: verdict recorded for a packet the ``drop`` policy discarded; shed
#: packets record ``None`` (the fail-closed implicit deny they were
#: answered with), served packets record the winning entry.
DROPPED = _Dropped()

#: the admission-overflow policies, in documentation order
POLICIES = ("block", "drop", "shed")

def _admission_rate(count: int, offered: int) -> float:
    """The one definition of an admission-fate rate (dropped/shed over
    offered); both :class:`StreamReport` and the live
    :meth:`StreamPipeline.report` summary route through it so the two
    surfaces cannot drift."""
    return count / offered if offered else 0.0


class StreamReport:
    """Counters and latency summary of one :meth:`StreamPipeline.run`."""

    __slots__ = (
        "policy",
        "offered",
        "admitted",
        "served",
        "dropped",
        "shed",
        "blocked_events",
        "batches",
        "max_backlog",
        "churn_transactions",
        "seconds",
        "latency",
        "verdicts",
    )

    def __init__(self, **fields: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unknown StreamReport fields {sorted(fields)}")

    @property
    def drop_rate(self) -> float:
        return _admission_rate(self.dropped, self.offered)

    @property
    def shed_rate(self) -> float:
        return _admission_rate(self.shed, self.offered)

    @property
    def queries_per_second(self) -> float:
        return safe_rate(self.served, self.seconds)

    def to_dict(self) -> dict[str, Any]:
        """The report as a plain dict (CLI / bench / CI consumption)."""
        return {
            "policy": self.policy,
            "offered": self.offered,
            "admitted": self.admitted,
            "served": self.served,
            "dropped": self.dropped,
            "shed": self.shed,
            "drop_rate": self.drop_rate,
            "shed_rate": self.shed_rate,
            "blocked_events": self.blocked_events,
            "batches": self.batches,
            "max_backlog": self.max_backlog,
            "churn_transactions": self.churn_transactions,
            "seconds": self.seconds,
            "queries_per_second": self.queries_per_second,
            "latency": self.latency,
        }


class StreamPipeline:
    """Streaming front-end over a classification engine.

    ``engine`` is anything serving the engine surface — a
    :class:`~repro.engine.ClassificationEngine` (sharded or not) or a
    tenant.  ``max_inflight`` bounds the
    admission queue (the in-flight budget); ``policy`` picks what an
    overflowing arrival gets (see the module docstring);
    ``service_quantum`` caps how many packets are served per arrival
    interval (None = drain fully between bursts — service always keeps
    up and backpressure only engages when a single burst exceeds
    ``max_inflight``); ``batch_max`` caps the adaptive micro-batch.

    With ``histograms=True`` (default) the pipeline keeps an exact
    pipeline-wide admission-to-completion latency histogram (every
    served packet counted) plus ``flow_buckets`` per-flow histograms
    fed by every ``flow_sample``-th served packet (see the module
    docstring for why attribution samples).  When the engine carries a
    metrics registry (or one is passed), the histograms and stream
    counters are exported through it as ``stream_*`` series
    (docs/observability.md).

    The pipeline attaches a weak reference to itself to the engine as
    ``engine.stream_pipeline`` so ``engine.report()`` can fold the
    stream section in next to the serving counters while the pipeline
    lives.  It is weak so the two form no reference cycle: a dropped
    stack frees its engine, trie and plane at once, not at the next
    full garbage collection.
    """

    def __init__(
        self,
        engine: Any,
        *,
        policy: str = "block",
        max_inflight: int = 1024,
        batch_max: int = 64,
        service_quantum: Optional[int] = None,
        histograms: bool = True,
        flow_buckets: int = 8,
        flow_sample: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if service_quantum is not None and service_quantum < 1:
            raise ValueError(
                f"service_quantum must be >= 1 or None, got {service_quantum}"
            )
        if flow_buckets < 1:
            raise ValueError(f"flow_buckets must be >= 1, got {flow_buckets}")
        if flow_sample < 1:
            raise ValueError(f"flow_sample must be >= 1, got {flow_sample}")
        if not callable(getattr(engine, "lookup_batch", None)):
            raise TypeError(f"{engine!r} has no lookup_batch(); not an engine")
        self.engine = engine
        self.policy = policy
        self.max_inflight = max_inflight
        self.batch_max = batch_max
        self.service_quantum = service_quantum
        self.flow_buckets = flow_buckets
        self.flow_sample = flow_sample
        #: queued burst segments, [burst, lo, hi, arrival, base] each
        #: (see the module docstring); _backlog counts their packets
        self._pending: deque = deque()
        self._backlog = 0
        self._verdicts: Optional[list] = None
        self.last_report: Optional[StreamReport] = None
        self._reset_counters()
        self._latency_hist: Optional[Histogram] = None
        self._flow_hists: Optional[list[Histogram]] = None
        self._flow_shard: Optional[Callable[[int, int], int]] = None
        #: query -> flow bucket memo (bounded; see _serve_batch)
        self._shard_cache: dict[int, int] = {}
        #: served-packet counter driving the per-flow sampling stride
        self._sample_tick = 0
        registry = metrics if metrics is not None else getattr(engine, "metrics", None)
        if histograms:
            from ..shard.engine import flow_shard

            self._flow_shard = flow_shard
            if registry is not None:
                self._latency_hist = registry.histogram(
                    "stream_latency_seconds",
                    "Admission-to-completion latency over every served packet.",
                )
                self._flow_hists = [
                    registry.histogram(
                        "stream_flow_latency_seconds",
                        "Sampled admission-to-completion latency, by flow-hash bucket.",
                        labels={"flow_bucket": str(bucket)},
                    )
                    for bucket in range(flow_buckets)
                ]
            else:
                self._latency_hist = Histogram("stream_latency_seconds")
                self._flow_hists = [
                    Histogram(
                        "stream_flow_latency_seconds",
                        labels={"flow_bucket": str(bucket)},
                    )
                    for bucket in range(flow_buckets)
                ]
        #: served batches whose latencies _fold has yet to observe, as
        #: (completion time, runs, queries)
        self._held: list[tuple[float, list, list]] = []
        self._registry = registry
        if registry is not None:
            registry.add_collector(self._sync_metrics)
        # engine.report() folds this in as its "stream" section
        try:
            engine.stream_pipeline = weakref.ref(self)
        except AttributeError:  # pragma: no cover - exotic engine duck types
            pass

    # -- counters ---------------------------------------------------------

    def _reset_counters(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.served = 0
        self.dropped = 0
        self.shed = 0
        self.blocked_events = 0
        self.batches = 0
        self.max_backlog = 0
        self.churn_transactions = 0
        self.elapsed_seconds = 0.0
        self._pending.clear()
        self._backlog = 0

    def _sync_metrics(self) -> None:
        """Registry collector mirroring the stream counters at export
        time (same pull-over-push contract as the engine instruments).
        The registry holds it weakly, so a shared registry does not keep
        the pipeline (and its engine) alive."""
        registry = self._registry
        self._fold()
        counter = registry.counter
        counter(
            "stream_packets_total", "Packets offered to the pipeline, by fate.",
            labels={"fate": "served"},
        ).set_total(self.served)
        counter(
            "stream_packets_total", "Packets offered to the pipeline, by fate.",
            labels={"fate": "dropped"},
        ).set_total(self.dropped)
        counter(
            "stream_packets_total", "Packets offered to the pipeline, by fate.",
            labels={"fate": "shed"},
        ).set_total(self.shed)
        counter(
            "stream_blocked_events_total",
            "Admissions that had to wait for service (block policy).",
        ).set_total(self.blocked_events)
        counter(
            "stream_batches_total", "Micro-batches dispatched to the engine."
        ).set_total(self.batches)
        counter(
            "stream_churn_transactions_total",
            "Scenario churn transactions applied at burst boundaries.",
        ).set_total(self.churn_transactions)
        registry.gauge(
            "stream_backlog", "Packets currently queued in the pipeline."
        ).set(self._backlog)
        registry.gauge(
            "stream_max_backlog", "High-water mark of the admission queue."
        ).set(self.max_backlog)
        registry.gauge(
            "stream_max_inflight", "Admission queue capacity (packets)."
        ).set(self.max_inflight)

    # -- the serving loop -------------------------------------------------

    def _serve_batch(self, limit: Optional[int] = None) -> int:
        """Drain one adaptive micro-batch from the head segments; returns
        packets served."""
        n = self._backlog
        if n > self.batch_max:
            n = self.batch_max
        if limit is not None and limit < n:
            n = limit
        if n <= 0:
            return 0
        pending = self._pending
        # Gather: whole head segments pop, the last one taken may split.
        # runs holds (arrival, first verdict index, count) per segment.
        queries: list = []
        runs = []
        need = n
        while need:
            segment = pending[0]
            burst, lo, hi, arrival, base = segment
            take = hi - lo
            if take > need:
                take = need
                segment[1] = lo + take
            else:
                pending.popleft()
            queries += burst[lo : lo + take]
            runs.append((arrival, base + lo, take))
            need -= take
        self._backlog -= n
        results = self.engine.lookup_batch(queries)
        done = time.perf_counter()
        self.batches += 1
        self.served += n
        verdicts = self._verdicts
        if verdicts is not None:
            pos = 0
            for _arrival, first, count in runs:
                verdicts[first : first + count] = results[pos : pos + count]
                pos += count
        if self._latency_hist is not None:
            held = self._held
            held.append((done, runs, queries))
            if len(held) >= _FOLD_BATCHES:
                self._fold()
        return n

    def _fold(self) -> None:
        """Observe the batches :meth:`_serve_batch` holds: one
        observation per segment in the pipeline-wide histogram, and
        one per sampled packet in the per-flow bank.  Sampled packets
        are every ``flow_sample``-th served packet (served-packet
        numbers that are multiples of it), so the samples do not depend
        on how batches split."""
        held = self._held
        if not held:
            return
        shard = self._flow_shard
        shard_cache = self._shard_cache
        buckets = self.flow_buckets
        stride = self.flow_sample
        tick = self._sample_tick
        latencies: list[float] = []
        counts: list[int] = []
        sampled: list[list[float]] = [[] for _ in range(buckets)]
        for done, runs, queries in held:
            pos = 0
            for arrival, _first, count in runs:
                latency = done - arrival
                latencies.append(latency)
                counts.append(count)
                offset = (-tick) % stride
                if offset < count:
                    for query in queries[pos + offset : pos + count : stride]:
                        bucket = shard_cache.get(query)
                        if bucket is None:
                            if len(shard_cache) >= 65_536:
                                # Scan traffic never repeats a query; cap
                                # the memo instead of growing with the
                                # attack.
                                shard_cache.clear()
                            bucket = shard_cache[query] = shard(query, buckets)
                        sampled[bucket].append(latency)
                tick += count
                pos += count
        held.clear()
        self._sample_tick = tick
        self._latency_hist.observe_many(latencies, counts)
        for hist, values in zip(self._flow_hists, sampled):
            if values:
                hist.observe_many(values, [1] * len(values))

    def run(
        self,
        source: Iterable[Any],
        *,
        collect_verdicts: bool = False,
        on_burst: Optional[Callable[[int], None]] = None,
    ) -> StreamReport:
        """Stream every burst of ``source`` through the engine.

        ``source`` is a :class:`~repro.stream.source.TrafficSource` (or
        any iterable of query bursts).  ``on_burst(i)`` — typically the
        scenario churn applier — runs before burst ``i`` is admitted,
        so a batch replay calling the same hook at the same boundaries
        sees the identical policy at every packet; a truthy return
        counts as one applied churn transaction.  With
        ``collect_verdicts=True`` the report carries the full verdict
        stream in offered order: the winning entry per served packet,
        ``None`` per shed packet (fail-closed), :data:`DROPPED` per
        dropped packet.

        Counters reset at the top of each run; the report (also kept as
        :attr:`last_report`) describes exactly this run.
        """
        self._reset_counters()
        self._verdicts = [] if collect_verdicts else None
        verdicts = self._verdicts
        pending = self._pending
        policy = self.policy
        capacity = self.max_inflight
        quantum = self.service_quantum
        start = time.perf_counter()
        bursts = source.bursts() if hasattr(source, "bursts") else iter(source)
        for burst_index, burst in enumerate(bursts):
            if on_burst is not None and on_burst(burst_index):
                self.churn_transactions += 1
            arrival = time.perf_counter()
            if not isinstance(burst, list):
                burst = list(burst)
            size = len(burst)
            base = self.offered
            self.offered += size
            if verdicts is not None:
                # Placeholders; service overwrites the admitted ones.
                verdicts.extend(repeat(DROPPED, size))
            done = 0
            while done < size:
                room = capacity - self._backlog
                if room <= 0:
                    if policy == "block":
                        # Backpressure: serve until there is room.
                        self.blocked_events += 1
                        while self._backlog >= capacity:
                            self._serve_batch()
                        continue
                    rest = size - done
                    if policy == "drop":
                        self.dropped += rest
                    else:
                        # shed: fail closed without touching the matcher,
                        # answered "no match" (implicit deny).
                        self.shed += rest
                        if verdicts is not None:
                            verdicts[base + done :] = repeat(None, rest)
                    break
                take = min(room, size - done)
                if pending and pending[-1][0] is burst:
                    # This burst's previous chunk is still queued and
                    # ends where this one starts: one segment per burst.
                    pending[-1][2] += take
                else:
                    pending.append([burst, done, done + take, arrival, base])
                self._backlog += take
                self.admitted += take
                done += take
            if self._backlog > self.max_backlog:
                self.max_backlog = self._backlog
            if quantum is None:
                # Unlimited service drains fully in batch_max steps.
                while pending:
                    self._serve_batch()
            else:
                budget = quantum
                while pending and budget > 0:
                    budget -= self._serve_batch(budget)
                if pending and pending[-1][0] is burst:
                    # This burst's leftovers (its one segment, the tail)
                    # still reference the source's list, which the
                    # source may refill in place for the next burst:
                    # give them their own copy.
                    tail = pending[-1]
                    lo, hi = tail[1], tail[2]
                    tail[0], tail[1], tail[2], tail[4] = burst[lo:hi], 0, hi - lo, tail[4] + lo
        # Flush: the stream ended; whatever queued still gets answered.
        while pending:
            self._serve_batch()
        self._fold()
        self.elapsed_seconds = time.perf_counter() - start
        report = StreamReport(
            policy=policy,
            offered=self.offered,
            admitted=self.admitted,
            served=self.served,
            dropped=self.dropped,
            shed=self.shed,
            blocked_events=self.blocked_events,
            batches=self.batches,
            max_backlog=self.max_backlog,
            churn_transactions=self.churn_transactions,
            seconds=self.elapsed_seconds,
            latency=self.latency_quantiles(),
            verdicts=verdicts,
        )
        self._verdicts = None
        self.last_report = report
        return report

    # -- latency ----------------------------------------------------------

    def latency_quantiles(self) -> Optional[dict[str, float]]:
        """p50/p90/p99/p999 over every served packet (the exact
        pipeline-wide histogram); None while histograms are disabled."""
        hist = self._latency_hist
        if hist is None:
            return None
        self._fold()
        return hist.quantiles()

    def flow_latency_quantiles(self) -> Optional[list[dict[str, float]]]:
        """Per-flow-bucket quantiles (sampled; see the module
        docstring), indexed by flow-hash bucket."""
        hists = self._flow_hists
        if hists is None:
            return None
        self._fold()
        return [hist.quantiles() for hist in hists]

    def _merged_histogram(self) -> Optional[Histogram]:
        """The exact pipeline-wide latency histogram (every served
        packet counted once); None while histograms are disabled."""
        if self._latency_hist is not None:
            self._fold()
        return self._latency_hist

    # -- observability ----------------------------------------------------

    def report(self) -> dict[str, Any]:
        """The stream section ``engine.report()`` folds in."""
        summary: dict[str, Any] = {
            "policy": self.policy,
            "max_inflight": self.max_inflight,
            "batch_max": self.batch_max,
            "service_quantum": self.service_quantum,
            "flow_buckets": self.flow_buckets if self._flow_hists else 0,
            "offered": self.offered,
            "admitted": self.admitted,
            "served": self.served,
            "dropped": self.dropped,
            "shed": self.shed,
            "drop_rate": _admission_rate(self.dropped, self.offered),
            "shed_rate": _admission_rate(self.shed, self.offered),
            "blocked_events": self.blocked_events,
            "batches": self.batches,
            "backlog": self._backlog,
            "max_backlog": self.max_backlog,
            "churn_transactions": self.churn_transactions,
        }
        latency = self.latency_quantiles()
        if latency is not None:
            summary["latency"] = latency
        return summary


def batch_replay(
    engine: Any,
    source: Iterable[Any],
    *,
    on_burst: Optional[Callable[[int], None]] = None,
) -> list:
    """Replay ``source`` through ``engine`` the batch way: one
    ``lookup_batch`` per burst, no queue, no policy.  ``on_burst`` runs
    at the same boundaries :meth:`StreamPipeline.run` honours, so the
    returned verdict stream is the ground truth the streaming
    differential gate compares against.
    """
    verdicts: list = []
    bursts = source.bursts() if hasattr(source, "bursts") else iter(source)
    for burst_index, burst in enumerate(bursts):
        if on_burst is not None:
            on_burst(burst_index)
        verdicts.extend(engine.lookup_batch(list(burst)))
    return verdicts
