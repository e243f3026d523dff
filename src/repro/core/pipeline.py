"""Software-pipelined batch lookup (paper §4.3 future work).

The paper closes its lookup evaluation by pointing at "a software
pipelining technique [2]" — the author's own coroutine-based Deep
Pipelining (NetSoft 2019) — as the way to hide memory latency behind
concurrent traversals.  The idea: run B lookups as coroutines and
round-robin between them at every memory access, so while one lookup
waits on a cache miss the CPU advances the others.

This module implements that execution model for Palmtrie+.  Each lookup
is a generator that yields once per node visit (the would-be memory
stall point); :class:`PipelinedLookup` interleaves a batch of them.  In
CPython the switch overhead eats the benefit — the point here is the
*model*: the scheduler records how many stall slots were overlapped,
and the cache cost model (``repro.bench.costmodel``) can translate that
into the latency-hiding speedup a C implementation would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .plus import PalmtriePlus, _PlusLeaf
from .table import TernaryEntry

__all__ = ["PipelinedLookup", "PipelineStats"]

#: sentinel yielded once per node visit (distinct from a None result)
_VISIT = object()


@dataclass
class PipelineStats:
    """Counters of one pipelined batch run."""

    lookups: int = 0
    #: total node visits (= memory touches) across all lookups
    visits: int = 0
    #: scheduler steps where >= 2 lookups were in flight: a stall slot
    #: whose latency a hardware pipeline would overlap with other work
    overlapped_visits: int = 0

    @property
    def overlap_fraction(self) -> float:
        """Fraction of memory touches that had concurrent work available."""
        return self.overlapped_visits / self.visits if self.visits else 0.0


class PipelinedLookup:
    """Batch lookups over a Palmtrie+ with round-robin interleaving.

    Duck-types enough of the :class:`~repro.core.table.TernaryMatcher`
    surface (``lookup``, ``insert``, ``delete``, ``key_length``) that
    :class:`repro.engine.ClassificationEngine` can wrap it; scalar
    calls and updates delegate to the underlying Palmtrie+.
    """

    name = "pipelined"

    def __init__(self, matcher: PalmtriePlus, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.matcher = matcher
        self.batch_size = batch_size
        self.stats = PipelineStats()

    # -- matcher surface (delegated) -----------------------------------

    @property
    def key_length(self) -> int:
        return self.matcher.key_length

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        return self.matcher.lookup(query)

    def insert(self, entry: TernaryEntry) -> None:
        self.matcher.insert(entry)

    def delete(self, key) -> bool:
        return self.matcher.delete(key)

    def __len__(self) -> int:
        return len(self.matcher)

    # ------------------------------------------------------------------

    def _lookup_coroutine(self, query: int) -> Iterator[Optional[TernaryEntry]]:
        """One lookup as a coroutine, yielding ``_VISIT`` per node visit
        and finally yielding the result (possibly None).  Mirrors
        Algorithm 3."""
        matcher = self.matcher
        if matcher.stale:
            matcher.compile()
        stride = matcher.stride
        chunk_mask = (1 << stride) - 1
        slots = matcher._ternary_slots
        skipping = matcher.subtree_skipping
        nodes = matcher._nodes
        result: Optional[TernaryEntry] = None
        result_priority = -1
        stack = [matcher._root]
        while stack:
            x = stack.pop()
            if skipping and result_priority > x.max_priority:
                continue
            yield _VISIT  # memory touch: the pipeline switch point
            if type(x) is _PlusLeaf:
                if query & x.care_mask == x.data and x.max_priority > result_priority:
                    result = x.entries[0]
                    result_priority = result.priority
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            bitmap_c = x.bitmap_c
            if (bitmap_c >> i) & 1:
                stack.append(nodes[x.offset_c + (bitmap_c & ((1 << i) - 1)).bit_count()])
            bitmap_t = x.bitmap_t
            if bitmap_t:
                offset_t = x.offset_t
                for h in slots[i]:
                    if (bitmap_t >> h) & 1:
                        stack.append(nodes[offset_t + (bitmap_t & ((1 << h) - 1)).bit_count()])
        yield result

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Resolve all queries, interleaving up to ``batch_size`` at once.

        Results are returned in query order.  ``self.stats`` accumulates
        visit/overlap counters across calls.
        """
        results: list[Optional[TernaryEntry]] = [None] * len(queries)
        pending = list(enumerate(queries))
        pending.reverse()  # pop from the front of the stream
        in_flight: list[tuple[int, Iterator[Optional[TernaryEntry]]]] = []
        stats = self.stats
        stats.lookups += len(queries)
        while pending or in_flight:
            while pending and len(in_flight) < self.batch_size:
                index, query = pending.pop()
                in_flight.append((index, self._lookup_coroutine(query)))
            still_running: list[tuple[int, Iterator[Optional[TernaryEntry]]]] = []
            concurrency = len(in_flight)
            for index, coroutine in in_flight:
                try:
                    step = next(coroutine)
                except StopIteration:  # pragma: no cover - final yield precedes
                    continue
                if step is _VISIT:
                    stats.visits += 1
                    if concurrency > 1:
                        stats.overlapped_visits += 1
                    still_running.append((index, coroutine))
                else:
                    results[index] = step
            in_flight = still_running
        return results
