"""Measurement harness.

Mirrors the paper's methodology (§4): repeatedly call the lookup
function with a traffic pattern, count lookups per interval, report the
mean rate and standard deviation over the samples.  The paper runs 30
samples of 10 seconds; the sample count and interval come from the
active :class:`~repro.bench.scale.Scale`.

Because pure-Python wall-clock rates are interpreter-dominated, every
measurement also records deterministic per-lookup work counts (node
visits, key comparisons) via the matchers' ``profile_lookup``, so the
algorithmic comparison is visible independently of CPython overhead.

:func:`measure_engine_rate` does the same for a
:class:`~repro.engine.ClassificationEngine`, additionally reporting the
flow-cache hit ratio and batch throughput of the serving path.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.table import TernaryMatcher
from ..engine import ClassificationEngine

# Canonical timer helpers live in the zero-dependency repro.obs.timing
# (the engine imports them too); re-exported here because the harness
# is the benchmarks' shared entry point for rate math.  Dividing a
# work count by raw elapsed time reports 0 (or raises) when the work
# finished between two clock ticks — always go through safe_rate.
from ..obs.timing import TIMER_RESOLUTION, clamp_seconds, safe_rate

__all__ = [
    "LookupMeasurement",
    "EngineMeasurement",
    "measure_lookup_rate",
    "measure_engine_rate",
    "measure_build",
    "BuildMeasurement",
    "TIMER_RESOLUTION",
    "clamp_seconds",
    "safe_rate",
]


@dataclass
class LookupMeasurement:
    """One lookup-rate measurement (paper's Mlps plots, scaled)."""

    matcher: str
    lookups_per_second: float
    stddev: float
    samples: list[float] = field(default_factory=list)
    node_visits_per_lookup: float = 0.0
    key_comparisons_per_lookup: float = 0.0

    @property
    def mega_lookups_per_second(self) -> float:
        return self.lookups_per_second / 1e6


def measure_lookup_rate(
    matcher: TernaryMatcher,
    queries: Sequence[int],
    min_duration: float = 0.1,
    samples: int = 3,
) -> LookupMeasurement:
    """Measure sustained lookup rate over the query stream.

    Each sample loops the whole query list until ``min_duration`` has
    elapsed and records lookups/second; the result aggregates the
    samples like the paper's 30 x 10 s intervals.
    """
    if not queries:
        raise ValueError("cannot measure with an empty query stream")
    lookup = matcher.lookup
    rates = []
    for _ in range(max(1, samples)):
        done = 0
        start = time.perf_counter()
        deadline = start + min_duration
        while True:
            for query in queries:
                lookup(query)
            done += len(queries)
            now = time.perf_counter()
            if now >= deadline:
                break
        rates.append(safe_rate(done, now - start))
    counted = getattr(matcher, "profile_lookup", None)
    visits = comparisons = 0.0
    if counted is not None:
        matcher.stats.reset()
        for query in queries:
            counted(query)
        per = matcher.stats.per_lookup()
        visits = per["node_visits"]
        comparisons = per["key_comparisons"]
    return LookupMeasurement(
        matcher=matcher.name,
        lookups_per_second=statistics.fmean(rates),
        stddev=statistics.pstdev(rates) if len(rates) > 1 else 0.0,
        samples=rates,
        node_visits_per_lookup=visits,
        key_comparisons_per_lookup=comparisons,
    )


@dataclass
class EngineMeasurement:
    """One engine-path measurement: batched lookups through the flow cache."""

    matcher: str
    lookups_per_second: float
    stddev: float
    cache_hit_ratio: float
    batch_size: int
    samples: list[float] = field(default_factory=list)

    @property
    def mega_lookups_per_second(self) -> float:
        return self.lookups_per_second / 1e6


def measure_engine_rate(
    engine: ClassificationEngine,
    queries: Sequence[int],
    batch_size: int = 32,
    min_duration: float = 0.1,
    samples: int = 3,
) -> EngineMeasurement:
    """Measure the serving path: the query stream is replayed through
    :meth:`~repro.engine.ClassificationEngine.lookup_batch` in bursts of
    ``batch_size``, with the flow cache warm after the first pass.

    The reported hit ratio covers the whole run (including the cold
    first pass), matching what an operator reads off a long-running box.
    """
    if not queries:
        raise ValueError("cannot measure with an empty query stream")
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    batches = [
        list(queries[i : i + batch_size]) for i in range(0, len(queries), batch_size)
    ]
    engine.reset_stats()
    rates = []
    for _ in range(max(1, samples)):
        done = 0
        start = time.perf_counter()
        deadline = start + min_duration
        while True:
            for batch in batches:
                engine.lookup_batch(batch)
            done += len(queries)
            now = time.perf_counter()
            if now >= deadline:
                break
        rates.append(safe_rate(done, now - start))
    return EngineMeasurement(
        matcher=engine.name,
        lookups_per_second=statistics.fmean(rates),
        stddev=statistics.pstdev(rates) if len(rates) > 1 else 0.0,
        cache_hit_ratio=engine.cache_hit_ratio,
        batch_size=batch_size,
        samples=rates,
    )


@dataclass
class BuildMeasurement:
    """One build-time measurement (paper Fig. 11 / Table 5)."""

    label: str
    seconds: float
    result: object = None


def measure_build(label: str, builder: Callable[[], object]) -> BuildMeasurement:
    """Time one data-structure construction.

    The collector runs once before the timed call and is off during it,
    so a full collection of earlier garbage cannot land inside one
    cell; its prior state comes back even when ``builder`` raises.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = builder()
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return BuildMeasurement(label=label, seconds=seconds, result=result)
