"""Zero-dependency metric primitives: counters, gauges, histograms.

The paper's evaluation (§4) is a story about distributions — lookup
rates, per-lookup work counts — and the serving layer built in PRs 1-3
only exposed coarse totals.  This module is the in-process half of the
observability plane: cheap enough to leave enabled in the hot path's
*owner* (the engine observes once per batch, never per query), rich
enough to answer "what was p99 batch latency during that churn?".

Design points, all in service of the <2 % instrumentation budget
(docs/observability.md):

* **Pull over push.**  Counters that already exist as plain engine /
  app attributes are *mirrored* into the registry by collector
  callbacks at export time (:meth:`MetricsRegistry.collect`), so the
  hot path pays nothing for them — no wrapper objects, no extra
  increments.
* **Histograms are log-bucketed.**  Latencies span five orders of
  magnitude; geometric (factor-2) buckets give constant relative error
  with a few dozen slots, and quantiles interpolate inside the bucket.
* **Weighted observations.**  A batch of N queries lands as one
  ``observe(seconds / N, count=N)`` — one bisect per batch, not N.

Everything here is pure stdlib; ``repro.core`` never imports it, so
the matchers stay dependency-free in both directions.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from types import MethodType
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "COUNTER_WIDTH",
    "DEFAULT_LATENCY_BUCKETS",
    "geometric_buckets",
]

#: Prometheus metric-name grammar (we do not use the colon forms).
_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
#: Prometheus label-name grammar.
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: counters wrap modulo 2**COUNTER_WIDTH, like the uint64 counters of
#: the hardware pipelines (P4 registers, NIC stats) they mirror.
COUNTER_WIDTH = 64
_COUNTER_WRAP = 1 << COUNTER_WIDTH

LabelPairs = tuple[tuple[str, str], ...]


def geometric_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds: start, start*factor, ...

    The standard latency-histogram shape: constant *relative*
    resolution across orders of magnitude.
    """
    if start <= 0:
        raise ValueError(f"bucket start must be > 0, got {start}")
    if factor <= 1:
        raise ValueError(f"bucket factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"bucket count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: 1 µs .. ~8.4 s in factor-2 steps — covers a sub-microsecond cache
#: hit through a multi-second refreeze in 24 buckets.
DEFAULT_LATENCY_BUCKETS = geometric_buckets(1e-6, 2.0, 24)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_pairs(labels: Optional[dict[str, str]]) -> LabelPairs:
    """Normalise a label dict to a sorted, hashable identity."""
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_RE.match(key or ""):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Metric:
    """Common identity: name, help text, label pairs, kind string."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str = "", labels: Optional[dict[str, str]] = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels: LabelPairs = _label_pairs(labels)

    @property
    def key(self) -> tuple[str, LabelPairs]:
        return (self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{pairs}}}>"


class Counter(Metric):
    """Monotonic event count, wrapping at 2**64 like a hardware stat.

    ``inc`` is the push interface; ``set_total`` is the pull interface
    used by collectors that mirror an externally-maintained total (the
    engine's ``stats.lookups``, an app's verdict counts) — it may move
    the value backwards only when the source was reset, which is the
    same contract scrape-based monitoring already handles via counter
    resets.
    """

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", labels: Optional[dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self._value = (self._value + amount) % _COUNTER_WRAP

    def set_total(self, total: int) -> None:
        """Mirror an externally-maintained running total."""
        if total < 0:
            raise ValueError(f"counter totals must be >= 0, got {total}")
        self._value = total % _COUNTER_WRAP

    def reset(self) -> None:
        self._value = 0


class Gauge(Metric):
    """A value that can go up and down (cache occupancy, rule count)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", labels: Optional[dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def reset(self) -> None:
        self._value = 0.0


class Histogram(Metric):
    """Fixed-bucket histogram with interpolated quantiles.

    ``buckets`` is the sequence of finite upper bounds (ascending); an
    implicit +Inf bucket catches the overflow.  ``observe(value, n)``
    records ``n`` observations of ``value`` with one bisect — the
    batch-amortised form the engine uses (mean per-query latency,
    weighted by batch size).

    Quantile estimates interpolate linearly inside the winning bucket
    and are exact at bucket boundaries; with factor-``f`` geometric
    buckets the estimate is within a factor of ``f`` of the true
    sample quantile.  Estimates in the overflow bucket clamp to the
    largest finite bound (there is no upper edge to interpolate
    toward).
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds}")
        self.bounds = bounds
        #: per-bucket counts; index len(bounds) is the +Inf overflow
        self.bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one bisect)."""
        if count <= 0:
            return
        self.bucket_counts[bisect_left(self.bounds, value)] += count
        self._sum += value * count
        self._count += count

    def observe_many(self, values: Sequence[float], counts: Sequence[int]) -> None:
        """Record ``counts[i]`` observations of ``values[i]`` for every
        ``i``: the bulk form of :meth:`observe`, for an owner that holds
        its observations and folds them in one loop."""
        buckets = self.bucket_counts
        bounds = self.bounds
        total = 0
        weighted = 0.0
        for value, count in zip(values, counts):
            if count > 0:
                buckets[bisect_left(bounds, value)] += count
                total += count
                weighted += value * count
        self._sum += weighted
        self._count += total

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last —
        exactly the shape Prometheus ``_bucket{le=...}`` series take."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self._count
        if total == 0:
            return float("nan")
        target = q * total
        if target < 1.0:
            target = 1.0
        running = 0
        lower = 0.0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if bucket and running + bucket >= target:
                fraction = (target - running) / bucket
                return lower + fraction * (bound - lower)
            running += bucket
            lower = bound
        # Overflow bucket: no finite upper edge to interpolate toward.
        return self.bounds[-1]

    def quantiles(self, qs: Iterable[float] = (0.5, 0.9, 0.99, 0.999)) -> dict[str, float]:
        """The standard summary: ``{"p50": ..., "p90": ..., ...}``."""
        out: dict[str, float] = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "")
            out[label] = self.quantile(q)
        return out

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0


def quantile_ratios(
    candidate: Histogram,
    baseline: Histogram,
    qs: Iterable[float] = (0.99, 0.999),
) -> dict[str, float]:
    """Candidate-over-baseline ratio per quantile (``{"p99": 1.07,
    ...}``) — the latency-delta primitive the rollout SLO guards gate
    on.  A baseline quantile of zero (empty histogram) yields a ratio
    of 0.0 rather than a division error: with no baseline evidence the
    guard must not trip on noise.
    """
    got = candidate.quantiles(qs)
    want = baseline.quantiles(qs)
    return {
        label: (got[label] / want[label] if want[label] > 0.0 else 0.0)
        for label in got
    }


class MetricsRegistry:
    """Get-or-create home for one process's (or one engine's) metrics.

    Metric identity is ``(name, labels)``; re-requesting an existing
    identity returns the same object, and requesting an existing name
    with a different kind raises.  ``namespace`` is prepended (with an
    underscore) to every name at export time, never stored on the
    metric itself.

    *Collectors* are zero-argument callables run at the top of
    :meth:`collect` (and therefore of every export).  They are how
    existing plain-attribute counters — engine stats, app verdict
    counts, frozen-plane work counters — get mirrored in without any
    hot-path cost: the sync happens at scrape time, not per packet.
    """

    def __init__(self, namespace: str = "palmtrie") -> None:
        if namespace:
            _check_name(namespace)
        self.namespace = namespace
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}
        #: one reference per collector: calling it returns the collector,
        #: or None once a bound method's owner is gone
        self._collectors: list[Callable[[], Optional[Callable[[], None]]]] = []

    # -- registration ---------------------------------------------------

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Optional[dict[str, str]],
        **kwargs: Any,
    ) -> Any:
        key = (name, _label_pairs(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = cls(name, help, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[dict[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[dict[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[dict[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str, labels: Optional[dict[str, str]] = None) -> Optional[Metric]:
        return self._metrics.get((name, _label_pairs(labels)))

    # -- collection -----------------------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every collect/export.

        A bound method is held weakly (:class:`weakref.WeakMethod`), so
        a shared registry does not keep its owner (an engine, an app, a
        pipeline) alive; the next collect after the owner is gone drops
        it.
        """
        if any(ref() == collector for ref in self._collectors):
            return
        if isinstance(collector, MethodType):
            self._collectors.append(weakref.WeakMethod(collector))
        else:
            self._collectors.append(lambda: collector)

    def collect(self) -> list[Metric]:
        """Run collectors, then return every metric sorted by identity."""
        kept = []
        for ref in self._collectors:
            collector = ref()
            if collector is not None:
                collector()
                kept.append(ref)
        self._collectors = kept
        return sorted(self._metrics.values(), key=lambda m: m.key)

    def reset(self) -> None:
        """Zero every metric (collectors stay registered)."""
        for metric in self._metrics.values():
            metric.reset()  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Any:
        return iter(self._metrics.values())
