"""Serving-path benchmark — the ClassificationEngine's flow cache.

Real traffic is flow-heavy: a few elephant flows dominate any interval.
This benchmark replays a Zipf-distributed trace (fixed flow population,
heavy-tailed popularity) and compares

* the uncached scalar path (``matcher.lookup`` per packet),
* the engine with a warm flow cache (scalar and batched),

across matcher kinds.  The acceptance bar: on skewed traffic the warm
cache must beat uncached scalar lookup — the structure walk is skipped
for every repeated header.

``main()`` prints the full comparison table; ``main(smoke=True)`` is
the CI entry point (one kind, small trace, asserts the speedup).

Gate.  ``engine_cache_speedup`` is the warm engine's scalar rate over
uncached ``MultibitPalmtrie.lookup`` on the Palmtrie_8 the engine
serves (floor 5.0 in ``BENCH_baseline.json``; the gate fails below
4.0).  Each arm keeps its fastest of five interleaved passes.  Over
20 smoke runs, each in a fresh process on a shared 2-core x86 Xeon
(Python 3.11), it read 6.11-11.34 (median 6.61).  With one pass per
arm, 2 of 27 runs on the same machine fell to 2.3 and 2.7.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.bench.harness import clamp_seconds, safe_rate
from repro.core import MultibitPalmtrie
from repro.config import EngineConfig
from repro.engine import ClassificationEngine
from repro.obs.timing import best_of_attempts_ratio
from repro.workloads.traffic import zipf_trace

#: flows in the Zipf population; far fewer than packets, as in real traces
FLOWS = 64


@pytest.fixture(scope="module")
def zipf_setup(campus):
    queries = zipf_trace(campus.entries, 600, flows=FLOWS)
    matcher = MultibitPalmtrie.build(campus.entries, KEY_LENGTH, stride=8)
    engine = ClassificationEngine(matcher, EngineConfig(cache_size=4 * FLOWS))
    engine.lookup_batch(queries)  # warm the cache before timing
    return matcher, engine, queries


def test_uncached_scalar_lookup(benchmark, zipf_setup):
    matcher, _engine, queries = zipf_setup
    benchmark(run_queries, matcher, queries)


def test_engine_cached_scalar(benchmark, zipf_setup):
    _matcher, engine, queries = zipf_setup
    benchmark(run_queries, engine, queries)


def test_engine_cached_batch(benchmark, zipf_setup):
    _matcher, engine, queries = zipf_setup
    benchmark(engine.lookup_batch, queries)


def test_warm_cache_beats_uncached_scalar(zipf_setup):
    """The acceptance criterion, asserted: warm-cache engine lookups
    resolve the Zipf trace faster than walking the structure per packet."""
    import timeit

    matcher, engine, queries = zipf_setup
    uncached = timeit.timeit(lambda: run_queries(matcher, queries), number=3)
    cached = timeit.timeit(lambda: run_queries(engine, queries), number=3)
    assert engine.cache_hit_ratio > 0.5  # the trace is genuinely skewed
    assert cached < uncached


def test_engine_agrees_with_matcher(zipf_setup):
    matcher, engine, queries = zipf_setup
    for query, got in zip(queries, engine.lookup_batch(queries)):
        expected = matcher.lookup(query)
        assert (expected and expected.priority) == (got and got.priority)


def _metrics_overhead_ratio(
    acl, queries, rounds: int = 7, attempts: int = 5, early_stop: float = 0.985
) -> float:
    """Enabled-over-disabled lookup rate on the batched serving path.

    Two warmed engines over identical matchers, timed with
    :func:`repro.obs.timing.best_of_attempts_ratio` (interleaved arms,
    best of ``attempts``; one attempt sits inside the host's
    multi-second noise phases, +/-5 % between *identical* engines,
    measured).  A ratio of 1.0 means instrumentation is free; the
    enforced budget is 0.98 (docs/observability.md).
    """
    disabled = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH),
        EngineConfig(cache_size=4 * FLOWS),
    )
    enabled = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH),
        EngineConfig(cache_size=4 * FLOWS, metrics=True),
    )
    disabled.lookup_batch(queries)  # warm both caches before timing
    enabled.lookup_batch(queries)
    return best_of_attempts_ratio(
        lambda: disabled.lookup_batch(queries),
        lambda: enabled.lookup_batch(queries),
        rounds=rounds,
        attempts=attempts,
        number=3,
        early_stop=early_stop,
    )


def _guard_overhead_ratio(
    acl,
    queries,
    shadow_sample: float = 0.0,
    rounds: int = 9,
    attempts: int = 5,
    early_stop: float = 0.985,
) -> float:
    """Guarded-over-unguarded lookup rate on the batched serving path.

    Same estimator as :func:`_metrics_overhead_ratio`.  The
    healthy-path cost of the resilience plane is a handful of
    ``is None`` tests per batch, so the enforced budget is the same
    0.98 (docs/resilience.md).  With ``shadow_sample`` > 0 the guarded
    engine also cross-checks that fraction of answers against the
    linear-scan reference (``guard_shadow_overhead_ratio``).
    """
    from repro.resilience.guard import GuardRail

    plain = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH),
        EngineConfig(cache_size=4 * FLOWS),
    )
    guarded = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH),
        EngineConfig(
            cache_size=4 * FLOWS, resilience=GuardRail(shadow_sample=shadow_sample)
        ),
    )
    plain.lookup_batch(queries)  # warm both caches before timing
    guarded.lookup_batch(queries)
    return best_of_attempts_ratio(
        lambda: plain.lookup_batch(queries),
        lambda: guarded.lookup_batch(queries),
        rounds=rounds,
        attempts=attempts,
        number=10,
        early_stop=early_stop,
    )


def main(smoke: bool = False) -> dict[str, float]:
    """Run the comparison; returns the smoke-ratio metrics the unified
    ``benchmarks/run_smokes.py`` records in the perf trajectory."""
    import timeit

    from repro.bench.report import Table, format_rate
    from repro.core.frozen import FrozenMatcher
    from repro.workloads.campus import campus_acl

    acl = campus_acl(2 if smoke else 4)
    # The engine takes a Palmtrie_k (its frozen plane serves) or a plane.
    kinds = {"palmtrie": MultibitPalmtrie}
    if not smoke:
        kinds["frozen"] = FrozenMatcher
    count = 2_000 if smoke else 10_000
    queries = zipf_trace(acl.entries, count, flows=FLOWS)
    table = Table(
        f"Zipf trace ({count} packets, {FLOWS} flows): uncached vs flow cache",
        ["matcher", "uncached", "engine (warm)", "batched", "hit ratio"],
    )
    metrics: dict[str, float] = {}
    for kind, cls in kinds.items():
        matcher = cls.build(acl.entries, KEY_LENGTH)
        engine = ClassificationEngine(matcher, EngineConfig(cache_size=4 * FLOWS))
        engine.lookup_batch(queries)  # warm
        # Fastest of five interleaved passes per arm: one pass of the
        # warm engine lasts about a millisecond, so a single scheduler
        # stall, or a drift in machine speed between arms, can swamp it.
        arms = (
            lambda: run_queries(matcher, queries),
            lambda: run_queries(engine, queries),
            lambda: engine.lookup_batch(queries),
        )
        best = [float("inf")] * len(arms)
        for _ in range(5):
            for arm, run in enumerate(arms):
                best[arm] = min(best[arm], timeit.timeit(run, number=1))
        uncached, cached, batched = best
        table.add_row(
            kind,
            format_rate(safe_rate(count, uncached)),
            format_rate(safe_rate(count, cached)),
            format_rate(safe_rate(count, batched)),
            f"{100 * engine.cache_hit_ratio:.1f} %",
        )
        if kind == "palmtrie":
            metrics["engine_cache_speedup"] = clamp_seconds(uncached) / clamp_seconds(cached)
        if smoke and cached >= uncached:
            raise SystemExit(
                f"flow cache regression: warm engine ({cached:.3f} s) not "
                f"faster than uncached scalar ({uncached:.3f} s) on {kind}"
            )
    print(table.render())
    if smoke:
        overhead = _metrics_overhead_ratio(acl, queries)
        metrics["metrics_overhead_ratio"] = overhead
        if overhead < 0.98:
            raise SystemExit(
                f"instrumentation overhead regression: metrics-enabled engine "
                f"runs at {overhead:.3f}x the disabled rate (budget >= 0.98x)"
            )
        guard = _guard_overhead_ratio(acl, queries)
        metrics["guard_overhead_ratio"] = guard
        if guard < 0.98:
            raise SystemExit(
                f"resilience overhead regression: guarded engine runs at "
                f"{guard:.3f}x the unguarded rate on the healthy path "
                f"(budget >= 0.98x)"
            )
        shadow = _guard_overhead_ratio(acl, queries, shadow_sample=0.001)
        metrics["guard_shadow_overhead_ratio"] = shadow
        print(
            f"engine smoke benchmark: warm cache beats uncached scalar; "
            f"metrics-enabled rate {overhead:.3f}x disabled, guarded rate "
            f"{guard:.3f}x unguarded (budgets >= 0.98x); guarded rate with "
            f"shadow_sample=0.001 {shadow:.3f}x unguarded"
        )
    return metrics


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv)
