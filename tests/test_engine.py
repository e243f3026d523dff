"""The serving layer: flow cache, batched lookups, and the unified API.

The load-bearing property is differential: for every matcher kind in
the public registry, the scalar path, the batched path, the cached
engine paths, and the brute-force oracle must all agree — including
after ``insert``/``delete`` on the incremental structures (the cache
must never serve a stale verdict).
"""

from __future__ import annotations

import random
import warnings

import pytest

from helpers import assert_same_result, oracle_lookup, random_entries, table1_entries

from repro import MATCHER_KINDS, ClassificationEngine, EngineConfig, FlowCache, build_matcher
from repro.core.plus import PalmtriePlus
from repro.core.table import TernaryEntry, matcher_kinds
from repro.core.ternary import TernaryKey
from repro.engine import _MISSING

KEY_LENGTH = 16
#: kinds whose insert() raises (build-only structures)
BUILD_ONLY = {"dpdk-acl", "efficuts"}


def _queries(count: int, seed: int = 11) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(KEY_LENGTH) for _ in range(count)]


# ----------------------------------------------------------------------
# The registry itself
# ----------------------------------------------------------------------

class TestRegistry:
    def test_registry_is_public_and_complete(self):
        assert set(MATCHER_KINDS) == {
            "sorted-list", "palmtrie-basic", "palmtrie", "palmtrie-plus",
            "frozen", "dpdk-acl", "efficuts", "adaptive", "tcam", "vectorized",
        }
        for cls in MATCHER_KINDS.values():
            assert isinstance(cls, type)

    def test_registry_returns_a_copy(self):
        kinds = matcher_kinds()
        kinds.clear()
        assert matcher_kinds()  # the registry itself is untouched

    def test_build_matcher_accepts_class_objects(self):
        entries = table1_entries()
        by_name = build_matcher("palmtrie-plus", entries, 8)
        by_class = build_matcher(PalmtriePlus, entries, 8)
        assert type(by_name) is type(by_class)
        for query in range(256):
            assert_same_result(by_name.lookup(query), by_class.lookup(query))

    def test_build_matcher_rejects_non_matcher_class(self):
        with pytest.raises(TypeError):
            build_matcher(dict, table1_entries(), 8)


# ----------------------------------------------------------------------
# Differential: every kind, every path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(MATCHER_KINDS))
class TestEveryKind:
    def test_batch_matches_scalar_and_oracle(self, kind):
        entries = random_entries(60, KEY_LENGTH, seed=3)
        matcher = build_matcher(kind, entries, KEY_LENGTH)
        queries = _queries(300)
        batched = matcher.lookup_batch(queries)
        assert len(batched) == len(queries)
        for query, got in zip(queries, batched):
            expected = oracle_lookup(entries, query)
            assert_same_result(expected, got)
            assert_same_result(expected, matcher.lookup(query))

    def test_engine_paths_match_oracle(self, kind):
        entries = random_entries(60, KEY_LENGTH, seed=4)
        engine = ClassificationEngine(build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=64))
        queries = _queries(400, seed=5)
        # Twice through, so the second pass is served (partly) from cache.
        for _ in range(2):
            for query, got in zip(queries, engine.lookup_batch(queries)):
                assert_same_result(oracle_lookup(entries, query), got)
            for query in queries[:100]:
                assert_same_result(oracle_lookup(entries, query), engine.lookup(query))
        assert engine.stats.cache_hits > 0

    def test_cache_stays_correct_across_updates(self, kind):
        if kind in BUILD_ONLY:
            pytest.skip(f"{kind} is build-only (no incremental updates)")
        entries = random_entries(40, KEY_LENGTH, seed=6)
        engine = ClassificationEngine(build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=256))
        queries = _queries(200, seed=7)
        engine.lookup_batch(queries)  # warm the cache

        # A high-priority catch-some rule: cached verdicts it matches
        # must be re-resolved, the rest may stay cached.
        key = TernaryKey.from_string("01" + "*" * (KEY_LENGTH - 2))
        new = TernaryEntry(key, 999, 10_000)
        engine.insert(new)
        entries = entries + [new]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)

        assert engine.delete(key)
        entries = entries[:-1]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
        assert not engine.delete(key)  # already gone; no-op

    # -- lookup_batch edge cases ----------------------------------------

    def test_empty_batch(self, kind):
        entries = random_entries(20, KEY_LENGTH, seed=8)
        matcher = build_matcher(kind, entries, KEY_LENGTH)
        assert matcher.lookup_batch([]) == []
        engine = ClassificationEngine(matcher, EngineConfig(cache_size=8))
        assert engine.lookup_batch([]) == []
        assert engine.last_batch.queries == 0
        assert engine.last_batch.hit_ratio == 0.0

    def test_all_duplicate_batch(self, kind):
        entries = random_entries(30, KEY_LENGTH, seed=9)
        matcher = build_matcher(kind, entries, KEY_LENGTH)
        query = _queries(1, seed=10)[0]
        expected = oracle_lookup(entries, query)
        for got in matcher.lookup_batch([query] * 64):
            assert_same_result(expected, got)
        engine = ClassificationEngine(build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=8))
        for got in engine.lookup_batch([query] * 64):
            assert_same_result(expected, got)
        # one distinct query: the matcher is asked exactly once
        assert engine.last_batch.matcher_queries == 1
        # a second identical burst is answered entirely from the cache
        for got in engine.lookup_batch([query] * 64):
            assert_same_result(expected, got)
        assert engine.last_batch.cache_hits == 64

    def test_batch_equal_to_cache_size(self, kind):
        entries = random_entries(30, KEY_LENGTH, seed=12)
        size = 32
        engine = ClassificationEngine(build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=size))
        queries = list(dict.fromkeys(_queries(200, seed=13)))[:size]
        assert len(queries) == size
        engine.lookup_batch(queries)
        assert len(engine.cache) == size
        assert engine.stats.cache_evictions == 0
        # the same burst again is answered entirely from the cache
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
        assert engine.last_batch.cache_hits == size

    def test_batches_interleaved_with_updates(self, kind):
        if kind in BUILD_ONLY:
            pytest.skip(f"{kind} is build-only (no incremental updates)")
        entries = random_entries(25, KEY_LENGTH, seed=14)
        matcher = build_matcher(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(matcher, EngineConfig(cache_size=64))
        queries = _queries(120, seed=15)
        rng = random.Random(16)
        for round_ in range(4):
            for query, got in zip(queries, engine.lookup_batch(queries)):
                assert_same_result(oracle_lookup(entries, query), got)
            if round_ % 2 == 0:
                # a key with the low 4 bits wild, the rest exact
                key = TernaryKey(rng.getrandbits(KEY_LENGTH) & ~0xF, 0xF, KEY_LENGTH)
                new = TernaryEntry(key, 500 + round_, 5_000 + round_)
                engine.insert(new)
                entries = entries + [new]
            else:
                victim = entries[-1]
                assert engine.delete(victim.key)
                entries = entries[:-1]


# ----------------------------------------------------------------------
# FlowCache mechanics
# ----------------------------------------------------------------------

class TestFlowCache:
    def test_lru_eviction_order(self):
        cache = FlowCache(2)
        e = table1_entries()[0]
        cache.put(1, e)
        cache.put(2, e)
        cache.get(1)        # 1 is now most recent
        assert cache.put(3, e) == 1
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_negative_results_are_cached(self):
        cache = FlowCache(4)
        cache.put(7, None)
        assert 7 in cache
        assert cache.get(7) is None

    def test_zero_capacity_disables(self):
        cache = FlowCache(0)
        cache.put(1, None)
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowCache(-1)

    def test_invalidate_only_matching_queries(self):
        cache = FlowCache(8)
        cache.put(0b0101, None)
        cache.put(0b1111, None)
        assert cache.invalidate(TernaryKey.from_string("01**")) == 1
        assert 0b0101 not in cache and 0b1111 in cache

    def test_invalidate_many_is_one_sweep_over_all_keys(self):
        cache = FlowCache(8)
        cache.put(0b0101, None)
        cache.put(0b1111, None)
        cache.put(0b1000, None)
        keys = [TernaryKey.from_string("01**"), TernaryKey.from_string("11**")]
        assert cache.invalidate_many(keys) == 2
        assert 0b1000 in cache and len(cache) == 1
        assert cache.invalidate_many([]) == 0


def _per_packet_lookup_batch(cache, resolve, queries):
    """The loop ``ClassificationEngine.lookup_batch`` ran before
    ``FlowCache.probe``/``fill``: one ``get`` per packet, misses
    deduplicated in first-seen order, one ``put`` per distinct miss.
    Kept as the oracle the batch helpers must equal."""
    results = [None] * len(queries)
    miss_positions = {}
    hits = 0
    for index, query in enumerate(queries):
        cached = cache.get(query)
        if cached is not _MISSING:
            results[index] = cached
            hits += 1
        else:
            miss_positions.setdefault(query, []).append(index)
    evictions = 0
    if miss_positions:
        unique = list(miss_positions)
        for query, result in zip(unique, resolve(unique)):
            evictions += cache.put(query, result)
            for index in miss_positions[query]:
                results[index] = result
    return results, hits, evictions


def _bursts_with_duplicates(rng, pool, count):
    """Bursts of 0-300 queries drawn from ``pool`` (so duplicates and
    repeats across bursts are common), plus one burst of 5,000 distinct
    fresh queries that overflows a 4,096-row cache on its own."""
    bursts = [
        [rng.choice(pool) for _ in range(rng.randrange(301))] for _ in range(count)
    ]
    fresh = rng.sample(range(1 << KEY_LENGTH), 5_000)
    bursts.insert(count // 2, fresh + fresh[:50])
    return bursts


class TestBatchProbeFill:
    """``FlowCache.probe``/``fill`` against the per-packet get/put loop:
    same verdicts, rows, LRU order, hits, misses and evictions after
    every burst."""

    @pytest.mark.parametrize("capacity", [0, 1, 7, 4096])
    def test_engine_lookup_batch_equals_per_packet_loop(self, capacity):
        rng = random.Random(capacity)
        matcher = build_matcher(
            "palmtrie-plus", random_entries(60, KEY_LENGTH, seed=12), KEY_LENGTH
        )
        engine = ClassificationEngine(matcher, EngineConfig(cache_size=capacity))
        oracle = FlowCache(capacity)
        hits = misses = evictions = 0
        pool = rng.sample(range(1 << KEY_LENGTH), 400)
        for burst in _bursts_with_duplicates(rng, pool, 40):
            got = engine.lookup_batch(burst)
            expected, burst_hits, burst_evictions = _per_packet_lookup_batch(
                oracle, matcher.lookup_batch, burst
            )
            hits += burst_hits
            misses += len(burst) - burst_hits
            evictions += burst_evictions
            assert [id(v) for v in got] == [id(v) for v in expected]
            assert list(engine.cache._map.items()) == list(oracle._map.items())
            assert engine.stats.cache_hits == hits
            assert engine.stats.cache_misses == misses
            assert engine.stats.cache_evictions == evictions

    def test_probe_touches_hits_in_query_order(self):
        cache = FlowCache(4)
        for query in (1, 2, 3, 4):
            cache.put(query, None)
        out = ["x"] * 5
        hits, misses = cache.probe([3, 9, 1, 9, 3], out)
        assert hits == 3
        assert misses == {9: [1, 3]}
        assert out == [None, "x", None, "x", None]
        assert list(cache._map) == [2, 4, 1, 3]
        # Two fresh rows evict the two least recent.
        assert cache.fill([9, 8], [None, None]) == 2
        assert list(cache._map) == [1, 3, 9, 8]


# ----------------------------------------------------------------------
# Engine counters and plumbing
# ----------------------------------------------------------------------

class TestEngineObservability:
    def test_counters_and_report(self):
        entries = table1_entries()
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, 8), EngineConfig(cache_size=16))
        engine.lookup_batch(list(range(32)))
        engine.lookup_batch(list(range(32)))   # all hits... except evicted rows
        stats = engine.stats
        assert stats.lookups == 64
        assert stats.cache_hits + stats.cache_misses == 64
        assert stats.cache_evictions >= 16     # 32 distinct queries, capacity 16
        report = engine.report()
        assert report["batches"] == 2
        assert report["cache_entries"] == 16
        assert 0.0 <= report["cache_hit_ratio"] <= 1.0
        assert report["queries_per_second"] == engine.queries_per_second()
        assert engine.last_batch is not None
        assert engine.last_batch.queries == 32
        engine.reset_stats()
        assert engine.stats.lookups == 0 and engine.batches == 0

    def test_batch_report_dedupes_repeats(self):
        engine = ClassificationEngine(build_matcher("sorted-list", table1_entries(), 8), EngineConfig(cache_size=0))
        engine.lookup_batch([5, 5, 5, 9, 9])
        assert engine.last_batch.matcher_queries == 2  # 5 and 9, deduplicated
        assert engine.last_batch.cache_hits == 0       # cache disabled

    def test_scalar_only_duck_type_falls_back(self):
        class ScalarOnly:
            name = "scalar-only"
            def lookup(self, query):
                return None
        engine = ClassificationEngine(ScalarOnly(), EngineConfig(cache_size=4))
        assert engine.lookup_batch([1, 2, 3]) == [None, None, None]

    def test_rejects_non_matcher(self):
        with pytest.raises(TypeError):
            ClassificationEngine(object())

    def test_invalidate_all(self):
        engine = ClassificationEngine(build_matcher("sorted-list", table1_entries(), 8), EngineConfig(cache_size=8))
        engine.lookup_batch([1, 2, 3])
        assert engine.invalidate_all() == 3
        assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# The transactional update plane
# ----------------------------------------------------------------------

UPDATABLE_KINDS = sorted(set(MATCHER_KINDS) - BUILD_ONLY)


class TestUpdatePlane:
    @pytest.mark.parametrize("kind", UPDATABLE_KINDS)
    def test_apply_updates_matches_oracle(self, kind):
        entries = random_entries(40, KEY_LENGTH, seed=21)
        engine = ClassificationEngine(build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=128))
        queries = _queries(200, seed=22)
        engine.lookup_batch(queries)  # warm the cache before churning
        new = [
            TernaryEntry(TernaryKey.from_string("10" + "*" * (KEY_LENGTH - 2)), 900, 9_000),
            TernaryEntry(TernaryKey.exact(queries[0], KEY_LENGTH), 901, 9_001),
        ]
        victims = [entries[0].key, entries[1].key]
        report = engine.apply_updates(
            [("insert", new[0]), ("insert", new[1])]
            + [("delete", key) for key in victims]
        )
        assert report.inserted == 2
        assert report.deleted == 2
        assert report.missing_deletes == 0
        assert report.ops == 4
        entries = [e for e in entries if e.key not in victims] + new
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)

    def test_op_normalization_accepts_bare_entries_and_keys(self):
        entries = random_entries(10, KEY_LENGTH, seed=23)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH))
        extra = TernaryEntry(TernaryKey.exact(3, KEY_LENGTH), 99, 999)
        report = engine.apply_updates([extra, entries[0].key, ("delete", entries[1])])
        assert report.inserted == 1 and report.deleted == 2
        assert_same_result(engine.lookup(3), extra)

    def test_op_normalization_rejects_garbage(self):
        engine = ClassificationEngine(
            build_matcher("palmtrie-plus", random_entries(5, KEY_LENGTH, seed=24), KEY_LENGTH)
        )
        with pytest.raises(TypeError):
            engine.apply_updates([42])
        with pytest.raises(ValueError):
            engine.apply_updates([("upsert", None)])
        with pytest.raises(TypeError):
            engine.apply_updates([("insert", TernaryKey.exact(1, KEY_LENGTH))])

    def test_missing_deletes_are_counted_not_applied(self):
        entries = random_entries(10, KEY_LENGTH, seed=25)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH))
        absent = TernaryKey.from_string("0" * KEY_LENGTH)
        report = engine.apply_updates([("delete", absent)])
        assert report.deleted == 0 and report.missing_deletes == 1
        assert len(engine.matcher) == len(entries)
        # an all-miss transaction does not count as applied updates
        assert engine.updates_applied == 0
        assert engine.update_batches == 1

    def test_update_batch_context_manager(self):
        entries = random_entries(15, KEY_LENGTH, seed=26)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH))
        extra = TernaryEntry(TernaryKey.exact(5, KEY_LENGTH), 77, 777)
        with engine.update_batch() as batch:
            batch.insert(extra)
            batch.delete(entries[0].key)
            # nothing is applied until the block exits
            assert engine.update_batches == 0
        assert batch.report is not None
        assert batch.report.inserted == 1 and batch.report.deleted == 1
        assert engine.update_batches == 1
        assert_same_result(engine.lookup(5), extra)

    def test_update_batch_aborts_on_exception(self):
        entries = random_entries(15, KEY_LENGTH, seed=27)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH))
        with pytest.raises(RuntimeError):
            with engine.update_batch() as batch:
                batch.insert(TernaryEntry(TernaryKey.exact(5, KEY_LENGTH), 1, 1))
                raise RuntimeError("abort")
        assert batch.report is None
        assert engine.update_batches == 0
        assert engine.lookup(5) is None or engine.lookup(5).value != 1

    @pytest.mark.parametrize("auto_freeze", [False, True])
    def test_direct_matcher_mutation_never_serves_stale(self, auto_freeze):
        """The silent-stale hazard: callers mutating ``engine.matcher``
        directly must still get fresh verdicts (generation check)."""
        entries = random_entries(30, KEY_LENGTH, seed=28)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(cache_size=64, auto_freeze=auto_freeze))
        queries = _queries(50, seed=29)
        engine.lookup_batch(queries)  # warm cache (and freeze the plane)
        if auto_freeze:
            assert engine.report()["frozen_plane_active"]
        override = TernaryEntry(TernaryKey.wildcard(KEY_LENGTH), 12345, 10**6)
        engine.matcher.insert(override)  # behind the engine's back
        for query in queries:
            got = engine.lookup(query)
            assert got is not None and got.value == 12345
        assert engine.report()["lazy_invalidations"] >= 1

    def test_lazy_invalidation_above_threshold(self):
        entries = random_entries(20, KEY_LENGTH, seed=30)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(cache_size=256, invalidation_threshold=4))
        queries = list(dict.fromkeys(_queries(64, seed=31)))
        engine.lookup_batch(queries)
        assert len(engine.cache) > 4
        report = engine.apply_updates(
            [TernaryEntry(TernaryKey.wildcard(KEY_LENGTH), 1, -1)]
        )
        assert report.deferred_invalidation
        assert report.cache_rows_invalidated == 0
        # the deferred sweep lands at the next lookup, in one clear
        engine.lookup(queries[0])
        assert engine.report()["lazy_invalidations"] == 1
        assert len(engine.cache) == 1  # only the re-resolved query

    def test_threshold_none_always_sweeps_targeted(self):
        entries = random_entries(20, KEY_LENGTH, seed=32)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(cache_size=256, invalidation_threshold=None))
        queries = list(dict.fromkeys(_queries(64, seed=33)))
        engine.lookup_batch(queries)
        rows = len(engine.cache)
        report = engine.apply_updates(
            [TernaryEntry(TernaryKey.wildcard(KEY_LENGTH), 1, -1)]
        )
        assert not report.deferred_invalidation
        assert report.cache_rows_invalidated == rows  # wildcard hits every row
        assert engine.report()["targeted_invalidations"] == 1
        assert engine.report()["lazy_invalidations"] == 0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ClassificationEngine(build_matcher("sorted-list", table1_entries(), 8), EngineConfig(invalidation_threshold=-1))

    def test_replace_matcher_preserves_cumulative_stats(self):
        entries = random_entries(20, KEY_LENGTH, seed=34)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(cache_size=32))
        queries = _queries(40, seed=35)
        engine.lookup_batch(queries)
        lookups_before = engine.stats.lookups
        last_batch = engine.last_batch
        replacement = random_entries(10, KEY_LENGTH, seed=36)
        engine.replace_matcher(build_matcher("palmtrie-plus", replacement, KEY_LENGTH))
        assert engine.stats.lookups == lookups_before
        assert engine.last_batch is last_batch
        assert engine.policy_swaps == 1
        assert len(engine.cache) == 0
        for query in queries:
            assert_same_result(oracle_lookup(replacement, query), engine.lookup(query))

    def test_replace_matcher_rejects_non_matcher(self):
        engine = ClassificationEngine(build_matcher("sorted-list", table1_entries(), 8))
        with pytest.raises(TypeError):
            engine.replace_matcher(object())

    def test_matcher_assignment_is_a_policy_swap(self):
        """``engine.matcher = B`` must behave exactly like
        ``replace_matcher(B)``: epoch bump, flushed cache, no stale
        verdicts — even when B's generation counter equals A's (the
        generation stamp alone cannot distinguish two fresh policies)."""
        entries = random_entries(20, KEY_LENGTH, seed=34)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(cache_size=32))
        queries = _queries(40, seed=35)
        engine.lookup_batch(queries)
        replacement_entries = random_entries(10, KEY_LENGTH, seed=36)
        replacement = build_matcher("palmtrie-plus", replacement_entries, KEY_LENGTH)
        assert replacement.generation == engine.matcher.generation
        engine.matcher = replacement
        assert engine.epoch == 1
        assert engine.policy_swaps == 1
        assert len(engine.cache) == 0
        for query in queries:
            assert_same_result(
                oracle_lookup(replacement_entries, query), engine.lookup(query)
            )

    def test_refresh_pays_deferred_work_eagerly(self):
        entries = random_entries(20, KEY_LENGTH, seed=37)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH), EngineConfig(auto_freeze=True))
        engine.lookup(0)  # freeze the plane
        engine.apply_updates([TernaryEntry(TernaryKey.exact(9, KEY_LENGTH), 1, 1)])
        assert not engine.report()["frozen_plane_active"]
        engine.refresh()
        assert engine.report()["frozen_plane_active"]
        assert not engine.matcher._dirty

    def test_report_exposes_update_metrics(self):
        entries = random_entries(10, KEY_LENGTH, seed=38)
        engine = ClassificationEngine(build_matcher("palmtrie-plus", entries, KEY_LENGTH))
        engine.apply_updates([TernaryEntry(TernaryKey.exact(1, KEY_LENGTH), 1, 1)])
        report = engine.report()
        for field in (
            "updates_applied", "update_batches", "cache_rows_invalidated",
            "targeted_invalidations", "lazy_invalidations", "policy_swaps",
            "invalidation_threshold", "generation", "plane_generation",
        ):
            assert field in report
        assert report["updates_applied"] == 1
        assert report["update_batches"] == 1
        assert report["generation"] == engine.matcher.generation

    def test_generation_bumps_on_content_changes_only(self):
        matcher = build_matcher(
            "palmtrie-plus", random_entries(10, KEY_LENGTH, seed=39), KEY_LENGTH
        )
        generation = matcher.generation
        matcher.compile()
        assert matcher.generation == generation  # recompiles don't bump
        matcher.insert(TernaryEntry(TernaryKey.exact(2, KEY_LENGTH), 1, 1))
        assert matcher.generation == generation + 1
        assert not matcher.delete(TernaryKey.from_string("1" * KEY_LENGTH))
        assert matcher.generation == generation + 1  # failed delete: no bump
        assert matcher.delete(TernaryKey.exact(2, KEY_LENGTH))
        assert matcher.generation == generation + 2

    def test_qps_clamps_instead_of_reporting_zero(self):
        from repro.engine import BatchReport

        sub_tick = BatchReport(queries=100, matcher_queries=1, cache_hits=99, seconds=0.0)
        assert sub_tick.queries_per_second > 0
        empty = BatchReport(queries=0, matcher_queries=0, cache_hits=0, seconds=0.0)
        assert empty.queries_per_second == 0.0
        engine = ClassificationEngine(build_matcher("sorted-list", table1_entries(), 8))
        assert engine.queries_per_second() == 0.0  # nothing batched yet
        engine.lookup_batch([1])
        engine.elapsed_seconds = 0.0  # force the sub-tick case
        assert engine.queries_per_second() > 0


# ----------------------------------------------------------------------
# The instrumented lookup
# ----------------------------------------------------------------------

class TestDeprecatedShim:
    def test_profile_lookup_does_not_warn(self):
        matcher = build_matcher("sorted-list", table1_entries(), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matcher.profile_lookup(0b00010101)
        assert matcher.stats.lookups == 1
