"""The serving layer: flow cache, batched lookups, and the unified API.

The load-bearing property is differential: for every structure of the
paper's evaluation, its scalar and batched paths agree with the
brute-force oracle, and the served engine (a Palmtrie+, or the kind
itself when the engine takes it) agrees with both on every cached and
batched path — including after ``insert``/``delete`` applied to the
engine and to the incremental structures alike (the cache must never
serve a stale verdict).
"""

from __future__ import annotations

import random
import warnings

import pytest

from helpers import (
    BUILD_ONLY,
    KINDS,
    assert_same_result,
    build_kind,
    oracle_lookup,
    random_entries,
    served_matcher,
    table1_entries,
    updatable_kind,
)

from repro import ClassificationEngine, EngineConfig, FlowCache, build_matcher, serve
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.frozen import FrozenMatcher, freeze
from repro.core.multibit import MultibitPalmtrie
from repro.core.plus import PalmtriePlus
from repro.core.serialize import serialize_frozen
from repro.resilience.guard import GuardRail
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.engine import _MAX_KEY_GROUPS, _MISSING, _REGION_PROBES, group_keys

KEY_LENGTH = 16


def _queries(count: int, seed: int = 11) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(KEY_LENGTH) for _ in range(count)]


# ----------------------------------------------------------------------
# What the engine serves
# ----------------------------------------------------------------------

class DuckMatcher:
    """Every method the engine calls, on no served class."""

    name = "duck"
    key_length = 8
    generation = 0

    def lookup(self, query):
        return None

    def lookup_batch(self, queries):
        return [None] * len(queries)

    def entries(self):
        return iter(())


class TestServedForms:
    def test_build_matcher_builds_the_served_palmtrie_k(self):
        entries = table1_entries()
        by_config = build_matcher(EngineConfig(stride=4), entries, 8)
        by_class = MultibitPalmtrie.build(entries, 8, stride=4)
        assert type(by_config) is type(by_class)
        assert by_config.stride == 4
        for query in range(256):
            assert_same_result(by_config.lookup(query), by_class.lookup(query))

    def test_build_matcher_rejects_kinds_and_classes(self):
        for config in (dict, PalmtriePlus, "palmtrie-plus"):
            with pytest.raises(TypeError):
                build_matcher(config, table1_entries(), 8)

    @pytest.mark.parametrize(
        "make",
        [lambda: SortedListMatcher.build(table1_entries(), 8), DuckMatcher],
        ids=["sorted-list", "duck-typed"],
    )
    def test_engine_rejects_unserved_matchers(self, make):
        with pytest.raises(TypeError, match="PalmtriePlus or a FrozenMatcher"):
            ClassificationEngine(make())
        with pytest.raises(TypeError, match="PalmtriePlus or a FrozenMatcher"):
            serve(make())
        engine = ClassificationEngine(PalmtriePlus.build(table1_entries(), 8))
        with pytest.raises(TypeError, match="PalmtriePlus or a FrozenMatcher"):
            engine.replace_matcher(make())
        with pytest.raises(TypeError):
            engine.matcher = make()
        # A rejected swap leaves the served policy in place.
        assert type(engine.matcher) is PalmtriePlus and engine.policy_swaps == 0


# ----------------------------------------------------------------------
# Differential: every kind, every path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(KINDS))
class TestEveryKind:
    def test_batch_matches_scalar_and_oracle(self, kind):
        entries = random_entries(60, KEY_LENGTH, seed=3)
        matcher = build_kind(kind, entries, KEY_LENGTH)
        queries = _queries(300)
        batched = matcher.lookup_batch(queries)
        assert len(batched) == len(queries)
        for query, got in zip(queries, batched):
            expected = oracle_lookup(entries, query)
            assert_same_result(expected, got)
            assert_same_result(expected, matcher.lookup(query))

    def test_engine_paths_match_oracle(self, kind):
        entries = random_entries(60, KEY_LENGTH, seed=4)
        reference = build_kind(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=64))
        queries = _queries(400, seed=5)
        # Twice through, so the second pass is served (partly) from cache.
        for _ in range(2):
            for query, got in zip(queries, engine.lookup_batch(queries)):
                assert_same_result(oracle_lookup(entries, query), got)
                assert_same_result(reference.lookup(query), got)
            for query in queries[:100]:
                assert_same_result(oracle_lookup(entries, query), engine.lookup(query))
        assert engine.stats.cache_hits > 0

    def test_cache_stays_correct_across_updates(self, kind):
        if kind in BUILD_ONLY:
            pytest.skip(f"{kind} is build-only (no incremental updates)")
        entries = random_entries(40, KEY_LENGTH, seed=6)
        # The same updates go to the engine and to the kind's own matcher.
        reference = updatable_kind(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=256))
        queries = _queries(200, seed=7)
        engine.lookup_batch(queries)  # warm the cache

        # A high-priority catch-some rule: cached verdicts it matches
        # must be re-resolved, the rest may stay cached.
        key = TernaryKey.from_string("01" + "*" * (KEY_LENGTH - 2))
        new = TernaryEntry(key, 999, 10_000)
        engine.insert(new)
        reference.insert(new)
        entries = entries + [new]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
            assert_same_result(reference.lookup(query), got)

        assert engine.delete(key) and reference.delete(key)
        entries = entries[:-1]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
            assert_same_result(reference.lookup(query), got)
        assert not engine.delete(key)  # already gone; no-op
        assert not reference.delete(key)

    # -- lookup_batch edge cases ----------------------------------------

    def test_empty_batch(self, kind):
        entries = random_entries(20, KEY_LENGTH, seed=8)
        matcher = build_kind(kind, entries, KEY_LENGTH)
        assert matcher.lookup_batch([]) == []
        engine = ClassificationEngine(
            served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=8)
        )
        assert engine.lookup_batch([]) == []
        assert engine.last_batch.queries == 0
        assert engine.last_batch.hit_ratio == 0.0

    def test_all_duplicate_batch(self, kind):
        entries = random_entries(30, KEY_LENGTH, seed=9)
        matcher = build_kind(kind, entries, KEY_LENGTH)
        query = _queries(1, seed=10)[0]
        expected = oracle_lookup(entries, query)
        for got in matcher.lookup_batch([query] * 64):
            assert_same_result(expected, got)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=8))
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
        reference = build_kind(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=size))
        queries = list(dict.fromkeys(_queries(200, seed=13)))[:size]
        assert len(queries) == size
        engine.lookup_batch(queries)
        assert len(engine.cache) == size
        assert engine.stats.cache_evictions == 0
        # the same burst again is answered entirely from the cache
        expected = reference.lookup_batch(queries)
        for query, got, want in zip(queries, engine.lookup_batch(queries), expected):
            assert_same_result(oracle_lookup(entries, query), got)
            assert_same_result(want, got)
        assert engine.last_batch.cache_hits == size

    def test_batches_interleaved_with_updates(self, kind):
        if kind in BUILD_ONLY:
            pytest.skip(f"{kind} is build-only (no incremental updates)")
        entries = random_entries(25, KEY_LENGTH, seed=14)
        reference = updatable_kind(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=64))
        queries = _queries(120, seed=15)
        rng = random.Random(16)
        for round_ in range(4):
            for query, got in zip(queries, engine.lookup_batch(queries)):
                assert_same_result(oracle_lookup(entries, query), got)
                assert_same_result(reference.lookup(query), got)
            if round_ % 2 == 0:
                # a key with the low 4 bits wild, the rest exact
                key = TernaryKey(rng.getrandbits(KEY_LENGTH) & ~0xF, 0xF, KEY_LENGTH)
                new = TernaryEntry(key, 500 + round_, 5_000 + round_)
                engine.insert(new)
                reference.insert(new)
                entries = entries + [new]
            else:
                victim = entries[-1]
                assert engine.delete(victim.key) and reference.delete(victim.key)
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
        assert cache.sweep(group_keys([TernaryKey.from_string("01**")])) == 1
        assert 0b0101 not in cache and 0b1111 in cache

    def test_invalidate_many_is_one_sweep_over_all_keys(self):
        cache = FlowCache(8)
        cache.put(0b0101, None)
        cache.put(0b1111, None)
        cache.put(0b1000, None)
        keys = [TernaryKey.from_string("01**"), TernaryKey.from_string("11**")]
        assert cache.sweep(group_keys(keys)) == 2
        assert 0b1000 in cache and len(cache) == 1
        assert cache.sweep(group_keys([])) == 0

    def test_group_keys_folds_keys_by_care_mask(self):
        keys = [
            TernaryKey.from_string("01**"),
            TernaryKey.from_string("11**"),
            TernaryKey.from_string("*1*1"),
        ]
        groups = group_keys(keys)
        assert groups == {0b1100: {0b0100, 0b1100}, 0b0101: {0b0101}}
        for query in range(16):
            grouped = any(query & care in datas for care, datas in groups.items())
            assert grouped == any(key.matches(query) for key in keys)

    def test_sweep_matches_per_key_invalidation(self):
        rng = random.Random(5)
        keys = [
            TernaryKey(rng.getrandbits(KEY_LENGTH), rng.getrandbits(KEY_LENGTH), KEY_LENGTH)
            for _ in range(6)
        ]
        rows = [rng.getrandbits(KEY_LENGTH) for _ in range(300)]
        cache = FlowCache(len(rows))
        cache.fill(rows, [None] * len(rows))
        expected = {q for q in rows if not any(key.matches(q) for key in keys)}
        assert cache.sweep(group_keys(keys)) == len(set(rows)) - len(expected)
        assert set(cache._map) == expected


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
        matcher = PalmtriePlus.build(random_entries(60, KEY_LENGTH, seed=12), KEY_LENGTH)
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
        engine = ClassificationEngine(PalmtriePlus.build(entries, 8), EngineConfig(cache_size=16))
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
        engine = ClassificationEngine(PalmtriePlus.build(table1_entries(), 8), EngineConfig(cache_size=0))
        engine.lookup_batch([5, 5, 5, 9, 9])
        assert engine.last_batch.matcher_queries == 2  # 5 and 9, deduplicated
        assert engine.last_batch.cache_hits == 0       # cache disabled

    def test_rejects_non_matcher(self):
        with pytest.raises(TypeError):
            ClassificationEngine(object())

    def test_invalidate_all(self):
        engine = ClassificationEngine(PalmtriePlus.build(table1_entries(), 8), EngineConfig(cache_size=8))
        engine.lookup_batch([1, 2, 3])
        assert engine.invalidate_all() == 3
        assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# The transactional update plane
# ----------------------------------------------------------------------

UPDATABLE_KINDS = sorted(set(KINDS) - BUILD_ONLY)


class TestUpdatePlane:
    @pytest.mark.parametrize("kind", UPDATABLE_KINDS)
    def test_apply_updates_matches_oracle(self, kind):
        entries = random_entries(40, KEY_LENGTH, seed=21)
        reference = updatable_kind(kind, entries, KEY_LENGTH)
        engine = ClassificationEngine(served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=128))
        queries = _queries(200, seed=22)
        engine.lookup_batch(queries)  # warm the cache before churning
        new = [
            TernaryEntry(TernaryKey.from_string("10" + "*" * (KEY_LENGTH - 2)), 900, 9_000),
            TernaryEntry(TernaryKey.exact(queries[0], KEY_LENGTH), 901, 9_001),
        ]
        victims = [entries[0].key, entries[1].key]
        ops = [("insert", new[0]), ("insert", new[1])] + [
            ("delete", key) for key in victims
        ]
        report = engine.apply_updates(ops)
        assert report.inserted == 2
        assert report.deleted == 2
        assert report.missing_deletes == 0
        assert report.ops == 4
        for op, payload in ops:
            if op == "insert":
                reference.insert(payload)
            else:
                assert reference.delete(payload)
        entries = [e for e in entries if e.key not in victims] + new
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
            assert_same_result(reference.lookup(query), got)

    def test_op_normalization_accepts_bare_entries_and_keys(self):
        entries = random_entries(10, KEY_LENGTH, seed=23)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH))
        extra = TernaryEntry(TernaryKey.exact(3, KEY_LENGTH), 99, 999)
        report = engine.apply_updates([extra, entries[0].key, ("delete", entries[1])])
        assert report.inserted == 1 and report.deleted == 2
        assert_same_result(engine.lookup(3), extra)

    def test_op_normalization_rejects_garbage(self):
        engine = ClassificationEngine(
            PalmtriePlus.build(random_entries(5, KEY_LENGTH, seed=24), KEY_LENGTH)
        )
        with pytest.raises(TypeError):
            engine.apply_updates([42])
        with pytest.raises(ValueError):
            engine.apply_updates([("upsert", None)])
        with pytest.raises(TypeError):
            engine.apply_updates([("insert", TernaryKey.exact(1, KEY_LENGTH))])

    def test_missing_deletes_are_counted_not_applied(self):
        entries = random_entries(10, KEY_LENGTH, seed=25)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH))
        absent = TernaryKey.from_string("0" * KEY_LENGTH)
        report = engine.apply_updates([("delete", absent)])
        assert report.deleted == 0 and report.missing_deletes == 1
        assert len(engine.matcher) == len(entries)
        # an all-miss transaction does not count as applied updates
        assert engine.updates_applied == 0
        assert engine.update_batches == 1

    def test_scalar_delete_of_an_absent_key_is_a_missing_delete(self):
        entries = random_entries(10, KEY_LENGTH, seed=25)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH))
        generation = engine.matcher.generation
        assert not engine.delete(TernaryKey.from_string("0" * KEY_LENGTH))
        assert engine.last_update.missing_deletes == 1
        assert engine.update_batches == 1 and engine.updates_applied == 0
        assert engine.matcher.generation == generation  # nothing to sweep

    @pytest.mark.parametrize("auto_freeze", [False, True])
    def test_direct_matcher_mutation_never_serves_stale(self, auto_freeze):
        """The silent-stale hazard: callers mutating ``engine.matcher``
        directly must still get fresh verdicts (generation check)."""
        entries = random_entries(30, KEY_LENGTH, seed=28)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(cache_size=64, auto_freeze=auto_freeze))
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
        """An all-wildcard key is past the point where a row-by-row
        sweep pays: the next lookup clears the cache instead."""
        entries = random_entries(20, KEY_LENGTH, seed=30)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(cache_size=256))
        queries = list(dict.fromkeys(_queries(64, seed=31)))
        engine.lookup_batch(queries)
        rows = len(engine.cache)
        assert rows > 4
        engine.apply_updates([TernaryEntry(TernaryKey.wildcard(KEY_LENGTH), 1, -1)])
        assert len(engine.cache) == rows  # nothing evicted before a lookup
        # the deferred sweep lands at the next lookup, in one clear
        engine.lookup(queries[0])
        assert engine.report()["lazy_invalidations"] == 1
        assert len(engine.cache) == 1  # only the re-resolved query

    def test_replace_matcher_preserves_cumulative_stats(self):
        entries = random_entries(20, KEY_LENGTH, seed=34)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(cache_size=32))
        queries = _queries(40, seed=35)
        engine.lookup_batch(queries)
        lookups_before = engine.stats.lookups
        last_batch = engine.last_batch
        replacement = random_entries(10, KEY_LENGTH, seed=36)
        engine.replace_matcher(PalmtriePlus.build(replacement, KEY_LENGTH))
        assert engine.stats.lookups == lookups_before
        assert engine.last_batch is last_batch
        assert engine.policy_swaps == 1
        assert len(engine.cache) == 0
        for query in queries:
            assert_same_result(oracle_lookup(replacement, query), engine.lookup(query))

    def test_replace_matcher_rejects_non_matcher(self):
        engine = ClassificationEngine(PalmtriePlus.build(table1_entries(), 8))
        with pytest.raises(TypeError):
            engine.replace_matcher(object())

    def test_matcher_assignment_is_a_policy_swap(self):
        """``engine.matcher = B`` must behave exactly like
        ``replace_matcher(B)``: epoch bump, flushed cache, no stale
        verdicts — even when B's generation counter equals A's (the
        generation stamp alone cannot distinguish two fresh policies)."""
        entries = random_entries(20, KEY_LENGTH, seed=34)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(cache_size=32))
        queries = _queries(40, seed=35)
        engine.lookup_batch(queries)
        replacement_entries = random_entries(10, KEY_LENGTH, seed=36)
        replacement = PalmtriePlus.build(replacement_entries, KEY_LENGTH)
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
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(auto_freeze=True))
        engine.lookup(0)  # freeze the plane
        engine.apply_updates([TernaryEntry(TernaryKey.exact(9, KEY_LENGTH), 1, 1)])
        # The update keeps the plane, serving behind a one-key overlay.
        report = engine.report()
        assert report["frozen_plane_active"] and report["plane_overlay_keys"] == 1
        assert engine.freezes == 1
        engine.refresh()
        report = engine.report()
        assert report["frozen_plane_active"] and report["plane_overlay_keys"] == 0
        assert engine.freezes == 2
        # The plane freezes from the Palmtrie_k: no Palmtrie+ compile
        # beyond the build's.
        assert engine.matcher.compile_count == 1

    def test_report_exposes_update_metrics(self):
        entries = random_entries(10, KEY_LENGTH, seed=38)
        engine = ClassificationEngine(PalmtriePlus.build(entries, KEY_LENGTH))
        engine.apply_updates([TernaryEntry(TernaryKey.exact(1, KEY_LENGTH), 1, 1)])
        report = engine.report()
        for field in (
            "updates_applied", "update_batches", "cache_rows_invalidated",
            "targeted_invalidations", "lazy_invalidations", "policy_swaps",
            "generation", "plane_generation",
        ):
            assert field in report
        assert report["updates_applied"] == 1
        assert report["update_batches"] == 1
        assert report["generation"] == engine.matcher.generation

    def test_generation_bumps_on_content_changes_only(self):
        matcher = PalmtriePlus.build(random_entries(10, KEY_LENGTH, seed=39), KEY_LENGTH)
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
        engine = ClassificationEngine(PalmtriePlus.build(table1_entries(), 8))
        assert engine.queries_per_second() == 0.0  # nothing batched yet
        engine.lookup_batch([1])
        engine.elapsed_seconds = 0.0  # force the sub-tick case
        assert engine.queries_per_second() > 0


# ----------------------------------------------------------------------
# Serving updates from one changed-key set: targeted sweeps, an in-place
# reference and the frozen plane's overlay
# ----------------------------------------------------------------------

def _prefix_entry(bits: str, value, priority: int) -> TernaryEntry:
    return TernaryEntry(
        TernaryKey.from_string(bits + "*" * (KEY_LENGTH - len(bits))), value, priority
    )


def _overlay_engine(config: EngineConfig, matcher_cls=PalmtriePlus):
    entries = random_entries(40, KEY_LENGTH, seed=51)
    engine = ClassificationEngine(matcher_cls.build(entries, KEY_LENGTH), config)
    queries = list(dict.fromkeys(_queries(300, seed=52)))
    engine.lookup_batch(queries)  # warm the cache, freeze the plane
    return engine, entries, queries


class TestChangedKeyOverlay:
    def test_update_keeps_the_plane_behind_an_overlay(self):
        engine, entries, queries = _overlay_engine(
            EngineConfig(cache_size=0, auto_freeze=True)
        )
        plane = engine._plane
        new = [_prefix_entry("101", "new", 10**6), _prefix_entry("0110", "new2", 10**6 + 1)]
        engine.apply_updates([("insert", e) for e in new] + [("delete", entries[0].key)])
        assert engine._plane is plane and engine.freezes == 1
        report = engine.report()
        assert report["plane_overlay_keys"] == 3
        assert report["plane_generation"] == report["generation"]
        entries = [e for e in entries if e.key != entries[0].key] + new
        fresh = FrozenMatcher.from_matcher(engine.matcher)
        batch = engine.lookup_batch(queries)
        for query, got, want in zip(queries, batch, fresh.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
            assert got is want  # the very entry objects a fresh freeze serves
        for query in queries[:40]:
            assert engine.lookup(query) is fresh.lookup(query)
        assert engine._plane is plane or engine.freezes == 2  # at most a compaction

    def test_refresh_compacts_into_a_fresh_freeze(self):
        engine, _, queries = _overlay_engine(EngineConfig(cache_size=0, auto_freeze=True))
        engine.apply_updates([_prefix_entry("11", "x", 10**6)])
        engine.refresh()
        assert engine.freezes == 2 and engine.plane_overlay_keys == 0
        fresh = FrozenMatcher.from_matcher(engine.matcher)
        assert serialize_frozen(engine._plane) == serialize_frozen(fresh)

    def test_overlay_cost_reaching_a_freeze_compacts(self):
        """Ski rental: once the overlay has cost one refreeze, the plane
        is dropped and the next miss refreezes."""
        engine, entries, queries = _overlay_engine(EngineConfig(cache_size=0, auto_freeze=True))
        engine.apply_updates([_prefix_entry("1", "x", 10**6)])
        assert engine.plane_overlay_keys == 1
        engine._plane.last_freeze_seconds = 0.0  # any overlay cost now pays a freeze
        engine.lookup_batch(queries[:8])
        assert not engine.report()["frozen_plane_active"]
        engine.lookup_batch(queries[:8])
        assert engine.freezes == 2 and engine.plane_overlay_keys == 0

    def test_wildcard_or_too_many_masks_drop_the_plane(self):
        engine, _, _ = _overlay_engine(EngineConfig(cache_size=0, auto_freeze=True))
        engine.apply_updates([TernaryEntry(TernaryKey.wildcard(KEY_LENGTH), "all", -1)])
        assert not engine.report()["frozen_plane_active"]
        engine, _, _ = _overlay_engine(EngineConfig(cache_size=0, auto_freeze=True))
        # One distinct care mask per prefix length: nine masks.
        engine.apply_updates(
            [_prefix_entry("1" * n, n, 10**6 + n) for n in range(1, _MAX_KEY_GROUPS + 2)]
        )
        assert not engine.report()["frozen_plane_active"]

    def test_a_frozen_matcher_is_installed_as_the_plane(self):
        engine, _, queries = _overlay_engine(
            EngineConfig(cache_size=0, auto_freeze=True), FrozenMatcher
        )
        plane = engine._plane
        assert isinstance(plane, FrozenMatcher) and engine.freezes == 0
        assert engine._source is None  # serving rebuilt no Palmtrie_k
        engine.apply_updates([_prefix_entry("11", "x", 10**6)])
        # The update rebuilt the Palmtrie_k and went behind the overlay.
        assert engine._plane is plane and engine.plane_overlay_keys == 1
        assert isinstance(engine._source, MultibitPalmtrie)
        assert engine.lookup(int("11" + "0" * (KEY_LENGTH - 2), 2)).value == "x"
        assert engine.freezes == 0

    def test_direct_mutation_drops_the_overlay_plane(self):
        engine, entries, queries = _overlay_engine(EngineConfig(cache_size=0, auto_freeze=True))
        engine.apply_updates([_prefix_entry("11", "x", 10**6)])
        engine.matcher.insert(_prefix_entry("0", "direct", 10**6))  # behind the engine
        got = engine.lookup(0)
        assert got.value == "direct"
        assert engine.freezes == 2 and engine.plane_overlay_keys == 0


def _two_field_entries(count: int, seed: int) -> list[TernaryEntry]:
    """ACL-shaped rules: a prefix on each 8-bit half of the key, so the
    walks report a few distinct masks (dense random ternary keys spread
    them over dozens, and no mask would pay its probe)."""
    rng = random.Random(seed)
    entries = []
    for i in range(count):
        text = ""
        for _ in range(2):
            length = rng.choice((0, 2, 4, 8))
            text += "".join(rng.choice("01") for _ in range(length)) + "*" * (8 - length)
        entries.append(TernaryEntry(TernaryKey.from_string(text), i, rng.randrange(1000)))
    return entries


def _region_engine(config: EngineConfig, matcher_cls=PalmtriePlus, seed: int = 61):
    """A warm engine plus queries that each agree with a walked query on
    every bit its walk examined (so the region tier can answer them)."""
    entries = _two_field_entries(40, seed)
    engine = ClassificationEngine(matcher_cls.build(entries, KEY_LENGTH), config)
    walked = list(dict.fromkeys(_queries(64, seed=seed)))
    engine.lookup_batch(walked)
    plane = freeze(engine.matcher)
    masks: list[int] = []
    plane.lookup_batch(walked, masks=masks)
    rng = random.Random(seed)
    siblings = [
        (query & mask) | (rng.getrandbits(KEY_LENGTH) & ~mask)
        for query, mask in zip(walked, masks)
        for _ in range(4)
    ]
    return engine, entries, walked, siblings


def _sig(entry):
    return None if entry is None else (entry.value, entry.priority)


def _check_oracle(engine, entries, queries):
    for query, got in zip(queries, engine.lookup_batch(queries)):
        assert_same_result(oracle_lookup(entries, query), got)


class TestRegionTier:
    def test_queries_sharing_examined_bits_skip_the_walk(self):
        engine, entries, walked, siblings = _region_engine(
            EngineConfig(cache_size=16, auto_freeze=True, metrics=True)
        )
        assert engine.regions.capacity == 4 * 16
        walks = engine.plane_walks
        _check_oracle(engine, entries, siblings)
        report = engine.report()
        assert report["region_hits"] > 0 and report["region_rows"] > 0
        assert report["region_masks"] >= 1
        assert report["plane_walks"] - walks < len(set(siblings))
        assert report["plane_walks"] + report["region_hits"] <= report["cache_misses"]
        from repro.obs.export import render_prometheus

        text = render_prometheus(engine.metrics)
        assert f"engine_region_hits_total {report['region_hits']}" in text
        assert "engine_plane_walks_total" in text and "engine_region_rows" in text

    def test_cache_size_zero_disables_every_tier(self):
        engine, entries, walked, siblings = _region_engine(
            EngineConfig(cache_size=0, auto_freeze=True)
        )
        _check_oracle(engine, entries, siblings)
        report = engine.report()
        assert report["region_hits"] == report["region_rows"] == 0
        assert report["plane_walks"] == len(set(walked)) + len(set(siblings))

    def test_probes_stay_within_the_cap(self):
        engine, entries, _, siblings = _region_engine(
            EngineConfig(cache_size=16, auto_freeze=True)
        )
        for offset in range(0, len(siblings), 32):
            probes, misses = engine.regions.probes, engine.stats.cache_misses
            engine.lookup_batch(siblings[offset : offset + 32])
            assert engine.regions.probes - probes <= _REGION_PROBES * (
                engine.stats.cache_misses - misses
            )

    @pytest.mark.parametrize("matcher_cls", [PalmtriePlus, FrozenMatcher])
    def test_updates_sweep_the_regions_their_keys_intersect(self, matcher_cls):
        engine, entries, walked, siblings = _region_engine(
            EngineConfig(cache_size=64, auto_freeze=True),
            matcher_cls,
        )
        engine.lookup_batch(siblings)
        held = engine.regions.rows
        assert held > 0
        new = _prefix_entry(format(walked[0] >> (KEY_LENGTH - 3), "03b"), "new", 10**6)
        engine.apply_updates([("insert", new)])
        entries = entries + [new]
        _check_oracle(engine, entries, siblings + walked)
        for mask, table in engine.regions._tables.items():
            for region in table:
                verdict = table[region]
                # every surviving row still serves its whole region
                probe = region | (random.Random(region).getrandbits(KEY_LENGTH) & ~mask)
                assert_same_result(oracle_lookup(entries, probe), verdict)

    def test_regions_walked_behind_an_overlay_avoid_its_keys(self):
        engine, entries, walked, siblings = _region_engine(
            EngineConfig(cache_size=64, auto_freeze=True)
        )
        new = _prefix_entry("1", "new", 10**6)
        engine.apply_updates([("insert", new)])
        assert engine.plane_overlay_keys == 1
        entries = entries + [new]
        _check_oracle(engine, entries, siblings + walked)
        care = 1 << (KEY_LENGTH - 1)
        assert engine.regions.rows
        for mask, table in engine.regions._tables.items():
            for region in table:
                # no stored region reaches a query the new key matches
                assert mask & care and not region & care

    def test_the_tier_resets_with_the_plane_and_the_cache(self):
        engine, entries, _, siblings = _region_engine(
            EngineConfig(cache_size=64, auto_freeze=True)
        )
        engine.lookup_batch(siblings)
        assert engine.regions.rows
        engine.invalidate_all()
        assert engine.regions.rows == engine.regions.masks == 0
        engine.lookup_batch(siblings)
        assert engine.regions.rows
        engine.apply_updates([_prefix_entry("01", "x", 10**6)])
        engine.refresh()  # compacts the overlay: a fresh freeze
        assert engine.regions.rows == 0
        engine.lookup_batch(siblings)
        assert engine.regions.rows
        engine.replace_matcher(PalmtriePlus.build(entries, KEY_LENGTH))
        assert engine.regions.rows == 0

    def test_a_tier_that_does_not_pay_sleeps_then_relearns(self):
        entries = random_entries(60, KEY_LENGTH, seed=64)
        engine = ClassificationEngine(
            PalmtriePlus.build(entries, KEY_LENGTH), EngineConfig(cache_size=512, auto_freeze=True)
        )
        # Uniform 16-bit traffic: each region is met about once, so the
        # tier walks far more misses than it answers.
        queries = _queries(8000, seed=65)
        slept = False
        for offset in range(0, len(queries), 64):
            engine.lookup_batch(queries[offset : offset + 64])
            slept = slept or engine.regions.asleep
        assert slept
        for seed in range(100, 200):
            if not engine.regions.asleep:
                break
            engine.lookup_batch(_queries(64, seed=seed))
        assert not engine.regions.asleep
        engine.lookup_batch(queries[:64])
        assert engine.regions.masks  # awake again and relearning
        _check_oracle(engine, entries, queries[:512])

    def test_a_plane_without_masks_is_served_without_the_tier(self):
        class StandIn(FrozenMatcher):
            def lookup_batch(self, queries):
                return super().lookup_batch(queries)

        entries = _two_field_entries(40, seed=66)
        engine = ClassificationEngine(
            StandIn.build(entries, KEY_LENGTH), EngineConfig(cache_size=16, auto_freeze=True)
        )
        queries = _queries(400, seed=67)
        _check_oracle(engine, entries, queries)
        assert engine.regions.rows == 0
        assert engine.plane_walks == engine.stats.cache_misses

    def test_loaded_and_restored_planes_match_a_fresh_freeze(self, tmp_path):
        """The hot mirrors (node masks included) come from one helper, so
        a plane loaded from disk walks exactly like a freshly frozen
        one — and so does an engine restored from a checkpoint."""
        from repro.core.serialize import load_frozen, save_frozen

        entries = _two_field_entries(60, seed=68)
        fresh = FrozenMatcher.build(entries, KEY_LENGTH, stride=6)
        path = str(tmp_path / "plane.plmf")
        save_frozen(fresh, path)
        loaded = load_frozen(path)
        queries = _queries(300, seed=69)
        fresh_masks: list[int] = []
        loaded_masks: list[int] = []
        want = fresh.lookup_batch(queries, masks=fresh_masks)
        got = loaded.lookup_batch(queries, masks=loaded_masks)
        assert loaded_masks == fresh_masks
        assert [_sig(e) for e in got] == [_sig(e) for e in want]

        def served(engine):
            trace = [
                (q & m) | (random.Random(q).getrandbits(KEY_LENGTH) & ~m)
                for q, m in zip(queries, fresh_masks)
            ]
            out = [_sig(e) for e in engine.lookup_batch(queries)]
            out += [_sig(e) for e in engine.lookup_batch(trace)]
            return out, engine.report()["region_hits"], engine.report()["plane_walks"]

        config = EngineConfig(cache_size=128, auto_freeze=True)
        rebuilt = FrozenMatcher.build(entries, KEY_LENGTH, stride=6)
        baseline = served(ClassificationEngine(rebuilt, config))
        assert baseline[1] > 0
        assert served(ClassificationEngine(loaded, config)) == baseline
        checkpoint = str(tmp_path / "good.plmc")
        ClassificationEngine(fresh, config).checkpoint(checkpoint)
        restored = ClassificationEngine(PalmtriePlus.build(entries[:5], KEY_LENGTH), config)
        restored.restore_last_good(checkpoint)
        assert served(restored) == baseline


class TestRegionGate:
    """Work counts on the paper's section 6 scan, deterministic by seed:
    behind a 4,096-row exact cache, the region tier leaves the frozen
    plane a small share of a reverse-byte scan's packets (without it,
    every exact miss — about nine in ten packets — is walked)."""

    @staticmethod
    def _engine(acl):
        return ClassificationEngine(
            PalmtriePlus.build(acl.entries, acl.layout.length),
            EngineConfig(
                cache_size=4096, auto_freeze=True, resilience=GuardRail(shadow_sample=0.001)
            ),
        )

    def test_scan_walks_a_small_share_of_packets(self):
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import reverse_byte_scan, zipf_trace

        acl = classbench_acl("acl", 500)
        rng = random.Random(42)
        count = 32768
        scan = iter(reverse_byte_scan(count, seed=42, start=1 << 20))
        flows = iter(zipf_trace(acl.entries, count, flows=128, s=1.1, seed=42))
        trace = [next(flows) if rng.random() < 0.1 else next(scan) for _ in range(count)]
        engine = self._engine(acl)
        bursts = [trace[i : i + 64] for i in range(0, count, 64)]
        for burst in bursts[:64]:
            engine.lookup_batch(burst)
        engine.reset_stats()
        for burst in bursts[64:]:
            engine.lookup_batch(burst)
        report = engine.report()
        served = count - 64 * 64
        # Measured: 3,001 walks (10.5 %), while the exact cache misses
        # 26,047 packets (91 %); the bound leaves headroom.
        assert report["cache_misses"] > 0.85 * served
        assert report["plane_walks"] < 0.15 * served
        assert not engine.regions.asleep
        assert report["resilience"]["shadow_mismatches"] == 0

    def test_zipf_probes_never_exceed_the_cap(self):
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import zipf_trace

        acl = classbench_acl("acl", 500)
        engine = self._engine(acl)
        trace = zipf_trace(acl.entries, 16384, flows=8192, s=1.0, seed=7)
        for offset in range(0, len(trace), 64):
            probes, misses = engine.regions.probes, engine.stats.cache_misses
            engine.lookup_batch(trace[offset : offset + 64])
            assert engine.regions.probes - probes <= _REGION_PROBES * (
                engine.stats.cache_misses - misses
            )


class TestDeferredSweep:
    def test_deferred_transaction_sweeps_only_matching_rows(self):
        engine, entries, queries = _overlay_engine(
            EngineConfig(cache_size=512, auto_freeze=True)
        )
        key = _prefix_entry("10", "x", 10**6)
        rows = set(engine.cache._map)
        engine.apply_updates([key])
        assert set(engine.cache._map) == rows
        engine.lookup_batch([])  # the next lookup pays the sweep
        kept = {q for q in rows if not key.key.matches(q)}
        assert set(engine.cache._map) == kept and kept != rows
        report = engine.report()
        assert report["lazy_invalidations"] == 0 and report["targeted_invalidations"] == 1
        assert report["cache_rows_invalidated"] == len(rows) - len(kept)

    def test_too_many_pending_masks_clear_the_cache(self):
        engine, _, _ = _overlay_engine(EngineConfig(cache_size=512))
        rows = len(engine.cache)
        for n in range(1, _MAX_KEY_GROUPS + 2):  # one transaction per mask
            engine.apply_updates([_prefix_entry("1" * n, n, 10**6 + n)])
        assert len(engine.cache) == rows
        engine.lookup_batch([])
        assert len(engine.cache) == 0 and engine.lazy_invalidations == 1

    def test_direct_mutation_after_a_deferred_transaction_clears(self):
        engine, entries, queries = _overlay_engine(EngineConfig(cache_size=512))
        engine.apply_updates([_prefix_entry("10", "x", 10**6)])
        engine.matcher.insert(_prefix_entry("0", "direct", 10**6))
        engine.lookup_batch([])
        assert len(engine.cache) == 0 and engine.lazy_invalidations == 1
        entries = entries + [_prefix_entry("10", "x", 10**6), _prefix_entry("0", "direct", 10**6)]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)

    def test_update_after_a_direct_mutation_clears_first(self):
        """A transaction must not hide an unknown change behind its
        own keys: the direct insert's rows go too."""
        engine, entries, queries = _overlay_engine(EngineConfig(cache_size=512))
        direct = _prefix_entry("0", "direct", 10**6)
        engine.matcher.insert(direct)
        engine.apply_updates([_prefix_entry("11", "x", 10**6 + 1)])
        assert engine.lazy_invalidations == 1
        entries = entries + [direct, _prefix_entry("11", "x", 10**6 + 1)]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)

    def test_scalar_updates_between_bursts_pay_one_sweep(self):
        """Ten scalar updates under one care mask between two bursts:
        the second burst sweeps the cache once, for all ten keys."""
        engine, entries, queries = _overlay_engine(EngineConfig(cache_size=64))
        assert len(engine.cache) == 64
        targeted, lazy = engine.targeted_invalidations, engine.lazy_invalidations
        new = [_prefix_entry(format(n, "04b"), n, 10**6 + n) for n in range(7)]
        for entry in new:
            engine.insert(entry)
        for entry in new[:3]:
            assert engine.delete(entry.key)
        assert engine.update_batches == 10
        assert engine.targeted_invalidations == targeted
        oracle = SortedListMatcher.build(entries + new[3:], KEY_LENGTH)
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle.lookup(query), got)
        assert engine.targeted_invalidations == targeted + 1
        assert engine.lazy_invalidations == lazy


class TestReferenceFollowsUpdates:
    def test_reference_is_patched_in_place(self):
        engine, entries, queries = _overlay_engine(
            EngineConfig(cache_size=64, auto_freeze=True, resilience=GuardRail(shadow_sample=1.0))
        )
        reference = engine._reference
        assert reference is not None
        new = _prefix_entry("01", "x", 10**6)
        engine.apply_updates([new, ("delete", entries[3].key)])
        engine.insert(_prefix_entry("001", "y", 10**6 + 1))
        assert engine.delete(new.key)
        assert engine._reference is reference
        engine.lookup_batch(queries)
        guard = engine.report()["resilience"]
        assert guard["reference_rebuilds"] == 1 and guard["shadow_mismatches"] == 0
        rebuilt = SortedListMatcher.build(list(engine.matcher.entries()), KEY_LENGTH)
        assert [e.priority for e in reference] == [e.priority for e in rebuilt]

    def test_direct_mutation_rebuilds_the_reference(self):
        engine, _, queries = _overlay_engine(
            EngineConfig(cache_size=64, resilience=GuardRail(shadow_sample=1.0))
        )
        engine.matcher.insert(_prefix_entry("01", "x", 10**6))
        engine.lookup_batch(queries[:10])
        assert engine.report()["resilience"]["reference_rebuilds"] == 2


class TestServedUpdateGate:
    """The paper's section 4.4 claim at the serving layer, on counts:
    32 rotating insert+delete transactions of a top-priority /16 deny
    over a warm 500-rule engine neither refreeze the plane nor rebuild
    the reference each time, and each evicts exactly the cached rows its
    keys match, in the sweep the next burst pays — also on an engine
    just restored from its last-good checkpoint, whose Palmtrie_k is
    rebuilt once, on the first update."""

    @pytest.mark.parametrize("form", ["built", "restored"])
    def test_transactions_patch_instead_of_rebuilding(self, form, monkeypatch):
        from repro.acl.compiler import compile_rule
        from repro.acl.rule import AclRule, Action, Protocol
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import zipf_trace

        acl = classbench_acl("acl", 500)
        rules = len(acl.entries)
        engine = ClassificationEngine(
            build_matcher(EngineConfig(), acl.entries, acl.layout.length),
            EngineConfig(
                cache_size=4096,
                auto_freeze=True,
                resilience=GuardRail(shadow_sample=0.01),
            ),
        )
        trace = zipf_trace(acl.entries, 8192, flows=2048, s=1.0, seed=7)
        bursts = [trace[i : i + 64] for i in range(0, len(trace), 64)]
        for burst in bursts[:32]:
            engine.lookup_batch(burst)
        rebuilds = 1
        if form == "restored":
            engine.mark_last_good()
            engine.restore_last_good()
            for burst in bursts[:32]:
                engine.lookup_batch(burst)
            rebuilds = 2  # the restore swapped the policy
        sources = []
        rebuild_source = FrozenMatcher.rebuild_source
        monkeypatch.setattr(
            FrozenMatcher,
            "rebuild_source",
            lambda plane: sources.append(plane) or rebuild_source(plane),
        )
        guard = engine.report()["resilience"]
        assert guard["reference_rebuilds"] == rebuilds
        checks, freezes = guard["shadow_checks"], engine.freezes
        nets = sorted({rule.dst_prefix[0] >> 16 for rule in acl.rules if rule.dst_prefix[1] >= 16})
        denies = [
            compile_rule(
                AclRule(Action.DENY, Protocol.IP, (0, 0), (net << 16, 16)),
                value="deny", priority=rules + 1, layout=acl.layout,
            )[0]
            for net in nets[:33]
        ]
        for index in range(32):
            ops = [("insert", denies[index + 1])]
            if index:
                ops.append(("delete", denies[index].key))
            keys = [denies[index + 1].key] + ([denies[index].key] if index else [])
            matched = sum(
                1 for query in engine.cache._map if any(key.matches(query) for key in keys)
            )
            invalidated = engine.cache_rows_invalidated
            engine.apply_updates(ops)
            for burst in bursts[32 + 3 * index : 35 + 3 * index]:
                engine.lookup_batch(burst)
            assert engine.cache_rows_invalidated - invalidated == matched
        guard = engine.report()["resilience"]
        assert engine.freezes == freezes
        assert len(sources) == (form == "restored")
        assert guard["reference_rebuilds"] == rebuilds
        assert guard["shadow_checks"] > checks and guard["shadow_mismatches"] == 0
        assert engine.health == "ok"


class TestOneServedForm:
    """Work counts of the one served form, a Palmtrie_k plus the frozen
    plane compiled from it: a restored plane serves without rebuilding
    its Palmtrie_k, a checkpoint writes the plane that serves, and no
    serving path compiles a Palmtrie+."""

    @staticmethod
    def _counting(monkeypatch, cls, name):
        calls = []
        real = getattr(cls, name)
        if isinstance(cls.__dict__[name], classmethod):
            real = real.__func__
            monkeypatch.setattr(
                cls, name, classmethod(lambda c, *a, **k: calls.append(a) or real(c, *a, **k))
            )
        else:
            monkeypatch.setattr(cls, name, lambda self, *a, **k: calls.append(a) or real(self, *a, **k))
        return calls

    def test_a_restored_plane_serves_without_rebuilding_its_source(self, monkeypatch):
        from repro.obs.export import render_prometheus

        entries = random_entries(60, KEY_LENGTH, seed=70)
        config = EngineConfig(cache_size=64, auto_freeze=True, metrics=True, resilience=True)
        engine = ClassificationEngine(build_matcher(config, entries, KEY_LENGTH), config)
        queries = _queries(300, seed=71)
        _check_oracle(engine, entries, queries)
        engine.mark_last_good()
        rebuilds = self._counting(monkeypatch, FrozenMatcher, "rebuild_source")
        engine.restore_last_good()
        _check_oracle(engine, entries, queries)
        for query in queries[:20]:
            assert_same_result(oracle_lookup(entries, query), engine.lookup(query))
        engine.report(), engine.health, render_prometheus(engine.metrics)
        engine.mark_last_good()
        assert rebuilds == [] and engine._source is None
        new = _prefix_entry("01", "new", 10**6)
        engine.apply_updates([("insert", new)])
        engine.apply_updates([("delete", new.key)])
        _check_oracle(engine, entries, queries)
        assert len(rebuilds) == 1 and engine.freezes == 1

    def test_mark_last_good_serializes_the_served_plane(self, monkeypatch):
        entries = random_entries(60, KEY_LENGTH, seed=72)
        config = EngineConfig(cache_size=64, auto_freeze=True)
        engine = ClassificationEngine(build_matcher(config, entries, KEY_LENGTH), config)
        engine.lookup_batch(_queries(200, seed=73))
        plane = engine._plane
        freezes = self._counting(monkeypatch, FrozenMatcher, "from_matcher")
        engine.mark_last_good()
        engine.mark_last_good()
        assert freezes == [] and engine._plane is plane
        # A pending overlay compacts first, and that freeze then serves.
        engine.apply_updates([_prefix_entry("1", "x", 10**6)])
        assert engine.plane_overlay_keys == 1
        engine.mark_last_good()
        assert len(freezes) == 1 and engine.freezes == 2
        assert engine.plane_overlay_keys == 0 and engine._plane is not plane
        engine.mark_last_good()
        assert len(freezes) == 1

    def test_serving_never_compiles_a_palmtrie_plus(self, monkeypatch, tmp_path):
        from repro.resilience import FaultInjector, injected

        compiles = self._counting(monkeypatch, PalmtriePlus, "compile")
        entries = random_entries(60, KEY_LENGTH, seed=74)
        injector = FaultInjector(seed=1)
        guard = GuardRail(injector=injector, backoff_seconds=30.0)
        config = EngineConfig(cache_size=64, auto_freeze=True, resilience=guard)
        engine = ClassificationEngine(build_matcher(config, entries, KEY_LENGTH), config)
        queries = _queries(300, seed=75)
        _check_oracle(engine, entries, queries)
        new = _prefix_entry("10", "new", 10**6)
        engine.apply_updates([("insert", new)])
        entries = entries + [new]
        injector.arm("frozen_walk", rate=1.0, count=1)
        with injected(injector):
            _check_oracle(engine, entries, _queries(64, seed=76))
        assert guard.faults["frozen_walk"] == 1 and guard.degraded_lookups > 0
        path = str(tmp_path / "good.plmc")
        engine.checkpoint(path)
        engine.restore_last_good(path)
        _check_oracle(engine, entries, queries)
        assert compiles == []

    def test_a_callers_palmtrie_plus_stays_coherent(self):
        """A Palmtrie+ handed to an engine takes the engine's updates in
        its Palmtrie_k and recompiles once, on its own first lookup: the
        engine's serving, updates and refreezes never compile it."""
        entries = random_entries(60, KEY_LENGTH, seed=77)
        plus = PalmtriePlus.build(entries, KEY_LENGTH)
        oracle = SortedListMatcher.build(entries, KEY_LENGTH)
        engine = ClassificationEngine(plus, EngineConfig(cache_size=64, auto_freeze=True))
        rng = random.Random(78)
        queries = _queries(2000, seed=79)
        for tx in range(16):
            new = _prefix_entry(format(tx, "04b"), f"tx{tx}", 10**6 + tx)
            victim = rng.choice(entries).key
            engine.apply_updates([("insert", new), ("delete", victim)])
            oracle.insert(new)
            while oracle.delete(victim):
                pass
            entries = [e for e in entries if e.key != victim] + [new]
            _check_oracle(engine, entries, queries[tx * 64 : (tx + 1) * 64])
            engine.refresh()
        assert engine.matcher is plus and engine.freezes > 1
        assert plus.compile_count == 1 and plus.stale
        for query in queries:
            assert_same_result(oracle.lookup(query), plus.lookup(query))
        assert plus.compile_count == 2


# ----------------------------------------------------------------------
# The instrumented lookup
# ----------------------------------------------------------------------

class TestDeprecatedShim:
    def test_profile_lookup_does_not_warn(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matcher.profile_lookup(0b00010101)
        assert matcher.stats.lookups == 1
