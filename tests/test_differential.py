"""Differential tests: every matcher against the sorted-list oracle.

This is the paper's own validation methodology (§4: "we have run tests
that compare the lookup results of Palmtries with those of the sorted
list and have confirmed they match").  Extended here to all baselines,
several strides, random tables, and ACL-shaped workloads.
"""

import random

import pytest

from helpers import (
    BUILD_ONLY,
    KINDS,
    assert_same_result,
    oracle_lookup,
    random_entries,
    served_matcher,
    updatable_kind,
)
from repro.baselines.dpdk_acl import DpdkStyleAcl
from repro.baselines.efficuts import EffiCutsClassifier
from repro.baselines.sorted_list import SortedListMatcher
from repro.baselines.tcam import TcamModel
from repro.core.adaptive import AdaptiveMatcher
from repro.core.basic import BasicPalmtrie
from repro.core.multibit import MultibitPalmtrie
from repro.core.frozen import FrozenMatcher
from repro.config import EngineConfig
from repro.engine import ClassificationEngine
from repro.workloads.campus import campus_acl
from repro.workloads.classbench import classbench_acl
from repro.workloads.traffic import pareto_trace, reverse_byte_scan, uniform_traffic

KEY_LENGTH = 16


def _matchers(entries, key_length):
    yield BasicPalmtrie.build(entries, key_length)
    for stride in (1, 3, 4, 7, 8):
        yield MultibitPalmtrie.build(entries, key_length, stride=stride)
        yield FrozenMatcher.build(entries, key_length, stride=stride)
    yield MultibitPalmtrie.build(entries, key_length, stride=4, subtree_skipping=False)
    yield DpdkStyleAcl.build(entries, key_length)
    yield EffiCutsClassifier.build(entries, key_length)
    yield AdaptiveMatcher.build(entries, key_length, small_threshold=20, large_threshold=60)
    yield TcamModel.build(entries, key_length)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_tables_all_matchers(seed):
    entries = random_entries(90, KEY_LENGTH, seed=seed)
    oracle = SortedListMatcher.build(entries, KEY_LENGTH)
    rng = random.Random(seed + 100)
    queries = [rng.getrandbits(KEY_LENGTH) for _ in range(400)]
    for matcher in _matchers(entries, KEY_LENGTH):
        for query in queries:
            assert_same_result(oracle.lookup(query), matcher.lookup(query))


def test_priority_collisions():
    """Many entries sharing one priority: matchers may return any of the
    tied winners but must agree on the winning priority."""
    rng = random.Random(9)
    entries = random_entries(60, KEY_LENGTH, seed=9, priority_range=4)
    oracle = SortedListMatcher.build(entries, KEY_LENGTH)
    for matcher in _matchers(entries, KEY_LENGTH):
        for _ in range(200):
            query = rng.getrandbits(KEY_LENGTH)
            assert_same_result(oracle.lookup(query), matcher.lookup(query))


def test_campus_acl_uniform_and_scan():
    acl = campus_acl(2)
    entries = list(acl.entries)
    oracle = SortedListMatcher.build(entries, 128)
    queries = uniform_traffic(entries, 250) + reverse_byte_scan(250)
    matchers = [
        BasicPalmtrie.build(entries, 128),
        MultibitPalmtrie.build(entries, 128, stride=6),
        FrozenMatcher.build(entries, 128, stride=8),
        DpdkStyleAcl.build(entries, 128),
        EffiCutsClassifier.build(entries, 128),
    ]
    for query in queries:
        expected = oracle.lookup(query)
        for matcher in matchers:
            assert_same_result(expected, matcher.lookup(query))


@pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
def test_classbench_traces(profile):
    acl = classbench_acl(profile, 150)
    entries = list(acl.entries)
    oracle = SortedListMatcher.build(entries, 128)
    queries = pareto_trace(entries, 250)
    matchers = [
        MultibitPalmtrie.build(entries, 128, stride=8),
        FrozenMatcher.build(entries, 128, stride=8),
        EffiCutsClassifier.build(entries, 128),
    ]
    for query in queries:
        expected = oracle.lookup(query)
        for matcher in matchers:
            assert_same_result(expected, matcher.lookup(query))


def test_incremental_inserts_track_oracle():
    """Interleaved inserts with lookups after each batch; the Palmtrie+
    is refrozen from the Palmtrie_k after each one (§3.6)."""
    entries = random_entries(120, KEY_LENGTH, seed=77)
    oracle = SortedListMatcher(KEY_LENGTH)
    palmtrie = MultibitPalmtrie(KEY_LENGTH, stride=4)
    rng = random.Random(77)
    for start in range(0, len(entries), 30):
        for entry in entries[start : start + 30]:
            oracle.insert(entry)
            palmtrie.insert(entry)
        plus = FrozenMatcher.from_matcher(palmtrie)
        for _ in range(100):
            query = rng.getrandbits(KEY_LENGTH)
            expected = oracle.lookup(query)
            assert_same_result(expected, palmtrie.lookup(query))
            assert_same_result(expected, plus.lookup(query))


# ---------------------------------------------------------------------------
# Churn fuzz: random interleavings of inserts, deletes, transactional
# batches, and lookups driven through the serving engine, checked after
# every mutation against the brute-force oracle.  Every updatable
# structure (build-only baselines raise NotImplementedError on insert)
# takes the same ops beside the engine and must agree with it — for the
# read-only frozen plane, the Palmtrie_k its updates go to; the engine
# takes the kind itself when it is a served form, a Palmtrie+
# otherwise.  The engine serves its frozen plane with the flow cache on
# and off — where a stale cache row or a stale frozen plane would
# surface as a wrong verdict rather than a crash.
# ---------------------------------------------------------------------------

CHURN_KINDS = sorted(set(KINDS) - BUILD_ONLY)


def _fuzz_churn(kind, seed, *, cache_size=256, steps=90):
    rng = random.Random(seed)
    live = random_entries(40, KEY_LENGTH, seed=seed)
    pool = random_entries(140, KEY_LENGTH, seed=seed + 1)
    reference = updatable_kind(kind, live, KEY_LENGTH)
    engine = ClassificationEngine(served_matcher(kind, live, KEY_LENGTH), EngineConfig(cache_size=cache_size))

    def check(count):
        for _ in range(count):
            query = rng.getrandbits(KEY_LENGTH)
            got = engine.lookup(query)
            assert_same_result(oracle_lookup(live, query), got)
            assert_same_result(reference.lookup(query), got)

    for _ in range(steps):
        action = rng.randrange(6)
        if action == 0 and pool:
            entry = pool.pop(rng.randrange(len(pool)))
            engine.insert(entry)
            reference.insert(entry)
            live.append(entry)
        elif action == 1 and live:
            key = rng.choice(live).key
            assert engine.delete(key)
            assert reference.delete(key)
            live[:] = [e for e in live if e.key != key]
        elif action == 2:
            # One transaction of mixed ops; mirror each op into the
            # oracle list in apply order (a batch may delete a key it
            # inserted moments earlier).
            ops = []
            for _ in range(rng.randrange(1, 5)):
                if pool and rng.random() < 0.6:
                    entry = pool.pop(rng.randrange(len(pool)))
                    ops.append(("insert", entry))
                    live.append(entry)
                elif live:
                    key = rng.choice(live).key
                    ops.append(("delete", key))
                    live[:] = [e for e in live if e.key != key]
            if ops:
                report = engine.apply_updates(ops)
                assert report.missing_deletes == 0
                for op, payload in ops:
                    if op == "insert":
                        reference.insert(payload)
                    else:
                        assert reference.delete(payload)
        elif action == 3 and pool:
            # Mutate the matcher directly, bypassing the engine: the
            # generation stamp must still keep cache and plane coherent.
            entry = pool.pop(rng.randrange(len(pool)))
            engine.matcher.insert(entry)
            reference.insert(entry)
            live.append(entry)
        elif action == 4:
            queries = [rng.getrandbits(KEY_LENGTH) for _ in range(20)]
            got = engine.lookup_batch(queries)
            for query, result, want in zip(queries, got, reference.lookup_batch(queries)):
                assert_same_result(oracle_lookup(live, query), result)
                assert_same_result(want, result)
        check(3)
    check(25)


@pytest.mark.parametrize("cache_size", [256, 0], ids=["cached", "uncached"])
@pytest.mark.parametrize("kind", CHURN_KINDS)
def test_churn_fuzz_tracks_oracle(kind, cache_size):
    seed = 11 + CHURN_KINDS.index(kind)
    _fuzz_churn(kind, seed, cache_size=cache_size)


def test_interleaved_deletes_track_oracle():
    entries = random_entries(100, KEY_LENGTH, seed=78)
    oracle = SortedListMatcher.build(entries, KEY_LENGTH)
    palmtrie = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4)
    basic = BasicPalmtrie.build(entries, KEY_LENGTH)
    rng = random.Random(78)
    keys = list({e.key for e in entries})
    rng.shuffle(keys)
    for key in keys[:60]:
        assert oracle.delete(key) == palmtrie.delete(key) == basic.delete(key)
        for _ in range(25):
            query = rng.getrandbits(KEY_LENGTH)
            expected = oracle.lookup(query)
            assert_same_result(expected, palmtrie.lookup(query))
            assert_same_result(expected, basic.lookup(query))
