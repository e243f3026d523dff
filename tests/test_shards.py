"""The sharded multi-process data plane (repro.shard).

The contract under test is the paper's correctness bar carried across
process boundaries: a :class:`ShardedEngine` must return exactly the
verdicts of a single-process :class:`ClassificationEngine` over the
same rules — through policy updates (atomic cross-shard plane swaps)
and through worker death (degrade to the local fallback, then respawn).

Everything here runs on one core; the *scaling* claim is
``benchmarks/bench_shards.py``'s job.
"""

from __future__ import annotations

import os
import random
import signal
import time
from types import SimpleNamespace

import pytest

from helpers import random_entries
from repro.config import EngineConfig
from repro.core.frozen import freeze
from repro.core.plus import PalmtriePlus
from repro.core.serialize import serialize_frozen
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.engine import _MISSING, ClassificationEngine, FlowCache
from repro.shard import ShardedEngine, attach_plane, detach_plane, flow_shard, publish_plane
from repro.shard.worker import _WorkerState

KEY_LENGTH = 128


def _trace(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    population = [rng.getrandbits(KEY_LENGTH) for _ in range(max(16, count // 8))]
    return [rng.choice(population) for _ in range(count)]


def _values(entries):
    return [None if e is None else (e.value, e.priority) for e in entries]


@pytest.fixture(scope="module")
def policy():
    entries = random_entries(60, KEY_LENGTH, seed=11)
    return entries


# ----------------------------------------------------------------------
# The shared-memory plane
# ----------------------------------------------------------------------


class TestPlane:
    def test_publish_attach_round_trip(self, policy):
        frozen = freeze(PalmtriePlus.build(policy, KEY_LENGTH, stride=8))
        plane = publish_plane(frozen, stamp=1, epoch=0, generation=0)
        try:
            mapped, shm = attach_plane(plane.name)
            try:
                assert serialize_frozen(mapped) == serialize_frozen(frozen)
                queries = _trace(200, seed=2)
                assert mapped.lookup_batch_indices(queries) == \
                    frozen.lookup_batch_indices(queries)
            finally:
                mapped = None
                detach_plane(shm)
        finally:
            plane.retire()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_plane("psm_does_not_exist_xyzzy")

    def test_flow_shard_is_stable_and_balanced(self):
        queries = _trace(4000, seed=3)
        first = [flow_shard(q, 4) for q in queries]
        assert first == [flow_shard(q, 4) for q in queries]
        counts = [first.count(i) for i in range(4)]
        assert all(count > 0 for count in counts)

    @pytest.mark.parametrize("shards", (2, 4, 8))
    def test_flow_shard_spreads_low_bit_constant_traces(self, shards):
        """The RSS hash must avalanche, not truncate: a trace whose low
        header bits are constant (a fixed dst port, say) has to spread
        across every power-of-two shard count within tolerance.  The
        old ``hash(q) % n`` — near-identity for ints — pinned this
        entire trace to ``0x50 % n``."""
        rng = random.Random(29)
        # 4000 distinct flows, all sharing the low byte 0x50 and a
        # constant zero mid-section: only high-order bits vary.
        queries = list({(rng.getrandbits(24) << 8) | 0x50 for _ in range(4000)})
        counts = [0] * shards
        for q in queries:
            counts[flow_shard(q, shards)] += 1
        mean = len(queries) / shards
        assert all(c > 0 for c in counts), counts
        assert max(counts) / mean <= 1.5, counts

    def test_flow_shard_uses_high_limbs_of_wide_keys(self):
        """Queries differing only above bit 64 (the v6 src address end)
        must not collapse onto one shard."""
        rng = random.Random(31)
        low = rng.getrandbits(64)
        queries = [(rng.getrandbits(64) << 64) | low for _ in range(2000)]
        counts = [0] * 4
        for q in queries:
            counts[flow_shard(q, 4)] += 1
        mean = len(queries) / 4
        assert max(counts) / mean <= 1.5, counts


def _per_packet_resolve(cache, matcher, queries):
    """The loop ``_WorkerState.resolve`` ran before ``FlowCache.probe``/
    ``fill``: one ``get`` per packet, the misses walked as they came
    (duplicates included) and one ``put`` per missed packet.  Kept as
    the oracle the batch helpers must equal."""
    indices = [0] * len(queries)
    miss_pos, miss_q = [], []
    for i, q in enumerate(queries):
        j = cache.get(q)
        if j is _MISSING:
            miss_pos.append(i)
            miss_q.append(q)
        else:
            indices[i] = j
    if miss_q:
        for i, q, j in zip(miss_pos, miss_q, matcher.lookup_batch_indices(miss_q)):
            indices[i] = j
            cache.put(q, j)
    return indices, len(queries) - len(miss_q)


class TestWorkerProbeFill:
    @pytest.mark.parametrize("capacity", [0, 1, 7, 4096])
    def test_resolve_equals_per_packet_loop(self, policy, capacity):
        """Same indices, hits, rows and LRU order after every burst,
        including bursts that miss one query several times and a burst
        that overflows the cache on its own."""
        rng = random.Random(capacity)
        frozen = freeze(PalmtriePlus.build(policy, KEY_LENGTH, stride=8))
        state = _WorkerState(0, capacity)
        state.matcher = frozen
        oracle = FlowCache(capacity)
        pool = [rng.getrandbits(KEY_LENGTH) for _ in range(400)]
        bursts = [
            [rng.choice(pool) for _ in range(rng.randrange(301))] for _ in range(40)
        ]
        fresh = [rng.getrandbits(KEY_LENGTH) for _ in range(5_000)]
        bursts.insert(20, fresh + fresh[:50])
        hits = 0
        for burst in bursts:
            got = state.resolve(burst)
            expected = _per_packet_resolve(oracle, frozen, burst)
            assert got == expected
            hits += expected[1]
            assert list(state.cache._map.items()) == list(oracle._map.items())
        assert state.cache_hits == hits
        assert state.lookups == sum(map(len, bursts))


class TestOwnerMemo:
    def test_scatter_uses_flow_shard_and_keeps_order(self):
        queries = _trace(3000, seed=41)
        fake = SimpleNamespace(_owner_memo={}, _shards=[None] * 3)
        buckets, slots = ShardedEngine._scatter(fake, queries)
        for s in range(3):
            assert slots[s] == [i for i, q in enumerate(queries) if flow_shard(q, 3) == s]
            assert buckets[s] == [queries[i] for i in slots[s]]
        assert fake._owner_memo == {q: flow_shard(q, 3) for q in queries}

    def test_memo_is_bounded_under_scan_traffic(self):
        fake = SimpleNamespace(_owner_memo={}, _shards=[None] * 2)
        scan = list(range(70_000))
        buckets, _ = ShardedEngine._scatter(fake, scan)
        assert len(fake._owner_memo) == 70_000 - 65_536
        assert sorted(buckets[0] + buckets[1]) == scan
        assert all(flow_shard(q, 2) == 1 for q in buckets[1][:1000])


# ----------------------------------------------------------------------
# Cross-process differential
# ----------------------------------------------------------------------


class TestShardedDifferential:
    def test_verdicts_match_single_process_with_midtrace_update(self, policy):
        queries = _trace(10_000, seed=7)
        matcher_a = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        matcher_b = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        config = EngineConfig(cache_size=512, shards=2)
        single = ClassificationEngine(matcher_a, config.replace(shards=0))
        override = TernaryEntry(
            key=TernaryKey.wildcard(KEY_LENGTH), value=999, priority=10_000
        )
        with ShardedEngine(matcher_b, config) as sharded:
            half = len(queries) // 2
            assert _values(sharded.lookup_batch(queries[:half])) == \
                _values(single.lookup_batch(queries[:half]))
            # mid-trace transactional update: a match-all override that
            # must win everywhere, in both engines, atomically
            sharded.apply_updates([("insert", override)])
            single.apply_updates([("insert", override)])
            got = sharded.lookup_batch(queries[half:])
            want = single.lookup_batch(queries[half:])
            assert _values(got) == _values(want)
            assert all(e is not None and e.value == 999 for e in got)
            assert sharded.health == "ok"
            assert sharded.shards_alive == 2

    def test_hot_layout_cross_process(self, policy):
        """The hot layout survives the PLMS hop: the workers serve from
        hot-ordered planes, and the verdicts still match a plain
        single-process engine."""
        queries = _trace(4_000, seed=23)
        config = EngineConfig(cache_size=0, shards=2, frozen_layout="hot")
        matcher_a = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        matcher_b = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            matcher_a, EngineConfig(cache_size=0)
        )
        with ShardedEngine(matcher_b, config) as sharded:
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            assert sharded.health == "ok"

    def test_replay_counts_match_lookup_batch(self, policy):
        from repro.workloads.traffic import uniform_traffic

        queries = uniform_traffic(policy, 4000, seed=9)
        matcher = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        expected: dict = {}
        misses = 0
        for entry in single.lookup_batch(queries):
            if entry is None:
                misses += 1
            else:
                expected[entry.value] = expected.get(entry.value, 0) + 1
        assert expected, "trace must actually match rules"
        with ShardedEngine(matcher, EngineConfig(shards=2)) as sharded:
            result = sharded.replay(queries, chunk_size=512)
        assert result["queries"] == len(queries)
        assert result["verdicts"] == expected
        assert result["missed"] == misses
        assert result["matched"] == len(queries) - misses

    def test_scalar_lookup_and_delegated_surface(self, policy):
        matcher = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        reference = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        queries = _trace(100, seed=13)
        with ShardedEngine(matcher, EngineConfig(shards=1)) as sharded:
            for query in queries:
                got, want = sharded.lookup(query), reference.lookup(query)
                assert _values([got]) == _values([want])
            report = sharded.report()
            assert report["shards"]["count"] == 1
            assert report["shards"]["alive"] == 1
            # the inner-engine surface stays reachable (stats, epoch...)
            assert sharded.epoch == 0
            assert sharded.stats.lookups >= len(queries)


# ----------------------------------------------------------------------
# Startup recovery through the sharded facade
# ----------------------------------------------------------------------


class TestShardedCheckpointRecovery:
    def test_from_checkpoint_matches_in_process_recovery(self, policy, tmp_path):
        """``ShardedEngine.from_checkpoint`` is the same recovery
        contract as the in-process engine's, just fronted by workers:
        verdicts over the restored policy must be a bit-identical
        differential, and the restore/rebuild provenance counters must
        survive the facade (they used to be discarded, so a recovered
        sharded engine reported ``checkpoint_restores == 0``)."""
        queries = _trace(3000, seed=37)
        path = str(tmp_path / "policy.plmc")
        source = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        source.checkpoint(path)

        def rebuild():
            # A deliberately wrong fallback policy: if recovery silently
            # takes the rebuild path, the differential below fails loud.
            return PalmtriePlus.build(policy[:1], KEY_LENGTH, stride=8)

        single = ClassificationEngine.from_checkpoint(path, rebuild=rebuild)
        config = EngineConfig(cache_size=256, shards=2)
        with ShardedEngine.from_checkpoint(
            path, rebuild=rebuild, config=config
        ) as sharded:
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            report = sharded.report()
            assert report["checkpoint_restores"] == 1
            assert report["checkpoint_rebuilds"] == 0
            assert report["shards"]["count"] == 2
            # delegated surface agrees with the report
            assert sharded.checkpoint_restores == 1
            assert sharded.epoch == single.epoch
            assert sharded.health == "ok"

    def test_from_checkpoint_rebuild_fallback_still_exact(self, policy, tmp_path):
        """A garbled checkpoint must fall back to ``rebuild`` (counted
        as a rebuild, not a restore) and the workers must serve the
        rebuilt policy exactly."""
        path = tmp_path / "garbled.plmc"
        path.write_bytes(b"not a checkpoint")

        def rebuild():
            return PalmtriePlus.build(policy, KEY_LENGTH, stride=8)

        queries = _trace(1000, seed=41)
        single = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        with ShardedEngine.from_checkpoint(
            str(path), rebuild=rebuild, config=EngineConfig(shards=2)
        ) as sharded:
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            report = sharded.report()
            assert report["checkpoint_restores"] == 0
            assert report["checkpoint_rebuilds"] == 1
            assert sharded.health == "ok"


# ----------------------------------------------------------------------
# Worker death: degrade, then respawn
# ----------------------------------------------------------------------


class TestWorkerRecovery:
    def test_sigkill_degrades_then_respawns_with_exact_verdicts(self, policy):
        queries = _trace(3000, seed=17)
        matcher = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        config = EngineConfig(cache_size=256, shards=2, shard_timeout=10.0)
        with ShardedEngine(matcher, config) as sharded:
            third = len(queries) // 3
            assert _values(sharded.lookup_batch(queries[:third])) == \
                _values(single.lookup_batch(queries[:third]))

            victim = sharded._shards[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10)

            # the burst straddling the death must still be exact
            got = sharded.lookup_batch(queries[third : 2 * third])
            want = single.lookup_batch(queries[third : 2 * third])
            assert _values(got) == _values(want)
            assert sharded.worker_deaths >= 1
            deadline = time.monotonic() + 10.0
            while sharded.shards_alive < 2 and time.monotonic() < deadline:
                sharded.lookup_batch(queries[:64])  # respawn happens lazily
            assert sharded.shards_alive == 2

            # after recovery, still exact
            assert _values(sharded.lookup_batch(queries[2 * third :])) == \
                _values(single.lookup_batch(queries[2 * third :]))
            guard = sharded.resilience
            assert guard is not None
            assert guard.faults.get("shard_worker", 0) >= 1

    def test_worker_survives_malformed_messages(self, policy):
        """Garbage on the control socket is a bad *request*, not a dead
        worker: the worker answers ``("err", ...)`` and keeps serving.
        (The unpack used to sit outside the guarded block, so a
        non-tuple message killed the process.)"""
        queries = _trace(500, seed=19)
        matcher = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        )
        with ShardedEngine(matcher, EngineConfig(shards=1)) as sharded:
            handle = sharded._shards[0]
            garbage = (
                42,                       # not a tuple at all
                (),                       # empty tuple
                ("batch",),               # right op, wrong arity
                ("no-such-op", 1, 2),     # unknown op
                (None, "x"),              # unhashable-op shapes
            )
            for msg in garbage:
                handle.conn.send(msg)
                kind, site, detail = handle.conn.recv()
                assert kind == "err", (msg, kind, detail)
                assert site in ("shard_protocol", "shard_batch"), (msg, site)
            # still alive and still exact after every insult
            handle.conn.send(("ping", "still-there"))
            assert handle.conn.recv() == ("ok", "still-there")
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            assert sharded.shards_alive == 1
            assert sharded.health == "ok"

    def test_close_is_idempotent_and_kills_workers(self, policy):
        matcher = PalmtriePlus.build(policy, KEY_LENGTH, stride=8)
        sharded = ShardedEngine(matcher, EngineConfig(shards=2))
        pids = [handle.proc.pid for handle in sharded._shards]
        sharded.close()
        sharded.close()  # second close is a no-op
        for pid in pids:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} still alive after close()")
