"""The shard pool (repro.shard): an engine's misses across processes.

The contract under test is the paper's correctness bar carried across
process boundaries: a :class:`ClassificationEngine` whose misses a
:class:`ShardedEngine` pool resolves must return exactly the verdicts
of an in-process engine over the same rules — through policy updates
(atomic cross-shard plane swaps) and through worker death (degrade to
the parent's plane, then respawn).  The surface shared with every other
engine shape is ``tests/test_conformance.py``'s job.

Everything here runs on one core; the *scaling* claim is
``benchmarks/bench_shards.py``'s job.
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from helpers import in_another_node_order, random_entries
from repro.config import EngineConfig
from repro.core.frozen import FrozenMatcher
from repro.core.multibit import MultibitPalmtrie
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.engine import ClassificationEngine
from repro.shard import ShardedEngine, flow_shard

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
# The flow-to-bucket hash
# ----------------------------------------------------------------------


class TestPlane:
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


class TestMissSlicing:
    def test_workers_see_only_contiguous_slices_of_the_misses(self, policy):
        """The engine's cache answers repeats in the parent; the pool
        splits the burst's distinct misses into one contiguous slice per
        worker, and the workers keep no cache of their own."""
        queries = _trace(2000, seed=43)
        unique = len(set(queries))
        with ClassificationEngine(
            MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8),
            EngineConfig(cache_size=4096, shards=2),
        ) as engine:
            engine.lookup_batch(queries)
            engine.lookup_batch(queries)  # all hits: nothing crosses IPC
            workers = engine.report()["shards"]["workers"]
            assert [w["lookups"] for w in workers] == [(unique + 1) // 2, unique // 2]
            assert all(w["batches"] == 1 for w in workers)
            assert not any("cache" in key for w in workers for key in w)
            assert isinstance(engine.pool, ShardedEngine)
            assert engine.cache.capacity == 2 * 4096


# ----------------------------------------------------------------------
# Cross-process differential
# ----------------------------------------------------------------------


class TestShardedDifferential:
    def test_verdicts_match_single_process_with_midtrace_update(self, policy):
        queries = _trace(10_000, seed=7)
        matcher_a = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        matcher_b = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        config = EngineConfig(cache_size=512, shards=2)
        single = ClassificationEngine(matcher_a, config.replace(shards=0))
        override = TernaryEntry(
            key=TernaryKey.wildcard(KEY_LENGTH), value=999, priority=10_000
        )
        with ClassificationEngine(matcher_b, config) as sharded:
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
            assert sharded.pool.shards_alive == 2

    def test_hot_layout_cross_process(self, policy):
        """A plane loaded from an image in the retired hot-first node
        order survives the process hop: the workers serve leaf indices of
        that order, and the verdicts still match a plain single-process
        engine."""
        queries = _trace(4_000, seed=23)
        config = EngineConfig(cache_size=0, shards=2)
        matcher_a = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        hot = in_another_node_order(FrozenMatcher.build(policy, KEY_LENGTH, stride=8))
        single = ClassificationEngine(
            matcher_a, EngineConfig(cache_size=0)
        )
        with ClassificationEngine(hot, config) as sharded:
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            assert sharded.health == "ok"

    def test_replay_counts_match_lookup_batch(self, policy):
        from repro.workloads.traffic import uniform_traffic

        queries = uniform_traffic(policy, 4000, seed=9)
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        )
        expected: dict = {}
        misses = 0
        for entry in single.lookup_batch(queries):
            if entry is None:
                misses += 1
            else:
                expected[entry.value] = expected.get(entry.value, 0) + 1
        assert expected, "trace must actually match rules"
        with ClassificationEngine(matcher, EngineConfig(shards=2)) as sharded:
            result = sharded.pool.replay(queries, chunk_size=512)
        assert result["queries"] == len(queries)
        assert result["verdicts"] == expected
        assert result["missed"] == misses
        assert result["matched"] == len(queries) - misses

    def test_scalar_lookup_and_delegated_surface(self, policy):
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        reference = ClassificationEngine(
            MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        )
        queries = _trace(100, seed=13)
        with ClassificationEngine(matcher, EngineConfig(shards=1)) as sharded:
            for query in queries:
                got, want = sharded.lookup(query), reference.lookup(query)
                assert _values([got]) == _values([want])
            report = sharded.report()
            assert report["shards"]["count"] == 1
            assert report["shards"]["alive"] == 1
            # scalar misses are answered from the parent's plane
            assert report["shards"]["workers"][0]["lookups"] == 0
            assert sharded.epoch == 0
            assert sharded.stats.lookups == len(queries)


# ----------------------------------------------------------------------
# Worker death: degrade, then respawn
# ----------------------------------------------------------------------


class TestWorkerRecovery:
    def test_sigkill_degrades_then_respawns_with_exact_verdicts(self, policy):
        queries = _trace(3000, seed=17)
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        )
        config = EngineConfig(cache_size=256, shards=2, shard_timeout=10.0)
        with ClassificationEngine(matcher, config) as sharded:
            pool = sharded.pool
            third = len(queries) // 3
            assert _values(sharded.lookup_batch(queries[:third])) == \
                _values(single.lookup_batch(queries[:third]))

            victim = pool._shards[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10)

            # the burst straddling the death must still be exact; drop
            # the parent's cache so its misses reach the dead worker
            sharded.invalidate_all()
            got = sharded.lookup_batch(queries[third : 2 * third])
            want = single.lookup_batch(queries[third : 2 * third])
            assert _values(got) == _values(want)
            assert pool.worker_deaths >= 1
            assert pool.local_fallback_lookups > 0
            assert sharded.health == "degraded"
            deadline = time.monotonic() + 10.0
            while pool.shards_alive < 2 and time.monotonic() < deadline:
                sharded.invalidate_all()
                sharded.lookup_batch(queries[:64])  # respawn happens lazily
            assert pool.shards_alive == 2

            # after recovery, still exact
            assert _values(sharded.lookup_batch(queries[2 * third :])) == \
                _values(single.lookup_batch(queries[2 * third :]))
            guard = sharded.resilience
            assert guard is not None
            assert guard.faults.get("shard_worker", 0) >= 1

    def test_worker_killed_after_an_update_respawns_on_the_new_policy(self, policy):
        """A worker respawned after a policy update starts from the
        current image, not the one the pool was built with; the
        survivor loads the new image once, with its first request."""
        queries = _trace(2000, seed=53)
        override = TernaryEntry(
            key=TernaryKey.wildcard(KEY_LENGTH), value=999, priority=10_000
        )
        config = EngineConfig(cache_size=0, shards=2, shard_timeout=10.0)
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        with ClassificationEngine(matcher, config) as sharded:
            pool = sharded.pool
            sharded.lookup_batch(queries[:200])
            sharded.apply_updates([("insert", override)])
            sharded.refresh()  # refreeze and serve the new plane
            victim = pool._shards[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10)
            deadline = time.monotonic() + 10.0
            got = sharded.lookup_batch(queries)
            while pool.shards_alive < 2 and time.monotonic() < deadline:
                got = sharded.lookup_batch(queries)  # respawn happens lazily
            assert pool.shards_alive == 2 and pool.respawns == 1
            got = sharded.lookup_batch(queries)
            assert all(e is not None and e.value == 999 for e in got)
            reborn, survivor = pool.worker_reports()
            assert reborn["stamp"] == survivor["stamp"] == pool.report()["stamp"]
            assert reborn["loads"] == 1 and reborn["lookups"] > 0
            assert survivor["loads"] == 2

    def test_worker_survives_malformed_messages(self, policy):
        """Garbage on the control socket is a bad *request*, not a dead
        worker: the worker answers ``("err", ...)`` and keeps serving.
        (The unpack used to sit outside the guarded block, so a
        non-tuple message killed the process.)"""
        queries = _trace(500, seed=19)
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        single = ClassificationEngine(
            MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        )
        with ClassificationEngine(matcher, EngineConfig(shards=1)) as sharded:
            handle = sharded.pool._shards[0]
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
            handle.conn.send(("report",))
            kind, report = handle.conn.recv()
            assert kind == "ok" and report["shard"] == 0
            assert _values(sharded.lookup_batch(queries)) == \
                _values(single.lookup_batch(queries))
            assert sharded.pool.shards_alive == 1
            assert sharded.health == "ok"

    def test_close_is_idempotent_and_kills_workers(self, policy):
        matcher = MultibitPalmtrie.build(policy, KEY_LENGTH, stride=8)
        sharded = ClassificationEngine(matcher, EngineConfig(shards=2))
        pids = [handle.proc.pid for handle in sharded.pool._shards]
        queries = _trace(200, seed=47)
        want = _values(sharded.lookup_batch(queries))
        sharded.close()
        sharded.close()  # second close is a no-op
        assert sharded.pool is None
        # a closed engine keeps serving in-process
        sharded.invalidate_all()
        assert _values(sharded.lookup_batch(queries)) == want
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
