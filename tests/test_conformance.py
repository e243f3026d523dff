"""One serving contract over every engine shape.

The same calls — ``lookup``, ``lookup_batch``, ``apply_updates``,
``checkpoint`` → ``restore_last_good``, ``invalidate_all`` and
``report()`` — run against an in-process engine, an engine whose misses
a two-worker shard pool resolves, a tenant-wrapped sharded engine, and
a tenant whose batches stream through a ``StreamPipeline`` in uneven
bursts, and every verdict is checked against the sorted-list oracle.  A
hypothesis state machine then interleaves bursts, scan bursts the
decision-region tier answers, update batches, direct matcher mutations,
last-good restores and worker SIGKILLs on the first two shapes.
"""

from __future__ import annotations

import itertools
import os
import random
import signal

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.baselines.sorted_list import SortedListMatcher
from repro.config import EngineConfig
from repro.core.frozen import FrozenMatcher, freeze
from repro.core.table import TernaryEntry, build_matcher
from repro.core.ternary import TernaryKey
from repro.engine import ClassificationEngine
from repro.stream import StreamPipeline
from repro.tenant import TenantRouter, TenantSpec
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import zipf_trace

COMPILED = campus_acl(2)
ACL_TEXT = "\n".join(rule.to_line() for rule in COMPILED.rules)
KEY_LENGTH = COMPILED.layout.length
#: report() keys every engine shape must serve
REPORT_KEYS = {
    "lookups", "cache_size", "cache_entries", "cache_hits", "cache_misses",
    "cache_hit_ratio", "batches", "updates_applied", "update_batches",
    "generation", "epoch", "health", "checkpoint_restores",
    "checkpoint_rebuilds", "resilience",
}
SHAPES = ("in-process", "sharded", "tenant", "stream")


def _sig(entry):
    return None if entry is None else (entry.value, entry.priority)


def _oracle(entries) -> SortedListMatcher:
    oracle = SortedListMatcher(KEY_LENGTH)
    for entry in entries:
        oracle.insert(entry)
    return oracle


def _override(query: int, bits: int, serial: int) -> TernaryEntry:
    """A top-priority entry matching every query that shares the top
    ``bits`` bits of ``query`` (so an update re-verdicts real traffic)."""
    mask = (1 << (KEY_LENGTH - bits)) - 1
    data = query & ~mask & ((1 << KEY_LENGTH) - 1)
    return TernaryEntry(TernaryKey(data, mask, KEY_LENGTH), 10_000 + serial, 10_000 + serial)


def _queries(count: int, seed: int) -> list[int]:
    """Flow-skewed traffic (cache hits) mixed with fresh misses."""
    rng = random.Random(seed)
    flows = zipf_trace(COMPILED.entries, count, flows=64, seed=seed)
    fresh = [rng.getrandbits(KEY_LENGTH) for _ in range(count // 4)]
    mixed = flows + fresh
    rng.shuffle(mixed)
    return mixed


class _Streamed:
    """A tenant whose ``lookup_batch`` streams the queries through a
    ``StreamPipeline`` in uneven bursts (block policy, an odd service
    quantum, so batches span bursts and leftovers wait between them);
    every other call goes to the tenant."""

    BURSTS = (1, 37, 5, 130, 64, 11, 90)

    def __init__(self, tenant) -> None:
        self.tenant = tenant
        self.pipeline = StreamPipeline(
            tenant, policy="block", max_inflight=256, batch_max=64, service_quantum=23
        )

    def lookup_batch(self, queries):
        bursts, start = [], 0
        for size in itertools.cycle(self.BURSTS):
            if start >= len(queries):
                break
            bursts.append(queries[start : start + size])
            start += size
        report = self.pipeline.run(bursts, collect_verdicts=True)
        assert report.served == report.offered == len(queries)
        return report.verdicts

    def lookup(self, query):
        return self.lookup_batch([query])[0]

    def __getattr__(self, name):
        return getattr(self.tenant, name)


class _Shape:
    """One engine shape: ``front`` takes the data-plane calls,
    ``engine`` is the ClassificationEngine behind it."""

    def __init__(self, kind: str) -> None:
        config = EngineConfig(
            cache_size=128,
            auto_freeze=True,
            resilience=True,
            shards=2 if kind in ("sharded", "tenant") else 0,
        )
        self.router = None
        if kind in ("tenant", "stream"):
            self.router = TenantRouter([TenantSpec("t", acl=ACL_TEXT, engine=config)])
            self.front = self.router["t"]
            self.engine = self.front.engine
            if kind == "stream":
                self.front = _Streamed(self.front)
        else:
            matcher = build_matcher(config, COMPILED.entries, KEY_LENGTH)
            self.engine = self.front = ClassificationEngine(matcher, config)

    def report(self) -> dict:
        return self.front.report()["engine"] if self.router else self.front.report()

    def close(self) -> None:
        (self.router or self.engine).close()


@pytest.fixture(params=SHAPES)
def shape(request):
    built = _Shape(request.param)
    yield built
    built.close()


def _check(front, queries, oracle) -> None:
    got = [_sig(e) for e in front.lookup_batch(queries)]
    assert got == [_sig(oracle.lookup(q)) for q in queries]


class TestConformance:
    def test_lookup_and_lookup_batch(self, shape):
        oracle = _oracle(COMPILED.entries)
        queries = _queries(1200, seed=1)
        for offset in range(0, len(queries), 256):
            _check(shape.front, queries[offset : offset + 256], oracle)
        for query in queries[:50]:
            assert _sig(shape.front.lookup(query)) == _sig(oracle.lookup(query))
        assert shape.engine.health == "ok"

    def test_apply_updates(self, shape):
        entries = list(COMPILED.entries)
        queries = _queries(1200, seed=2)
        _check(shape.front, queries, _oracle(entries))
        inserts = [_override(q, 4, i) for i, q in enumerate(queries[:3])]
        shape.front.apply_updates([("insert", e) for e in inserts])
        _check(shape.front, queries, _oracle(entries + inserts))
        shape.front.apply_updates([("delete", inserts[0].key)])
        _check(shape.front, queries, _oracle(entries + inserts[1:]))
        assert shape.report()["update_batches"] == 2

    def test_checkpoint_then_restore_last_good(self, shape, tmp_path):
        entries = list(COMPILED.entries)
        queries = _queries(1200, seed=3)
        path = str(tmp_path / "good.plmc")
        shape.engine.checkpoint(path)
        override = _override(queries[0], 2, 0)
        shape.front.apply_updates([("insert", override)])
        _check(shape.front, queries, _oracle(entries + [override]))
        shape.engine.restore_last_good(path)
        _check(shape.front, queries, _oracle(entries))
        assert shape.report()["checkpoint_restores"] == 1

    def test_invalidate_all(self, shape):
        oracle = _oracle(COMPILED.entries)
        queries = _queries(1200, seed=4)
        _check(shape.front, queries, oracle)
        held = len(shape.engine.cache)
        assert held > 0
        assert shape.engine.invalidate_all() == held
        assert len(shape.engine.cache) == 0
        _check(shape.front, queries, oracle)

    def test_report_keys(self, shape):
        shape.front.lookup_batch(_queries(300, seed=5))
        report = shape.report()
        assert REPORT_KEYS <= set(report)
        sharded = shape.engine.pool is not None
        assert ("shards" in report) == sharded
        if sharded:
            assert report["shards"]["count"] == report["shards"]["alive"] == 2
            assert report["cache_size"] == 2 * 128


class EngineMachine(RuleBasedStateMachine):
    """Bursts, update batches, direct matcher inserts, last-good restores
    and worker SIGKILLs in any order; every burst must equal the
    sorted-list oracle, and an in-process engine must serve the very
    entry objects a fresh freeze of its matcher would — so a frozen
    plane serving behind its changed-key overlay is never stale."""

    def __init__(self) -> None:
        super().__init__()
        self.engine = None

    @initialize(shards=st.sampled_from([0, 2]))
    def start(self, shards: int) -> None:
        config = EngineConfig(
            cache_size=64, auto_freeze=True, resilience=True, shards=shards
        )
        self.engine = ClassificationEngine(
            build_matcher(config, COMPILED.entries, KEY_LENGTH), config
        )
        self.shards = shards
        self.entries = list(COMPILED.entries)
        self.added: list[TernaryEntry] = []
        self.last_good = None
        self.serial = 0
        self.flows = zipf_trace(COMPILED.entries, 512, flows=48, seed=shards)
        #: override key -> the flow it was cut around (which it matches)
        self.witness: dict = {}
        self._verify(self.flows[:64])  # warm the cache and freeze the plane
        self.scan(0, 32)  # every in-process run meets the region tier

    def _burst(self, seed: int, size: int) -> list[int]:
        rng = random.Random(seed)
        return [
            rng.choice(self.flows) if rng.random() < 0.7 else rng.getrandbits(KEY_LENGTH)
            for _ in range(size)
        ]

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 300))
    def burst(self, seed: int, size: int) -> None:
        self._verify(self._burst(seed, size))

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 48))
    def scan(self, seed: int, size: int) -> None:
        """A scan: fresh queries walked once, then queries that agree
        with them on every bit their walks examined and are random
        elsewhere — the decision-region tier answers those without a
        walk (the shard pool bypasses it)."""
        rng = random.Random(seed)
        walked = [rng.getrandbits(KEY_LENGTH) for _ in range(size)]
        self._verify(walked)
        masks: list[int] = []
        # A fresh freeze of the engine's Palmtrie_k (after a restore, the
        # one rebuilt from the restored plane's entries).
        freeze(self.engine.matcher).lookup_batch(walked, masks=masks)
        self._verify([
            (query & mask) | (rng.getrandbits(KEY_LENGTH) & ~mask)
            for query, mask in zip(walked, masks)
            for _ in range(3)
        ])

    def _verify(self, queries: list[int]) -> None:
        got = self.engine.lookup_batch(queries)
        oracle = _oracle(self.entries)
        assert [_sig(e) for e in got] == [_sig(oracle.lookup(q)) for q in queries]
        assert self.engine.health in ("ok", "degraded")
        if self.shards == 0:
            fresh = FrozenMatcher.from_matcher(self.engine.matcher).lookup_batch(queries)
            assert all(a is b for a, b in zip(got, fresh))

    def _fresh_entry(self, rng: random.Random):
        flow = rng.choice(self.flows)
        entry = _override(flow, rng.randrange(2, 12), self.serial)
        self.serial += 1
        # Fresh keys only: a delete removes every entry with its key.
        if all(entry.key != e.key for e in self.entries):
            self.witness[entry.key] = flow
            return entry
        return None

    @rule(seed=st.integers(0, 2**16), inserts=st.integers(0, 3), deletes=st.integers(0, 2))
    def update(self, seed: int, inserts: int, deletes: int) -> None:
        rng = random.Random(seed)
        ops = []
        for _ in range(inserts):
            entry = self._fresh_entry(rng)
            if entry is not None:
                ops.append(("insert", entry))
                self.added.append(entry)
                self.entries.append(entry)
        for entry in rng.sample(self.added, min(deletes, len(self.added))):
            if ("insert", entry) in ops:
                continue
            ops.append(("delete", entry.key))
            self.added.remove(entry)
            self.entries.remove(entry)
        self.engine.apply_updates(ops)
        # Each changed key's witness flow changes verdict with it: an
        # engine serving a stale plane or cache row fails right here.
        witnesses = [
            self.witness[payload.key if kind == "insert" else payload]
            for kind, payload in ops
        ]
        if witnesses:
            self._verify(witnesses + self._burst(seed, 32))

    @rule(seed=st.integers(0, 2**16), steps=st.integers(2, 6))
    def updates_between_bursts(self, seed: int, steps: int) -> None:
        """Transactions and scalar ``insert``/``delete`` calls with no
        lookup between them: the next burst pays one sweep (or one
        clear) for all of their keys, and no stale verdict survives."""
        rng = random.Random(seed)
        engine = self.engine
        sweeps = engine.targeted_invalidations + engine.lazy_invalidations
        changed = []
        for _ in range(steps):
            kind = rng.choice(("transaction", "insert", "delete"))
            if kind == "delete" and self.added:
                entry = rng.choice(self.added)
                assert engine.delete(entry.key)
                self.added.remove(entry)
                self.entries.remove(entry)
                changed.append(entry.key)
                continue
            entry = self._fresh_entry(rng)
            if entry is None:
                continue
            if kind == "transaction":
                engine.apply_updates([("insert", entry)])
            else:
                engine.insert(entry)
            self.added.append(entry)
            self.entries.append(entry)
            changed.append(entry.key)
        self._verify([self.witness[key] for key in changed] + self._burst(seed, 32))
        assert engine.targeted_invalidations + engine.lazy_invalidations == sweeps + bool(changed)

    @rule(seed=st.integers(0, 2**16))
    def direct_insert(self, seed: int) -> None:
        """Mutate the matcher behind the engine's back: the engine does
        not know the key, so the next lookup must clear the cache and
        refreeze the plane."""
        entry = self._fresh_entry(random.Random(seed))
        if entry is None:
            return
        engine = self.engine
        plane_was_active = engine.report()["frozen_plane_active"]
        clears, freezes = engine.lazy_invalidations, engine.freezes
        engine.matcher.insert(entry)
        self.added.append(entry)
        self.entries.append(entry)
        self.burst(seed, 16)
        assert engine.lazy_invalidations == clears + 1
        assert engine.plane_overlay_keys == 0
        if plane_was_active and engine.health == "ok":
            assert engine.freezes == freezes + 1

    @rule()
    def mark_last_good(self) -> None:
        self.engine.mark_last_good()
        self.last_good = (list(self.entries), list(self.added))

    @precondition(lambda self: self.last_good is not None)
    @rule()
    def restore_last_good(self) -> None:
        self.engine.restore_last_good()
        entries, added = self.last_good
        self.entries, self.added = list(entries), list(added)

    @precondition(lambda self: self.shards > 0)
    @rule(index=st.integers(0, 1))
    def kill_worker(self, index: int) -> None:
        handle = self.engine.pool._shards[index]
        if handle.proc.is_alive():
            os.kill(handle.proc.pid, signal.SIGKILL)
            handle.proc.join(timeout=5)

    def teardown(self) -> None:
        if self.engine is not None:
            if self.shards == 0:
                assert self.engine.regions.hits > 0
            self.engine.close()


EngineMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMachine = EngineMachine.TestCase
