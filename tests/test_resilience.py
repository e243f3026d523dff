"""The resilience plane: fault injection, guarded degradation,
circuit breaking, shadow verification and crash-safe checkpoints.

The load-bearing property is the failure-mode differential: under every
injected fault class (frozen-plane exceptions, cache poisoning,
deserializer corruption, mid-transaction raises, stalls) the guarded
engine must return exactly the verdicts of the linear-scan reference on
a 10k-packet trace — degraded service, never wrong service — and every
fault must be visible in ``report()`` and the metrics mirror.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_same_result, random_entries

from repro.baselines.sorted_list import SortedListMatcher
from repro.core.multibit import MultibitPalmtrie
from repro.core.serialize import FormatError
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.config import EngineConfig
from repro.engine import ClassificationEngine
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    GuardRail,
    InjectedFault,
    injected,
    read_checkpoint,
    recover,
    write_checkpoint,
)

KEY_LENGTH = 16
TRACE_LEN = 10_000


def _entries(seed: int = 3) -> list[TernaryEntry]:
    return random_entries(60, KEY_LENGTH, seed=seed)


def _trace(count: int = TRACE_LEN, seed: int = 11) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(KEY_LENGTH) for _ in range(count)]


def _reference_verdicts(entries, queries) -> list:
    reference = SortedListMatcher(KEY_LENGTH)
    for entry in entries:
        reference.insert(entry)
    return [reference.lookup(query) for query in queries]


@pytest.fixture(scope="module")
def differential():
    """(entries, queries, truth) shared by the fault-class tests."""
    entries = _entries()
    queries = _trace()
    return entries, queries, _reference_verdicts(entries, queries)


def _assert_verdicts(engine, queries, truth, batch: int = 64) -> None:
    position = 0
    for offset in range(0, len(queries), batch):
        burst = queries[offset : offset + batch]
        for got in engine.lookup_batch(burst):
            assert_same_result(truth[position], got)
            position += 1


# ----------------------------------------------------------------------
# Circuit breaker (deterministic clock)
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_at_threshold_and_backs_off(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, backoff_seconds=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.retry_in_seconds == pytest.approx(1.0)

    def test_half_open_probe_success_closes_and_resets_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, backoff_seconds=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.probes == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.recoveries == 1
        assert breaker.current_backoff_seconds == 1.0

    def test_failed_probe_doubles_backoff_up_to_cap(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, backoff_seconds=1.0, max_backoff_seconds=3.0,
            clock=clock,
        )
        breaker.record_failure()  # open, window 1s
        for expected in (2.0, 3.0, 3.0):  # doubled, then capped
            clock.advance(breaker.current_backoff_seconds)
            assert breaker.allow()
            breaker.record_failure()
            assert breaker.state is BreakerState.OPEN
            assert breaker.current_backoff_seconds == expected

    def test_success_below_threshold_clears_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_seconds=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_seconds=2.0, max_backoff_seconds=1.0)


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=42)
        b = FaultInjector(seed=42)
        for injector in (a, b):
            injector.arm("frozen_walk", rate=0.3)
        schedule_a = [a.should_fire("frozen_walk") for _ in range(200)]
        schedule_b = [b.should_fire("frozen_walk") for _ in range(200)]
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)

    def test_budget_exhausts(self):
        injector = FaultInjector(seed=1)
        injector.arm("update", rate=1.0, count=2)
        fired = sum(injector.should_fire("update") for _ in range(10))
        assert fired == 2
        assert not injector.armed("update")

    def test_check_raises_tagged_fault(self):
        injector = FaultInjector(seed=1)
        injector.arm("cache", rate=1.0)
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("cache")
        assert excinfo.value.site == "cache"

    def test_corrupt_is_deterministic_and_flips_bits(self):
        blob = bytes(range(64))
        assert FaultInjector(seed=9).corrupt(blob, flips=3) == FaultInjector(
            seed=9
        ).corrupt(blob, flips=3)
        assert FaultInjector(seed=9).corrupt(blob, flips=3) != blob

    def test_rejects_unknown_site_and_bad_rate(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.arm("nonsense")
        with pytest.raises(ValueError):
            injector.arm("cache", rate=1.5)


# ----------------------------------------------------------------------
# Fault-class differentials (the acceptance bar)
# ----------------------------------------------------------------------

class TestFaultDifferential:
    def test_frozen_walk_faults_never_change_verdicts(self, differential):
        entries, queries, truth = differential
        injector = FaultInjector(seed=7)
        injector.arm("frozen_walk", rate=0.01)
        guard = GuardRail(injector=injector)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256, resilience=guard))
        with injected(injector):
            _assert_verdicts(engine, queries, truth)
        assert injector.fired["frozen_walk"] > 0
        assert guard.faults.get("frozen_walk", 0) > 0
        assert engine.report()["resilience"]["faults"]["frozen_walk"] > 0

    def test_cache_poisoning_is_repaired_by_shadow_verify(self, differential):
        entries, _, _ = differential
        # Flow-skewed traffic: poisoned rows must actually be re-served
        # (a poisoned row only lies when a later packet hits it).
        rng = random.Random(13)
        flows = [rng.getrandbits(KEY_LENGTH) for _ in range(64)]
        queries = [rng.choice(flows) for _ in range(TRACE_LEN)]
        truth = _reference_verdicts(entries, queries)
        injector = FaultInjector(seed=13)
        injector.arm("cache", rate=0.5)
        guard = GuardRail(shadow_sample=1.0, injector=injector)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256, resilience=guard))
        _assert_verdicts(engine, queries, truth)
        assert injector.fired["cache"] > 0
        assert guard.shadow_mismatches > 0
        assert guard.quarantined
        assert engine.health == "quarantined"

    def test_stall_faults_cost_time_not_answers(self, differential):
        entries, queries, truth = differential
        injector = FaultInjector(seed=3, stall_seconds=0.0)
        injector.arm("stall", rate=1.0)
        guard = GuardRail(injector=injector)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256, resilience=guard))
        _assert_verdicts(engine, queries, truth)
        assert injector.fired["stall"] > 0

    def test_mid_transaction_fault_keeps_serving_correctly(self, differential):
        entries, queries, truth = differential
        injector = FaultInjector(seed=5)
        injector.arm("update", rate=1.0, count=1)
        guard = GuardRail(injector=injector)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256, resilience=guard))
        engine.lookup_batch(queries[:512])  # warm the cache pre-fault
        canary = TernaryEntry(
            key=TernaryKey.exact(queries[0], KEY_LENGTH), value=-1, priority=-1
        )
        report = engine.apply_updates([("insert", canary)])
        assert report.error is not None and "InjectedFault" in report.error
        assert report.inserted == 0
        assert guard.faults.get("update", 0) == 1
        _assert_verdicts(engine, queries, truth)

    def test_scalar_insert_fault_is_recorded_like_a_transaction(self, differential):
        """A scalar insert is a one-op transaction: the armed update site
        fires inside it, the guard records the fault, and the engine
        recovers from actual content instead of raising."""
        entries, queries, truth = differential
        injector = FaultInjector(seed=5)
        injector.arm("update", rate=1.0, count=1)
        guard = GuardRail(injector=injector)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256, resilience=guard))
        engine.lookup_batch(queries[:512])  # warm the cache pre-fault
        lazy = engine.lazy_invalidations
        canary = TernaryEntry(
            key=TernaryKey.exact(queries[0], KEY_LENGTH), value=-1, priority=-1
        )
        engine.insert(canary)
        report = engine.last_update
        assert report is not None and "InjectedFault" in (report.error or "")
        assert report.inserted == 0 and engine.update_batches == 1
        assert guard.faults.get("update", 0) == 1
        assert engine.lazy_invalidations == lazy + 1  # the recovery's clear
        _assert_verdicts(engine, queries, truth)

    def test_unguarded_update_fault_still_raises(self, differential):
        entries, queries, _ = differential
        engine = ClassificationEngine(
            MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4)
        )
        with pytest.raises(ValueError):
            engine.apply_updates([("bogus-op", None)])

    def test_breaker_recovers_once_faults_stop(self, differential):
        """OPEN → (clock advance) HALF_OPEN probe → CLOSED, health ok."""
        entries, queries, truth = differential
        clock = FakeClock()
        injector = FaultInjector(seed=7)
        injector.arm("frozen_walk", rate=1.0, count=3)
        guard = GuardRail(
            failure_threshold=3, backoff_seconds=1.0, injector=injector, clock=clock
        )
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=0, resilience=guard))
        with injected(injector):
            for offset in range(0, 512, 64):
                engine.lookup_batch(queries[offset : offset + 64])
            assert guard.breaker.state is BreakerState.OPEN
            assert engine.health == "degraded"
            clock.advance(2.0)  # past the backoff window: admit a probe
            _assert_verdicts(engine, queries, truth)
        assert guard.breaker.state is BreakerState.CLOSED
        assert guard.breaker.recoveries >= 1
        assert engine.health == "ok"
        assert guard.last_plane == "frozen"


# ----------------------------------------------------------------------
# Shadow verification details
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shards", [0, 2])
class TestGuardOverShards:
    """A shard pool only resolves misses, so the guard's shadow pass
    and its engine-level fault sites cover sharded bursts exactly as
    they cover in-process ones."""

    def test_every_answer_is_shadow_checked(self, differential, shards):
        entries, queries, truth = differential
        n = 4096
        injector = FaultInjector(seed=3, stall_seconds=0.0)
        injector.arm("stall", rate=1.0)
        guard = GuardRail(shadow_sample=1.0, injector=injector)
        config = EngineConfig(cache_size=256, resilience=guard, shards=shards)
        with ClassificationEngine(
            MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), config
        ) as engine:
            assert (engine.pool is not None) == bool(shards)
            _assert_verdicts(engine, queries[:n], truth[:n], batch=256)
            assert guard.shadow_checks == n
            assert guard.shadow_mismatches == 0
            assert injector.fired["stall"] == n // 256
            assert engine.health == "ok"

    def test_poisoned_cache_row_is_repaired_and_quarantines(self, differential, shards):
        entries, _, _ = differential
        rng = random.Random(17)
        flows = [rng.getrandbits(KEY_LENGTH) for _ in range(64)]
        queries = [rng.choice(flows) for _ in range(2048)]
        truth = _reference_verdicts(entries, queries)
        injector = FaultInjector(seed=17)
        injector.arm("cache", rate=1.0)
        guard = GuardRail(shadow_sample=1.0, injector=injector)
        config = EngineConfig(cache_size=256, resilience=guard, shards=shards)
        with ClassificationEngine(
            MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), config
        ) as engine:
            assert (engine.pool is not None) == bool(shards)
            _assert_verdicts(engine, queries, truth)
            assert injector.fired["cache"] > 0
            assert guard.shadow_mismatches > 0
            assert engine.health == "quarantined"


class TestPoisonedRegion:
    def test_shadow_pass_catches_a_poisoned_region_and_resets_the_tier(self):
        """The cache site also flips one decision-region row; a query the
        row answers (never seen before, so no exact-cache row exists) is
        served the lie, which the shadow pass catches."""
        rng = random.Random(21)
        # Prefix rules on the top byte: walks report few masks, so the
        # region tier holds rows for the first burst's regions.
        entries = [
            TernaryEntry(
                TernaryKey.from_string(
                    format(rng.getrandbits(8), "08b")[: rng.choice((2, 4, 8))].ljust(16, "*")
                ),
                i,
                rng.randrange(1000),
            )
            for i in range(40)
        ]
        injector = FaultInjector(seed=21)
        guard = GuardRail(shadow_sample=1.0, injector=injector)
        engine = ClassificationEngine(
            MultibitPalmtrie.build(entries, KEY_LENGTH),
            EngineConfig(cache_size=64, resilience=guard),
        )
        engine.lookup_batch(_trace(128, seed=22))
        before = {mask: dict(table) for mask, table in engine.regions._tables.items()}
        assert sum(map(len, before.values())) > 0
        injector.arm("cache", rate=1.0, count=1)
        engine.lookup_batch([])  # the burst-start fault site fires
        assert injector.fired["cache"] == 1
        ((mask, region),) = [
            (mask, region)
            for mask, table in engine.regions._tables.items()
            for region, verdict in table.items()
            if verdict is not before[mask][region]
        ]
        query = next(
            q
            for q in (region | (bits & ~mask) for bits in _trace(256, seed=23))
            if q not in engine.cache
        )
        (served,) = engine.lookup_batch([query])
        assert_same_result(_reference_verdicts(entries, [query])[0], served)
        assert guard.shadow_mismatches == 1
        assert engine.health == "quarantined"
        assert engine.regions.rows == 0


class TestPoisonedRowBehindTheRegionTier:
    def test_shadow_pass_catches_a_row_the_closed_gate_serves(self):
        """A cache fault fired while the exact gate is closed poisons a
        row that only the exact probe behind the region tier reaches;
        the full shadow pass catches the lie, and across the paper's
        section 6 scan no wrong answer is served."""
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import reverse_byte_scan, zipf_trace

        acl = classbench_acl("acl", 500)
        length = acl.layout.length
        rng = random.Random(42)
        scan = iter(reverse_byte_scan(8192, seed=42, start=1 << 20))
        flows = iter(zipf_trace(acl.entries, 8192, flows=128, s=1.1, seed=42))
        trace = [next(flows) if rng.random() < 0.1 else next(scan) for _ in range(8192)]
        oracle = SortedListMatcher.build(acl.entries, length)
        injector = FaultInjector(seed=5)
        guard = GuardRail(shadow_sample=1.0, injector=injector)
        engine = ClassificationEngine(
            MultibitPalmtrie.build(acl.entries, length),
            EngineConfig(cache_size=4096, resilience=guard),
        )
        wrong = 0

        def serve(burst):
            nonlocal wrong
            for query, got in zip(burst, engine.lookup_batch(burst)):
                wrong += not guard.answers_agree(got, oracle.lookup(query))

        offset = 0
        while not engine._exact_gate.asleep:
            serve(trace[offset : offset + 64])
            offset += 64
        # Start cold, so that every row is one the walk filled behind
        # the region tier; the gate sleeps on.
        engine.invalidate_all()
        for _ in range(8):
            serve(trace[offset : offset + 64])
            offset += 64
        assert engine._exact_gate.asleep and len(engine.cache) > 0
        assert guard.shadow_mismatches == 0
        injector.arm("cache", rate=1.0, count=32)
        for _ in range(32):
            engine.lookup_batch([])  # the burst-start fault site fires
        assert injector.fired["cache"] == 32
        # The lies no region covers: only the exact probe reaches them.
        lies = [
            query
            for query, row in engine.cache._map.items()
            if not guard.answers_agree(row, oracle.lookup(query))
            and not any(query & mask in table for mask, table in engine.regions._order)
        ]
        assert lies
        hits, bypassed = engine.stats.cache_hits, engine.cache_bypassed
        serve(lies)
        assert engine.stats.cache_hits == hits + len(lies)  # served behind the tier
        assert engine.cache_bypassed == bypassed + len(lies)  # with the gate closed
        assert guard.shadow_mismatches == len(lies) and guard.quarantined
        while offset < len(trace):
            serve(trace[offset : offset + 64])
            offset += 64
        assert wrong == 0


class TestShadowVerify:
    def test_scalar_hit_path_is_checked_and_repaired(self):
        entries = _entries()
        guard = GuardRail(shadow_sample=1.0)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=64, resilience=guard))
        query = _trace(1)[0]
        honest = engine.lookup(query)
        # Poison the cached row by hand, then look the query up again:
        # the shadow must serve the reference answer and repair the row.
        engine.cache._map[query] = None if honest is not None else entries[0]
        repaired = engine.lookup(query)
        assert_same_result(honest, repaired)
        assert guard.quarantined
        assert guard.shadow_mismatches == 1
        assert "shadow_mismatch" in guard.faults

    def test_reset_lifts_quarantine(self):
        guard = GuardRail()
        guard.quarantine("test")
        assert guard.health == "quarantined"
        guard.reset()
        assert guard.health == "ok"
        assert guard.faults.get("shadow_mismatch") == 1  # history is kept

    def test_answers_agree_on_priority_not_identity(self):
        a = TernaryEntry(key=TernaryKey.exact(1, 8), value=1, priority=5)
        b = TernaryEntry(key=TernaryKey.exact(2, 8), value=2, priority=5)
        c = TernaryEntry(key=TernaryKey.exact(3, 8), value=3, priority=6)
        assert GuardRail.answers_agree(a, b)
        assert not GuardRail.answers_agree(a, c)
        assert GuardRail.answers_agree(None, None)
        assert not GuardRail.answers_agree(a, None)


def _rung_queries(entries, length: int, count: int, seed: int) -> list[int]:
    """Half rule-targeted queries, half uniform ones."""
    from repro.workloads.traffic import query_matching_entry

    rng = random.Random(seed)
    return [
        query_matching_entry(rng.choice(entries), rng) if i % 2 else rng.getrandbits(length)
        for i in range(count)
    ]


def _rung_fuzz_ops(live, length: int, rng: random.Random) -> list:
    """One transaction: inserts near live keys (a don't care bit made
    exact, a cared bit flipped, or the same key at a new and often tied
    priority) and deletes of live keys."""
    top = max((entry.priority for entry in live), default=0)
    ops = []
    for _ in range(rng.randint(1, 4)):
        key = rng.choice(live).key
        if rng.random() < 0.5:
            ops.append(("delete", key))
            continue
        if rng.random() < 0.7:  # otherwise a second entry under the same key
            bit = 1 << rng.randrange(length)
            if key.mask & bit:
                data = key.data | (bit if rng.random() < 0.5 else 0)
                key = TernaryKey(data, key.mask & ~bit, length)
            else:
                key = TernaryKey(key.data ^ bit, key.mask, length)
        ops.append(("insert", TernaryEntry(key, "fuzz", rng.randrange(top + 2))))
    return ops


def _check_reference_rung(entries, length: int, stride: int, seed: int) -> None:
    """The guard's reference rung against the sorted-list oracle, through
    a seeded insert/delete fuzz, with every served answer shadow-checked."""
    from repro.core.basic import BasicPalmtrie

    guard = GuardRail(shadow_sample=1.0)
    engine = ClassificationEngine(
        MultibitPalmtrie.build(entries, length, stride=stride),
        EngineConfig(cache_size=64, resilience=guard),
    )
    oracle = SortedListMatcher.build(entries, length)
    rng = random.Random(seed)
    queries = _rung_queries(entries, length, 240, seed)
    for _ in range(6):
        reference = engine._reference_matcher()
        assert type(reference) is BasicPalmtrie
        for offset in range(0, len(queries), 64):
            burst = queries[offset : offset + 64]
            for query, served in zip(burst, engine.lookup_batch(burst)):
                truth = oracle.lookup(query)
                assert_same_result(truth, reference.lookup(query))
                assert_same_result(truth, served)
        ops = _rung_fuzz_ops(list(oracle), length, rng)
        engine.apply_updates(ops)
        for kind, payload in ops:
            if kind == "insert":
                oracle.insert(payload)
            else:
                oracle.delete(payload)
        if not len(oracle):
            break
    assert engine._reference_matcher() is reference  # patched, never rebuilt
    report = engine.report()["resilience"]
    assert report["reference_rebuilds"] == 1
    assert report["shadow_checks"] >= 5 * len(queries)
    assert report["shadow_mismatches"] == 0 and not report["faults"]


class TestReferenceRung:
    """The guard's reference rung is the paper's basic Palmtrie
    (Algorithm 1).  Over the interval-emitter matrix of
    ``test_frozen.py`` and a seeded update fuzz it must give the
    sorted-list oracle's verdicts, patched in place by transactions."""

    @pytest.mark.parametrize("stride", [3, 4, 6, 8, 11])
    @pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
    def test_agrees_with_sorted_list_on_classbench(self, profile, stride):
        from repro.workloads.classbench import classbench_acl

        acl = classbench_acl(profile, 60 if stride == 11 else 150)
        _check_reference_rung(acl.entries, acl.layout.length, stride, seed=stride)

    @pytest.mark.parametrize("key_length, stride", [(7, 3), (33, 4), (33, 8), (70, 6)])
    def test_agrees_with_sorted_list_on_equal_priority_tables(self, key_length, stride):
        entries = random_entries(60, key_length, seed=key_length + stride, priority_range=4)
        _check_reference_rung(entries, key_length, stride, seed=key_length)


class _CountingRandom:
    """Wraps a guard's RNG and counts its draws."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.rng.random()


def _shadowed_engine(sample: float, cache: int = 64):
    guard = GuardRail(shadow_sample=sample)
    engine = ClassificationEngine(
        MultibitPalmtrie.build(_entries(), KEY_LENGTH, stride=4),
        EngineConfig(cache_size=cache, resilience=guard),
    )
    counter = guard._shadow_rng = _CountingRandom(guard._shadow_rng)
    return engine, guard, counter


class TestShadowSamplingWork:
    """Deterministic work counts for gap-sampled shadow checks."""

    def test_one_draw_per_check_not_per_answer(self):
        engine, guard, counter = _shadowed_engine(0.001)
        engine.lookup_batch(_trace(4096, seed=17))
        assert counter.draws <= guard.shadow_checks + 1
        assert guard.shadow_checks < 50

    def test_full_sample_checks_every_answer_without_drawing(self):
        engine, guard, counter = _shadowed_engine(1.0)
        burst = _trace(50, seed=18) * 3  # every query three times
        engine.lookup_batch(burst)
        engine.lookup(burst[0])
        assert guard.shadow_checks == len(burst) + 1
        assert counter.draws == 0

    def test_zero_sample_never_draws(self):
        guard = GuardRail(shadow_sample=0.0)
        assert guard._shadow_rng.getstate() == random.Random(2020).getstate()
        engine, guard, counter = _shadowed_engine(0.0)
        engine.lookup_batch(_trace(1000, seed=19))
        for query in _trace(100, seed=20):
            engine.lookup(query)
        assert counter.draws == 0
        assert guard.shadow_checks == 0

    def test_scalar_and_batch_share_one_countdown(self):
        """The sampled answer positions do not depend on how the answer
        stream is cut into scalar rolls and bursts."""
        rng = random.Random(21)
        total = 20_000
        whole = GuardRail(shadow_sample=0.01)
        expected = list(whole.shadow_positions(total))
        mixed = GuardRail(shadow_sample=0.01)
        sampled, offset = [], 0
        while offset < total:
            if rng.random() < 0.5:
                if mixed.shadow_roll():
                    sampled.append(offset)
                offset += 1
            else:
                n = min(rng.randrange(200), total - offset)
                sampled.extend(offset + i for i in mixed.shadow_positions(n))
                offset += n
        assert sampled == expected
        assert len(expected) > 100

    def test_interleaved_engine_paths_check_the_same_answers(self):
        queries = _trace(3000, seed=22)
        batch_only, batch_guard, _ = _shadowed_engine(0.05)
        for start in range(0, len(queries), 64):
            batch_only.lookup_batch(queries[start : start + 64])
        mixed, mixed_guard, _ = _shadowed_engine(0.05)
        for start in range(0, len(queries), 64):
            chunk = queries[start : start + 64]
            if start % 128:
                mixed.lookup_batch(chunk)
            else:
                for query in chunk:
                    mixed.lookup(query)
        assert mixed_guard.shadow_checks == batch_guard.shadow_checks > 0
        assert mixed_guard._shadow_skip == batch_guard._shadow_skip

    def test_check_count_is_binomial(self):
        """2,000,000 answers at p=0.001: 2,000 checks expected, and the
        count lands within five standard deviations (about 224)."""
        guard = GuardRail(shadow_sample=0.001)
        checks = sum(len(guard.shadow_positions(64)) for _ in range(31_250))
        assert abs(checks - 2_000) <= 5 * (2_000_000 * 0.001 * 0.999) ** 0.5


# ----------------------------------------------------------------------
# Crash-safe checkpoints
# ----------------------------------------------------------------------

class TestCheckpoints:
    def test_round_trip_preserves_stamps_and_verdicts(self, tmp_path, differential):
        entries, queries, truth = differential
        source = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        source.replace_matcher(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        source.matcher.generation = 7
        path = str(tmp_path / "policy.plmc")
        source.checkpoint(path)

        snapshot = read_checkpoint(path)
        assert snapshot.epoch == source.epoch == 1
        assert snapshot.generation == 7
        assert snapshot.matcher.generation == 7

        engine = ClassificationEngine.from_checkpoint(
            path, rebuild=lambda: pytest.fail("valid checkpoint must not rebuild")
        )
        assert engine.checkpoint_restores == 1
        assert engine.checkpoint_rebuilds == 0
        assert engine.epoch == 1
        assert engine.matcher.generation == 7
        _assert_verdicts(engine, queries, truth)

    def test_corrupt_checkpoint_rebuilds_from_source(self, tmp_path, differential):
        entries, queries, truth = differential
        source = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        path = str(tmp_path / "policy.plmc")
        source.checkpoint(path)
        blob = bytearray((tmp_path / "policy.plmc").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp_path / "policy.plmc").write_bytes(bytes(blob))

        engine = ClassificationEngine.from_checkpoint(
            path, rebuild=lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4)
        )
        assert engine.checkpoint_rebuilds == 1
        assert engine.checkpoint_restores == 0
        assert engine.last_recovery.error is not None
        _assert_verdicts(engine, queries, truth)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_from_checkpoint_restores_at_any_shard_count(self, tmp_path, differential, shards):
        """Startup recovery honours ``config.shards``: the recovered
        engine runs its pool, serves the checkpointed policy exactly and
        reports the restore and the recovered epoch."""
        entries, queries, truth = differential
        source = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        source.replace_matcher(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        path = str(tmp_path / "policy.plmc")
        source.checkpoint(path)

        def rebuild():
            # A deliberately wrong policy: taking the rebuild path by
            # mistake fails the verdict differential loudly.
            return MultibitPalmtrie.build(entries[:1], KEY_LENGTH, stride=4)

        config = EngineConfig(cache_size=256, shards=shards)
        with ClassificationEngine.from_checkpoint(path, rebuild, config=config) as engine:
            _assert_verdicts(engine, queries, truth)
            report = engine.report()
            assert report["checkpoint_restores"] == 1
            assert report["checkpoint_rebuilds"] == 0
            assert report["epoch"] == 1
            assert report.get("shards", {}).get("count", 0) == shards
            assert engine.health == "ok"

    @pytest.mark.parametrize("shards", [0, 2])
    def test_from_checkpoint_rebuilds_at_any_shard_count(self, tmp_path, differential, shards):
        """A garbled checkpoint falls back to ``rebuild`` (counted as a
        rebuild, not a restore) and the rebuilt policy serves exactly."""
        entries, queries, truth = differential
        path = tmp_path / "garbled.plmc"
        path.write_bytes(b"not a checkpoint")
        config = EngineConfig(cache_size=256, shards=shards)
        with ClassificationEngine.from_checkpoint(
            str(path),
            rebuild=lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4),
            config=config,
        ) as engine:
            _assert_verdicts(engine, queries, truth)
            report = engine.report()
            assert report["checkpoint_restores"] == 0
            assert report["checkpoint_rebuilds"] == 1
            assert report.get("shards", {}).get("count", 0) == shards
            assert engine.last_recovery.error is not None
            assert engine.health == "ok"

    def test_missing_checkpoint_rebuilds(self, tmp_path):
        entries = _entries()
        report = recover(
            str(tmp_path / "nope.plmc"),
            rebuild=lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4),
        )
        assert not report.restored
        assert report.error is not None and "Error" in report.error

    def test_injected_deserializer_corruption_fails_closed(self, tmp_path):
        """The deserialize hook corrupts payload bytes on the way into
        the PLMF decoder; a validated checkpoint must therefore either
        raise FormatError or decode to a policy — never crash."""
        entries = _entries()
        matcher = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4)
        path = str(tmp_path / "policy.plmc")
        write_checkpoint(path, matcher, epoch=1, generation=1)
        rejected = 0
        for seed in range(8):
            injector = FaultInjector(seed=seed)
            injector.arm("deserialize", rate=1.0, count=1)
            with injected(injector):
                try:
                    read_checkpoint(path)
                except FormatError:
                    rejected += 1
        assert rejected > 0  # the corruption is real and caught cleanly

    def test_write_checkpoint_is_atomic_on_failure(self, tmp_path):
        """A matcher the serializer rejects must not clobber (or leave
        debris next to) an existing good checkpoint."""
        entries = _entries()
        path = tmp_path / "policy.plmc"
        write_checkpoint(str(path), MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        good = path.read_bytes()
        with pytest.raises(TypeError):
            write_checkpoint(str(path), object())
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
# Matcher replacement (the staleness fix) and engine surface
# ----------------------------------------------------------------------

class TestReplacement:
    def test_matcher_assignment_routes_through_replace(self, differential):
        entries, queries, _ = differential
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=256))
        engine.lookup_batch(queries[:512])
        # A different policy whose generation counter happens to match
        # the old one: only the epoch stamp can tell them apart.
        replacement_entries = _entries(seed=77)
        replacement = MultibitPalmtrie.build(replacement_entries, KEY_LENGTH, stride=4)
        assert replacement.generation == engine.matcher.generation
        engine.matcher = replacement
        assert engine.epoch == 1
        assert engine.matcher is replacement
        truth = _reference_verdicts(replacement_entries, queries[:512])
        for query, expected in zip(queries[:512], truth):
            assert_same_result(expected, engine.lookup(query))

    def test_replace_matcher_resets_the_guard(self, differential):
        entries, _, _ = differential
        guard = GuardRail()
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(resilience=guard))
        guard.quarantine("poisoned")
        engine.matcher = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4)
        assert engine.health == "ok"
        assert not guard.quarantined

    def test_resilience_true_builds_a_default_guard(self):
        engine = ClassificationEngine(MultibitPalmtrie.build(_entries(), KEY_LENGTH, stride=4), EngineConfig(resilience=True))
        assert isinstance(engine.resilience, GuardRail)
        assert engine.health == "ok"

    def test_unguarded_engine_reports_ok_health(self):
        engine = ClassificationEngine(MultibitPalmtrie.build(_entries(), KEY_LENGTH, stride=4))
        assert engine.resilience is None
        assert engine.health == "ok"
        assert "resilience" not in engine.report()


# ----------------------------------------------------------------------
# Metrics mirror
# ----------------------------------------------------------------------

class TestMetricsMirror:
    def test_guard_counters_reach_the_exposition(self, differential):
        from repro.obs.export import render_prometheus

        entries, queries, truth = differential
        injector = FaultInjector(seed=7)
        injector.arm("frozen_walk", rate=1.0, count=3)
        guard = GuardRail(injector=injector, backoff_seconds=30.0)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=0, metrics=True, resilience=guard))
        with injected(injector):
            _assert_verdicts(engine, queries[:1024], truth[:1024])
        text = render_prometheus(engine.metrics)
        assert 'engine_guard_faults_total{site="frozen_walk"} 3' in text
        assert 'engine_health{state="degraded"} 1' in text
        assert 'engine_breaker_state{state="open"} 1' in text
        assert "engine_degraded_lookups_total" in text
        assert "engine_epoch 0" in text

    def test_checkpoint_recoveries_reach_the_exposition(self, tmp_path):
        from repro.obs.export import render_prometheus

        entries = _entries()
        path = str(tmp_path / "policy.plmc")
        write_checkpoint(path, MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        engine = ClassificationEngine.from_checkpoint(
            path, rebuild=lambda: None, config=EngineConfig(metrics=True)
        )
        text = render_prometheus(engine.metrics)
        assert 'engine_checkpoint_recoveries_total{path="restored"} 1' in text


# ----------------------------------------------------------------------
# Property: degradation never changes answers
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    fault_seed=st.integers(0, 2**16),
    rate=st.floats(0.05, 1.0),
)
def test_degradation_never_changes_answers(seed, fault_seed, rate):
    entries = random_entries(20, KEY_LENGTH, seed=seed)
    rng = random.Random(seed + 1)
    queries = [rng.getrandbits(KEY_LENGTH) for _ in range(64)]
    truth = _reference_verdicts(entries, queries)
    injector = FaultInjector(seed=fault_seed)
    injector.arm("frozen_walk", rate=rate)
    engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=16, resilience=GuardRail(injector=injector)))
    with injected(injector):
        for query, expected in zip(queries, truth):
            assert_same_result(expected, engine.lookup(query))
        for got, expected in zip(engine.lookup_batch(queries), truth):
            assert_same_result(expected, got)
