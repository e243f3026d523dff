"""The streaming data plane: sources, backpressure, and the gates.

Three load-bearing properties:

* backpressure counters are *exact arithmetic* over burst sizes, queue
  capacity and the service quantum — a seeded run reproduces its
  drop/shed/block counts to the packet;
* a scenario replayed from the same seed yields the identical verdict
  stream (the registry's determinism contract);
* streaming through the bounded-queue pipeline answers every packet
  exactly as flat batch replay does — for every matcher kind, and for
  every registered scenario including mid-stream rule churn.
"""

from __future__ import annotations

import random

import pytest

from helpers import KINDS, build_kind, random_entries, served_matcher

from repro import ClassificationEngine, EngineConfig, MultibitPalmtrie
from repro.obs.metrics import MetricsRegistry
from repro.shard import flow_shard
from repro.stream import (
    DROPPED,
    POLICIES,
    PcapSource,
    RateShapedSource,
    ScenarioSource,
    StreamPipeline,
    TraceSource,
    batch_replay,
)
from repro.workloads import churn_applier, get_scenario, scenario_names

KEY_LENGTH = 16


def _queries(count: int, seed: int = 11) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(KEY_LENGTH) for _ in range(count)]


def _engine(seed: int = 3, cache: int = 64) -> tuple[ClassificationEngine, list]:
    entries = random_entries(60, KEY_LENGTH, seed=seed)
    matcher = MultibitPalmtrie.build(entries, KEY_LENGTH)
    return ClassificationEngine(matcher, EngineConfig(cache_size=cache)), entries


def _signature(verdicts) -> list:
    return [
        "DROPPED" if v is DROPPED else (None if v is None else (v.priority, v.value))
        for v in verdicts
    ]


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------

class TestSources:
    def test_trace_source_chops_fixed_bursts(self):
        src = TraceSource(list(range(10)), KEY_LENGTH, burst_size=4)
        assert [list(b) for b in src.bursts()] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert list(src) == list(range(10))  # repeatable flatten
        assert list(src) == list(range(10))
        assert len(src) == 10

    def test_trace_source_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            TraceSource([], KEY_LENGTH, burst_size=0)

    def test_rate_shaped_source_regroups(self):
        inner = TraceSource(list(range(10)), KEY_LENGTH, burst_size=3)
        shaped = RateShapedSource(inner, rate=4)
        assert [list(b) for b in shaped.bursts()] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert shaped.key_length == KEY_LENGTH

    def test_rate_shaped_needs_key_length_for_plain_iterables(self):
        with pytest.raises(ValueError):
            RateShapedSource([1, 2, 3], rate=2)
        shaped = RateShapedSource([1, 2, 3], rate=2, key_length=8)
        assert [list(b) for b in shaped.bursts()] == [[1, 2], [3]]

    def test_pcap_source_groups_by_timestamp(self, tmp_path):
        from repro.packet.codec import encode_packet
        from repro.packet.headers import PROTO_TCP, PacketHeader
        from repro.packet.pcap import LINKTYPE_RAW, PcapPacket, write_pcap
        from repro.acl.layout import LAYOUT_V4

        path = str(tmp_path / "t.pcap")
        headers = [PacketHeader(1, 2, PROTO_TCP, 3, 4, 0x02) for _ in range(5)]
        stamps = [1.0, 1.0, 1.0, 2.0, 2.0]
        write_pcap(
            path,
            [PcapPacket(ts, encode_packet(h)) for ts, h in zip(stamps, headers)],
            linktype=LINKTYPE_RAW,
        )
        src = PcapSource(path, LAYOUT_V4)
        sizes = [len(b) for b in src.bursts()]
        assert sizes == [3, 2]
        assert src.decode_errors == 0
        assert src.key_length == 128

    def test_scenario_source_is_deterministic(self):
        a = ScenarioSource("scan-churn", seed=7, packets=500)
        b = ScenarioSource("scan-churn", seed=7, packets=500)
        assert [list(x) for x in a.bursts()] == [list(x) for x in b.bursts()]
        assert a._churn == b._churn
        assert len(a) == 500
        c = ScenarioSource("scan-churn", seed=8, packets=500)
        assert [list(x) for x in a.bursts()] != [list(x) for x in c.bursts()]


# ----------------------------------------------------------------------
# Backpressure: exact arithmetic under a seeded burst
# ----------------------------------------------------------------------

class TestBackpressureSemantics:
    """100 packets in 4 bursts of 25, queue of 10, 5 served/interval.

    The fates are pure arithmetic: burst 1 admits 10 (queue empty) and
    overflows 15; 5 are then served, so every later burst admits 5 and
    overflows 20; the final flush serves the last 5.  Totals: 25
    admitted+served, 75 dropped/shed.  Block admits everything.
    """

    BURSTS = 4
    BURST = 25
    OVERFLOW = 75
    ADMITTED = 25

    def _run(self, policy):
        engine, _ = self._fresh()
        pipe = StreamPipeline(
            engine, policy=policy, max_inflight=10, batch_max=5, service_quantum=5
        )
        queries = _queries(self.BURSTS * self.BURST, seed=21)
        source = TraceSource(queries, KEY_LENGTH, burst_size=self.BURST)
        return pipe.run(source, collect_verdicts=True), queries

    def _fresh(self):
        return _engine(seed=9)[0], None

    def test_drop_counters_exact(self):
        report, queries = self._run("drop")
        assert report.offered == 100
        assert report.admitted == self.ADMITTED
        assert report.served == self.ADMITTED
        assert report.dropped == self.OVERFLOW
        assert report.shed == 0
        assert report.blocked_events == 0
        assert report.drop_rate == pytest.approx(0.75)
        assert report.verdicts.count(DROPPED) == self.OVERFLOW

    def test_shed_counters_exact(self):
        report, _ = self._run("shed")
        assert report.shed == self.OVERFLOW
        assert report.dropped == 0
        assert report.served == self.ADMITTED
        # shed packets were answered: fail-closed None, never DROPPED
        assert report.verdicts.count(None) >= self.OVERFLOW
        assert DROPPED not in report.verdicts

    def test_block_serves_everything(self):
        report, _ = self._run("block")
        assert report.served == report.offered == 100
        assert report.dropped == 0 and report.shed == 0
        assert report.blocked_events > 0
        assert report.max_backlog <= 10

    def test_same_seed_same_counters(self):
        first, _ = self._run("shed")
        second, _ = self._run("shed")
        assert first.to_dict()["shed"] == second.to_dict()["shed"]
        assert _signature(first.verdicts) == _signature(second.verdicts)

    def test_served_packets_match_batch_replay_despite_overflow(self):
        # The packets that *were* served answer exactly as batch replay.
        report, queries = self._run("drop")
        reference = batch_replay(
            self._fresh()[0], TraceSource(queries, KEY_LENGTH, burst_size=self.BURST)
        )
        for index, verdict in enumerate(report.verdicts):
            if verdict is not DROPPED:
                assert _signature([verdict]) == _signature([reference[index]])


class _Recorder:
    """An engine wrapper that logs every ``lookup_batch`` argument list,
    so two runs can be compared micro-batch by micro-batch."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.calls: list[list[int]] = []

    def lookup_batch(self, queries):
        self.calls.append(list(queries))
        return self.engine.lookup_batch(queries)


def _per_packet_model(
    engine, bursts, *, policy, max_inflight, batch_max, service_quantum,
    flow_buckets, flow_sample,
):
    """A packet-at-a-time reference model of ``StreamPipeline.run`` that
    shares none of its internals: its own list of ``(query, verdict
    index)`` pairs as the queue, one admission decision per packet,
    micro-batches of ``min(backlog, batch_max, budget)`` and its own
    ``engine.lookup_batch`` calls.  Per-flow sampling takes every
    served packet whose serial number is a multiple of ``flow_sample``.

    Returns ``(counters, verdicts, per-flow sample counts)``.
    """
    counters = dict.fromkeys(_ADMISSION_COUNTERS, 0)
    verdicts: list = []
    queue: list[tuple[int, int]] = []
    flow_counts = [0] * flow_buckets

    def serve(limit=None):
        n = min(len(queue), batch_max)
        if limit is not None:
            n = min(n, limit)
        batch = queue[:n]
        del queue[:n]
        results = engine.lookup_batch([query for query, _ in batch])
        for (query, index), verdict in zip(batch, results):
            verdicts[index] = verdict
            if counters["served"] % flow_sample == 0:
                flow_counts[flow_shard(query, flow_buckets)] += 1
            counters["served"] += 1
        counters["batches"] += 1
        return n

    for burst in bursts:
        for query in burst:
            index = counters["offered"]
            counters["offered"] += 1
            verdicts.append(DROPPED)
            if len(queue) >= max_inflight:
                if policy == "drop":
                    counters["dropped"] += 1
                    continue
                if policy == "shed":
                    counters["shed"] += 1
                    verdicts[index] = None
                    continue
                counters["blocked_events"] += 1
                while len(queue) >= max_inflight:
                    serve()
            queue.append((query, index))
            counters["admitted"] += 1
        counters["max_backlog"] = max(counters["max_backlog"], len(queue))
        budget = service_quantum
        while queue and (budget is None or budget > 0):
            served = serve(budget)
            if budget is not None:
                budget -= served
    while queue:
        serve()
    return counters, verdicts, flow_counts


_ADMISSION_COUNTERS = (
    "offered", "admitted", "served", "dropped", "shed",
    "blocked_events", "batches", "max_backlog",
)


class TestBulkAdmission:
    """The segment queue equals the per-packet reference model: every
    counter, the verdict stream, the exact sequence of micro-batches
    sent to the engine, the cache state, and the histogram counts, per
    policy, service quantum and burst shape."""

    def _bursts(self, seed, kind, sizes=(0, 1, 3, 7, 10, 11, 25, 40)):
        rng = random.Random(seed)
        sizes = [rng.choice(sizes) for _ in range(30)]
        queries = _queries(sum(sizes), seed=seed)
        bursts, start = [], 0
        for size in sizes:
            bursts.append(queries[start : start + size])
            start += size
        if kind == "generator":
            return lambda: [(q for q in burst) for burst in bursts]
        if kind == "tuple":
            return lambda: [tuple(burst) for burst in bursts]
        return lambda: bursts

    def _assert_equals_model(self, bursts, **profile):
        profile.setdefault("flow_buckets", 8)
        profile.setdefault("flow_sample", 64)
        runs = []
        for streamed in (True, False):
            engine, _ = _engine(seed=9, cache=16)
            recorder = _Recorder(engine)
            if streamed:
                pipe = StreamPipeline(recorder, **profile)
                report = pipe.run(bursts(), collect_verdicts=True)
                counters = {name: getattr(pipe, name) for name in _ADMISSION_COUNTERS}
                for name in _ADMISSION_COUNTERS:
                    assert getattr(report, name) == counters[name]
                flows = [hist.count for hist in pipe._flow_hists]
                # Exact pipeline-wide histogram and the sampling tick
                # both count every served packet.
                assert pipe._latency_hist.count == pipe._sample_tick == pipe.served
                verdicts = report.verdicts
            else:
                counters, verdicts, flows = _per_packet_model(recorder, bursts(), **profile)
            runs.append(
                (counters, _signature(verdicts), recorder.calls, list(engine.cache._map), flows)
            )
        assert runs[0] == runs[1]
        counters = runs[0][0]
        assert counters["offered"] == counters["admitted"] + counters["dropped"] + counters["shed"]
        return counters

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("quantum", [None, 4])
    @pytest.mark.parametrize("kind", ["list", "tuple", "generator"])
    def test_equals_per_packet_admission(self, policy, quantum, kind):
        bursts = self._bursts(seed=len(policy) * 7 + (quantum or 0), kind=kind)
        counters = self._assert_equals_model(
            bursts, policy=policy, max_inflight=10, batch_max=3, service_quantum=quantum,
        )
        if policy == "block":
            assert counters["blocked_events"] > 0
        else:
            assert counters["dropped"] + counters["shed"] > 0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("quantum", [None, 5, 17])
    @pytest.mark.parametrize("batch_max", [1, 64])
    def test_bursts_beyond_capacity_equal_per_packet_model(self, policy, quantum, batch_max):
        # Bursts up to 130 packets against a 48-packet queue: admission
        # splits bursts into chunks, and batches span several bursts.
        bursts = self._bursts(
            seed=batch_max + (quantum or 0), kind="list", sizes=(0, 2, 9, 48, 49, 130),
        )
        self._assert_equals_model(
            bursts, policy=policy, max_inflight=48, batch_max=batch_max,
            service_quantum=quantum, flow_buckets=4, flow_sample=5,
        )

    def test_report_matches_live_counters(self):
        engine, _ = _engine(seed=9)
        pipe = StreamPipeline(engine, policy="shed", max_inflight=10, batch_max=3)
        report = pipe.run(self._bursts(seed=5, kind="list")())
        for name in _ADMISSION_COUNTERS:
            assert getattr(report, name) == getattr(pipe, name)


class TestSegmentQueue:
    """The queue holds burst segments; the backlog counts packets."""

    def test_refilled_burst_buffer_does_not_reach_queued_packets(self):
        # The source refills and re-yields one list; with a service
        # quantum, part of each burst is still queued when it does.
        rng = random.Random(41)
        sizes = [rng.choice((3, 6, 9, 14)) for _ in range(40)]
        queries = _queries(sum(sizes), seed=41)
        logical, start = [], 0
        for size in sizes:
            logical.append(queries[start : start + size])
            start += size

        def refilling():
            buffer: list[int] = []
            for burst in logical:
                buffer[:] = burst
                yield buffer

        pipe = StreamPipeline(
            _engine(seed=9)[0], policy="block", max_inflight=24, batch_max=3,
            service_quantum=4,
        )
        report = pipe.run(refilling(), collect_verdicts=True)
        assert report.served == len(queries)
        assert report.blocked_events > 0
        reference = batch_replay(_engine(seed=9)[0], logical)
        assert _signature(report.verdicts) == _signature(reference)

    def test_backlog_counts_packets_across_segments(self):
        # Bursts of 10 against a quantum of 4: 6 more packets queue per
        # burst, spread over the leftovers of several bursts.
        registry = MetricsRegistry()
        engine, _ = _engine(seed=9)
        pipe = StreamPipeline(
            engine, policy="block", max_inflight=100, batch_max=3,
            service_quantum=4, metrics=registry,
        )
        seen = []

        def probe(index):
            registry.collect()
            gauge = registry.get("stream_backlog").value
            seen.append((pipe.report()["backlog"], gauge, len(pipe._pending)))

        pipe.run(TraceSource(_queries(80), KEY_LENGTH, burst_size=10), on_burst=probe)
        assert [(backlog, gauge) for backlog, gauge, _ in seen] == [
            (6 * i, 6 * i) for i in range(8)
        ]
        assert max(segments for _, _, segments in seen) >= 2
        # The high-water mark is read after admission, before service.
        assert pipe.max_backlog == 6 * 7 + 10
        assert pipe.report()["backlog"] == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_queue_holds_at_most_one_segment_per_burst(self, policy):
        # Work count: after k bursts are admitted under a quantum the
        # queue holds at most k items, also while block policy serves
        # a burst four times the capacity in chunks.
        engine, _ = _engine(seed=9)
        admitted = 0

        class Checked(_Recorder):
            def lookup_batch(self, queries):
                assert len(pipe._pending) <= admitted
                return super().lookup_batch(queries)

        def count(index):
            nonlocal admitted
            assert len(pipe._pending) <= index
            admitted = index + 1

        pipe = StreamPipeline(
            Checked(engine), policy=policy, max_inflight=10, batch_max=3,
            service_quantum=4,
        )
        sizes = [40, 5, 7, 40, 1, 13, 40]
        queries = _queries(sum(sizes))
        bursts = []
        for size in sizes:
            bursts.append(queries[:size])
            queries = queries[size:]
        report = pipe.run(bursts, on_burst=count)
        assert report.batches > 0 and pipe.max_backlog == 10


class TestPipelineValidation:
    def test_rejects_unknown_policy(self):
        engine, _ = _engine()
        with pytest.raises(ValueError, match="policy"):
            StreamPipeline(engine, policy="spill")

    def test_rejects_bad_bounds(self):
        engine, _ = _engine()
        with pytest.raises(ValueError):
            StreamPipeline(engine, max_inflight=0)
        with pytest.raises(ValueError):
            StreamPipeline(engine, batch_max=0)
        with pytest.raises(ValueError):
            StreamPipeline(engine, service_quantum=0)
        with pytest.raises(ValueError):
            StreamPipeline(engine, flow_buckets=0)

    def test_rejects_non_engine(self):
        with pytest.raises(TypeError):
            StreamPipeline(object())

    def test_policies_tuple_is_the_contract(self):
        assert POLICIES == ("block", "drop", "shed")


# ----------------------------------------------------------------------
# Differential: streaming == batch == every matcher kind
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streaming_matches_batch_every_kind(kind):
    entries = random_entries(60, KEY_LENGTH, seed=3)
    queries = _queries(400, seed=5)

    def fresh():
        return ClassificationEngine(
            served_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=64)
        )

    pipe = StreamPipeline(fresh(), policy="block", max_inflight=64, batch_max=32)
    streamed = pipe.run(
        TraceSource(queries, KEY_LENGTH, burst_size=48), collect_verdicts=True
    )
    reference = batch_replay(fresh(), TraceSource(queries, KEY_LENGTH, burst_size=48))
    assert streamed.served == len(queries)
    assert _signature(streamed.verdicts) == _signature(reference)
    # The kind's own matcher picks the same winners (ties may differ in
    # value, never in priority).
    direct = build_kind(kind, entries, KEY_LENGTH).lookup_batch(queries)
    assert [None if v is None else v.priority for v in streamed.verdicts] == [
        None if e is None else e.priority for e in direct
    ]


# ----------------------------------------------------------------------
# Scenarios: deterministic replay + streaming == batch under churn
# ----------------------------------------------------------------------

SCENARIO_PACKETS = 640


def _scenario_stream(name, seed, policy="block"):
    source = ScenarioSource(name, seed=seed, packets=SCENARIO_PACKETS)
    compiled = source.compiled
    engine = ClassificationEngine(
        MultibitPalmtrie.build(compiled.entries, compiled.layout.length),
        EngineConfig(cache_size=256),
    )
    pipe = StreamPipeline(engine, policy=policy, max_inflight=1024)
    report = pipe.run(
        source, collect_verdicts=True, on_burst=churn_applier(source, engine)
    )
    return report, compiled


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_replay_is_deterministic(name):
    first, _ = _scenario_stream(name, seed=13)
    second, _ = _scenario_stream(name, seed=13)
    assert _signature(first.verdicts) == _signature(second.verdicts)
    assert first.churn_transactions == second.churn_transactions


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_streaming_matches_batch(name):
    streamed, compiled = _scenario_stream(name, seed=13)
    source = ScenarioSource(name, seed=13, packets=SCENARIO_PACKETS)
    engine = ClassificationEngine(
        MultibitPalmtrie.build(compiled.entries, compiled.layout.length),
        EngineConfig(cache_size=256),
    )
    reference = batch_replay(engine, source, on_burst=churn_applier(source, engine))
    assert _signature(streamed.verdicts) == _signature(reference)


def test_scan_churn_actually_churns():
    source = ScenarioSource("scan-churn", seed=13, packets=SCENARIO_PACKETS)
    assert source._churn, "scan-churn must schedule rule updates"
    report, _ = _scenario_stream("scan-churn", seed=13)
    assert report.churn_transactions == len(source._churn)


def test_attack_profile_sheds_deterministically():
    scenario = get_scenario("scan-churn")
    assert scenario.attack

    # Enough bursts for the 16/interval backlog growth to fill the
    # 256-packet queue (overload starts at burst 17).
    packets = 2_000

    def run():
        source = ScenarioSource(scenario, seed=29, packets=packets)
        compiled = source.compiled
        engine = ClassificationEngine(
            MultibitPalmtrie.build(compiled.entries, compiled.layout.length),
            EngineConfig(cache_size=256),
        )
        pipe = StreamPipeline(
            engine,
            policy="shed",
            max_inflight=scenario.max_inflight,
            service_quantum=scenario.service_quantum,
        )
        return pipe.run(source, on_burst=churn_applier(source, engine))

    first, second = run(), run()
    assert first.shed > 0, "the attack profile must overload the queue"
    assert first.shed == second.shed
    assert first.shed_rate == second.shed_rate


# ----------------------------------------------------------------------
# Latency histograms + observability plumbing
# ----------------------------------------------------------------------

class TestHistograms:
    def test_quantiles_cover_every_served_packet(self):
        engine, _ = _engine()
        pipe = StreamPipeline(engine, flow_buckets=4)
        pipe.run(TraceSource(_queries(300), KEY_LENGTH, burst_size=32))
        merged = pipe._merged_histogram()
        assert merged.count == 300
        quantiles = pipe.latency_quantiles()
        assert set(quantiles) == {"p50", "p90", "p99", "p999"}
        assert quantiles["p50"] <= quantiles["p999"]
        per_flow = pipe.flow_latency_quantiles()
        assert len(per_flow) == 4

    def test_histograms_can_be_disabled(self):
        engine, _ = _engine()
        pipe = StreamPipeline(engine, histograms=False)
        report = pipe.run(TraceSource(_queries(100), KEY_LENGTH, burst_size=32))
        assert report.latency is None
        assert pipe.latency_quantiles() is None
        assert pipe.flow_latency_quantiles() is None

    def test_metrics_registry_exports_stream_series(self):
        registry = MetricsRegistry()
        entries = random_entries(40, KEY_LENGTH, seed=6)
        engine = ClassificationEngine(
            MultibitPalmtrie.build(entries, KEY_LENGTH),
            EngineConfig(cache_size=64, metrics=registry),
        )
        pipe = StreamPipeline(engine, flow_buckets=2)
        pipe.run(TraceSource(_queries(200), KEY_LENGTH, burst_size=32))
        names = {metric.name for metric in registry.collect()}
        assert "stream_packets_total" in names
        assert "stream_flow_latency_seconds" in names
        assert "stream_backlog" in names
        served = registry.get("stream_packets_total", labels={"fate": "served"})
        assert served.value == 200

    def test_engine_report_gains_stream_section(self):
        engine, _ = _engine()
        pipe = StreamPipeline(engine, policy="shed", max_inflight=8, service_quantum=4)
        pipe.run(TraceSource(_queries(100), KEY_LENGTH, burst_size=20))
        section = engine.report()["stream"]
        assert section["policy"] == "shed"
        assert section["offered"] == 100
        assert section["shed"] == pipe.shed > 0
        assert "latency" in section
        assert section["shed_rate"] == pytest.approx(pipe.shed / 100)

    def test_dropped_stack_frees_its_trie_and_plane_without_gc(self):
        """The pipeline and the tenant it serves through form no
        reference cycle: with the collector off, closing the router
        and dropping the stack frees the engine's Palmtrie_k and plane
        at once."""
        import gc
        import weakref

        from repro.acl.compiler import compile_acl
        from repro.tenant import TenantRouter, TenantSpec
        from repro.workloads.classbench import PROFILES, classbench_rules

        rules = classbench_rules(PROFILES["acl"], 60, seed=1)
        acl_text = "\n".join(rule.to_line() for rule in rules)
        key_length = compile_acl(rules).layout.length
        enabled = gc.isenabled()
        gc.disable()
        try:
            router = TenantRouter(
                [TenantSpec("t", acl=acl_text, engine=EngineConfig(cache_size=64))]
            )
            pipe = StreamPipeline(router["t"])
            pipe.run(TraceSource(_queries(200, seed=5), key_length, burst_size=32))
            engine = router["t"].engine
            refs = [weakref.ref(engine.matcher), weakref.ref(engine.current_plane())]
            assert all(ref() is not None for ref in refs)
            router.close()
            del router, pipe, engine
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_report_drops_stream_section_with_its_pipeline(self):
        engine, _ = _engine()
        pipe = StreamPipeline(engine)
        pipe.run(TraceSource(_queries(64), KEY_LENGTH))
        assert engine.report()["stream"]["offered"] == 64
        del pipe
        assert "stream" not in engine.report()

    def test_counters_reset_between_runs(self):
        engine, _ = _engine()
        pipe = StreamPipeline(engine)
        pipe.run(TraceSource(_queries(64), KEY_LENGTH))
        report = pipe.run(TraceSource(_queries(32), KEY_LENGTH))
        assert report.offered == 32
        assert pipe.offered == 32


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestStreamCli:
    def test_scenarios_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_replay_scenario(self, capsys):
        from repro.cli import main

        code = main(
            [
                "replay", "--scenario", "steady-zipf",
                "--packets", "500", "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed 500 packets" in out
        assert "backpressure" in out
        assert "latency" in out

    def test_replay_scenario_rejects_positionals(self, capsys):
        from repro.cli import main

        assert main(["replay", "a.acl", "b.trace", "--scenario", "steady-zipf"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_replay_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["replay", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_replay_without_inputs_errors(self, capsys):
        from repro.cli import main

        assert main(["replay"]) == 2
        assert "acl and an input" in capsys.readouterr().err

    def test_replay_stream_over_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import campus_acl, save_acl, save_trace, uniform_traffic
        from repro.workloads.campus import campus_rules

        acl_path = tmp_path / "campus.acl"
        trace_path = tmp_path / "campus.trace"
        rules = campus_rules(0)
        save_acl(rules, str(acl_path))
        acl = campus_acl(0)
        save_trace(
            uniform_traffic(acl.entries, 400, seed=3),
            acl.layout.length,
            str(trace_path),
        )
        code = main(
            [
                "replay", str(acl_path), str(trace_path),
                "--stream", "--policy", "block", "--max-inflight", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed 400 packets" in out
        assert "policy block" in out
