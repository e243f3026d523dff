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

from helpers import random_entries

from repro import MATCHER_KINDS, ClassificationEngine, EngineConfig, build_matcher
from repro.obs.metrics import MetricsRegistry
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
    matcher = build_matcher("palmtrie-plus", entries, KEY_LENGTH)
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


def _per_packet_run(pipe, bursts, collect_verdicts):
    """The admission loop ``StreamPipeline.run`` ran before bulk
    admission: one queue append (or drop/shed/block decision) per
    packet.  Kept as the oracle bulk admission must equal; it drives the
    pipeline's own service step, so only admission differs."""
    pipe._reset_counters()
    verdicts = pipe._verdicts = [] if collect_verdicts else None
    pending = pipe._pending
    capacity = pipe.max_inflight
    quantum = pipe.service_quantum
    for burst in bursts:
        arrival = 0.0
        for query in burst:
            index = pipe.offered
            pipe.offered += 1
            if verdicts is not None:
                verdicts.append(DROPPED)
            if len(pending) >= capacity:
                if pipe.policy == "drop":
                    pipe.dropped += 1
                    continue
                if pipe.policy == "shed":
                    pipe.shed += 1
                    if verdicts is not None:
                        verdicts[index] = None
                    continue
                pipe.blocked_events += 1
                while len(pending) >= capacity:
                    pipe._serve_batch()
            pending.append((query, arrival, index))
            pipe.admitted += 1
        if len(pending) > pipe.max_backlog:
            pipe.max_backlog = len(pending)
        budget = quantum
        while pending and (budget is None or budget > 0):
            served = pipe._serve_batch(budget)
            if budget is not None:
                budget -= served
    while pending:
        pipe._serve_batch()
    pipe._verdicts = None
    return verdicts


_ADMISSION_COUNTERS = (
    "offered", "admitted", "served", "dropped", "shed",
    "blocked_events", "batches", "max_backlog",
)


class TestBulkAdmission:
    """Bulk admission equals the per-packet loop it replaced: every
    counter, the verdict stream and the cache state, per policy."""

    def _bursts(self, seed, kind):
        rng = random.Random(seed)
        sizes = [rng.choice((0, 1, 3, 7, 10, 11, 25, 40)) for _ in range(30)]
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

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("quantum", [None, 4])
    @pytest.mark.parametrize("kind", ["list", "tuple", "generator"])
    def test_equals_per_packet_admission(self, policy, quantum, kind):
        bursts = self._bursts(seed=len(policy) * 7 + (quantum or 0), kind=kind)
        runs = []
        for bulk in (True, False):
            engine, _ = _engine(seed=9, cache=16)
            pipe = StreamPipeline(
                engine, policy=policy, max_inflight=10, batch_max=3,
                service_quantum=quantum,
            )
            if bulk:
                report = pipe.run(bursts(), collect_verdicts=True)
                verdicts = report.verdicts
            else:
                verdicts = _per_packet_run(pipe, bursts(), collect_verdicts=True)
            counters = {name: getattr(pipe, name) for name in _ADMISSION_COUNTERS}
            runs.append(
                (
                    counters,
                    _signature(verdicts),
                    list(engine.cache._map),
                    pipe._latency_hist.count,
                    pipe._sample_tick,
                )
            )
        assert runs[0] == runs[1]
        counters = runs[0][0]
        assert counters["offered"] == counters["admitted"] + counters["dropped"] + counters["shed"]
        if policy == "block":
            assert counters["blocked_events"] > 0
        else:
            assert counters["dropped"] + counters["shed"] > 0

    def test_report_matches_live_counters(self):
        engine, _ = _engine(seed=9)
        pipe = StreamPipeline(engine, policy="shed", max_inflight=10, batch_max=3)
        report = pipe.run(self._bursts(seed=5, kind="list")())
        for name in _ADMISSION_COUNTERS:
            assert getattr(report, name) == getattr(pipe, name)


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
# Differential: streaming == batch for every matcher kind
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(MATCHER_KINDS))
def test_streaming_matches_batch_every_kind(kind):
    entries = random_entries(60, KEY_LENGTH, seed=3)
    queries = _queries(400, seed=5)

    def fresh():
        return ClassificationEngine(
            build_matcher(kind, entries, KEY_LENGTH), EngineConfig(cache_size=64)
        )

    pipe = StreamPipeline(fresh(), policy="block", max_inflight=64, batch_max=32)
    streamed = pipe.run(
        TraceSource(queries, KEY_LENGTH, burst_size=48), collect_verdicts=True
    )
    reference = batch_replay(fresh(), TraceSource(queries, KEY_LENGTH, burst_size=48))
    assert streamed.served == len(queries)
    assert _signature(streamed.verdicts) == _signature(reference)


# ----------------------------------------------------------------------
# Scenarios: deterministic replay + streaming == batch under churn
# ----------------------------------------------------------------------

SCENARIO_PACKETS = 640


def _scenario_stream(name, seed, policy="block"):
    source = ScenarioSource(name, seed=seed, packets=SCENARIO_PACKETS)
    compiled = source.compiled
    engine = ClassificationEngine(
        build_matcher("palmtrie-plus", compiled.entries, compiled.layout.length),
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
        build_matcher("palmtrie-plus", compiled.entries, compiled.layout.length),
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
            build_matcher("palmtrie-plus", compiled.entries, compiled.layout.length),
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
            build_matcher("palmtrie-plus", entries, KEY_LENGTH),
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
