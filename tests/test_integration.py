"""Integration tests: multi-module end-to-end scenarios."""

import random

from repro.acl.analyzer import equivalent_on_samples, remove_redundant
from repro.acl.compiler import compile_acl
from repro.acl.rule import Action
from repro.apps.conntrack import StatefulFirewall
from repro.apps.firewall import Firewall
from repro.apps.flowmon import FlowMonitor
from repro.apps.l3fwd import L3Forwarder
from repro.cli import main
from repro.core.serialize import load_frozen
from repro.packet.codec import decode_packet, encode_packet
from repro.packet.headers import PROTO_TCP, PacketHeader
from repro.workloads.campus import campus_acl, campus_rules
from repro.workloads.io import load_acl, load_trace
from repro.workloads.traffic import uniform_traffic


class TestCliPipeline:
    """generate -> analyze -> compile -> load -> match, all via files."""

    def test_full_loop(self, tmp_path, capsys):
        acl_path = str(tmp_path / "ds.acl")
        trace_path = str(tmp_path / "ds.trace")
        table_path = str(tmp_path / "ds.plmf")
        assert main([
            "generate", "campus", "--q", "1", "-o", acl_path,
            "--trace", trace_path, "--trace-count", "200",
        ]) == 0
        # The generated file parses back to the canonical dataset.
        assert load_acl(acl_path) == campus_rules(1)
        # Compile to a frozen plane and load it.
        assert main(["compile", acl_path, "-o", table_path]) == 0
        matcher = load_frozen(table_path)
        # Replaying the trace against the loaded table matches the
        # freshly compiled oracle on every query.
        queries, key_length = load_trace(trace_path)
        assert key_length == 128
        compiled = compile_acl(load_acl(acl_path))
        from repro.baselines.sorted_list import SortedListMatcher

        oracle = SortedListMatcher.build(compiled.entries, 128)
        for query in queries:
            a = oracle.lookup(query)
            b = matcher.lookup(query)
            assert (a and a.priority) == (b and b.priority)
        capsys.readouterr()


class TestOptimizedPolicyDeployment:
    """Analyzer-optimized rules must behave identically in the firewall."""

    def test_optimization_preserves_firewall_behaviour(self):
        rules = campus_rules(1)
        # Inject redundancy: duplicate some rules at lower priority.
        bloated = rules + rules[:10]
        optimized = remove_redundant(bloated)
        assert len(optimized) < len(bloated)
        assert equivalent_on_samples(bloated, optimized, samples=500) is None
        original = Firewall(compile_acl(bloated))
        slim = Firewall(compile_acl(optimized))
        queries = uniform_traffic(compile_acl(bloated).entries, 300)
        for query in queries:
            header = PacketHeader.from_query(query)
            assert original.check(header) == slim.check(header)


class TestDataPlaneStack:
    """Router + flow monitor + stateful firewall sharing one stream."""

    def test_combined_pipeline(self):
        acl = campus_acl(2)
        router = L3Forwarder(
            acl,
            routes=[(0x0A, 8, 1), (0, 0, 0)],
            default_action=Action.DENY,
        )
        monitor = FlowMonitor(acl.entries, idle_timeout=60.0, default_class=-1)
        rng = random.Random(13)
        wire_frames = []
        for _ in range(150):
            inside = 0x0A000000 | rng.getrandbits(24)
            header = PacketHeader(inside, rng.getrandbits(32), PROTO_TCP,
                                  rng.randrange(1024, 65536), 443, 0x18)
            wire_frames.append(encode_packet(header, payload=b"x" * 32))
        forwarded = 0
        for clock, frame in enumerate(wire_frames):
            header = decode_packet(frame)
            verdict = router.process(header)
            if verdict.action == "forward":
                forwarded += 1
                monitor.observe(header, length=len(frame), timestamp=float(clock))
        assert forwarded == router.stats.forwarded
        assert monitor.packets_seen == forwarded
        # Outbound campus traffic hits the per-prefix permit rules.
        assert all(r.traffic_class >= 0 for r in monitor.flows())

    def test_stateful_over_palmtrie_scales(self):
        acl = campus_acl(2)
        firewall = StatefulFirewall(acl)
        rng = random.Random(14)
        permits = 0
        for i in range(200):
            inside = 0x0A000000 | rng.getrandbits(24)
            syn = PacketHeader(inside, rng.getrandbits(32), PROTO_TCP,
                               rng.randrange(1024, 65536), 443, 0x02)
            if firewall.check(syn, float(i)) is Action.PERMIT:
                permits += 1
                reply = PacketHeader(syn.dst_ip, syn.src_ip, PROTO_TCP,
                                     443, syn.src_port, 0x12)
                assert firewall.check(reply, float(i) + 0.1) is Action.PERMIT
        assert permits > 0
        assert firewall.fast_path_hits == permits


class TestSerializationDeployment:
    def test_control_plane_to_data_plane(self, tmp_path):
        """Compile on one 'node', ship bytes, serve lookups on another."""
        from repro.config import EngineConfig
        from repro.core.frozen import FrozenMatcher
        from repro.core.serialize import save_frozen
        from repro.engine import ClassificationEngine

        acl = campus_acl(2)
        control_plane = FrozenMatcher.build(acl.entries, 128, stride=8)
        path = str(tmp_path / "table.plmf")
        save_frozen(control_plane, path)
        data_plane = ClassificationEngine(load_frozen(path), EngineConfig(cache_size=64))
        queries = uniform_traffic(acl.entries, 300)
        for query in queries:
            a = control_plane.lookup(query)
            b = data_plane.lookup(query)
            assert a.priority == b.priority
        # The data plane can keep taking incremental updates (§3.6 path:
        # the engine rebuilds the plane's Palmtrie_k and updates that).
        from repro.core.table import TernaryEntry
        from repro.core.ternary import TernaryKey

        block = TernaryEntry(TernaryKey.wildcard(128), "block-all", 10_000)
        data_plane.insert(block)
        assert data_plane.lookup(queries[0]).value == "block-all"
