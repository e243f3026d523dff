"""Unit tests for the l3fwd-style forwarding pipeline (repro.apps.l3fwd)."""

import pytest

from repro.acl.compiler import compile_acl
from repro.acl.parser import parse_acl
from repro.apps.l3fwd import L3Forwarder
from repro.packet.codec import encode_packet
from repro.packet.headers import PROTO_TCP, PROTO_UDP, PacketHeader

ACL = """\
permit tcp any 10.0.0.0/8 eq 80
permit udp any eq 53 10.0.0.0/8
deny ip any 10.0.0.0/8
permit ip any any
"""

ROUTES = [
    (0x0A0000, 24, 1),   # 10.0.0.0/24 -> port 1
    (0x0A, 8, 2),        # 10.0.0.0/8  -> port 2
    (0, 0, 0),           # default     -> port 0
]


@pytest.fixture()
def forwarder():
    return L3Forwarder(compile_acl(parse_acl(ACL)), ROUTES)


class TestPipeline:
    def test_permit_then_lpm(self, forwarder):
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 80)
        )
        assert verdict.action == "forward"
        assert verdict.out_port == 1  # most specific route
        assert verdict.rule_index == 0

    def test_less_specific_route(self, forwarder):
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0x0A990005, PROTO_TCP, 40000, 80)
        )
        assert verdict.out_port == 2

    def test_acl_drop_skips_routing(self, forwarder):
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 22)
        )
        assert verdict.action == "acl-drop"
        assert verdict.out_port is None
        assert verdict.rule_index == 2

    def test_default_route(self, forwarder):
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0xC0000201, PROTO_UDP, 53, 53)
        )
        assert verdict.action == "forward"
        assert verdict.out_port == 0

    def test_no_route(self):
        forwarder = L3Forwarder(compile_acl(parse_acl(ACL)), [(0x0A, 8, 2)])
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0xC0000201, PROTO_TCP, 1, 2)
        )
        assert verdict.action == "no-route"

    def test_implicit_default_action(self):
        forwarder = L3Forwarder(
            compile_acl(parse_acl("permit tcp any 10.0.0.0/8 eq 80\n")), ROUTES
        )
        verdict = forwarder.process(PacketHeader(1, 2, PROTO_UDP, 3, 4))
        assert verdict.action == "acl-drop"
        assert verdict.rule_index is None


class TestStatsAndBatch:
    def test_counters(self, forwarder):
        headers = [
            PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 80),  # fwd port1
            PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 22),  # drop
            PacketHeader(0x01020304, 0xC0000201, PROTO_TCP, 40000, 9),   # fwd port0
        ]
        verdicts = forwarder.process_batch(headers)
        assert [v.action for v in verdicts] == ["forward", "acl-drop", "forward"]
        stats = forwarder.stats
        assert stats.received == 3
        assert stats.forwarded == 2
        assert stats.acl_dropped == 1
        assert stats.per_port_tx == {1: 1, 0: 1}

    def test_raw_bytes_path(self, forwarder):
        wire = encode_packet(PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 80))
        verdict = forwarder.process_bytes(wire)
        assert verdict.action == "forward"

    def test_decode_error_counted(self, forwarder):
        verdict = forwarder.process_bytes(b"\x00\x01\x02")
        assert verdict.action == "error"
        assert forwarder.stats.decode_errors == 1
        assert forwarder.stats.received == 1


class TestRouteUpdates:
    def test_add_and_withdraw(self, forwarder):
        header = PacketHeader(0x01020304, 0x0A000105, PROTO_TCP, 40000, 80)
        assert forwarder.process(header).out_port == 2
        forwarder.add_route(0x0A0001, 24, 7)
        assert forwarder.process(header).out_port == 7
        assert forwarder.withdraw_route(0x0A0001, 24)
        assert forwarder.process(header).out_port == 2
        assert not forwarder.withdraw_route(0x0A0001, 24)

    def test_custom_matcher(self):
        from repro.core.multibit import MultibitPalmtrie

        acl = compile_acl(parse_acl(ACL))
        matcher = MultibitPalmtrie.build(acl.entries, 128, stride=4)
        forwarder = L3Forwarder(acl, ROUTES, matcher=matcher)
        assert forwarder.engine.matcher is matcher
        verdict = forwarder.process(
            PacketHeader(0x01020304, 0x0A000005, PROTO_TCP, 40000, 80)
        )
        assert verdict.action == "forward"
