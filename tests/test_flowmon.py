"""Unit tests for the flow monitoring application (repro.apps.flowmon)."""

import pytest

from repro.acl.compiler import compile_acl
from repro.acl.parser import parse_acl
from repro.apps.flowmon import FlowMonitor
from repro.packet.headers import PROTO_TCP, PROTO_UDP, PacketHeader

CLASS_ACL = """\
permit udp any eq 53 any
permit tcp any any eq 443
deny ip any any
"""


@pytest.fixture()
def monitor():
    acl = compile_acl(parse_acl(CLASS_ACL))
    return FlowMonitor(acl.entries, idle_timeout=30.0, default_class="unclassified")


def _dns(seq=0):
    return PacketHeader(0x01010101, 0x0A000001 + seq, PROTO_UDP, 53, 5353)


def _https():
    return PacketHeader(0x0A000001, 0x02020202, PROTO_TCP, 40000, 443, 0x18)


class TestClassification:
    def test_classes_assigned_by_rule(self, monitor):
        dns_record = monitor.observe(_dns(), length=80, timestamp=1.0)
        https_record = monitor.observe(_https(), length=1500, timestamp=1.0)
        assert dns_record.traffic_class == 0  # first rule
        assert https_record.traffic_class == 1

    def test_default_class_when_no_match(self):
        monitor = FlowMonitor([], default_class="other")
        record = monitor.observe(_dns(), timestamp=0.0)
        assert record.traffic_class == "other"


class TestAggregation:
    def test_same_flow_aggregates(self, monitor):
        for i in range(5):
            monitor.observe(_https(), length=100, timestamp=float(i))
        assert monitor.active_flows() == 1
        record = next(monitor.flows())
        assert record.packets == 5
        assert record.octets == 500
        assert record.first_seen == 0.0
        assert record.last_seen == 4.0

    def test_distinct_flows_separate(self, monitor):
        monitor.observe(_dns(0), timestamp=0.0)
        monitor.observe(_dns(1), timestamp=0.0)
        assert monitor.active_flows() == 2

    def test_tcp_flags_accumulate(self, monitor):
        monitor.observe(PacketHeader(1, 2, PROTO_TCP, 3, 443, 0x02), timestamp=0.0)
        monitor.observe(PacketHeader(1, 2, PROTO_TCP, 3, 443, 0x10), timestamp=1.0)
        record = next(monitor.flows())
        assert record.tcp_flags_or == 0x12

    def test_class_totals(self, monitor):
        monitor.observe(_dns(), length=80, timestamp=0.0)
        monitor.observe(_dns(), length=80, timestamp=1.0)
        monitor.observe(_https(), length=1000, timestamp=0.0)
        totals = monitor.class_totals()
        assert totals[0] == (2, 160)
        assert totals[1] == (1, 1000)

    def test_global_counters(self, monitor):
        monitor.observe(_dns(), length=80, timestamp=0.0)
        monitor.observe(_https(), length=20, timestamp=0.0)
        assert monitor.packets_seen == 2
        assert monitor.octets_seen == 100


class TestExpiry:
    def test_idle_flows_expire(self, monitor):
        monitor.observe(_dns(), length=80, timestamp=0.0)
        monitor.observe(_https(), length=100, timestamp=50.0)
        expired = monitor.expired()
        assert [r.key[2] for r in expired] == [PROTO_UDP]

    def test_export_removes_and_formats(self, monitor):
        monitor.observe(_dns(), length=80, timestamp=0.0)
        monitor.observe(_https(), length=100, timestamp=50.0)
        exported = monitor.export_expired()
        assert monitor.active_flows() == 1
        (record,) = exported
        assert record["protocolIdentifier"] == PROTO_UDP
        assert record["packetDeltaCount"] == 1
        assert record["octetDeltaCount"] == 80
        assert record["className"] == 0

    def test_active_flow_not_exported(self, monitor):
        monitor.observe(_https(), timestamp=0.0)
        assert monitor.export_expired(now=10.0) == []


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="idle timeout"):
            FlowMonitor([], idle_timeout=0)

    def test_negative_length(self, monitor):
        with pytest.raises(ValueError, match="length"):
            monitor.observe(_dns(), length=-1)

    def test_custom_matcher(self):
        from repro.core.multibit import MultibitPalmtrie

        acl = compile_acl(parse_acl(CLASS_ACL))
        custom = MultibitPalmtrie.build(acl.entries, 128, stride=4)
        monitor = FlowMonitor(acl.entries, matcher=custom)
        assert monitor.engine.matcher is custom
        assert monitor.observe(_https(), timestamp=0.0).traffic_class == 1
