"""Unit tests for layer 2 ACL support (repro.acl.layer2)."""

import pytest

from repro.acl.layer2 import (
    LAYOUT_L2,
    EtherType,
    L2Rule,
    compile_l2_rules,
    format_mac,
    parse_mac,
)
from repro.acl.parser import parse_rule
from repro.core.frozen import FrozenMatcher


class TestMacParsing:
    def test_parse(self):
        assert parse_mac("00:11:22:33:44:55") == 0x001122334455
        assert parse_mac("AA-BB-CC-DD-EE-FF") == 0xAABBCCDDEEFF

    def test_roundtrip(self):
        for text in ("00:11:22:33:44:55", "ff:ff:ff:ff:ff:ff", "02:00:00:00:00:01"):
            assert format_mac(parse_mac(text)) == text

    @pytest.mark.parametrize("text", ["", "00:11:22:33:44", "00:11:22:33:44:55:66", "gg:00:00:00:00:00", "0:11:22:33:44:55"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_mac(text)

    def test_format_out_of_range(self):
        with pytest.raises(ValueError):
            format_mac(1 << 48)


class TestLayout:
    def test_total_length(self):
        assert LAYOUT_L2.length == 256

    def test_l2_fields_above_l3(self):
        assert LAYOUT_L2.offset("dst_mac") > LAYOUT_L2.offset("src_ip")


class TestL2Rules:
    def _query(self, **kwargs):
        defaults = dict(
            dst_mac=parse_mac("00:11:22:33:44:55"),
            src_mac=parse_mac("66:77:88:99:aa:bb"),
            ethertype=EtherType.IPV4,
            vlan=100,
            pcp=0,
            src_ip=0x0A000001,
            dst_ip=0xC0000201,
            proto=6,
            src_port=40000,
            dst_port=443,
            tcp_flags=0x02,
        )
        defaults.update(kwargs)
        return LAYOUT_L2.pack_query(**defaults)

    def test_exact_mac_rule(self):
        rules = [
            L2Rule(priority=2, value="mgmt", dst_mac=(parse_mac("00:11:22:33:44:55"), (1 << 48) - 1)),
            L2Rule(priority=1, value="rest"),
        ]
        matcher = FrozenMatcher.build(compile_l2_rules(rules), 256, stride=8)
        assert matcher.lookup(self._query()).value == "mgmt"
        assert matcher.lookup(self._query(dst_mac=parse_mac("00:11:22:33:44:56"))).value == "rest"

    def test_oui_prefix_match(self):
        oui_care = 0xFFFFFF000000
        rules = [
            L2Rule(priority=2, value="vendor", src_mac=(0x667788000000, oui_care)),
            L2Rule(priority=1, value="rest"),
        ]
        matcher = FrozenMatcher.build(compile_l2_rules(rules), 256, stride=8)
        assert matcher.lookup(self._query()).value == "vendor"
        assert matcher.lookup(self._query(src_mac=parse_mac("00:77:88:99:aa:bb"))).value == "rest"

    def test_vlan_and_ethertype(self):
        rules = [
            L2Rule(priority=3, value="v100-ip", vlan=100, ethertype=EtherType.IPV4),
            L2Rule(priority=2, value="arp", ethertype=EtherType.ARP),
            L2Rule(priority=1, value="rest"),
        ]
        matcher = FrozenMatcher.build(compile_l2_rules(rules), 256, stride=8)
        assert matcher.lookup(self._query()).value == "v100-ip"
        assert matcher.lookup(self._query(vlan=200)).value == "rest"
        assert matcher.lookup(self._query(ethertype=EtherType.ARP, vlan=5)).value == "arp"

    def test_inner_l3l4_rule(self):
        inner = parse_rule("permit tcp any 192.0.2.0/24 established")
        rules = [
            L2Rule(priority=2, value="est", vlan=100, inner=inner),
            L2Rule(priority=1, value="rest"),
        ]
        entries = compile_l2_rules(rules)
        assert len(entries) == 3  # established doubles the inner rule
        matcher = FrozenMatcher.build(entries, 256, stride=8)
        assert matcher.lookup(self._query(tcp_flags=0x10)).value == "est"
        assert matcher.lookup(self._query(tcp_flags=0x02)).value == "rest"
        assert matcher.lookup(self._query(tcp_flags=0x10, vlan=101)).value == "rest"

    def test_validation(self):
        with pytest.raises(ValueError, match="ethertype"):
            L2Rule(priority=1, value=0, ethertype=1 << 16)
        with pytest.raises(ValueError, match="VLAN"):
            L2Rule(priority=1, value=0, vlan=4096)
        with pytest.raises(ValueError, match="outside the care mask"):
            L2Rule(priority=1, value=0, dst_mac=(0xFF, 0x00))
        with pytest.raises(ValueError, match="constraint"):
            L2Rule(priority=1, value=0, src_mac=(1 << 48, (1 << 48) - 1))
