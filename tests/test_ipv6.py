"""Unit tests for IPv6 support (repro.acl.ipv6, paper §5)."""

import pytest

from repro.acl.ipv6 import (
    Ipv6Rule,
    compile_ipv6_rules,
    format_ipv6,
    parse_ipv6,
    parse_prefix6,
    synthetic_ipv6_rules,
)
from repro.acl.layout import LAYOUT_V6
from repro.acl.rule import Action, Protocol
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.frozen import FrozenMatcher


class TestParseIpv6:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("::", 0),
            ("::1", 1),
            ("2001:db8::", 0x20010DB8 << 96),
            ("2001:db8::1", (0x20010DB8 << 96) | 1),
            ("fe80::1:2:3", (0xFE80 << 112) | (1 << 32) | (2 << 16) | 3),
            ("1:2:3:4:5:6:7:8", 0x00010002000300040005000600070008),
            ("::ffff:192.0.2.1", (0xFFFF << 32) | 0xC0000201),
        ],
    )
    def test_valid(self, text, value):
        assert parse_ipv6(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "", ":::", "1::2::3", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9",
            "12345::", "gggg::", "::192.0.2.1:1", "1:2:3:4:5:6:7:8::",
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_ipv6(text)


class TestFormatIpv6:
    @pytest.mark.parametrize(
        "text", ["::", "::1", "2001:db8::", "2001:db8::1", "1:2:3:4:5:6:7:8", "2001:db8:0:1::"]
    )
    def test_canonical_roundtrip(self, text):
        assert format_ipv6(parse_ipv6(text)) == text

    def test_longest_zero_run_compressed(self):
        # RFC 5952: compress the *longest* run.
        assert format_ipv6(parse_ipv6("1:0:0:2:0:0:0:3")) == "1:0:0:2::3"

    def test_single_zero_group_not_compressed(self):
        assert format_ipv6(parse_ipv6("1:0:2:3:4:5:6:7")) == "1:0:2:3:4:5:6:7"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv6(1 << 128)


class TestPrefix6:
    def test_parse(self):
        assert parse_prefix6("2001:db8::/32") == (0x20010DB8 << 96, 32)

    def test_bare_address(self):
        assert parse_prefix6("::1") == (1, 128)

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError, match="host bits"):
            parse_prefix6("2001:db8::1/32")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_prefix6("::/129")


class TestIpv6Rules:
    def test_compile_shape(self):
        rules = [
            Ipv6Rule(Action.PERMIT, Protocol.TCP, (0, 0), parse_prefix6("2001:db8::/32"),
                     dst_ports=(443, 443)),
            Ipv6Rule(Action.DENY, Protocol.IP, (0, 0), (0, 0)),
        ]
        entries = compile_ipv6_rules(rules)
        assert len(entries) == 2
        assert all(e.key.length == 512 for e in entries)
        assert entries[0].priority > entries[1].priority

    def test_lookup_semantics(self):
        rules = [
            Ipv6Rule(Action.PERMIT, Protocol.TCP, (0, 0), parse_prefix6("2001:db8::/32"),
                     dst_ports=(443, 443)),
            Ipv6Rule(Action.DENY, Protocol.IP, (0, 0), (0, 0)),
        ]
        entries = compile_ipv6_rules(rules)
        matcher = FrozenMatcher.build(entries, 512, stride=8)
        https = LAYOUT_V6.pack_query(
            src_ip=parse_ipv6("2001:db8:ffff::9"),
            dst_ip=parse_ipv6("2001:db8::1"),
            proto=6,
            dst_port=443,
        )
        ssh = LAYOUT_V6.pack_query(
            src_ip=parse_ipv6("2001:db8:ffff::9"),
            dst_ip=parse_ipv6("2001:db8::1"),
            proto=6,
            dst_port=22,
        )
        assert matcher.lookup(https).value == 0
        assert matcher.lookup(ssh).value == 1

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="prefix length"):
            Ipv6Rule(Action.PERMIT, Protocol.IP, (0, 129), (0, 0))
        with pytest.raises(ValueError, match="require tcp or udp"):
            Ipv6Rule(Action.PERMIT, Protocol.ICMP, (0, 0), (0, 0), dst_ports=(1, 1))


class TestIpv6Dialect:
    def test_parse_rule(self):
        from repro.acl.ipv6 import parse_ipv6_rule

        rule = parse_ipv6_rule("permit tcp any 2001:db8::/32 eq 443")
        assert rule.action is Action.PERMIT
        assert rule.protocol is Protocol.TCP
        assert rule.dst_prefix == (0x20010DB8 << 96, 32)
        assert rule.dst_ports == (443, 443)

    def test_roundtrip_to_line(self):
        from repro.acl.ipv6 import parse_ipv6_rule

        lines = [
            "permit tcp any 2001:db8::/32 eq 443",
            "deny ip any any",
            "permit udp 2001:db8:1::/48 eq 53 any",
            "permit tcp any range 1000 2000 2001:db8::/32",
        ]
        for line in lines:
            assert parse_ipv6_rule(line).to_line() == line

    def test_parse_acl_with_comments(self):
        from repro.acl.ipv6 import parse_ipv6_acl

        rules = parse_ipv6_acl(
            "# v6 policy\npermit tcp any 2001:db8::/32 eq 443  # web\ndeny ip any any\n"
        )
        assert len(rules) == 2

    def test_errors(self):
        from repro.acl.parser import AclParseError
        from repro.acl.ipv6 import parse_ipv6_rule

        for line, match in [
            ("permit tcp any", "at least"),
            ("allow tcp any any", "unknown action"),
            ("permit icmp any eq 1 any", "only valid"),
            ("permit tcp any any eq", "needs a port"),
            ("permit tcp any any eq 99999", "invalid port range"),
            ("permit tcp any any extra", "unexpected token"),
            ("permit tcp zzzz::/200 any", "prefix length"),
        ]:
            with pytest.raises(AclParseError, match=match):
                parse_ipv6_rule(line)

    def test_end_to_end(self):
        from repro.acl.ipv6 import compile_ipv6_rules, parse_ipv6_acl

        rules = parse_ipv6_acl(
            "permit tcp any 2001:db8::/32 eq 443\ndeny ip any any\n"
        )
        entries = compile_ipv6_rules(rules)
        matcher = FrozenMatcher.build(entries, 512, stride=8)
        query = LAYOUT_V6.pack_query(
            src_ip=parse_ipv6("fe80::1"),
            dst_ip=parse_ipv6("2001:db8::5"),
            proto=6,
            dst_port=443,
        )
        assert matcher.lookup(query).value == 0


class TestSyntheticIpv6:
    def test_deterministic(self):
        a = synthetic_ipv6_rules(50, seed=1)
        b = synthetic_ipv6_rules(50, seed=1)
        assert compile_ipv6_rules(a) == compile_ipv6_rules(b)

    def test_count_and_validity(self):
        rules = synthetic_ipv6_rules(80)
        assert len(rules) == 80
        entries = compile_ipv6_rules(rules)
        assert len(entries) >= 80

    def test_palmtrie_agrees_with_oracle_on_512_bits(self):
        import random

        entries = compile_ipv6_rules(synthetic_ipv6_rules(60))
        oracle = SortedListMatcher.build(entries, 512)
        plus = FrozenMatcher.build(entries, 512, stride=8)
        rng = random.Random(6)
        from repro.workloads.traffic import query_matching_entry

        for _ in range(200):
            query = query_matching_entry(entries[rng.randrange(len(entries))], rng)
            a = oracle.lookup(query)
            b = plus.lookup(query)
            assert (a and a.priority) == (b and b.priority)

    def test_bad_count(self):
        with pytest.raises(ValueError, match="positive"):
            synthetic_ipv6_rules(0)
