"""Golden tests pinned to the paper's own worked examples.

Covers Table 1 (the ternary matching table), the §3.1/§3.3 lookup
walkthroughs, Figure 4's stride-3 path structure, and Table 2's ACL.
"""

import pytest

from helpers import build_kind, table1_entries
from repro.acl.compiler import compile_acl
from repro.acl.parser import parse_acl
from repro.acl.rule import Action
from repro.core.basic import BasicPalmtrie
from repro.core.multibit import MultibitPalmtrie, key_path
from repro.core.frozen import FrozenMatcher
from repro.core.ternary import TernaryKey
from repro.packet.headers import PROTO_TCP, PacketHeader


class TestTable1:
    """§3.1: the example ternary matching table."""

    def test_query_key_matches_entries_5_and_8(self):
        entries = table1_entries()
        matching = [e.value for e in entries if e.matches(0b01110101)]
        assert sorted(matching) == [5, 8]

    def test_priority_encoding_selects_entry_5(self):
        for kind in ("palmtrie-basic", "palmtrie", "frozen"):
            strided = {} if kind == "palmtrie-basic" else {"stride": 3}
            matcher = build_kind(kind, table1_entries(), 8, **strided)
            result = matcher.lookup(0b01110101)
            assert result.value == 5, kind

    def test_key_011_1000_matches_paper_examples(self):
        key = TernaryKey.from_string("011*1000")
        assert key.matches(0b01101000)
        assert key.matches(0b01111000)


class TestFigure2Walkthrough:
    """§3.3's traced lookup over the basic Palmtrie."""

    def test_candidates_and_winner(self):
        trie = BasicPalmtrie.build(table1_entries(), 8)
        # The walk finds node 5 (0*1101**, priority 7) and node 8
        # (011*1000... the paper's text says Node 8 key 011*1000 matches;
        # the winner is node 5).
        result = trie.lookup(0b01110101)
        assert (result.value, result.priority) == (5, 7)

    def test_another_trace_no_match_region(self):
        trie = BasicPalmtrie.build(table1_entries(), 8)
        # 00100000 matches nothing in Table 1.
        assert trie.lookup(0b00100000) is None

    def test_floor_entry(self):
        trie = BasicPalmtrie.build(table1_entries(), 8)
        # 11111111 matches only 1******* (value 9) and 1110**** does not.
        assert trie.lookup(0b11111111).value == 9


class TestFigure4StridePaths:
    """§3.4's k=3 example: bit indices observed in the Figure 4 walk."""

    def test_root_bit_index_is_5(self):
        # "As the bit index of the root node, Node 2, is 5..."
        trie = MultibitPalmtrie.build(table1_entries(), 8, stride=3)
        assert trie._root.bit == 5

    def test_node1_reaches_bit_minus_1(self):
        # "the bit index of Node 1 is -1" — key 1*0***10 ends at bit -1.
        steps = key_path(TernaryKey.from_string("1*0***10"), 3)
        assert steps[-1][0] == -1

    def test_stride3_lookup_matches_walkthrough(self):
        trie = MultibitPalmtrie.build(table1_entries(), 8, stride=3)
        assert trie.lookup(0b01110101).value == 5
        plus = FrozenMatcher.from_matcher(trie)
        assert plus.lookup(0b01110101).value == 5


class TestTable2Acl:
    """§3.1's ACL example, end to end through the public API."""

    ACL_TEXT = """\
    permit ip 192.0.2.0/24 0.0.0.0/0
    permit icmp 0.0.0.0/0 192.0.2.0/24
    permit udp 0.0.0.0/0 eq 53 192.0.2.0/24
    permit tcp 0.0.0.0/0 192.0.2.0/24 established
    deny ip 0.0.0.0/0 192.0.2.0/24
    """

    @pytest.fixture(scope="class")
    def matcher_and_acl(self):
        acl = compile_acl(parse_acl(self.ACL_TEXT))
        matcher = FrozenMatcher.build(acl.entries, 128, stride=8)
        return matcher, acl

    def test_established_conversion(self, matcher_and_acl):
        # "an ACL entry with the keyword of established is converted into
        # two ternary matching entries" — 5 rules, 6 entries.
        _, acl = matcher_and_acl
        assert len(acl.rules) == 5
        assert len(acl.entries) == 6

    def test_inbound_ack_permitted(self, matcher_and_acl):
        matcher, acl = matcher_and_acl
        header = PacketHeader(
            src_ip=0x08080808, dst_ip=0xC0000263, proto=PROTO_TCP, tcp_flags=0x10
        )
        entry = matcher.lookup(header.to_query())
        assert acl.rules[entry.value].action is Action.PERMIT

    def test_inbound_syn_denied(self, matcher_and_acl):
        matcher, acl = matcher_and_acl
        header = PacketHeader(
            src_ip=0x08080808, dst_ip=0xC0000263, proto=PROTO_TCP, tcp_flags=0x02
        )
        entry = matcher.lookup(header.to_query())
        assert acl.rules[entry.value].action is Action.DENY


class TestComplexityClaim:
    """Table 3: the Palmtrie's sublinear lookup scaling."""

    def test_depth_bound(self):
        # Worst case is bound to O(L^2) visits; check a generous bound.
        from helpers import random_entries

        entries = random_entries(512, 16, seed=88)
        trie = BasicPalmtrie.build(entries, 16)
        assert trie.depth() <= 16 * 2
