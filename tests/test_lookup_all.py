"""Tests for multi-match lookup (lookup_all) across structures."""

import random

import pytest

from helpers import random_entries, table1_entries
from repro.baselines.dpdk_acl import DpdkStyleAcl
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.basic import BasicPalmtrie
from repro.core.multibit import MultibitPalmtrie
from repro.core.frozen import FrozenMatcher

MATCHER_BUILDERS = [
    lambda e, L: SortedListMatcher.build(e, L),
    lambda e, L: BasicPalmtrie.build(e, L),
    lambda e, L: MultibitPalmtrie.build(e, L, stride=3),
    lambda e, L: MultibitPalmtrie.build(e, L, stride=8),
    lambda e, L: FrozenMatcher.build(e, L, stride=4),
]


def _oracle_all(entries, query):
    return sorted(
        (e for e in entries if e.key.matches(query)),
        key=lambda e: e.priority,
        reverse=True,
    )


class TestPaperExample:
    @pytest.mark.parametrize("build", MATCHER_BUILDERS)
    def test_table1_query_matches_5_and_8(self, build):
        # §3.1: query 01110101 matches exactly entries 5 and 8.
        entries = table1_entries()
        matcher = build(entries, 8)
        matches = matcher.lookup_all(0b01110101)
        assert [m.value for m in matches] == [5, 8]
        assert [m.priority for m in matches] == [7, 2]

    @pytest.mark.parametrize("build", MATCHER_BUILDERS)
    def test_no_match_is_empty(self, build):
        matcher = build(table1_entries(), 8)
        assert matcher.lookup_all(0b00100000) == []


class TestDifferential:
    @pytest.mark.parametrize("build", MATCHER_BUILDERS)
    def test_random_tables(self, build):
        entries = random_entries(80, 12, seed=55)
        matcher = build(entries, 12)
        rng = random.Random(55)
        for _ in range(300):
            query = rng.getrandbits(12)
            expected = _oracle_all(entries, query)
            got = matcher.lookup_all(query)
            # Same multiset of priorities in the same (non-strict) order.
            assert [e.priority for e in got] == [e.priority for e in expected]
            assert {id(e) for e in got} == {
                id(e) for e in entries if e.key.matches(query)
            }

    @pytest.mark.parametrize("build", MATCHER_BUILDERS)
    def test_first_of_all_is_lookup(self, build):
        entries = random_entries(60, 12, seed=56)
        matcher = build(entries, 12)
        for query in range(0, 1 << 12, 41):
            all_matches = matcher.lookup_all(query)
            single = matcher.lookup(query)
            if single is None:
                assert all_matches == []
            else:
                assert all_matches[0].priority == single.priority


class TestUnsupported:
    def test_dpdk_style_raises(self):
        matcher = DpdkStyleAcl.build(table1_entries(), 8)
        with pytest.raises(NotImplementedError, match="multi-match"):
            matcher.lookup_all(0)
