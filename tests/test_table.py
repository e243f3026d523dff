"""Unit tests for the matcher interface layer (repro.core.table)."""

import pytest

from helpers import build_kind, table1_entries
from repro.baselines.sorted_list import SortedListMatcher
from repro.config import EngineConfig
from repro.core.table import LookupStats, TernaryEntry, TernaryMatcher, build_matcher
from repro.core.ternary import TernaryKey


class TestTernaryEntry:
    def test_matches_delegates_to_key(self):
        entry = TernaryEntry(TernaryKey.from_string("01*"), "v", 3)
        assert entry.matches(0b010)
        assert entry.matches(0b011)
        assert not entry.matches(0b110)

    def test_frozen(self):
        entry = TernaryEntry(TernaryKey.wildcard(4), "v", 1)
        with pytest.raises(AttributeError):
            entry.priority = 2


class TestLookupStats:
    def test_per_lookup_averages(self):
        stats = LookupStats(node_visits=30, key_comparisons=10, lookups=10)
        assert stats.per_lookup() == {"node_visits": 3.0, "key_comparisons": 1.0}

    def test_per_lookup_with_zero_lookups(self):
        assert LookupStats().per_lookup() == {"node_visits": 0.0, "key_comparisons": 0.0}

    def test_reset(self):
        stats = LookupStats(node_visits=5, key_comparisons=5, lookups=5)
        stats.reset()
        assert stats.node_visits == stats.key_comparisons == stats.lookups == 0


class TestBuildMatcher:
    @pytest.mark.parametrize(
        "kind",
        [
            "sorted-list",
            "palmtrie-basic",
            "palmtrie",
            "frozen",
            "dpdk-acl",
            "efficuts",
            "adaptive",
            "tcam",
        ],
    )
    def test_factory_builds_working_matcher(self, kind):
        matcher = build_kind(kind, table1_entries(), 8)
        result = matcher.lookup(0b01110101)
        assert result is not None and result.priority == 7

    def test_factory_passes_kwargs(self):
        matcher = build_matcher(EngineConfig(stride=4), table1_entries(), 8)
        assert matcher.stride == 4

    def test_unknown_kind(self):
        # build_matcher takes a config, not a kind name.
        with pytest.raises(TypeError, match="EngineConfig"):
            build_matcher("btree", [], 8)

    def test_entry_length_validated(self):
        with pytest.raises(ValueError, match="entry key length"):
            build_matcher(EngineConfig(), table1_entries(), 16)

    def test_lookup_value_default(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        assert matcher.lookup_value(0b01110101) == 5
        empty = SortedListMatcher.build([], 8)
        assert empty.lookup_value(0, default="drop") == "drop"


class TestInterfaceContracts:
    def test_key_length_must_be_positive(self):
        from repro.baselines.sorted_list import SortedListMatcher

        with pytest.raises(ValueError, match="positive"):
            SortedListMatcher(0)

    def test_delete_default_unsupported(self):
        class Minimal(TernaryMatcher):
            name = "minimal"

            def insert(self, entry):
                pass

            def lookup(self, query):
                return None

            def __len__(self):
                return 0

        matcher = Minimal(8)
        with pytest.raises(NotImplementedError):
            matcher.delete(TernaryKey.wildcard(8))
        with pytest.raises(NotImplementedError):
            matcher.memory_bytes()
