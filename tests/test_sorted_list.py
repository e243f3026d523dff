"""Unit tests for the sorted-list baseline (repro.baselines.sorted_list)."""

import random

import pytest

from helpers import assert_same_result, oracle_lookup, table1_entries
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


class TestLookup:
    def test_table1(self):
        entries = table1_entries()
        matcher = SortedListMatcher.build(entries, 8)
        for query in range(256):
            assert_same_result(oracle_lookup(entries, query), matcher.lookup(query))

    def test_first_match_is_highest_priority(self):
        matcher = SortedListMatcher(4)
        matcher.insert(TernaryEntry(TernaryKey.from_string("0***"), "low", 1))
        matcher.insert(TernaryEntry(TernaryKey.from_string("01**"), "high", 9))
        assert matcher.lookup(0b0101).value == "high"

    def test_insertion_order_does_not_matter(self):
        entries = table1_entries()
        forward = SortedListMatcher.build(entries, 8)
        backward = SortedListMatcher.build(list(reversed(entries)), 8)
        assert [e.value for e in forward] == [e.value for e in backward]

    def test_empty(self):
        matcher = SortedListMatcher(8)
        assert matcher.lookup(0) is None
        assert len(matcher) == 0


class TestMaintenance:
    def test_iter_is_priority_descending(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        priorities = [e.priority for e in matcher]
        assert priorities == sorted(priorities, reverse=True)

    def test_delete(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        assert matcher.delete(TernaryKey.from_string("0*1101**"))
        assert len(matcher) == 8
        assert matcher.lookup(0b01110101).value == 8

    def test_delete_removes_every_entry_holding_the_key(self):
        matcher = SortedListMatcher(4)
        shared = TernaryKey.from_string("01**")
        for value, priority in (("a", 5), ("b", 1), ("c", 9)):
            matcher.insert(TernaryEntry(shared, value, priority))
        for value, priority in (("x", 7), ("y", 3)):
            matcher.insert(TernaryEntry(TernaryKey.from_string("0***"), value, priority))
        generation = matcher.generation
        assert matcher.delete(TernaryKey.from_string("01**"))  # an equal, distinct key
        assert [e.value for e in matcher] == ["x", "y"]
        assert matcher._neg_priorities == [-e.priority for e in matcher]
        assert matcher.generation == generation + 1
        matcher.insert(TernaryEntry(shared, "d", 4))  # bisection still lands right
        assert [e.value for e in matcher] == ["x", "d", "y"]
        assert matcher._neg_priorities == [-7, -4, -3]

    def test_delete_missing(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        assert not matcher.delete(TernaryKey.from_string("00000000"))

    def test_key_length_check(self):
        matcher = SortedListMatcher(8)
        with pytest.raises(ValueError, match="key length"):
            matcher.insert(TernaryEntry(TernaryKey.wildcard(4), 0, 1))

    def test_memory_is_linear(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        assert matcher.memory_bytes() == 9 * (2 * 1 + 8 + 4)


class TestCounted:
    def test_counted_work_is_scan_position(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        matcher.stats.reset()
        matcher.profile_lookup(0b00010101)  # entry 3, priority 9: first in list
        assert matcher.stats.key_comparisons == 1
        matcher.stats.reset()
        matcher.profile_lookup(0b11111111)  # only the 1******* floor matches
        assert matcher.stats.key_comparisons == len(matcher)


class _ScanDelete(SortedListMatcher):
    """The reference: delete by scanning every entry for the key."""

    def delete(self, key):
        doomed = [
            position
            for position, entry in enumerate(self._entries)
            if entry.key.data == key.data and entry.key.mask == key.mask
        ]
        for position in reversed(doomed):
            del self._entries[position]
            del self._neg_priorities[position]
        if doomed:
            self.generation += 1
        return bool(doomed)


class TestIndexedDelete:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_against_the_full_scan(self, seed):
        rng = random.Random(seed)
        pool = ["".join(rng.choice("01*") for _ in range(6)) for _ in range(10)]
        matcher, reference = SortedListMatcher(6), _ScanDelete(6)
        # One key held at several priorities, ties included.
        for value, priority in enumerate((4, 1, 4, 9)):
            entry = TernaryEntry(TernaryKey.from_string(pool[0]), f"s{value}", priority)
            matcher.insert(entry)
            reference.insert(entry)
        for step in range(400):
            # An equal, distinct key object each time.
            key = TernaryKey.from_string(rng.choice(pool))
            if rng.random() < 0.6:
                entry = TernaryEntry(key, step, rng.randrange(6))
                matcher.insert(entry)
                reference.insert(entry)
            else:
                assert matcher.delete(key) == reference.delete(key)
            assert [id(e) for e in matcher] == [id(e) for e in reference]
            assert matcher._neg_priorities == reference._neg_priorities
            assert matcher.generation == reference.generation
        for query in range(64):
            assert matcher.lookup(query) is reference.lookup(query)
