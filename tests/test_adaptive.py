"""Unit tests for the adaptive matcher (repro.core.adaptive, paper §5)."""

import pytest

from helpers import assert_same_result, random_entries
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.adaptive import AdaptiveMatcher
from repro.core.multibit import MultibitPalmtrie
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


def _entries(n, seed=51):
    return random_entries(n, 16, seed=seed)


class TestBandSelection:
    def test_starts_small(self):
        matcher = AdaptiveMatcher(16, small_threshold=10, large_threshold=100, hysteresis=0)
        assert matcher.active_structure == "sorted-list"
        assert matcher.band == "small"

    def test_grows_to_medium_then_large(self):
        matcher = AdaptiveMatcher(16, small_threshold=10, large_threshold=50, hysteresis=0)
        for entry in _entries(11):
            matcher.insert(entry)
        assert matcher.active_structure == "palmtrie"
        assert matcher.band == "medium"
        # the medium band is a Palmtrie_6
        palmtrie6 = MultibitPalmtrie.build(_entries(11), 16, stride=6)
        assert matcher.memory_bytes() == palmtrie6.memory_bytes()
        for entry in _entries(45, seed=52):
            matcher.insert(entry)
        # the large band keeps the updatable Palmtrie_8
        assert matcher.active_structure == "palmtrie"
        assert matcher.band == "large"

    def test_shrinks_on_delete(self):
        entries = _entries(60)
        matcher = AdaptiveMatcher.build(
            entries, 16, small_threshold=10, large_threshold=50, hysteresis=0
        )
        assert matcher.band == "large" and matcher.active_structure == "palmtrie"
        for entry in entries[:55]:
            matcher.delete(entry.key)
        assert matcher.active_structure == "sorted-list"

    def test_build_picks_band_directly(self):
        matcher = AdaptiveMatcher.build(
            _entries(30), 16, small_threshold=10, large_threshold=50
        )
        assert matcher.active_structure == "palmtrie"


class TestHysteresis:
    """§5: avoid flapping of data structure switching at a threshold."""

    def test_no_flap_around_threshold(self):
        matcher = AdaptiveMatcher(16, small_threshold=10, large_threshold=100, hysteresis=5)
        entries = _entries(12)
        for entry in entries:
            matcher.insert(entry)
        # 12 entries is inside the hysteresis band: still the sorted list.
        assert matcher.active_structure == "sorted-list"
        for entry in _entries(5, seed=53):
            matcher.insert(entry)
        assert matcher.active_structure == "palmtrie"
        # Deleting back to 12 must NOT flip back immediately.
        for entry in entries[:5]:
            matcher.delete(entry.key)
        assert matcher.active_structure == "palmtrie"


class TestCorrectness:
    def test_agrees_with_oracle_across_bands(self):
        entries = _entries(120)
        oracle = SortedListMatcher.build(entries, 16)
        matcher = AdaptiveMatcher(16, small_threshold=20, large_threshold=80, hysteresis=2)
        for i, entry in enumerate(entries):
            matcher.insert(entry)
        for query in range(0, 1 << 16, 211):
            assert_same_result(oracle.lookup(query), matcher.lookup(query))

    def test_profile_lookup_delegates(self):
        matcher = AdaptiveMatcher.build(_entries(5), 16)
        matcher.stats.reset()
        matcher.profile_lookup(123)
        assert matcher.stats.lookups == 1

    def test_memory_delegates(self):
        matcher = AdaptiveMatcher.build(_entries(5), 16)
        assert matcher.memory_bytes() > 0


class TestValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError, match="thresholds"):
            AdaptiveMatcher(16, small_threshold=100, large_threshold=10)

    def test_negative_hysteresis(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AdaptiveMatcher(16, hysteresis=-1)

    def test_key_length_check(self):
        matcher = AdaptiveMatcher(16)
        with pytest.raises(ValueError, match="key length"):
            matcher.insert(TernaryEntry(TernaryKey.wildcard(8), 0, 1))

    def test_delete_missing(self):
        matcher = AdaptiveMatcher.build(_entries(5), 16)
        assert not matcher.delete(TernaryKey.exact(0, 16))
