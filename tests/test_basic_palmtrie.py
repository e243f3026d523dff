"""Unit tests for the basic Palmtrie (repro.core.basic, Algorithm 1)."""

import random
import sys

import pytest

from helpers import assert_same_result, oracle_lookup, random_entries, table1_entries
from repro.core.basic import _DC, BasicPalmtrie, _Leaf
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


@pytest.fixture()
def table1():
    return BasicPalmtrie.build(table1_entries(), 8)


class TestPaperWalkthrough:
    def test_query_01110101_returns_entry_5(self, table1):
        # §3.3's worked example: 01110101 matches entries 5 and 8;
        # entry 5 has priority 7 > 2 and wins.
        result = table1.lookup(0b01110101)
        assert result is not None
        assert result.value == 5
        assert result.priority == 7

    def test_full_query_space_against_oracle(self, table1):
        entries = table1_entries()
        for query in range(256):
            assert_same_result(oracle_lookup(entries, query), table1.lookup(query))

    def test_counted_agrees_with_plain(self, table1):
        for query in range(256):
            plain = table1.lookup(query)
            counted = table1.profile_lookup(query)
            assert (plain is None) == (counted is None)
            if plain is not None:
                assert plain.priority == counted.priority


class TestStructure:
    def test_empty(self):
        trie = BasicPalmtrie(8)
        assert trie.lookup(0) is None
        assert len(trie) == 0
        assert trie.depth() == 0

    def test_patricia_node_bound(self, table1):
        internal, leaves = table1.node_count()
        assert leaves == 9
        assert internal <= leaves - 1  # ternary branching can need fewer

    def test_entries_roundtrip(self, table1):
        values = sorted(e.value for e in table1.entries())
        assert values == list(range(1, 10))

    def test_memory_model_positive_and_linear_ish(self):
        small = BasicPalmtrie.build(random_entries(50, 16, seed=1), 16)
        large = BasicPalmtrie.build(random_entries(500, 16, seed=2), 16)
        assert 5 * small.memory_bytes() < large.memory_bytes() < 20 * small.memory_bytes()

    def test_key_length_mismatch(self):
        trie = BasicPalmtrie(8)
        with pytest.raises(ValueError, match="key length"):
            trie.insert(TernaryEntry(TernaryKey.wildcard(4), 0, 1))


class TestDuplicateKeys:
    def test_same_key_highest_priority_wins(self):
        key = TernaryKey.from_string("01**")
        trie = BasicPalmtrie(4)
        trie.insert(TernaryEntry(key, "low", 1))
        trie.insert(TernaryEntry(key, "high", 9))
        trie.insert(TernaryEntry(key, "mid", 5))
        assert trie.lookup(0b0100).value == "high"
        assert len(trie) == 3

    def test_delete_removes_all_entries_of_key(self):
        key = TernaryKey.from_string("01**")
        trie = BasicPalmtrie(4)
        trie.insert(TernaryEntry(key, "a", 1))
        trie.insert(TernaryEntry(key, "b", 2))
        assert trie.delete(key)
        assert len(trie) == 0
        assert trie.lookup(0b0100) is None


class TestDeletion:
    def test_delete_missing(self, table1):
        assert not table1.delete(TernaryKey.from_string("00000000"))

    def test_delete_reroutes_to_lower_priority(self, table1):
        # Removing entry 5 exposes entry 8 for query 01110101.
        assert table1.delete(TernaryKey.from_string("0*1101**"))
        result = table1.lookup(0b01110101)
        assert result.value == 8

    def test_delete_all(self):
        entries = table1_entries()
        trie = BasicPalmtrie.build(entries, 8)
        for entry in entries:
            assert trie.delete(entry.key)
        assert len(trie) == 0
        assert all(trie.lookup(q) is None for q in range(256))

    def test_delete_key_length_mismatch(self, table1):
        with pytest.raises(ValueError, match="key length"):
            table1.delete(TernaryKey.wildcard(4))


class TestWildcardHeavy:
    def test_all_wildcard_entry_is_floor(self):
        trie = BasicPalmtrie(8)
        trie.insert(TernaryEntry(TernaryKey.wildcard(8), "any", 0))
        trie.insert(TernaryEntry(TernaryKey.exact(7, 8), "seven", 5))
        assert trie.lookup(7).value == "seven"
        assert trie.lookup(8).value == "any"

    def test_incremental_matches_bulk(self):
        entries = random_entries(120, 12, seed=9)
        bulk = BasicPalmtrie.build(entries, 12)
        incremental = BasicPalmtrie(12)
        for entry in entries:
            incremental.insert(entry)
        for query in range(0, 1 << 12, 17):
            assert_same_result(bulk.lookup(query), incremental.lookup(query))


def _recursive_lookup(node, query):
    """Algorithm 1 as the paper writes it: recurse into the don't care
    and the exact matching branch, then ``max(lr, c)`` with ties going
    to the exact branch."""
    if node is None:
        return None
    if isinstance(node, _Leaf):
        return node.best if node.key.matches(query) else None
    c = _recursive_lookup(node.children[_DC], query)
    lr = _recursive_lookup(node.children[(query >> node.bit) & 1], query)
    if lr is None:
        return c
    if c is None or lr.priority >= c.priority:
        return lr
    return c


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestIterativeLookup:
    """``lookup`` walks Algorithm 1 on an explicit stack; it must keep
    the very entry the recursive walk keeps, priority ties included."""

    @pytest.mark.parametrize("key_length, priorities", [(8, 3), (12, 4), (33, 8), (70, 1000)])
    def test_same_entry_as_recursive_walk(self, key_length, priorities):
        entries = random_entries(200, key_length, seed=key_length, priority_range=priorities)
        trie = BasicPalmtrie.build(entries, key_length)
        rng = random.Random(key_length)
        for _ in range(2000):
            query = rng.getrandbits(key_length)
            assert trie.lookup(query) is _recursive_lookup(trie._root, query)

    def test_deep_512_bit_chain_under_a_low_recursion_limit(self):
        # One key per depth: 0^i 1 *^(511-i) splits at bit 511-i, so the
        # query 1 walks a 511-edge chain of exact branches, the depth an
        # IPv6 (L = 512) reference can reach.
        length = 512
        entries = [TernaryEntry(TernaryKey.wildcard(length), "floor", 0)] + [
            TernaryEntry(
                TernaryKey.from_string("0" * i + "1" + "*" * (length - 1 - i)), i, i + 1
            )
            for i in range(length)
        ]
        trie = BasicPalmtrie.build(entries, length)
        assert trie.depth() == length - 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            with pytest.raises(RecursionError):
                _recursive_lookup(trie._root, 1)
            assert trie.lookup(1).value == length - 1
            assert trie.lookup(1 << (length - 1)).value == 0
            assert trie.lookup(0).value == "floor"
        finally:
            sys.setrecursionlimit(limit)
