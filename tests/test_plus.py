"""Unit tests for Palmtrie+ (repro.core.plus, Algorithm 3)."""

import pytest

from helpers import assert_same_result, oracle_lookup, random_entries, table1_entries
from repro.core.multibit import MultibitPalmtrie
from repro.core.plus import PalmtriePlus, _PlusLeaf
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


class TestCompileEquivalence:
    @pytest.mark.parametrize("stride", [1, 3, 5, 8])
    def test_plus_agrees_with_source(self, stride):
        entries = random_entries(150, 16, seed=21)
        source = MultibitPalmtrie.build(entries, 16, stride=stride)
        plus = PalmtriePlus.from_palmtrie(source)
        for query in range(0, 1 << 16, 97):
            assert_same_result(source.lookup(query), plus.lookup(query))

    def test_table1_all_queries(self):
        entries = table1_entries()
        plus = PalmtriePlus.build(entries, 8, stride=3)
        for query in range(256):
            assert_same_result(oracle_lookup(entries, query), plus.lookup(query))

    def test_counted_agrees_with_plain(self):
        entries = table1_entries()
        plus = PalmtriePlus.build(entries, 8, stride=3)
        for query in range(256):
            a = plus.lookup(query)
            b = plus.profile_lookup(query)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.priority == b.priority

    def test_node_counts_match_source(self):
        entries = random_entries(80, 16, seed=22)
        source = MultibitPalmtrie.build(entries, 16, stride=4)
        plus = PalmtriePlus.from_palmtrie(source)
        assert plus.node_count() == source.node_count()
        assert len(plus) == len(source)


class TestBitmapLayout:
    def test_children_are_contiguous_and_popcount_indexed(self):
        entries = random_entries(60, 12, seed=23)
        plus = PalmtriePlus.build(entries, 12, stride=3)
        # Walk the compiled structure and verify each bitmap bit maps to
        # exactly one array slot, in slot order.
        stack = [plus._root]
        seen = set()
        while stack:
            node = stack.pop()
            if isinstance(node, _PlusLeaf):
                continue
            count_c = node.bitmap_c.bit_count()
            count_t = node.bitmap_t.bit_count()
            for j in range(count_c):
                child = plus._nodes[node.offset_c + j]
                assert id(child) not in seen, "child appears twice"
                seen.add(id(child))
                stack.append(child)
            for j in range(count_t):
                child = plus._nodes[node.offset_t + j]
                assert id(child) not in seen
                seen.add(id(child))
                stack.append(child)
        assert len(seen) == len(plus._nodes)

    def test_memory_much_smaller_than_source(self):
        entries = random_entries(300, 24, seed=24)
        source = MultibitPalmtrie.build(entries, 24, stride=8)
        plus = PalmtriePlus.from_palmtrie(source)
        assert plus.memory_bytes() < source.memory_bytes() / 10


class TestIncrementalUpdate:
    """§3.6: updates go through the source trie plus recompilation."""

    def test_insert_marks_dirty_and_recompiles_on_lookup(self):
        entries = table1_entries()
        plus = PalmtriePlus.build(entries[:-1], 8, stride=3)
        assert plus.lookup(0b10000000) is None  # entry 9 (1*******) missing
        plus.insert(entries[-1])
        assert plus.stale and plus.compile_count == 1
        result = plus.lookup(0b10000000)
        assert result is not None and result.value == 9
        assert not plus.stale and plus.compile_count == 2

    def test_delete_recompiles(self):
        entries = table1_entries()
        plus = PalmtriePlus.build(entries, 8, stride=3)
        assert plus.delete(TernaryKey.from_string("0*1101**"))
        assert plus.lookup(0b01110101).value == 8

    def test_delete_missing_does_not_dirty(self):
        plus = PalmtriePlus.build(table1_entries(), 8, stride=3)
        generation = plus.generation
        assert not plus.delete(TernaryKey.from_string("00000000"))
        assert not plus.stale and plus.generation == generation

    def test_explicit_compile(self):
        plus = PalmtriePlus(8, stride=3)
        plus.insert(TernaryEntry(TernaryKey.from_string("01**01**"), "x", 3))
        plus.compile()
        assert not plus.stale
        assert plus.lookup(0b01110111).value == "x"

    def test_source_property(self):
        plus = PalmtriePlus(8, stride=3)
        assert isinstance(plus.source, MultibitPalmtrie)
        assert plus.source.stride == 3

    def test_build_compiles_exactly_once(self):
        """The constructor defers the empty first compile; ``build``
        therefore pays the §3.6 compile cost exactly once."""
        plus = PalmtriePlus.build(table1_entries(), 8, stride=3)
        assert plus.compile_count == 1

    def test_fresh_instance_defers_compile_until_first_read(self):
        plus = PalmtriePlus(8, stride=3)
        assert plus.compile_count == 0
        for entry in table1_entries():
            plus.insert(entry)
        assert plus.compile_count == 0  # still no wasted empty compile
        assert plus.lookup(0b10110011).value == 4
        assert plus.compile_count == 1

    def test_empty_lookup_compiles_lazily(self):
        plus = PalmtriePlus(8, stride=3)
        assert plus.lookup(0b10101010) is None
        assert plus.compile_count == 1


class TestEmptyAndEdgeCases:
    def test_empty_lookup(self):
        plus = PalmtriePlus(8, stride=3)
        assert plus.lookup(0) is None
        assert len(plus) == 0

    def test_single_wildcard_entry(self):
        plus = PalmtriePlus(8, stride=8)
        plus.insert(TernaryEntry(TernaryKey.wildcard(8), "all", 1))
        assert all(plus.lookup(q).value == "all" for q in range(256))

    def test_skipping_flag_propagates(self):
        entries = random_entries(100, 16, seed=25)
        with_skip = PalmtriePlus.build(entries, 16, stride=4, subtree_skipping=True)
        without = PalmtriePlus.build(entries, 16, stride=4, subtree_skipping=False)
        for query in range(0, 1 << 16, 131):
            assert_same_result(without.lookup(query), with_skip.lookup(query))

    def test_entries_roundtrip(self):
        entries = table1_entries()
        plus = PalmtriePlus.build(entries, 8, stride=3)
        assert sorted(e.value for e in plus.entries()) == list(range(1, 10))


class TestAlgorithm3Typo:
    """The paper's Algorithm 3 line 20 tests bitmap_c in the don't care
    loop; the implementation must use bitmap_t (see module docstring)."""

    def test_ternary_only_node(self):
        # A node whose exact bitmap and ternary bitmap differ would give
        # wrong results under the typo'd test.
        entries = [
            TernaryEntry(TernaryKey.from_string("000*0000"), "star", 2),
            TernaryEntry(TernaryKey.from_string("00000000"), "exact", 1),
        ]
        plus = PalmtriePlus.build(entries, 8, stride=8)
        assert plus.lookup(0b00000000).value == "star"  # higher priority
        assert plus.lookup(0b00010000).value == "star"
