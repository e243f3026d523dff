"""Unit tests for Palmtrie_k (repro.core.multibit, Algorithm 2)."""

import pytest

from helpers import assert_same_result, oracle_lookup, random_entries, table1_entries
from repro.core.multibit import EXACT, TERNARY, MultibitPalmtrie, key_path
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


class TestKeyPath:
    """The §3.4 key split method."""

    def test_exact_key_is_fixed_stride(self):
        steps = key_path(TernaryKey.from_string("10110011"), 3)
        # Bit indices 5, 2, -1; the last chunk pads below bit 0.
        assert steps == [
            (5, EXACT, 0b101),
            (2, EXACT, 0b100),
            (-1, EXACT, 0b110),
        ]

    def test_paper_figure4_key_1_0___10(self):
        # Key 1*0***10 of Table 1 under k=3 (the Figure 4 walk, giving
        # Node 1's bit index of -1 via Node 2's chain).
        steps = key_path(TernaryKey.from_string("1*0***10"), 3)
        bits = [s[0] for s in steps]
        assert bits == [5, 3, 1, 0, -1]
        assert steps[0] == (5, TERNARY, (1 << 1) + 0b1 - 1)  # prefix "1" then *

    def test_dont_care_slot_indexing_matches_figure5(self):
        # Figure 5 (k=3): slot 0 is "*", slots 1-2 are "0*"/"1*",
        # slots 3-6 are "00*".."11*".
        assert key_path(TernaryKey.from_string("***"), 3)[0] == (0, TERNARY, 0)
        assert key_path(TernaryKey.from_string("0**"), 3)[0] == (0, TERNARY, 1)
        assert key_path(TernaryKey.from_string("1**"), 3)[0] == (0, TERNARY, 2)
        assert key_path(TernaryKey.from_string("00*"), 3)[0] == (0, TERNARY, 3)
        assert key_path(TernaryKey.from_string("11*"), 3)[0] == (0, TERNARY, 6)

    def test_star_consumes_one_digit(self):
        # A ternary step consumes prefix + '*', restarting below the star.
        steps = key_path(TernaryKey.from_string("0*110011"), 3)
        assert steps[0] == (5, TERNARY, (1 << 1) + 0 - 1)
        assert steps[1][0] == 3  # next chunk starts right below the star (bit 6)

    def test_terminal_star_at_bit_zero(self):
        steps = key_path(TernaryKey.from_string("000*"), 2)
        assert steps[-1][1] == TERNARY
        assert len(steps) == 2

    def test_negative_bit_greater_than_minus_k(self):
        for text in ("10110011", "1011001*", "*0110011"):
            for k in (3, 5, 7):
                for bit, _kind, _idx in key_path(TernaryKey.from_string(text), k):
                    assert bit > -k

    def test_bits_strictly_decrease(self):
        key = TernaryKey.from_string("1*0***10" * 2)
        for k in range(1, 9):
            bits = [s[0] for s in key_path(key, k)]
            assert bits == sorted(bits, reverse=True)
            assert len(set(bits)) == len(bits)

    def test_stride_longer_than_key_rejected(self):
        with pytest.raises(ValueError, match="shorter than stride"):
            key_path(TernaryKey.wildcard(4), 8)


class TestConstruction:
    def test_stride_validation(self):
        with pytest.raises(ValueError, match="stride"):
            MultibitPalmtrie(8, stride=0)
        with pytest.raises(ValueError, match="stride"):
            MultibitPalmtrie(8, stride=17)
        with pytest.raises(ValueError, match="exceeds key length"):
            MultibitPalmtrie(4, stride=8)

    def test_key_length_mismatch(self):
        trie = MultibitPalmtrie(8, stride=3)
        with pytest.raises(ValueError, match="key length"):
            trie.insert(TernaryEntry(TernaryKey.wildcard(16), 0, 1))

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_table1_oracle_all_strides(self, stride):
        entries = table1_entries()
        trie = MultibitPalmtrie.build(entries, 8, stride=stride)
        for query in range(256):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))

    def test_duplicate_keys_share_leaf(self):
        key = TernaryKey.from_string("0110****")
        trie = MultibitPalmtrie(8, stride=4)
        trie.insert(TernaryEntry(key, "a", 1))
        trie.insert(TernaryEntry(key, "b", 7))
        assert len(trie) == 2
        assert trie.lookup(0b01101111).value == "b"

    def test_path_compression_keeps_nodes_linear(self):
        entries = random_entries(300, 32, seed=3)
        trie = MultibitPalmtrie.build(entries, 32, stride=4)
        internal, leaves = trie.node_count()
        assert leaves <= 300
        assert internal < leaves  # compressed: no unary chain blowup

    def test_max_priority_invariant(self):
        entries = random_entries(150, 16, seed=4)
        trie = MultibitPalmtrie.build(entries, 16, stride=4)

        def check(node):
            from repro.core.multibit import _Internal

            if isinstance(node, _Internal):
                kids = list(node.children())
                assert kids, "internal node with no children"
                assert node.max_priority == max(k.max_priority for k in kids)
                for kid in kids:
                    check(kid)
            else:
                assert node.max_priority == max(e.priority for e in node.entries)

        check(trie._root) if list(trie._root.children()) else None


class TestSkipping:
    def test_skipping_does_not_change_results(self):
        entries = random_entries(200, 16, seed=5)
        with_skip = MultibitPalmtrie.build(entries, 16, stride=4, subtree_skipping=True)
        without = MultibitPalmtrie.build(entries, 16, stride=4, subtree_skipping=False)
        for query in range(0, 1 << 16, 101):
            assert_same_result(without.lookup(query), with_skip.lookup(query))

    def test_skipping_reduces_work(self):
        entries = random_entries(400, 16, seed=6)
        with_skip = MultibitPalmtrie.build(entries, 16, stride=4, subtree_skipping=True)
        without = MultibitPalmtrie.build(entries, 16, stride=4, subtree_skipping=False)
        queries = list(range(0, 1 << 16, 211))
        for trie in (with_skip, without):
            trie.stats.reset()
            for query in queries:
                trie.profile_lookup(query)
        assert (
            with_skip.stats.per_lookup()["node_visits"]
            <= without.stats.per_lookup()["node_visits"]
        )


class TestDeletion:
    def test_delete_and_relookup(self):
        entries = table1_entries()
        trie = MultibitPalmtrie.build(entries, 8, stride=3)
        assert trie.delete(TernaryKey.from_string("0*1101**"))
        result = trie.lookup(0b01110101)
        assert result.value == 8  # the next-best match from the paper walk

    def test_delete_missing_key(self):
        trie = MultibitPalmtrie.build(table1_entries(), 8, stride=3)
        assert not trie.delete(TernaryKey.from_string("00000000"))
        assert not trie.delete(TernaryKey.from_string("0000000*"))

    def test_delete_all_then_reinsert(self):
        entries = random_entries(100, 12, seed=7)
        trie = MultibitPalmtrie.build(entries, 12, stride=4)
        for entry in entries:
            trie.delete(entry.key)
        assert len(trie) == 0
        assert all(trie.lookup(q) is None for q in range(0, 1 << 12, 7))
        for entry in entries:
            trie.insert(entry)
        for query in range(0, 1 << 12, 13):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))

    def test_delete_updates_max_priority(self):
        key_high = TernaryKey.from_string("1111****")
        key_low = TernaryKey.from_string("1110****")
        trie = MultibitPalmtrie(8, stride=4)
        trie.insert(TernaryEntry(key_low, "low", 1))
        trie.insert(TernaryEntry(key_high, "high", 9))
        trie.delete(key_high)
        assert trie._root.max_priority == 1

    def test_delete_wrong_length(self):
        trie = MultibitPalmtrie(8, stride=4)
        with pytest.raises(ValueError, match="key length"):
            trie.delete(TernaryKey.wildcard(4))


class TestRemoveEntry:
    def test_removes_only_target_entry(self):
        key = TernaryKey.from_string("0110****")
        trie = MultibitPalmtrie(8, stride=4)
        low = TernaryEntry(key, "low", 1)
        high = TernaryEntry(key, "high", 9)
        trie.insert(low)
        trie.insert(high)
        assert trie.remove_entry(high)
        assert len(trie) == 1
        assert trie.lookup(0b01101111).value == "low"

    def test_last_entry_removes_leaf(self):
        entries = table1_entries()
        trie = MultibitPalmtrie.build(entries, 8, stride=3)
        assert trie.remove_entry(entries[4])  # key 0*1101**, value 5
        assert trie.lookup(0b01110101).value == 8
        assert len(trie) == 8

    def test_missing_entry(self):
        entries = table1_entries()
        trie = MultibitPalmtrie.build(entries, 8, stride=3)
        ghost = TernaryEntry(entries[0].key, "ghost", 999)
        assert not trie.remove_entry(ghost)
        assert not trie.remove_entry(
            TernaryEntry(TernaryKey.from_string("00000000"), 0, 1)
        )
        assert len(trie) == 9

    def test_max_priority_refreshed(self):
        key = TernaryKey.from_string("1111****")
        trie = MultibitPalmtrie(8, stride=4)
        trie.insert(TernaryEntry(key, "low", 1))
        trie.insert(TernaryEntry(key, "high", 9))
        assert trie._root.max_priority == 9
        assert trie.remove_entry(TernaryEntry(key, "high", 9))
        assert trie._root.max_priority == 1

    def test_length_mismatch(self):
        trie = MultibitPalmtrie(8, stride=4)
        with pytest.raises(ValueError, match="key length"):
            trie.remove_entry(TernaryEntry(TernaryKey.wildcard(4), 0, 1))

    def test_random_removals_track_oracle(self):
        import random

        from helpers import oracle_lookup

        rng = random.Random(66)
        entries = random_entries(80, 12, seed=66)
        trie = MultibitPalmtrie.build(entries, 12, stride=4)
        live = list(entries)
        rng.shuffle(live)
        while live:
            victim = live.pop()
            assert trie.remove_entry(victim)
            for _ in range(20):
                query = rng.getrandbits(12)
                assert_same_result(oracle_lookup(live, query), trie.lookup(query))
        assert len(trie) == 0


class TestMemoryModel:
    def test_larger_stride_needs_more_memory(self):
        entries = random_entries(200, 24, seed=8)
        m1 = MultibitPalmtrie.build(entries, 24, stride=1).memory_bytes()
        m4 = MultibitPalmtrie.build(entries, 24, stride=4).memory_bytes()
        m8 = MultibitPalmtrie.build(entries, 24, stride=8).memory_bytes()
        assert m1 < m4 < m8
