"""Edge-case tests for Palmtrie_k path compression (repro.core.multibit).

The compressed-edge machinery (each internal node's representative
key ``rep``, mid-edge splits) is the most intricate part of the
structure; these tests construct key sets that
force each split scenario and verify structure invariants afterwards.
"""

from helpers import assert_same_result, oracle_lookup
from repro.core.multibit import EXACT, TERNARY, MultibitPalmtrie, _Internal, _Leaf, key_path
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


def _entry(text, value=0, priority=1):
    return TernaryEntry(TernaryKey.from_string(text), value, priority)


def _check_invariants(trie: MultibitPalmtrie):
    """Structure invariants: child bit indices strictly below parents,
    max_priority = max over children, and every internal child's chunk
    lies on the key path of the keys stored below it."""

    def rep_key_below(node):
        while isinstance(node, _Internal):
            node = next(node.children())
        return node.key

    def walk(node):
        if isinstance(node, _Leaf):
            assert node.max_priority == max(e.priority for e in node.entries)
            return
        kids = list(node.children())
        assert kids, "internal node with no children"
        assert node.max_priority == max(k.max_priority for k in kids)
        for kid in kids:
            if isinstance(kid, _Internal):
                assert kid.bit < node.bit
                # The node's own step must appear in every below-key's path.
                below = rep_key_below(kid)
                bits = [s[0] for s in key_path(below, trie.stride)]
                assert kid.bit in bits
            walk(kid)

    walk(trie._root)


class TestSplitScenarios:
    def test_split_inside_compressed_edge_exact_region(self):
        # Keys share two chunks, then share two more (compressed), and a
        # third key diverges in the middle of the compressed edge.
        trie = MultibitPalmtrie(16, stride=4)
        a = _entry("1010" "1100" "0001" "0010", "a", 1)
        b = _entry("1010" "1100" "0001" "0011", "b", 2)
        trie.insert(a)
        trie.insert(b)
        # a and b diverge at the last chunk; the edge from the root slot
        # to their split node skips chunks 2 and 3.
        c = _entry("1010" "1100" "1111" "0010", "c", 3)
        trie.insert(c)
        _check_invariants(trie)
        for query in range(0, 1 << 16, 97):
            assert_same_result(oracle_lookup([a, b, c], query), trie.lookup(query))
        assert trie.lookup(0b1010110000010010).value == "a"
        assert trie.lookup(0b1010110011110010).value == "c"

    def test_split_at_ternary_step_misalignment(self):
        # Wildcards shift chunk boundaries: keys with stars at different
        # positions must diverge at the first step, not corrupt an edge.
        trie = MultibitPalmtrie(12, stride=4)
        entries = [
            _entry("0*10" "0011" "0101", "a", 1),
            _entry("00*0" "0011" "0101", "b", 2),
            _entry("000*" "0011" "0101", "c", 3),
            _entry("0000" "0011" "0101", "d", 4),
        ]
        for entry in entries:
            trie.insert(entry)
        _check_invariants(trie)
        for query in range(1 << 12):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))

    def test_divergence_at_negative_bit(self):
        # Keys equal except in the final, negatively-indexed chunk.
        trie = MultibitPalmtrie(10, stride=4)
        entries = [
            _entry("0110011010", "a", 1),
            _entry("0110011011", "b", 2),
            _entry("0110011001", "c", 3),
        ]
        for entry in entries:
            trie.insert(entry)
        _check_invariants(trie)
        for query in range(1 << 10):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))

    def test_star_run_shared_edge(self):
        # Entries sharing a long wildcard run (the src=any pattern):
        # the run must be traversed once, not once per entry.
        trie = MultibitPalmtrie(24, stride=8)
        entries = [
            _entry("*" * 16 + f"{i:08b}", i, i + 1) for i in range(8)
        ]
        for entry in entries:
            trie.insert(entry)
        _check_invariants(trie)
        internal, leaves = trie.node_count()
        assert leaves == 8
        # Compression: far fewer internals than the 16 star levels x 8 keys.
        assert internal <= 16 + 8
        for query in range(0, 1 << 24, 10007):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))

    def test_rep_steps_survive_rep_deletion(self):
        # Delete the representative entry, then force a split that
        # consults the node's (stale but valid) representative key rep.
        trie = MultibitPalmtrie(16, stride=4)
        rep = _entry("1010" "1100" "0001" "0010", "rep", 1)
        sibling = _entry("1010" "1100" "0001" "0011", "sib", 2)
        trie.insert(rep)
        trie.insert(sibling)
        assert trie.delete(rep.key)
        newcomer = _entry("1010" "1100" "1111" "0000", "new", 3)
        trie.insert(newcomer)
        _check_invariants(trie)
        live = [sibling, newcomer]
        for query in range(0, 1 << 16, 61):
            assert_same_result(oracle_lookup(live, query), trie.lookup(query))

    def test_all_ternary_slots_of_one_node(self):
        # Fill every don't-care slot of a stride-3 node: *, 0*, 1*,
        # 00*, 01*, 10*, 11* plus all 8 exact chunks.
        trie = MultibitPalmtrie(6, stride=3)
        patterns = ["***", "0**", "1**", "00*", "01*", "10*", "11*"]
        patterns += [f"{i:03b}" for i in range(8)]
        entries = [
            _entry(p + "***" if len(p) == 3 else p, i, i + 1)
            for i, p in enumerate(patterns)
        ]
        for entry in entries:
            trie.insert(entry)
        _check_invariants(trie)
        root = trie._root
        assert all(slot is not None for slot in root.ternaries)
        assert all(slot is not None for slot in root.descendants)
        for query in range(1 << 6):
            assert_same_result(oracle_lookup(entries, query), trie.lookup(query))


class TestKeyPathEdgeCases:
    def test_alternating_stars(self):
        steps = key_path(TernaryKey.from_string("0*0*0*0*"), 4)
        # Every ternary step consumes prefix+star; bits must strictly fall.
        bits = [s[0] for s in steps]
        assert bits == sorted(bits, reverse=True)
        assert all(kind == TERNARY for _bit, kind, _idx in steps)

    def test_stride_equals_key_length(self):
        steps = key_path(TernaryKey.from_string("0110"), 4)
        assert steps == [(0, EXACT, 0b0110)]

    def test_single_bit_key(self):
        assert key_path(TernaryKey.from_string("1"), 1) == [(0, EXACT, 1)]
        assert key_path(TernaryKey.from_string("*"), 1) == [(0, TERNARY, 0)]

    def test_leading_star_full_width(self):
        steps = key_path(TernaryKey.wildcard(8), 8)
        assert steps[0] == (0, TERNARY, 0)
        # One step per star after the first (each consumes one digit).
        assert len(steps) == 8
