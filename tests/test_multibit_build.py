"""The bulk Palmtrie_k build (``MultibitPalmtrie.build``).

The build partitions the distinct keys top-down instead of inserting
one entry at a time, so it must give the trie the insert loop gives,
node for node, and the frozen plane compiled from it must not move.
Deletes keep the same canonical form: any churn of inserts and
removals leaves the trie a build of the remaining entries gives.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig
from repro.core import multibit
from repro.core.frozen import FrozenMatcher, freeze
from repro.core.multibit import EXACT, TERNARY, MultibitPalmtrie, _Internal, _Leaf, key_path
from repro.core.serialize import serialize_frozen
from repro.core.table import TernaryEntry, build_matcher
from repro.core.ternary import TernaryKey
from repro.workloads.classbench import classbench_acl


def _insert_built(entries, key_length, **kwargs) -> MultibitPalmtrie:
    trie = MultibitPalmtrie(key_length, **kwargs)
    for entry in entries:
        trie.insert(entry)
    trie.generation = 0
    return trie


def _shape(trie: MultibitPalmtrie) -> list:
    """Every node in walk order: an internal node's bit, max_priority
    and occupied slots; a leaf's key, max_priority and entries (by
    identity, in order)."""
    out: list = []
    stack = [trie._root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Leaf):
            out.append(("leaf", node.key, node.max_priority, [id(e) for e in node.entries]))
            continue
        slots = [i for i, c in enumerate(node.descendants) if c is not None]
        slots += [-1 - i for i, c in enumerate(node.ternaries) if c is not None]
        out.append(("node", node.bit, node.max_priority, slots))
        stack.extend(node.children())
    return out


def _assert_same_trie(built: MultibitPalmtrie, inserted: MultibitPalmtrie) -> None:
    assert built.generation == 0
    assert len(built) == len(inserted)
    assert built.node_count() == inserted.node_count()
    assert _shape(built) == _shape(inserted)


@lru_cache(maxsize=None)
def _classbench(profile: str, rules: int):
    return classbench_acl(profile, rules)


# Stride 16 stays at 40 rules: every stride-16 internal node holds
# 2**17 - 1 slots, so a 500-rule trie takes about 0.3 GB and a
# 2,000-rule one over 1 GB.
_CASES = [
    (profile, rules, stride)
    for profile in ("acl", "fw", "ipc")
    for rules in (40, 500, 2000)
    for stride in (1, 4, 8, 16)
    if stride < 16 or rules == 40
]


class TestSameTrieAsInsertLoop:
    @pytest.mark.parametrize("skipping", [True, False])
    @pytest.mark.parametrize("profile,rules,stride", _CASES)
    def test_classbench(self, profile, rules, stride, skipping):
        acl = _classbench(profile, rules)
        length = acl.layout.length
        built = MultibitPalmtrie.build(
            acl.entries, length, stride=stride, subtree_skipping=skipping
        )
        assert built.subtree_skipping is skipping
        _assert_same_trie(
            built,
            _insert_built(acl.entries, length, stride=stride, subtree_skipping=skipping),
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_ternary_key_sets(self, data):
        length = data.draw(st.integers(1, 20), label="length")
        stride = data.draw(st.integers(1, min(length, 8)), label="stride")
        digits = st.text(alphabet="01*", min_size=length, max_size=length)
        pool = data.draw(st.lists(digits, min_size=1, max_size=12), label="keys")
        # Keys repeat (several entries per leaf) and priorities tie, so
        # the leaf order of equal-priority entries is checked too.
        picks = data.draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.integers(0, 3)),
                min_size=0,
                max_size=40,
            ),
            label="entries",
        )
        entries = [
            TernaryEntry(TernaryKey.from_string(text), index, priority)
            for index, (text, priority) in enumerate(picks)
        ]
        built = MultibitPalmtrie.build(entries, length, stride=stride)
        _assert_same_trie(built, _insert_built(entries, length, stride=stride))
        for query in range(0, 1 << length, max(1, (1 << length) // 64)):
            matches = [e for e in entries if e.matches(query)]
            assert sorted(map(id, built.lookup_all(query))) == sorted(map(id, matches))
            best = built.lookup(query)
            assert (best.priority if best else None) == max(
                (e.priority for e in matches), default=None
            )

    def test_empty(self):
        built = MultibitPalmtrie.build([], 16, stride=4)
        _assert_same_trie(built, MultibitPalmtrie(16, stride=4))
        assert built.lookup(0) is None


class TestChurnAfterBuild:
    @pytest.mark.parametrize("stride", [4, 8])
    @pytest.mark.parametrize("profile", ["acl", "fw"])
    def test_same_churn_freezes_to_same_bytes(self, profile, stride):
        """Both tries take the same inserts, deletes and single-entry
        removals; their node representatives differ, but every splice
        must land where it lands in the other, byte for byte."""
        acl = _classbench(profile, 500)
        length = acl.layout.length
        extra = _classbench(profile, 2000).entries
        built = MultibitPalmtrie.build(acl.entries, length, stride=stride)
        inserted = _insert_built(acl.entries, length, stride=stride)
        rng = random.Random(f"{profile}:{stride}")
        live = list(acl.entries)
        for step in range(300):
            choice = rng.random()
            if choice < 0.5:
                entry = rng.choice(extra)
                for trie in (built, inserted):
                    trie.insert(entry)
                live.append(entry)
            elif choice < 0.8:
                key = rng.choice(live).key
                assert built.delete(key) == inserted.delete(key)
                live = [e for e in live if e.key != key]
            else:
                entry = rng.choice(live)
                assert built.remove_entry(entry) == inserted.remove_entry(entry)
                live.remove(entry)
        assert built.generation == inserted.generation
        assert _shape(built) == _shape(inserted)
        assert serialize_frozen(freeze(built)) == serialize_frozen(freeze(inserted))


def _assert_canonical(trie: MultibitPalmtrie) -> None:
    """``trie`` is the trie a build of its remaining entries gives, node
    for node, and its plane serializes to the same bytes."""
    built = MultibitPalmtrie.build(list(trie.entries()), trie.key_length, stride=trie.stride)
    assert len(trie) == len(built)
    assert _shape(trie) == _shape(built)
    assert serialize_frozen(freeze(trie)) == serialize_frozen(freeze(built))


class TestChurnIsCanonical:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_churn_matches_bulk_build(self, data):
        length = data.draw(st.integers(1, 16), label="length")
        stride = data.draw(st.integers(1, min(length, 8)), label="stride")
        digits = st.text(alphabet="01*", min_size=length, max_size=length)
        pool = [
            TernaryKey.from_string(text)
            for text in data.draw(st.lists(digits, min_size=1, max_size=12), label="keys")
        ]
        # Start from every pool key, so deletes find split nodes to undo.
        live = [TernaryEntry(key, -1 - i, i % 4) for i, key in enumerate(pool)]
        trie = MultibitPalmtrie.build(live, length, stride=stride)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "insert", "delete", "remove"]),
                    st.integers(0, len(pool) - 1),
                    st.integers(0, 3),
                ),
                max_size=60,
            ),
            label="ops",
        )
        for step, (op, pick, priority) in enumerate(ops):
            key = pool[pick]
            if op == "insert":
                entry = TernaryEntry(key, step, priority)
                trie.insert(entry)
                live.append(entry)
            elif op == "delete":
                assert trie.delete(key) == any(e.key == key for e in live)
                live = [e for e in live if e.key != key]
            else:
                mine = [e for e in live if e.key == key]
                entry = mine[priority % len(mine)] if mine else TernaryEntry(key, -1, 0)
                assert trie.remove_entry(entry) == bool(mine)
                if mine:
                    live.remove(entry)
        assert sorted(map(id, trie.entries())) == sorted(map(id, live))
        _assert_canonical(trie)

    @pytest.mark.parametrize("stride", [1, 4, 8])
    @pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
    def test_classbench_churn_matches_bulk_build(self, profile, stride):
        acl = _classbench(profile, 500)
        extra = _classbench(profile, 2000).entries
        trie = MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=stride)
        rng = random.Random(f"canonical:{profile}:{stride}")
        live = list(acl.entries)
        for _ in range(300):
            choice = rng.random()
            if choice < 0.4:
                entry = rng.choice(extra)
                trie.insert(entry)
                live.append(entry)
            elif choice < 0.8:
                key = rng.choice(live).key
                assert trie.delete(key)
                live = [e for e in live if e.key != key]
            else:
                entry = rng.choice(live)
                assert trie.remove_entry(entry)
                live.remove(entry)
        assert len(trie) == len(live)
        _assert_canonical(trie)


def _leaf_and_ancestors(trie: MultibitPalmtrie, key: TernaryKey) -> tuple[_Leaf, list]:
    """``key``'s leaf and the internal nodes above it, root first (found
    by a plain search of the whole trie)."""
    stack: list = [(trie._root, [])]
    while stack:
        node, above = stack.pop()
        if isinstance(node, _Leaf):
            if node.key == key:
                return node, above
            continue
        stack.extend((child, above + [node]) for child in node.children())
    raise AssertionError(f"{key} is not stored")


class TestRemovalWorkCounts:
    def test_churn_calls_no_key_path(self, monkeypatch):
        acl = _classbench("acl", 500)
        extra = _classbench("acl", 2000).entries[:100]
        calls = []
        monkeypatch.setattr(multibit, "key_path", lambda *args: calls.append(args))
        trie = MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=8)
        for entry in extra:
            trie.insert(entry)
        for entry in extra[:50]:
            assert trie.remove_entry(entry)
        for entry in acl.entries[::7]:
            trie.delete(entry.key)
        assert calls == []

    def test_delete_walks_children_only_where_the_maximum_falls(self, monkeypatch):
        """A delete lists the children of the leaf's parent (is it left
        with one child?) and of the ancestors whose maximum was the
        removed priority, and of no other node."""
        acl = _classbench("acl", 500)
        trie = MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=8)
        children = _Internal.children
        walked: list[int] = []

        def counted_children(node):
            walked.append(id(node))
            return children(node)

        falls = 0
        for key in list({entry.key: None for entry in acl.entries})[::5]:
            leaf, above = _leaf_and_ancestors(trie, key)
            lowered = [node for node in above if node.max_priority == leaf.max_priority]
            falls += len(lowered)
            walked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_Internal, "children", counted_children)
                assert trie.delete(key)
            assert set(walked) <= {id(above[-1])} | set(map(id, lowered))
        assert falls  # some deletes did lower an ancestor's maximum
        _assert_canonical(trie)


class TestRemoveEntry:
    def test_removing_a_leafs_best_entry_lowers_its_ancestors(self):
        def entry(text, priority):
            return TernaryEntry(TernaryKey.from_string(text), f"{text}:{priority}", priority)

        best, low = entry("00000000", 9), entry("00000000", 2)
        sibling, other = entry("00000001", 5), entry("11110000", 3)
        trie = MultibitPalmtrie(8, stride=4)
        for e in (best, low, sibling, other):
            trie.insert(e)
        inner = trie._root.descendants[0]
        assert isinstance(inner, _Internal)
        assert trie._root.max_priority == inner.max_priority == 9
        assert trie.remove_entry(best)
        assert inner.max_priority == trie._root.max_priority == 5
        assert trie.lookup(0b00000000) is low
        _assert_canonical(trie)
        # Taking the sibling out leaves ``inner`` one child, which moves
        # up to the root slot.
        assert trie.remove_entry(sibling)
        assert isinstance(trie._root.descendants[0], _Leaf)
        assert trie._root.max_priority == 3
        assert trie.node_count() == (1, 2)
        _assert_canonical(trie)


class TestWorkCounts:
    def test_serving_builds_make_no_inserts_and_no_key_paths(self, monkeypatch):
        acl = _classbench("acl", 500)
        calls = {"insert": 0, "key_path": 0}
        insert = MultibitPalmtrie.insert

        def counted_insert(trie, entry):
            calls["insert"] += 1
            insert(trie, entry)

        def counted_key_path(key, stride):
            calls["key_path"] += 1
            return key_path(key, stride)

        monkeypatch.setattr(MultibitPalmtrie, "insert", counted_insert)
        monkeypatch.setattr(multibit, "key_path", counted_key_path)
        trie = build_matcher(EngineConfig(), acl.entries, acl.layout.length)
        plane = FrozenMatcher.from_matcher(trie)
        rebuilt = plane.rebuild_source()
        assert calls == {"insert": 0, "key_path": 0}
        assert len(trie) == len(rebuilt) == len(acl.entries)
        assert serialize_frozen(freeze(rebuilt)) == serialize_frozen(plane)

    def test_wrong_length_key_raises(self):
        good = TernaryEntry(TernaryKey.from_string("0101"), "a", 1)
        bad = TernaryEntry(TernaryKey.from_string("01010"), "b", 2)
        with pytest.raises(ValueError, match="key length"):
            MultibitPalmtrie.build([good, bad], 4, stride=2)
        with pytest.raises(ValueError, match="key length"):
            build_matcher(EngineConfig(stride=2), [good, bad], 4)


def _per_bit_key_path(key: TernaryKey, stride: int) -> list:
    """The key split as one step per loop iteration (the reference
    ``key_path`` must agree with)."""
    data, mask = key.data, key.mask
    chunk_mask = (1 << stride) - 1
    steps = []
    bit = key.length - stride
    while True:
        if bit >= 0:
            chunk_data = (data >> bit) & chunk_mask
            chunk_wild = (mask >> bit) & chunk_mask
        else:
            chunk_data = (data << -bit) & chunk_mask
            chunk_wild = (mask << -bit) & chunk_mask
        if chunk_wild == 0:
            steps.append((bit, EXACT, chunk_data))
            if bit <= 0:
                return steps
            bit -= stride
        else:
            star = chunk_wild.bit_length() - 1
            prefix_len = stride - 1 - star
            steps.append((bit, TERNARY, (1 << prefix_len) + (chunk_data >> (star + 1)) - 1))
            if bit + star <= 0:
                return steps
            bit = bit + star - stride


class TestKeyPathStarRuns:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_bit_loop(self, data):
        stride = data.draw(st.integers(1, 16), label="stride")
        # Lengths off the stride grid put the last chunk at a negative
        # bit index; long '*' runs exercise the one-extend path.
        length = data.draw(st.integers(stride, stride * 5 + 7), label="length")
        runs = data.draw(
            st.lists(
                st.tuples(st.sampled_from("01*"), st.integers(1, 2 * stride + 1)),
                min_size=1,
                max_size=12,
            ),
            label="runs",
        )
        text = "".join(digit * count for digit, count in runs)
        text = (text * (length // len(text) + 1))[:length]
        key = TernaryKey.from_string(text)
        assert key_path(key, stride) == _per_bit_key_path(key, stride)

    @pytest.mark.parametrize("stride", [1, 3, 8, 16])
    def test_all_wildcard_and_exact_keys(self, stride):
        for length in (stride, stride + 1, 2 * stride - 1, 128):
            for key in (TernaryKey.wildcard(length), TernaryKey(0, 0, length)):
                assert key_path(key, stride) == _per_bit_key_path(key, stride)
