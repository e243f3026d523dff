"""The frozen struct-of-arrays lookup plane: the paper's Palmtrie+.

The load-bearing property is differential: a :class:`FrozenMatcher`
compiled from a built trie must return *identical* results (``lookup``,
``lookup_all``, ``lookup_batch``) to its source on fuzzed tables and on
ClassBench workloads — same winning entry object, not just the same
priority — because freezing is a representation change, not an
algorithm change.  On top of that: the PLMF wire format round-trips,
corruption is detected, lazy re-freezing after updates stays coherent,
and the batch walk returns the entry ``lookup`` returns, with one
examined-bit mask per query, at every batch size.  The paper's
Palmtrie+ examples (Table 1, Algorithm 3's don't-care loop) run on the
plane, which is the repository's one compiled form of Algorithm 3.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_same_result,
    build_kind,
    in_another_node_order,
    oracle_lookup,
    random_entries,
    table1_entries,
)

from repro import ClassificationEngine, EngineConfig, SortedListMatcher
from repro.bench.memory import palmtrie_plus_bytes
from repro.core.frozen import _COUNT_BITS, FrozenMatcher, freeze
from repro.core.multibit import MultibitPalmtrie
from repro.core.poptrie import Poptrie
from repro.core.serialize import (
    FormatError,
    deserialize_frozen,
    load_frozen,
    save_frozen,
    serialize_frozen,
)
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey

KEY_LENGTH = 32


def _queries(count: int, seed: int = 0, bits: int = KEY_LENGTH) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(bits) for _ in range(count)]


#: node order -> the plane as served in it: "build" is what every freeze
#: emits, "hot" an image written in the retired hot-first node order
#: (the loader still accepts one), here the plane renumbered out of build
#: order and read back from a layout-byte-1 PLMF image
_ORDERS = {"build": lambda plane: plane, "hot": in_another_node_order}


def _biased_queries(entries, count: int, seed: int = 0) -> list[int]:
    """Half random, half forced to match some entry (flips don't-care bits)."""
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        if entries and i % 2:
            e = entries[rng.randrange(len(entries))]
            wild = rng.getrandbits(e.key.length) & e.key.mask
            queries.append(e.key.data | wild)
        else:
            queries.append(rng.getrandbits(entries[0].key.length if entries else 16))
    return queries


# ----------------------------------------------------------------------
# Construction and the freeze() dispatcher
# ----------------------------------------------------------------------

class TestConstruction:
    def test_build_classmethod(self):
        entries = table1_entries()
        frozen = FrozenMatcher.build(entries, 8, stride=4)
        assert frozen.name == "frozen"
        assert len(frozen) == len(entries)
        assert frozen.key_length == 8

    def test_freeze_dispatcher_accepts_the_trie_family(self):
        entries = random_entries(20, KEY_LENGTH, seed=1)
        frozen = freeze(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        assert isinstance(frozen, FrozenMatcher)
        assert len(frozen) == len(entries)

    def test_freeze_poptrie(self):
        """The Palmtrie_k is the one trie a plane is frozen from; the
        Poptrie serves LPM unfrozen."""
        pt = Poptrie(key_length=32)
        pt.insert(0b1010, 4, "a")
        with pytest.raises(TypeError):
            freeze(pt)

    def test_freeze_rejects_non_trie(self):
        with pytest.raises(TypeError):
            freeze(SortedListMatcher.build(table1_entries(), 8))

    def test_freeze_of_frozen_is_idempotent(self):
        """A plane is laid out once: freezing it again returns it
        unchanged, in whatever node order it was loaded."""
        frozen = FrozenMatcher.build(table1_entries(), 8)
        assert freeze(frozen) is frozen
        loaded = in_another_node_order(frozen)
        assert freeze(loaded) is loaded

    def test_stride_bounds(self):
        with pytest.raises(ValueError):
            FrozenMatcher(8, stride=0)
        with pytest.raises(ValueError):
            FrozenMatcher(8, stride=31)

    def test_empty_table(self):
        frozen = FrozenMatcher.build([], KEY_LENGTH)
        assert len(frozen) == 0
        assert frozen.lookup(123) is None
        assert frozen.lookup_all(123) == []
        assert frozen.lookup_batch([1, 2, 3]) == [None, None, None]


# ----------------------------------------------------------------------
# Differential: frozen vs source vs oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
# ``source_kind`` names the trie the plane is frozen from: a Palmtrie_k.
@pytest.mark.parametrize("source_kind", ["palmtrie"])
class TestDifferentialFuzz:
    def _build(self, source_kind, seed):
        entries = random_entries(50 + 17 * seed, KEY_LENGTH, seed=seed)
        source = build_kind(source_kind, entries, KEY_LENGTH, stride=4 + seed % 3)
        return entries, source, freeze(source)

    def test_lookup_identical_to_source(self, source_kind, seed):
        entries, source, frozen = self._build(source_kind, seed)
        for query in _biased_queries(entries, 400, seed=seed + 100):
            expected = source.lookup(query)
            got = frozen.lookup(query)
            # identical object, not just the same priority: freezing
            # must preserve the tie winner too
            assert got is expected or (
                got is not None and expected is not None
                and got.priority == expected.priority
                and got.value == expected.value
            )
            assert_same_result(oracle_lookup(entries, query), got)

    def test_lookup_all_identical(self, source_kind, seed):
        entries, source, frozen = self._build(source_kind, seed)
        for query in _biased_queries(entries, 150, seed=seed + 200):
            expected = sorted(
                (e for e in entries if e.key.matches(query)),
                key=lambda e: e.priority, reverse=True,
            )
            got = frozen.lookup_all(query)
            assert [e.priority for e in got] == [e.priority for e in expected]
            assert {(e.priority, e.value) for e in got} == {
                (e.priority, e.value) for e in expected
            }

    def test_lookup_batch_identical(self, source_kind, seed):
        entries, source, frozen = self._build(source_kind, seed)
        queries = _biased_queries(entries, 300, seed=seed + 300)
        scalar = [frozen.lookup(q) for q in queries]
        assert frozen.lookup_batch(queries) == scalar


class TestDifferentialClassBench:
    @pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
    def test_classbench_workload(self, profile):
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import pareto_trace

        acl = classbench_acl(profile, 120)
        source = MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=8)
        frozen = freeze(source)
        queries = pareto_trace(acl.entries, 600)
        expected = [source.lookup(q) for q in queries]
        assert [frozen.lookup(q) for q in queries] == expected
        assert frozen.lookup_batch(queries) == expected


def _unique_queries(entries, count: int, seed: int) -> list[int]:
    """``count`` distinct biased queries (a batch of ``count`` uniques)."""
    unique: dict[int, None] = {}
    while len(unique) < count:
        unique.update(dict.fromkeys(_biased_queries(entries, count, seed=seed)))
        seed += 1
    return list(unique)[:count]


def _clustered_entries(count: int, key_length: int, seed: int) -> list[TernaryEntry]:
    """Entries around three shared base keys, differing mostly in their
    low digits, so the trie grows deep enough for chunks below bit 0
    (and, over 64 bits, across a machine-word boundary)."""
    rng = random.Random(seed)
    bases = [[rng.choice("01") for _ in range(key_length)] for _ in range(3)]
    entries = []
    for i in range(count):
        digits = list(rng.choice(bases))
        for _ in range(rng.randrange(4)):
            digits[rng.randrange(key_length)] = rng.choice("01*")
        digits[-3:] = [rng.choice("01*") for _ in range(3)]
        key = TernaryKey.from_string("".join(digits))
        entries.append(TernaryEntry(key, i, rng.randrange(1000)))
    return entries


#: plane name -> (entries, key length, stride); each walks a different
#: corner of the batch walk
_WALK_PLANES = {
    # one 64-bit word; 32 % 6 != 0, so deep chunks sit below bit 0
    "short-key": lambda: (_clustered_entries(60, KEY_LENGTH, seed=7), KEY_LENGTH, 6),
    # two 64-bit words; the root chunk (bits 62-69) spans the word
    # boundary and 70 % 8 != 0 puts deep chunks below bit 0
    "multi-lane": lambda: (_clustered_entries(60, 70, seed=9), 70, 8),
    # 40 entries over priorities 0-4: equal-priority overlaps are
    # common, so the walk's depth-first order picks the tie winner
    "ties": lambda: (random_entries(40, 16, seed=11, priority_range=5), 16, 4),
}


class TestBatchPaths:
    @pytest.mark.parametrize("size", [1, 63, 511, 512, 2048])
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("plane", sorted(_WALK_PLANES))
    def test_walks_agree_across_crossover(self, plane, order, size):
        """One walk at every batch size: the sizes straddle 512 unique
        queries, where a node-major NumPy walk used to take over and
        report no masks."""
        entries, key_length, stride = _WALK_PLANES[plane]()
        queries = _unique_queries(entries, size, seed=8)
        frozen = _ORDERS[order](FrozenMatcher.build(entries, key_length, stride=stride))
        if plane != "ties":
            assert min(frozen._bit) < 0  # the walks shift chunks left
        leaves = frozen.lookup_batch_indices(queries)
        best_of = frozen._leaf_best
        for query, leaf in zip(queries, leaves):
            # the very entry lookup serves, tie winner included
            assert (best_of[leaf] if leaf >= 0 else None) is frozen.lookup(query)
        _assert_walks_agree(frozen, queries)

    def test_scalar_batch_counts_the_visits_profile_lookup_counts(self):
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import reverse_byte_scan

        acl = classbench_acl("acl", 120)
        frozen = FrozenMatcher.build(acl.entries, acl.layout.length, stride=8)
        queries = reverse_byte_scan(200, seed=3, start=4096)
        unique = list(dict.fromkeys(queries))
        before = frozen.batch_walk_node_visits
        frozen.lookup_batch(queries)
        walked = frozen.batch_walk_node_visits - before
        assert walked > 0
        assert walked == sum(frozen._counted_lookup(q)[1] for q in unique)

    def test_batch_empty_and_duplicates(self):
        frozen = FrozenMatcher.build(table1_entries(), 8)
        assert frozen.lookup_batch([]) == []
        results = frozen.lookup_batch([0b00010101] * 10)
        assert len(set(id(r) for r in results)) == 1  # deduplicated resolve


# ----------------------------------------------------------------------
# The dispatch emitter against a per-chunk oracle
# ----------------------------------------------------------------------

_REAL_EMIT = FrozenMatcher._emit


def _per_chunk_emit(self, internals, leaves, kids):
    """The oracle: the freeze compiler's emit pass with the dispatch
    table and push list rebuilt by the direct per-chunk loop.

    For every internal node and every chunk value, the run is the exact
    child first, then the don't-care children from the shortest prefix
    up; single survivors are inlined and multi-child runs are pooled in
    first-seen order.  The rest of the plane (ids, ``bit``/``maxp``,
    leaf tables) is what the compiler emits.
    """
    _REAL_EMIT(self, internals, leaves, kids)
    stride = self.stride
    ids = {id(node): x for x, node in enumerate(internals + leaves)}
    dispatch: list[int] = []
    push: list[int] = []
    pool: dict[tuple[int, ...], int] = {}
    for node in internals:
        exact, ternary = kids[id(node)]
        for chunk in range(1 << stride):
            run = [ids[id(exact[chunk])]] if chunk in exact else []
            for plen in range(stride):
                slot = (chunk >> (stride - plen)) + (1 << plen) - 1
                if slot in ternary:
                    run.append(ids[id(ternary[slot])])
            if len(run) < 2:
                dispatch.append((run[0] << _COUNT_BITS) | 1 if run else 0)
                continue
            base = pool.setdefault(tuple(run), len(push))
            if base == len(push):
                push.extend(run)
            dispatch.append((base << _COUNT_BITS) | len(run))
    self._dispatch = dispatch
    self._push = push
    self._build_hot()


def _assert_same_plane(got: FrozenMatcher, want: FrozenMatcher) -> None:
    for name in (
        "_bit", "_maxp", "_dispatch", "_push", "_leaf_data", "_leaf_care",
        "_leaf_entry_base", "_leaf_entry_count", "_first_leaf",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert all(a is b for a, b in zip(got._entry_table, want._entry_table))
    assert len(got._entry_table) == len(want._entry_table)
    assert got._hot[:4] == want._hot[:4]
    assert serialize_frozen(got) == serialize_frozen(want)


def _check_emitter(source, order, monkeypatch) -> None:
    """The interval emitter's plane is the per-chunk oracle's.  A plane
    loaded in another node order ("hot") rebuilds a Palmtrie_k that
    freezes back to that same build-order plane."""
    got = freeze(source)
    with monkeypatch.context() as patch:
        patch.setattr(FrozenMatcher, "_emit", _per_chunk_emit)
        want = freeze(source)
    _assert_same_plane(got, want)
    if order == "hot":
        again = freeze(in_another_node_order(got).rebuild_source())
        assert serialize_frozen(again) == serialize_frozen(want)


class TestIntervalEmitter:
    # ``source_kind`` is the trie the plane is frozen from
    @pytest.mark.parametrize("source_kind", [MultibitPalmtrie])
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("stride", [3, 4, 6, 8, 11])
    @pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
    def test_classbench_matches_per_chunk_oracle(
        self, profile, stride, order, source_kind, monkeypatch
    ):
        from repro.workloads.classbench import classbench_acl

        acl = classbench_acl(profile, 60 if stride == 11 else 150)
        source = source_kind.build(acl.entries, acl.layout.length, stride=stride)
        _check_emitter(source, order, monkeypatch)

    @pytest.mark.parametrize("source_kind", [MultibitPalmtrie])
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize(
        "key_length, stride",
        # 7 % 3 and 33 % 4 leave a short last chunk; 70 bits is two lanes
        [(7, 3), (33, 4), (33, 8), (70, 6)],
    )
    def test_random_equal_priority_tables_match_oracle(
        self, key_length, stride, order, source_kind, monkeypatch
    ):
        # four priorities over 60 rules: equal-priority runs are common,
        # so the emitter's run order (and a rebuild's tie order) matters
        entries = random_entries(60, key_length, seed=key_length + stride, priority_range=4)
        source = source_kind.build(entries, key_length, stride=stride)
        _check_emitter(source, order, monkeypatch)


def _assert_walks_agree(plane: FrozenMatcher, queries: list[int]) -> None:
    """The maskless batch walk (no ``masks=``) and the masked one pick
    the same leaves and count the same visits, duplicates included."""
    before = plane.batch_walk_node_visits
    bare = plane.lookup_batch_indices(queries)
    bare_visits = plane.batch_walk_node_visits - before
    masks: list[int] = []
    masked = plane.lookup_batch_indices(queries, masks=masks)
    masked_visits = plane.batch_walk_node_visits - before - bare_visits
    assert len(masks) == len(queries)  # one mask per query, at any size
    assert bare == masked
    assert bare_visits == masked_visits > 0
    unique = list(dict.fromkeys(queries))
    leaves, _masks, visits = plane._scalar_walk_masks(unique)
    assert plane._scalar_walk(unique) == (leaves, visits)


class TestMasklessWalk:
    """One walk, two loops: ``_scalar_walk`` is ``_scalar_walk_masks``
    without the mask ORs, pinned over the emitter matrix's planes."""

    @pytest.mark.parametrize("skipping", [True, False])
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("stride", [3, 4, 6, 8, 11])
    @pytest.mark.parametrize("profile", ["acl", "fw", "ipc"])
    def test_classbench_planes(self, profile, stride, order, skipping):
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import pareto_trace

        acl = classbench_acl(profile, 60 if stride == 11 else 150)
        trace = pareto_trace(acl.entries, 400)
        plane = _ORDERS[order](FrozenMatcher.build(
            acl.entries, acl.layout.length, stride=stride, subtree_skipping=skipping
        ))
        _assert_walks_agree(plane, trace)

    @pytest.mark.parametrize("skipping", [True, False])
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize(
        "key_length, stride",
        # 7 % 3 and 33 % 4 leave a short last chunk; 70 bits is two lanes
        [(7, 3), (33, 4), (33, 8), (70, 6)],
    )
    def test_random_equal_priority_tables(self, key_length, stride, order, skipping):
        entries = random_entries(60, key_length, seed=key_length + stride, priority_range=4)
        queries = _biased_queries(entries, 300, seed=5)
        plane = _ORDERS[order](FrozenMatcher.build(
            entries, key_length, stride=stride, subtree_skipping=skipping
        ))
        _assert_walks_agree(plane, queries + queries[:40])

    @pytest.mark.parametrize("skipping", [True, False])
    @pytest.mark.parametrize("plane", sorted(_WALK_PLANES))
    def test_planes_with_a_final_partial_chunk(self, plane, skipping):
        entries, key_length, stride = _WALK_PLANES[plane]()
        queries = _unique_queries(entries, 300, seed=8)
        frozen = FrozenMatcher.build(
            entries, key_length, stride=stride, subtree_skipping=skipping
        )
        if plane != "ties":
            assert min(frozen._bit) < 0  # chunks below bit 0 are walked
        _assert_walks_agree(frozen, queries)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.text(alphabet="01*", min_size=12, max_size=12), st.integers(0, 20)),
            min_size=1,
            max_size=30,
        ),
        queries=st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=40),
        # stride 5 and 8 on a 12-bit key leave a final partial chunk
        stride=st.sampled_from([1, 4, 5, 8]),
        skipping=st.booleans(),
    )
    def test_hypothesis_tables(self, keys, queries, stride, skipping):
        entries = [
            TernaryEntry(TernaryKey.from_string(text), i, priority)
            for i, (text, priority) in enumerate(keys)
        ]
        plane = FrozenMatcher.build(entries, 12, stride=stride, subtree_skipping=skipping)
        _assert_walks_agree(plane, queries)


# ----------------------------------------------------------------------
# The plane is the Palmtrie+ (§3.6, Algorithm 3)
# ----------------------------------------------------------------------

class TestPalmtriePlus:
    """The paper's Palmtrie+ cases, on the plane that compiles it."""

    def test_table1_all_queries(self):
        entries = table1_entries()
        plus = FrozenMatcher.build(entries, 8, stride=3)
        for query in range(256):
            assert_same_result(oracle_lookup(entries, query), plus.lookup(query))

    def test_counted_agrees_with_plain(self):
        plus = FrozenMatcher.build(table1_entries(), 8, stride=3)
        for query in range(256):
            assert plus.profile_lookup(query) is plus.lookup(query)

    def test_node_counts_and_visits_match_source(self):
        """The plane holds the Palmtrie_k's nodes and visits the nodes
        the Palmtrie_k visits, query by query."""
        entries = random_entries(80, 16, seed=22)
        source = MultibitPalmtrie.build(entries, 16, stride=4)
        plus = FrozenMatcher.from_matcher(source)
        assert plus.node_count() == source.node_count()
        assert len(plus) == len(source)
        for query in range(0, 1 << 16, 331):
            assert plus._counted_lookup(query)[1:] == source._counted_lookup(query)[1:]

    def test_modeled_bytes_much_smaller_than_source(self):
        """Figure 9's collapse: the Palmtrie+ model drops the pointer
        arrays the Palmtrie_k model charges."""
        entries = random_entries(300, 24, seed=24)
        source = MultibitPalmtrie.build(entries, 24, stride=8)
        plus = FrozenMatcher.from_matcher(source)
        assert palmtrie_plus_bytes(plus) < source.memory_bytes() / 10

    def test_ternary_only_node(self):
        """Algorithm 3's line 20 tests ``bitmap_c`` in the don't-care
        loop, a typo for ``bitmap_t``: a node whose exact and ternary
        children differ would answer wrongly under the typo."""
        entries = [
            TernaryEntry(TernaryKey.from_string("000*0000"), "star", 2),
            TernaryEntry(TernaryKey.from_string("00000000"), "exact", 1),
        ]
        plus = FrozenMatcher.build(entries, 8, stride=8)
        assert plus.lookup(0b00000000).value == "star"  # higher priority
        assert plus.lookup(0b00010000).value == "star"

    def test_empty_lookup(self):
        plus = FrozenMatcher.build([], 8, stride=3)
        assert plus.lookup(0) is None
        assert len(plus) == 0

    def test_single_wildcard_entry(self):
        wildcard = TernaryEntry(TernaryKey.wildcard(8), "all", 1)
        plus = FrozenMatcher.build([wildcard], 8, stride=8)
        assert all(plus.lookup(q).value == "all" for q in range(256))

    def test_skipping_flag_propagates(self):
        entries = random_entries(100, 16, seed=25)
        with_skip = FrozenMatcher.build(entries, 16, stride=4, subtree_skipping=True)
        without = FrozenMatcher.build(entries, 16, stride=4, subtree_skipping=False)
        assert with_skip.subtree_skipping and not without.subtree_skipping
        for query in range(0, 1 << 16, 131):
            assert_same_result(without.lookup(query), with_skip.lookup(query))

    def test_table1_entries_roundtrip(self):
        plus = FrozenMatcher.build(table1_entries(), 8, stride=3)
        assert sorted(e.value for e in plus.entries()) == list(range(1, 10))


# ----------------------------------------------------------------------
# A plane is read-only: updates go to the trie it is frozen from
# ----------------------------------------------------------------------

class TestLazyRefreeze:
    """A plane never changes in place: updates go to its source trie,
    and a new plane is frozen from that trie when one is needed."""

    def test_updates_go_to_the_source_trie(self):
        entries = random_entries(20, KEY_LENGTH, seed=20)
        frozen = FrozenMatcher.build(entries, KEY_LENGTH)
        key = TernaryKey(0, (1 << KEY_LENGTH) - 1, KEY_LENGTH)  # match-all
        with pytest.raises(NotImplementedError):
            frozen.insert(TernaryEntry(key, "new", 10_000))
        with pytest.raises(NotImplementedError):
            frozen.delete(entries[5].key)
        assert len(frozen) == 20

    @pytest.mark.parametrize("order", sorted(_ORDERS))
    def test_a_rebuilt_source_freezes_to_the_same_plane(self, order):
        """A loaded plane, in either node order, rebuilds a Palmtrie_k
        that freezes to the build-order plane."""
        entries = random_entries(60, KEY_LENGTH, seed=21, priority_range=8)
        plane = FrozenMatcher.build(entries, KEY_LENGTH, stride=5)
        loaded = _ORDERS[order](deserialize_frozen(serialize_frozen(plane)))
        source = loaded.rebuild_source()
        assert isinstance(source, MultibitPalmtrie) and len(source) == len(entries)
        again = freeze(source)
        assert serialize_frozen(again) == serialize_frozen(plane)
        # every served entry is the loaded plane's own object
        for query in _biased_queries(entries, 300, seed=23):
            assert again.lookup(query) is loaded.lookup(query)

    def test_entries_roundtrip(self):
        entries = random_entries(15, KEY_LENGTH, seed=24)
        frozen = FrozenMatcher.build(entries, KEY_LENGTH)
        assert {(e.key, e.priority) for e in frozen.entries()} == {
            (e.key, e.priority) for e in entries
        }

    def test_build_freezes_exactly_once(self, monkeypatch):
        """``build`` compiles the plane once; an empty constructor
        compiles an empty plane."""
        compiles = []
        compile_plane = FrozenMatcher._compile
        monkeypatch.setattr(
            FrozenMatcher,
            "_compile",
            lambda plane, *args: compiles.append(1) or compile_plane(plane, *args),
        )
        frozen = FrozenMatcher.build(random_entries(10, KEY_LENGTH, seed=25), KEY_LENGTH)
        assert len(compiles) == 1 and len(frozen) == 10
        empty = FrozenMatcher(KEY_LENGTH)
        assert len(empty) == 0 and empty.lookup(0) is None


# ----------------------------------------------------------------------
# PLMF wire format
# ----------------------------------------------------------------------

class TestSerialization:
    def _frozen(self, seed=30, count=40):
        entries = random_entries(count, KEY_LENGTH, seed=seed)
        return entries, FrozenMatcher.build(entries, KEY_LENGTH, stride=5)

    def test_roundtrip_is_byte_identical(self):
        _, frozen = self._frozen()
        blob = serialize_frozen(frozen)
        assert serialize_frozen(deserialize_frozen(blob)) == blob

    def test_loaded_plane_serves_without_rebuild(self, monkeypatch):
        entries, frozen = self._frozen(seed=31)
        loaded = deserialize_frozen(serialize_frozen(frozen))
        # serves without rebuilding a trie
        monkeypatch.setattr(FrozenMatcher, "rebuild_source", None)
        for query in _biased_queries(entries, 300, seed=32):
            assert_same_result(frozen.lookup(query), loaded.lookup(query))
        queries = _biased_queries(entries, 100, seed=33)
        assert [e.priority if e else None for e in loaded.lookup_batch(queries)] == [
            e.priority if e else None for e in frozen.lookup_batch(queries)
        ]

    def test_save_load_file(self, tmp_path):
        entries, frozen = self._frozen(seed=35)
        path = tmp_path / "plane.plmf"
        written = save_frozen(frozen, path)
        assert written == path.stat().st_size
        loaded = load_frozen(path)
        for query in _queries(100, seed=36):
            assert_same_result(frozen.lookup(query), loaded.lookup(query))

    def test_corruption_detected(self):
        _, frozen = self._frozen(seed=37)
        blob = serialize_frozen(frozen)
        with pytest.raises(FormatError):
            deserialize_frozen(blob[: len(blob) // 2])  # truncated
        with pytest.raises(FormatError):
            deserialize_frozen(b"XXXX" + blob[4:])  # bad magic
        with pytest.raises(FormatError):
            deserialize_frozen(blob + b"\x00")  # trailing garbage

    def test_memory_model_survives_roundtrip(self):
        _, frozen = self._frozen(seed=38)
        loaded = deserialize_frozen(serialize_frozen(frozen))
        assert loaded.memory_bytes() == frozen.memory_bytes()


# ----------------------------------------------------------------------
# Engine integration (the served plane)
# ----------------------------------------------------------------------

class TestEngineAutoFreeze:
    def test_plane_appears_and_serves(self):
        entries = random_entries(30, KEY_LENGTH, seed=40)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=16))
        report = engine.report()
        assert report["frozen_plane_active"] and report["freezes"] == 1  # frozen at install
        queries = _biased_queries(entries, 200, seed=41)
        for query in queries:
            assert_same_result(oracle_lookup(entries, query), engine.lookup(query))
        assert engine.report()["freezes"] == 1
        # A policy swap freezes the new policy before its first lookup.
        entries = entries[:20]
        engine.replace_matcher(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4))
        report = engine.report()
        assert report["frozen_plane_active"] and report["freezes"] == 2
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
        assert engine.report()["freezes"] == 2

    def test_updates_drop_and_refreeze_plane(self):
        entries = random_entries(25, KEY_LENGTH, seed=42)
        engine = ClassificationEngine(MultibitPalmtrie.build(entries, KEY_LENGTH, stride=4), EngineConfig(cache_size=0))
        queries = _biased_queries(entries, 100, seed=43)
        engine.lookup_batch(queries)
        key = TernaryKey(0, (1 << KEY_LENGTH) - 1, KEY_LENGTH)
        new = TernaryEntry(key, "hot", 50_000)
        engine.insert(new)
        assert not engine.report()["frozen_plane_active"]
        entries = entries + [new]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)
        report = engine.report()
        assert report["frozen_plane_active"] and report["freezes"] == 2
        assert engine.delete(key)
        entries = entries[:-1]
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert_same_result(oracle_lookup(entries, query), got)

    def test_a_hot_plane_refreezes_in_build_order(self):
        """A plane loaded from an image in the retired hot-first node
        order serves as laid out until its first refreeze; the engine
        freezes its Palmtrie_k in build order."""
        from repro.workloads.classbench import classbench_acl
        from repro.workloads.traffic import zipf_trace

        acl = classbench_acl("acl", 150)
        queries = zipf_trace(acl.entries, 2000, flows=256)
        built = FrozenMatcher.build(acl.entries, acl.layout.length)
        hot = in_another_node_order(built)
        assert serialize_frozen(hot) != serialize_frozen(built)
        engine = ClassificationEngine(hot, EngineConfig(cache_size=0))
        engine.lookup_batch(queries[:64])
        assert engine._plane is hot and "plane_layout" not in engine.report()
        engine.apply_updates([("delete", acl.entries[7].key)])
        engine.refresh()
        assert engine.freezes == 1
        source = engine.matcher
        assert serialize_frozen(engine._plane) == serialize_frozen(freeze(source))
        for query, got in zip(queries, engine.lookup_batch(queries)):
            assert got is source.lookup(query)


# ----------------------------------------------------------------------
# Instrumentation and introspection
# ----------------------------------------------------------------------

class TestObservability:
    def test_profile_lookup_counts_work(self):
        entries = table1_entries()
        frozen = FrozenMatcher.build(entries, 8, stride=4)
        frozen.stats.reset()
        result = frozen.profile_lookup(0b00010101)
        assert_same_result(oracle_lookup(entries, 0b00010101), result)
        assert frozen.stats.lookups == 1
        assert frozen.stats.node_visits > 0
        assert frozen.stats.key_comparisons > 0

    @pytest.mark.parametrize("stride", [4, 8])
    @pytest.mark.parametrize("profile", ["acl", "fw"])
    def test_memory_bytes_is_the_plmf_sections(self, profile, stride):
        """``memory_bytes`` is the byte length of the PLMF bit, maxp,
        dispatch, push, leaf-key, entry-base and entry-count sections,
        plus 12 modeled bytes per entry slot."""
        from repro.core.serialize import _FROZEN_EXT, _FROZEN_HEADER
        from repro.workloads.classbench import classbench_acl

        acl = classbench_acl(profile, 150)
        frozen = FrozenMatcher.build(acl.entries, acl.layout.length, stride=stride)
        blob = serialize_frozen(frozen)
        header = _FROZEN_HEADER.unpack_from(blob)
        entry_count, blob_len = header[-2], header[-1]
        sections = len(blob) - _FROZEN_HEADER.size - _FROZEN_EXT.size - blob_len
        assert frozen.memory_bytes() == sections + 12 * entry_count
        assert deserialize_frozen(blob).memory_bytes() == frozen.memory_bytes()

    def test_memory_bytes_positive_and_tracks_arrays(self):
        entries = random_entries(40, KEY_LENGTH, seed=50)
        frozen = FrozenMatcher.build(entries, KEY_LENGTH, stride=6)
        assert frozen.memory_bytes() > 0
        bigger = FrozenMatcher.build(
            random_entries(80, KEY_LENGTH, seed=50), KEY_LENGTH, stride=6
        )
        assert bigger.memory_bytes() > frozen.memory_bytes()
