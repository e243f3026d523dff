"""Shared test helpers: tiny table builders and oracles."""

from __future__ import annotations

import copy
import random
from typing import Sequence

from repro.baselines.dpdk_acl import DpdkStyleAcl
from repro.baselines.efficuts import EffiCutsClassifier
from repro.baselines.sorted_list import SortedListMatcher
from repro.baselines.tcam import TcamModel
from repro.baselines.vectorized import VectorizedMatcher
from repro.core.adaptive import AdaptiveMatcher
from repro.core.basic import BasicPalmtrie
from repro.core.frozen import _COUNT_BITS, _COUNT_MASK, FrozenMatcher
from repro.core.multibit import MultibitPalmtrie
from repro.core.serialize import _FROZEN_HEADER, deserialize_frozen, serialize_frozen
from repro.core.table import TernaryEntry, TernaryMatcher
from repro.core.ternary import TernaryKey

#: every structure of the paper's evaluation, by the name its figures
#: and the experiment drivers use
KINDS: dict[str, type[TernaryMatcher]] = {
    "sorted-list": SortedListMatcher,
    "palmtrie-basic": BasicPalmtrie,
    "palmtrie": MultibitPalmtrie,
    "frozen": FrozenMatcher,
    "dpdk-acl": DpdkStyleAcl,
    "efficuts": EffiCutsClassifier,
    "adaptive": AdaptiveMatcher,
    "tcam": TcamModel,
    "vectorized": VectorizedMatcher,
}
#: the kinds a ClassificationEngine serves
SERVED_KINDS = ("frozen", "palmtrie")
#: kinds whose insert/delete raise NotImplementedError (rebuild-only)
BUILD_ONLY = {"dpdk-acl", "efficuts"}
#: read-only planes, by the kind their updates go to (the trie a plane
#: is frozen from; an engine serving the plane applies them there)
READ_ONLY = {"frozen": "palmtrie"}


def build_kind(kind: str, entries, key_length: int, **kwargs) -> TernaryMatcher:
    """``kind``'s matcher over ``entries``."""
    return KINDS[kind].build(entries, key_length, **kwargs)


def updatable_kind(kind: str, entries, key_length: int) -> TernaryMatcher:
    """``kind``'s matcher, or for a read-only plane the trie its updates
    go to: the differential reference of tests that update it."""
    return build_kind(READ_ONLY.get(kind, kind), entries, key_length)


def served_matcher(kind: str, entries, key_length: int) -> TernaryMatcher:
    """What an engine serves next to comparison structure ``kind``: the
    kind itself when the engine serves it, a Palmtrie_k over the same
    entries otherwise."""
    return build_kind(kind if kind in SERVED_KINDS else "palmtrie", entries, key_length)

#: the paper's Table 1 dataset: (key, value, priority)
TABLE1_ROWS = (
    ("011*1000", 1, 6),
    ("1*0***10", 2, 8),
    ("0001****", 3, 9),
    ("10110011", 4, 3),
    ("0*1101**", 5, 7),
    ("1110****", 6, 4),
    ("010010**", 7, 5),
    ("01110***", 8, 2),
    ("1*******", 9, 1),
)


def table1_entries() -> list[TernaryEntry]:
    return [
        TernaryEntry(TernaryKey.from_string(key), value, priority)
        for key, value, priority in TABLE1_ROWS
    ]


def random_entries(
    count: int, key_length: int, seed: int = 0, priority_range: int = 1000
) -> list[TernaryEntry]:
    """Uniformly random ternary tables (dense in the §3.3 sense)."""
    rng = random.Random(seed)
    return [
        TernaryEntry(
            TernaryKey.from_string("".join(rng.choice("01*") for _ in range(key_length))),
            i,
            rng.randrange(priority_range),
        )
        for i in range(count)
    ]


def oracle_lookup(entries: Sequence[TernaryEntry], query: int) -> TernaryEntry | None:
    """Reference semantics: highest-priority matching entry."""
    best = None
    for entry in entries:
        if entry.key.matches(query) and (best is None or entry.priority > best.priority):
            best = entry
    return best


def assert_same_result(expected: TernaryEntry | None, got: TernaryEntry | None) -> None:
    """Matchers must agree on the winning *priority* (ties on priority may
    legitimately return either tied entry)."""
    expected_priority = expected.priority if expected is not None else None
    got_priority = got.priority if got is not None else None
    assert expected_priority == got_priority, (
        f"expected priority {expected_priority} "
        f"(value {getattr(expected, 'value', None)}), "
        f"got {got_priority} (value {getattr(got, 'value', None)})"
    )


def in_another_node_order(plane: FrozenMatcher) -> FrozenMatcher:
    """``plane`` as an image written in the retired hot-first node order
    loads: renumbered out of build order and read back from PLMF bytes
    whose layout byte is 1.

    The root stays node 0; the other internal nodes and the leaves are
    numbered in reverse.  Every dispatch run keeps its order, so the
    walk visits the same nodes and picks the same winners as ``plane``.
    """
    first_leaf = plane._first_leaf
    leaves = len(plane._leaf_best)
    # a reversal, so the map from new ids to old ids is the same map
    perm = [0] + list(range(first_leaf - 1, 0, -1)) if first_leaf else []
    perm += range(first_leaf + leaves - 1, first_leaf - 1, -1)
    width = 1 << plane.stride
    dispatch = []
    for x in perm[:first_leaf]:
        for word in plane._dispatch[x * width : (x + 1) * width]:
            if word & _COUNT_MASK == 1:
                word = (perm[word >> _COUNT_BITS] << _COUNT_BITS) | 1
            dispatch.append(word)
    moved = copy.copy(plane)
    moved._bit = [plane._bit[x] for x in perm[:first_leaf]]
    moved._maxp = [plane._maxp[x] for x in perm]
    moved._dispatch = dispatch
    moved._push = [perm[t] for t in plane._push]
    order = [x - first_leaf for x in perm[first_leaf:]]
    moved._leaf_data = [plane._leaf_data[j] for j in order]
    moved._leaf_care = [plane._leaf_care[j] for j in order]
    moved._leaf_best = [plane._leaf_best[j] for j in order]
    moved._entry_table = []
    counts = []
    for j in order:
        base, count = plane._leaf_entry_base[j], plane._leaf_entry_count[j]
        moved._entry_table.extend(plane._entry_table[base : base + count])
        counts.append(count)
    moved._leaf_entry_count = counts
    moved._leaf_entry_base = [sum(counts[:k]) for k in range(len(counts))]
    image = bytearray(serialize_frozen(moved))
    image[_FROZEN_HEADER.size] = 1  # the v2 extension's layout byte
    return deserialize_frozen(bytes(image))
