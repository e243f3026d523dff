"""The PLMF loader's one pass over the dispatch rows, and its layout byte.

``deserialize_frozen`` range-checks each distinct dispatch word of a
row and collects the internal successors the cycle walk then runs
over.  These corrupt one word (or one push target) of a well-formed
campus plane and check the load still fails closed at each spot that
pass reads.  The v2 layout byte is written as 0, and an older image
marked 1 (the retired hot-first node order) still loads.
"""

from __future__ import annotations

import struct

import pytest

from helpers import assert_same_result
from repro.baselines.sorted_list import SortedListMatcher
from repro.core.frozen import _COUNT_BITS, _COUNT_MASK, freeze
from repro.core.multibit import MultibitPalmtrie
from repro.core.serialize import (
    _FROZEN_EXT,
    _FROZEN_HEADER,
    FormatError,
    deserialize_frozen,
    serialize_frozen,
)
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import uniform_traffic


@pytest.fixture(scope="module")
def plane():
    """The wire bytes, the dispatch words and where dispatch and push
    start, for a stride-4 campus plane that has push runs."""
    acl = campus_acl(2)
    blob = serialize_frozen(
        freeze(MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=4))
    )
    header = _FROZEN_HEADER.unpack_from(blob)
    stride, first_leaf, leaf_count = header[2], header[5], header[6]
    dispatch_off = (
        _FROZEN_HEADER.size
        + _FROZEN_EXT.size
        + 4 * first_leaf
        + 8 * (first_leaf + leaf_count)
    )
    words = struct.unpack_from(f"<{first_leaf << stride}I", blob, dispatch_off)
    push_off = dispatch_off + 4 * len(words)
    return blob, words, dispatch_off, push_off, first_leaf + leaf_count


def _repeated(words):
    """The index of a word equal to the word before it."""
    return next(i for i in range(1, len(words)) if words[i] == words[i - 1])


@pytest.mark.parametrize(
    "pick, word, message",
    [
        # checking distinct words only must still see one that occurs
        # once in a row of repeats
        (_repeated, lambda nodes: 1 << _COUNT_BITS, "zero count"),
        (lambda words: len(words) - 1, lambda nodes: nodes << _COUNT_BITS | 1,
         "dispatch target out of range"),
    ],
    ids=["zero-count-in-a-repeating-row", "target-out-of-range"],
)
def test_a_bad_dispatch_word_fails(plane, pick, word, message):
    blob, words, dispatch_off, _, node_count = plane
    corrupt = bytearray(blob)
    struct.pack_into("<I", corrupt, dispatch_off + 4 * pick(words), word(node_count))
    with pytest.raises(FormatError, match=message):
        deserialize_frozen(bytes(corrupt))


def test_a_cycle_through_a_push_run_fails(plane):
    """A push run whose target is the root closes a cycle the walk must
    find through the successors a run contributes."""
    blob, words, _, push_off, _ = plane
    deserialize_frozen(blob)
    run = next(word for word in words if word & _COUNT_MASK > 1)
    corrupt = bytearray(blob)
    struct.pack_into("<Q", corrupt, push_off + 8 * (run >> _COUNT_BITS), 0)
    with pytest.raises(FormatError, match="cycle"):
        deserialize_frozen(bytes(corrupt))


def test_an_image_with_layout_byte_one_serves_the_oracle():
    """Layout byte 1 marked the retired hot-first node order.  A build
    image carrying it loads, serves the sorted-list oracle's verdicts
    and is written back with byte 0; any other value fails closed."""
    acl = campus_acl(2)
    blob = serialize_frozen(
        freeze(MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=4))
    )
    image = bytearray(blob)
    image[_FROZEN_HEADER.size] = 1
    loaded = deserialize_frozen(bytes(image))
    assert serialize_frozen(loaded) == blob
    oracle = SortedListMatcher.build(acl.entries, acl.layout.length)
    queries = uniform_traffic(acl.entries, 2000, seed=5)
    for query, got in zip(queries, loaded.lookup_batch(queries)):
        assert_same_result(oracle.lookup(query), got)
        assert_same_result(oracle.lookup(query), loaded.lookup(query))
    image[_FROZEN_HEADER.size] = 2
    with pytest.raises(FormatError, match="extension"):
        deserialize_frozen(bytes(image))
