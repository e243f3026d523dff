"""Property-based tests (hypothesis) over the core invariants.

The central property is the paper's validation invariant: every
structure must agree with the brute-force oracle on every query.  The
supporting properties pin down the key algebra and the key-path
decomposition the multi-bit stride relies on.
"""

from hypothesis import given, settings, strategies as st

from helpers import assert_same_result, oracle_lookup
from repro.core.basic import BasicPalmtrie
from repro.core.multibit import EXACT, MultibitPalmtrie, key_path
from repro.core.frozen import FrozenMatcher
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey

KEY_LENGTH = 12

ternary_text = st.text(alphabet="01*", min_size=KEY_LENGTH, max_size=KEY_LENGTH)
ternary_keys = ternary_text.map(TernaryKey.from_string)
queries = st.integers(0, (1 << KEY_LENGTH) - 1)


def entries_strategy(max_size=40):
    return st.lists(
        st.tuples(ternary_keys, st.integers(0, 100)),
        min_size=1,
        max_size=max_size,
    ).map(
        lambda pairs: [
            TernaryEntry(key, i, priority) for i, (key, priority) in enumerate(pairs)
        ]
    )


# ----------------------------------------------------------------------
# Key algebra
# ----------------------------------------------------------------------

@given(text=ternary_text)
def test_key_string_roundtrip(text):
    assert TernaryKey.from_string(text).to_string() == text


@given(key=ternary_keys, query=queries)
def test_match_agrees_with_digitwise_definition(key, query):
    expected = all(
        key.bit(i) == "*" or key.bit(i) == str((query >> i) & 1)
        for i in range(KEY_LENGTH)
    )
    assert key.matches(query) == expected


@given(a=ternary_keys, b=ternary_keys, query=queries)
def test_covers_implies_match_subset(a, b, query):
    if a.covers(b) and b.matches(query):
        assert a.matches(query)


@given(a=ternary_keys, b=ternary_keys)
def test_overlap_iff_common_match_exists(a, b):
    if a.wildcard_count + b.wildcard_count <= 16:
        common = set(a.enumerate_matches()) & set(b.enumerate_matches())
        assert a.overlaps(b) == bool(common)


@given(key=ternary_keys)
def test_enumerate_matches_cardinality(key):
    matches = list(key.enumerate_matches())
    assert len(matches) == 1 << key.wildcard_count
    assert len(set(matches)) == len(matches)
    assert all(key.matches(m) for m in matches)


@given(a=ternary_keys, b=ternary_keys)
def test_first_diff_bit_symmetric_and_consistent(a, b):
    pos = a.first_diff_bit(b)
    assert pos == b.first_diff_bit(a)
    if pos == -1:
        assert a == b
    else:
        assert a.bit(pos) != b.bit(pos)
        for i in range(pos + 1, KEY_LENGTH):
            assert a.bit(i) == b.bit(i)


# ----------------------------------------------------------------------
# Key-path decomposition (§3.4)
# ----------------------------------------------------------------------

@given(key=ternary_keys, stride=st.integers(1, KEY_LENGTH))
def test_key_path_reconstructs_key(key, stride):
    """The steps encode the key exactly: rebuilding the digits from the
    path must reproduce the original key (padding below bit 0 aside)."""
    digits = ["?"] * KEY_LENGTH

    def set_digit(position, value):
        if 0 <= position < KEY_LENGTH:
            assert digits[position] == "?", "digit written twice"
            digits[position] = value

    for bit, kind, index in key_path(key, stride):
        if kind == EXACT:
            for offset in range(stride):
                set_digit(bit + offset, str((index >> offset) & 1))
        else:
            # invert: index = 2**plen + p - 1 with p in [0, 2**plen)
            plen = (index + 1).bit_length() - 1
            p = index + 1 - (1 << plen)
            star_position = bit + stride - 1 - plen
            set_digit(star_position, "*")
            for offset in range(plen):
                set_digit(
                    star_position + 1 + offset, str((p >> offset) & 1)
                )
    rebuilt = "".join(reversed(digits)).replace("?", "")
    assert len(rebuilt) == KEY_LENGTH
    assert rebuilt == key.to_string()


@given(key=ternary_keys, stride=st.integers(1, KEY_LENGTH))
def test_key_path_bit_bounds(key, stride):
    steps = key_path(key, stride)
    bits = [s[0] for s in steps]
    assert bits[0] == KEY_LENGTH - stride
    assert all(b > -stride for b in bits)
    assert bits == sorted(bits, reverse=True)


@given(a=ternary_keys, b=ternary_keys, stride=st.integers(1, KEY_LENGTH))
def test_equal_paths_imply_equal_keys(a, b, stride):
    if key_path(a, stride) == key_path(b, stride):
        assert a == b


# ----------------------------------------------------------------------
# Structure invariants
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(entries=entries_strategy(), query_list=st.lists(queries, max_size=30))
def test_basic_palmtrie_matches_oracle(entries, query_list):
    trie = BasicPalmtrie.build(entries, KEY_LENGTH)
    for query in query_list:
        assert_same_result(oracle_lookup(entries, query), trie.lookup(query))


@settings(max_examples=60, deadline=None)
@given(
    entries=entries_strategy(),
    query_list=st.lists(queries, max_size=30),
    stride=st.sampled_from([1, 2, 3, 5, 8]),
)
def test_multibit_and_plus_match_oracle(entries, query_list, stride):
    trie = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=stride)
    plus = FrozenMatcher.from_matcher(trie)  # the Palmtrie+ compiled from it
    for query in query_list:
        expected = oracle_lookup(entries, query)
        assert_same_result(expected, trie.lookup(query))
        assert_same_result(expected, plus.lookup(query))


@settings(max_examples=40, deadline=None)
@given(
    entries=entries_strategy(max_size=25),
    data=st.data(),
    stride=st.sampled_from([1, 3, 4]),
)
def test_insert_delete_roundtrip(entries, data, stride):
    trie = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=stride)
    keys = list({e.key for e in entries})
    to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
    for key in to_delete:
        assert trie.delete(key)
        assert not trie.delete(key)  # idempotent
    survivors = [e for e in entries if e.key not in set(to_delete)]
    assert len(trie) == len(survivors)
    for query in data.draw(st.lists(queries, max_size=20)):
        assert_same_result(oracle_lookup(survivors, query), trie.lookup(query))


@settings(max_examples=40, deadline=None)
@given(entries=entries_strategy(max_size=30), query_list=st.lists(queries, max_size=20))
def test_skipping_is_pure_optimization(entries, query_list):
    with_skip = FrozenMatcher.build(entries, KEY_LENGTH, stride=4, subtree_skipping=True)
    without = FrozenMatcher.build(entries, KEY_LENGTH, stride=4, subtree_skipping=False)
    for query in query_list:
        assert_same_result(without.lookup(query), with_skip.lookup(query))


@settings(max_examples=80, deadline=None)
@given(
    entries=entries_strategy(max_size=30),
    query_list=st.lists(queries, min_size=1, max_size=20),
    noise=st.lists(queries, min_size=1, max_size=8),
    # stride 8 on a 12-bit key leaves a final partial chunk (negative bit)
    stride=st.sampled_from([1, 4, 8]),
    skipping=st.booleans(),
)
def test_walk_masks_bound_decision_regions(entries, query_list, noise, stride, skipping):
    """Every query that agrees with a walked query on the bits its walk
    examined gets the same entry: ``(q & M, M)`` is a decision region."""
    plane = FrozenMatcher.build(
        entries, KEY_LENGTH, stride=stride, subtree_skipping=skipping
    )
    masks: list[int] = []
    winners = plane.lookup_batch(query_list, masks=masks)
    assert len(masks) == len(query_list)
    for query, mask, winner in zip(query_list, masks, winners):
        assert winner is plane.lookup(query)
        for bits in noise:
            assert plane.lookup((query & mask) | (bits & ~mask)) is winner


@settings(max_examples=40, deadline=None)
@given(entries=entries_strategy(max_size=30))
def test_insertion_order_irrelevant(entries):
    forward = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=3)
    backward = MultibitPalmtrie.build(list(reversed(entries)), KEY_LENGTH, stride=3)
    for query in range(0, 1 << KEY_LENGTH, 127):
        assert_same_result(forward.lookup(query), backward.lookup(query))


# ----------------------------------------------------------------------
# Serialization, LPM, address formats
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    entries=entries_strategy(max_size=25),
    stride=st.sampled_from([2, 4, 8]),
    query_list=st.lists(queries, max_size=15),
)
def test_serialize_roundtrip_property(entries, stride, query_list):
    from repro.core.frozen import FrozenMatcher
    from repro.core.serialize import deserialize_frozen, serialize_frozen

    original = FrozenMatcher.build(entries, KEY_LENGTH, stride=stride)
    data = serialize_frozen(original)
    restored = deserialize_frozen(data)
    assert serialize_frozen(restored) == data
    for query in query_list:
        assert_same_result(original.lookup(query), restored.lookup(query))


@settings(max_examples=40, deadline=None)
@given(
    routes=st.lists(
        st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 16)),
        max_size=40,
    ),
    query_list=st.lists(st.integers(0, 2**16 - 1), max_size=25),
    stride=st.sampled_from([1, 3, 6]),
)
def test_poptrie_matches_radix_property(routes, query_list, stride):
    from repro.core.poptrie import Poptrie
    from repro.core.radix import RadixTree

    radix = RadixTree(16)
    poptrie = Poptrie(16, stride=stride)
    for i, (bits, length) in enumerate(routes):
        bits &= (1 << length) - 1 if length else 0
        radix.insert(bits, length, i)
        poptrie.insert(bits, length, i)
    for query in query_list:
        assert poptrie.lookup(query) == radix.lookup_lpm(query)


@given(value=st.integers(0, 2**128 - 1))
def test_ipv6_format_parse_roundtrip(value):
    from repro.acl.ipv6 import format_ipv6, parse_ipv6

    assert parse_ipv6(format_ipv6(value)) == value


@given(value=st.integers(0, 2**48 - 1))
def test_mac_format_parse_roundtrip(value):
    from repro.acl.layer2 import format_mac, parse_mac

    assert parse_mac(format_mac(value)) == value


@given(value=st.integers(0, 2**32 - 1))
def test_ipv4_format_parse_roundtrip(value):
    from repro.acl.ip import format_ipv4, parse_ipv4

    assert parse_ipv4(format_ipv4(value)) == value
