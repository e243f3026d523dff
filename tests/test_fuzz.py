"""Fuzz and failure-injection tests.

Every external input surface must fail *closed*: malformed ACL text,
packet bytes, serialized tables and trace files must raise their
documented exception types — never crash with something else, never
silently mis-decode.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.acl.parser import AclParseError, parse_acl, parse_rule
from repro.core.frozen import FrozenMatcher
from repro.core.serialize import FormatError, deserialize_frozen, serialize_frozen
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.packet.codec import PacketDecodeError, decode_packet, encode_packet
from repro.packet.headers import PacketHeader
from repro.workloads.io import TraceFormatError, load_trace, save_trace


# ----------------------------------------------------------------------
# ACL parser
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=120))
def test_parse_rule_never_crashes(text):
    try:
        rule = parse_rule(text)
    except AclParseError:
        return
    # Anything accepted must render back and re-parse identically.
    assert parse_rule(rule.to_line()) == rule


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(
        st.text(alphabet="permitdny icpu0123456789./aeqrg*#\n", max_size=60),
        max_size=6,
    )
)
def test_parse_acl_never_crashes(lines):
    try:
        parse_acl("\n".join(lines))
    except AclParseError:
        pass


def test_parser_rejects_garbage_corpus():
    corpus = [
        "permit",
        "permit tcp",
        "permit tcp 10.0.0.0/8",
        "permit tcp 999.0.0.0/8 any",
        "permit tcp 10.0.0.0/99 any",
        "permit tcp any any eq",
        "permit tcp any any range 1",
        "deny ip any any established",  # established needs tcp
        "\x00\x01\x02",
        "permit tcp any any " + "x" * 1000,
    ]
    for text in corpus:
        with pytest.raises(AclParseError):
            parse_rule(text)


# ----------------------------------------------------------------------
# Packet codec
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=80))
def test_decode_packet_never_crashes(data):
    try:
        header = decode_packet(data)
    except PacketDecodeError:
        return
    assert isinstance(header, PacketHeader)


@settings(max_examples=100, deadline=None)
@given(
    header=st.builds(
        PacketHeader,
        src_ip=st.integers(0, 2**32 - 1),
        dst_ip=st.integers(0, 2**32 - 1),
        proto=st.sampled_from([1, 6, 17, 47]),
        src_port=st.integers(0, 2**16 - 1),
        dst_port=st.integers(0, 2**16 - 1),
        tcp_flags=st.integers(0, 255),
    ),
    flip=st.integers(0, 10_000),
)
def test_codec_bit_flips_fail_closed(header, flip):
    wire = bytearray(encode_packet(header))
    position = flip % (len(wire) * 8)
    wire[position // 8] ^= 1 << (position % 8)
    try:
        decoded = decode_packet(bytes(wire))
    except PacketDecodeError:
        return
    # A surviving decode must still be a structurally valid header.
    assert 0 <= decoded.proto < 256


# ----------------------------------------------------------------------
# Serialized tables
# ----------------------------------------------------------------------

def _sample_blob():
    """A PLMF plane whose entry blob carries every value tag (None,
    bool, int, str), so flips land in the value decoder too."""
    values = [None, True, -7, "drop", "é", 2**33]
    entries = [
        TernaryEntry(TernaryKey.from_string(key), value, i)
        for i, (key, value) in enumerate(
            zip(["01**10**", "0*******", "11*1****", "1*******", "****0011", "00000000"], values)
        )
    ]
    return serialize_frozen(FrozenMatcher.build(entries, 8, stride=3))


def _plmf_prefix():
    """The header and v2 extension of a PLMF image (no sections)."""
    from repro.core.serialize import _FROZEN_EXT, _FROZEN_HEADER

    return _sample_blob()[: _FROZEN_HEADER.size + _FROZEN_EXT.size]


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200))
def test_deserialize_random_bytes_fails_closed(data):
    """Random section bytes behind a well-formed PLMF header reach the
    section checks rather than bouncing off the magic."""
    try:
        deserialize_frozen(_plmf_prefix() + data)
    except FormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(flip=st.integers(0, 10_000), data=st.data())
def test_deserialize_bit_flips_fail_closed(flip, data):
    blob = bytearray(_sample_blob())
    position = flip % (len(blob) * 8)
    blob[position // 8] ^= 1 << (position % 8)
    try:
        matcher = deserialize_frozen(bytes(blob))
    except FormatError:
        # FormatError only: the decode guard must wrap every low-level
        # decoding exception (struct.error, UnicodeDecodeError, ...).
        return
    # A blob that still parses must at least answer lookups sanely.
    matcher.lookup(data.draw(st.integers(0, 255)))


def _sample_frozen_blob():
    entries = [
        TernaryEntry(TernaryKey.from_string("01**10**"), i, i) for i in range(6)
    ]
    return serialize_frozen(FrozenMatcher.build(entries, 8, stride=3))


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200))
def test_deserialize_frozen_random_bytes_fails_closed(data):
    try:
        deserialize_frozen(data)
    except FormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(flip=st.integers(0, 10_000), data=st.data())
def test_deserialize_frozen_bit_flips_fail_closed(flip, data):
    blob = bytearray(_sample_frozen_blob())
    position = flip % (len(blob) * 8)
    blob[position // 8] ^= 1 << (position % 8)
    try:
        matcher = deserialize_frozen(bytes(blob))
    except FormatError:
        return
    matcher.lookup(data.draw(st.integers(0, 255)))


def test_deserialize_frozen_dispatch_cycle_fails_closed():
    """A dispatch word that points back *up* the trie passes every
    range check yet sends ``FrozenMatcher.lookup`` in circles forever.
    The decoder must reject the cycle (found as a multi-minute stall
    under the bit-flip fuzz above when a flip hit a dispatch target)."""
    from repro.core.serialize import _FROZEN_EXT, _FROZEN_HEADER

    blob = bytearray(_sample_frozen_blob())
    header = _FROZEN_HEADER.unpack_from(blob)
    first_leaf, leaf_count = header[5], header[6]
    assert first_leaf > 0, "sample plane must have an internal node"
    # dispatch starts right after the bit and maxp sections
    dispatch_off = (
        _FROZEN_HEADER.size
        + _FROZEN_EXT.size
        + 4 * first_leaf
        + 8 * (first_leaf + leaf_count)
    )
    # count = 1, target = node 0: the root dispatches back to itself
    blob[dispatch_off : dispatch_off + 4] = (1).to_bytes(4, "little")
    with pytest.raises(FormatError, match="cycle"):
        deserialize_frozen(bytes(blob))


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, 10_000))
def test_deserialize_frozen_truncation_fails_closed(cut):
    blob = _sample_frozen_blob()
    truncated = blob[: cut % len(blob)]
    with pytest.raises(FormatError):
        deserialize_frozen(truncated)


@settings(max_examples=60, deadline=None)
@given(lie=st.integers(0, 2**31 - 1), offset=st.integers(8, 40))
def test_deserialize_frozen_length_lies_fail_closed(lie, offset):
    """Headers whose length fields lie about the payload must not
    crash the decoder with IndexError/MemoryError — FormatError only."""
    blob = bytearray(_sample_frozen_blob())
    position = min(offset, len(blob) - 4)
    blob[position : position + 4] = lie.to_bytes(4, "little")
    try:
        deserialize_frozen(bytes(blob))
    except FormatError:
        pass


# ----------------------------------------------------------------------
# Policy checkpoints (resilience plane)
# ----------------------------------------------------------------------

def _sample_checkpoint_blob():
    from repro.resilience.checkpoint import serialize_checkpoint

    entries = [
        TernaryEntry(TernaryKey.from_string("01**10**"), i, i) for i in range(6)
    ]
    matcher = FrozenMatcher.build(entries, 8, stride=3)
    return serialize_checkpoint(matcher, epoch=2, generation=5)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=200))
def test_checkpoint_random_bytes_fail_closed(tmp_path_factory, data):
    from repro.resilience.checkpoint import read_checkpoint

    path = tmp_path_factory.mktemp("ckpt") / "c.plmc"
    path.write_bytes(data)
    with pytest.raises((FormatError, OSError)):
        read_checkpoint(str(path))


@settings(max_examples=100, deadline=None)
@given(flip=st.integers(0, 10_000))
def test_checkpoint_bit_flips_fail_closed(tmp_path_factory, flip):
    """Any single flipped bit must be caught (sha-256 envelope)."""
    from repro.resilience.checkpoint import read_checkpoint

    blob = bytearray(_sample_checkpoint_blob())
    position = flip % (len(blob) * 8)
    blob[position // 8] ^= 1 << (position % 8)
    path = tmp_path_factory.mktemp("ckpt") / "c.plmc"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_checkpoint(str(path))


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=100))
def test_load_trace_random_bytes_fail_closed(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "t.trace"
    path.write_bytes(data)
    try:
        load_trace(str(path))
    except TraceFormatError:
        pass


def test_trace_roundtrip_random(tmp_path):
    rng = random.Random(99)
    queries = [rng.getrandbits(128) for _ in range(200)]
    path = str(tmp_path / "t.trace")
    save_trace(queries, 128, path)
    assert load_trace(path) == (queries, 128)
