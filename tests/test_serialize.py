"""Unit tests for the PLMF plane codec (repro.core.serialize)."""

import pytest

from helpers import assert_same_result, random_entries, table1_entries
from repro import ClassificationEngine, EngineConfig
from repro.core.frozen import FrozenMatcher
from repro.core.serialize import (
    FormatError,
    deserialize_frozen,
    load_frozen,
    save_frozen,
    serialize_frozen,
)
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey


def _roundtrip(plane: FrozenMatcher) -> FrozenMatcher:
    return deserialize_frozen(serialize_frozen(plane))


class TestRoundtrip:
    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_lookup_equivalence(self, stride):
        original = FrozenMatcher.build(table1_entries(), 8, stride=stride)
        restored = _roundtrip(original)
        for query in range(256):
            assert_same_result(original.lookup(query), restored.lookup(query))

    def test_random_tables(self):
        entries = random_entries(120, 16, seed=71)
        original = FrozenMatcher.build(entries, 16, stride=4)
        restored = _roundtrip(original)
        for query in range(0, 1 << 16, 131):
            assert_same_result(original.lookup(query), restored.lookup(query))

    def test_idempotent_bytes(self):
        data = serialize_frozen(FrozenMatcher.build(table1_entries(), 8, stride=3))
        assert serialize_frozen(deserialize_frozen(data)) == data

    def test_geometry_preserved(self):
        original = FrozenMatcher.build(
            table1_entries(), 8, stride=3, subtree_skipping=False
        )
        restored = _roundtrip(original)
        assert restored.stride == 3
        assert restored.key_length == 8
        assert restored.subtree_skipping is False
        assert restored.node_count() == original.node_count()

    def test_incremental_update_after_load(self):
        """A loaded plane takes updates once an engine serves it: the
        engine rebuilds the plane's Palmtrie_k and applies them there."""
        entries = table1_entries()
        restored = _roundtrip(FrozenMatcher.build(entries[:-1], 8, stride=3))
        assert restored.lookup(0b10000000) is None
        engine = ClassificationEngine(restored, EngineConfig(cache_size=0))
        engine.apply_updates([("insert", entries[-1])])
        assert engine.lookup(0b10000000).value == 9

    def test_value_types(self):
        entries = [
            TernaryEntry(TernaryKey.from_string("00**"), None, 1),
            TernaryEntry(TernaryKey.from_string("01**"), -12345, 2),
            TernaryEntry(TernaryKey.from_string("10**"), "drop", 3),
            TernaryEntry(TernaryKey.from_string("11**"), True, 4),
            TernaryEntry(TernaryKey.from_string("111*"), False, 5),
            TernaryEntry(TernaryKey.from_string("0011"), 2**40 + 7, 6),
        ]
        restored = _roundtrip(FrozenMatcher.build(entries, 4, stride=2))
        assert restored.lookup(0b0000).value is None
        assert restored.lookup(0b0100).value == -12345
        assert restored.lookup(0b1000).value == "drop"
        assert restored.lookup(0b1101).value is True
        assert restored.lookup(0b1110).value is False
        assert restored.lookup(0b0011).value == 2**40 + 7

    def test_unsupported_value_rejected(self):
        entries = [TernaryEntry(TernaryKey.wildcard(8), object(), 1)]
        plane = FrozenMatcher.build(entries, 8, stride=3)
        with pytest.raises(FormatError, match="unsupported entry value"):
            serialize_frozen(plane)

    def test_empty_table(self):
        restored = _roundtrip(FrozenMatcher(8, stride=3))
        assert restored.lookup(0) is None
        assert len(restored) == 0

    def test_file_io(self, tmp_path):
        original = FrozenMatcher.build(table1_entries(), 8, stride=3)
        path = str(tmp_path / "table.plmf")
        written = save_frozen(original, path)
        assert written == (tmp_path / "table.plmf").stat().st_size
        restored = load_frozen(path)
        assert restored.lookup(0b01110101).value == 5
        with open(path, "rb") as handle:
            assert load_frozen(handle).lookup(0b01110101).value == 5


class TestCorruption:
    @pytest.fixture()
    def blob(self):
        return serialize_frozen(FrozenMatcher.build(table1_entries(), 8, stride=3))

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            deserialize_frozen(b"PLMF")

    def test_bad_magic(self, blob):
        with pytest.raises(FormatError, match="magic"):
            deserialize_frozen(b"XXXX" + blob[4:])

    def test_bad_version(self, blob):
        corrupted = bytearray(blob)
        corrupted[4] = 0xFF
        with pytest.raises(FormatError, match="version"):
            deserialize_frozen(bytes(corrupted))

    def test_truncated_body(self, blob):
        with pytest.raises(FormatError, match="size mismatch"):
            deserialize_frozen(blob[:-3])

    def test_trailing_garbage(self, blob):
        with pytest.raises(FormatError, match="size mismatch"):
            deserialize_frozen(blob + b"\x00")


class TestSizeModel:
    def test_serialized_size_tracks_memory_model(self):
        """The wire format is the plane's arrays verbatim; sizes must
        agree to within the header/value-blob overhead."""
        entries = random_entries(200, 16, seed=72)
        plane = FrozenMatcher.build(entries, 16, stride=4)
        wire = len(serialize_frozen(plane))
        modeled = plane.memory_bytes()
        assert 0.8 < wire / modeled < 1.25
