"""The adaptive frozen-plane layer: the hot-first layout.

The load-bearing property is again differential: the hot-first layout
is a *representation* choice, so a plane built under either layout
must return verdict-identical answers to every other matcher kind over
the same table — including after a PLMF v2 save/load round trip and
inside a :class:`ShardedEngine`.  On top of that: corrupt extensions
and the retired stride-plan codes fail closed as :class:`FormatError`,
the ternary slot cache stays bounded, the config knobs validate, and
``report()`` surfaces the adaptive state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    KINDS,
    assert_same_result,
    build_kind,
    oracle_lookup,
    random_entries,
    table1_entries,
)

from repro import ClassificationEngine, EngineConfig, TernaryEntry, TernaryKey
from repro.core.frozen import FrozenMatcher, _ternary_slots
from repro.core.serialize import (
    _FROZEN_EXT,
    _FROZEN_HEADER,
    FormatError,
    deserialize_frozen,
    serialize_frozen,
)

KEY_LENGTH = 32


def _queries(count: int, seed: int = 0, bits: int = KEY_LENGTH) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(bits) for _ in range(count)]


def _unique_priorities(entries):
    """Re-rank so every entry wins outright — kinds may break priority
    ties differently, which is legal but not what these tests probe."""
    return [type(e)(e.key, e.value, i) for i, e in enumerate(entries)]


def _trace(entries, count: int, seed: int = 7) -> list[int]:
    """Half matching traffic (don't-care bits fuzzed), half random."""
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        if entries and i % 2:
            e = entries[rng.randrange(len(entries))]
            queries.append(e.key.data | (rng.getrandbits(e.key.length) & e.key.mask))
        else:
            queries.append(rng.getrandbits(KEY_LENGTH))
    return queries


# ----------------------------------------------------------------------
# Differential: either layout must be verdict-invariant
# ----------------------------------------------------------------------

def _variants(entries, trace):
    """Frozen planes of the same table under both node layouts."""
    return {
        "build": FrozenMatcher.build(entries, KEY_LENGTH, stride=4),
        "hot": FrozenMatcher.build(
            entries, KEY_LENGTH, stride=4, layout="hot", layout_trace=trace
        ),
    }


class TestLayoutPlanInvariance:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_against_every_matcher_kind(self, kind):
        entries = _unique_priorities(random_entries(60, KEY_LENGTH, seed=13))
        trace = _trace(entries, 200)
        reference = build_kind(kind, entries, KEY_LENGTH)
        for label, plane in _variants(entries, trace).items():
            for query in trace:
                assert_same_result(reference.lookup(query), plane.lookup(query))

    def test_batch_agrees_with_scalar(self):
        entries = _unique_priorities(random_entries(80, KEY_LENGTH, seed=5))
        trace = _trace(entries, 300)
        for plane in _variants(entries, trace).values():
            batch = plane.lookup_batch(trace)
            for query, got in zip(trace, batch):
                assert_same_result(plane.lookup(query), got)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 40),
        layout=st.sampled_from(["build", "hot"]),
        stride=st.sampled_from([1, 2, 4, 6, 8]),
    )
    def test_property_verdicts_match_oracle(self, seed, count, layout, stride):
        entries = _unique_priorities(random_entries(count, KEY_LENGTH, seed=seed))
        trace = _trace(entries, 60, seed=seed)
        plane = FrozenMatcher.build(
            entries,
            KEY_LENGTH,
            stride=stride,
            layout=layout,
            layout_trace=trace if layout == "hot" else None,
        )
        for query in trace:
            assert_same_result(oracle_lookup(entries, query), plane.lookup(query))


# ----------------------------------------------------------------------
# PLMF v2: permuted images round-trip; corruption and retired plan
# codes fail closed
# ----------------------------------------------------------------------

class TestPlmfV2:
    def _planes(self):
        entries = _unique_priorities(random_entries(70, KEY_LENGTH, seed=21))
        trace = _trace(entries, 200)
        return entries, trace, _variants(entries, trace)

    def test_roundtrip_all_variants(self):
        entries, trace, variants = self._planes()
        for label, plane in variants.items():
            restored = deserialize_frozen(serialize_frozen(plane))
            assert restored.layout_applied == plane.layout_applied, label
            assert restored.node_count() == plane.node_count(), label
            for query in trace:
                assert_same_result(plane.lookup(query), restored.lookup(query))
            batch = restored.lookup_batch(trace)
            for query, got in zip(trace, batch):
                assert_same_result(plane.lookup(query), got)

    def test_idempotent_bytes(self):
        _entries, _trace_, variants = self._planes()
        for label, plane in variants.items():
            data = serialize_frozen(plane)
            assert serialize_frozen(deserialize_frozen(data)) == data, label

    def test_v1_image_still_loads(self):
        """A v2 image of a plain plane minus the extension struct is
        exactly the v1 wire form; old images must keep loading."""
        entries = _unique_priorities(random_entries(40, KEY_LENGTH, seed=9))
        plane = FrozenMatcher.build(entries, KEY_LENGTH, stride=4)
        data = bytearray(serialize_frozen(plane))
        h = _FROZEN_HEADER.size
        v1 = data[:h] + data[h + _FROZEN_EXT.size :]
        v1[4:6] = (1).to_bytes(2, "little")
        restored = deserialize_frozen(bytes(v1))
        assert restored.layout_applied == "build"
        for query in _queries(200, seed=2):
            assert_same_result(plane.lookup(query), restored.lookup(query))

    def test_unknown_version_rejected(self):
        data = bytearray(serialize_frozen(FrozenMatcher.build(table1_entries(), 8)))
        data[4:6] = (3).to_bytes(2, "little")
        with pytest.raises(FormatError):
            deserialize_frozen(bytes(data))

    def test_corrupt_extension_fuzz(self):
        """Bit-flips anywhere in the extension must fail closed as
        FormatError, never load a lying image or crash with an internal
        exception type."""
        entries = _unique_priorities(random_entries(50, KEY_LENGTH, seed=33))
        plane = FrozenMatcher.build(entries, KEY_LENGTH, stride=4)
        data = serialize_frozen(plane)
        h = _FROZEN_HEADER.size
        rng = random.Random(99)
        region = range(h, h + _FROZEN_EXT.size)
        queries = _queries(50, seed=4)
        survived = 0
        for _ in range(120):
            mutated = bytearray(data)
            offset = rng.choice(region)
            mutated[offset] ^= 1 << rng.randrange(8)
            try:
                restored = deserialize_frozen(bytes(mutated))
            except FormatError:
                continue
            # A flip that still decodes (the layout byte turning 0 into
            # 1 only relabels the node order) must not change any verdict.
            survived += 1
            for query in queries:
                assert_same_result(plane.lookup(query), restored.lookup(query))
        assert survived < 120, "every corruption slipped through undetected"

    @pytest.mark.parametrize("plan_code", [1, 2])
    def test_retired_plan_codes_fail_closed(self, plan_code):
        """Plan codes 1/2 marked the retired per-subtrie stride plans;
        such an image must be refused with a recompile hint, not served."""
        plane = FrozenMatcher.build(table1_entries(), 8, stride=4)
        data = bytearray(serialize_frozen(plane))
        h = _FROZEN_HEADER.size
        blob = b"\x04\x04\x00\x00"  # a non-empty plan blob after the extension
        layout, _code, reserved, _length = _FROZEN_EXT.unpack_from(data, h)
        ext = _FROZEN_EXT.pack(layout, plan_code, reserved, len(blob))
        image = bytes(data[:h] + ext + blob + data[h + _FROZEN_EXT.size :])
        with pytest.raises(FormatError, match="--stride"):
            deserialize_frozen(image)

    def test_plan_bytes_without_plan_code_rejected(self):
        data = bytearray(serialize_frozen(FrozenMatcher.build(table1_entries(), 8)))
        h = _FROZEN_HEADER.size
        layout, code, reserved, _length = _FROZEN_EXT.unpack_from(data, h)
        data[h : h + _FROZEN_EXT.size] = _FROZEN_EXT.pack(layout, code, reserved, 4)
        with pytest.raises(FormatError, match="plan bytes"):
            deserialize_frozen(bytes(data))


# ----------------------------------------------------------------------
# The ternary slot cache stays bounded
# ----------------------------------------------------------------------

class TestSlotCache:
    def test_lru_bounded(self):
        _ternary_slots.cache_clear()
        for stride in range(1, 13):
            _ternary_slots(stride)
        info = _ternary_slots.cache_info()
        assert info.currsize <= info.maxsize == 8

    def test_cache_clear_resets(self):
        _ternary_slots(4)
        _ternary_slots.cache_clear()
        assert _ternary_slots.cache_info().currsize == 0


# ----------------------------------------------------------------------
# EngineConfig knobs and engine report()
# ----------------------------------------------------------------------

class TestConfigKnobs:
    def test_the_layout_is_not_an_engine_knob(self):
        """The hot layout is an offline compile option: the engine
        always freezes in build order."""
        with pytest.raises(TypeError):
            EngineConfig(frozen_layout="hot")

    def test_engine_report_surfaces_adaptive_state(self):
        entries = _unique_priorities(random_entries(30, KEY_LENGTH, seed=2))
        trace = _trace(entries, 100)
        config = EngineConfig()
        hot = FrozenMatcher.build(
            entries, KEY_LENGTH, stride=4, layout="hot", layout_trace=trace
        )
        engine = ClassificationEngine(hot, config)
        for query in _queries(50, seed=3):
            engine.lookup(query)
        report = engine.report()
        assert report["plane_layout"] == "hot"
        assert "frozen_layout" not in report and "stride_plan" not in report
        engine.insert(TernaryEntry(TernaryKey(0, (1 << KEY_LENGTH) - 1, KEY_LENGTH), "all", 0))
        engine.refresh()
        assert engine.report()["plane_layout"] == "build"
