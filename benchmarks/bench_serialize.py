"""Substrate benchmark — shipping compiled planes (PLMF).

A control plane compiles, a data plane loads: both directions must be
cheap relative to compilation itself, and the wire size must track the
plane's footprint (the codec writes the plane's arrays verbatim).
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH
from repro.core import FrozenMatcher
from repro.core.serialize import deserialize_frozen, serialize_frozen


@pytest.fixture(scope="module")
def compiled(campus):
    plane = FrozenMatcher.build(campus.entries, KEY_LENGTH, stride=8)
    return plane, serialize_frozen(plane)


def test_serialize(benchmark, compiled):
    plane, _blob = compiled
    blob = benchmark(serialize_frozen, plane)
    assert blob[:4] == b"PLMF"


def test_deserialize(benchmark, compiled):
    _plane, blob = compiled
    restored = benchmark(deserialize_frozen, blob)
    assert len(restored) > 0


def test_wire_size_tracks_memory_model(compiled):
    plane, blob = compiled
    assert 0.8 < len(blob) / plane.memory_bytes() < 1.25


def test_roundtrip_cheaper_than_build(compiled, campus):
    """Loading a shipped plane must beat compiling it from rules."""
    import time

    _plane, blob = compiled
    start = time.perf_counter()
    deserialize_frozen(blob)
    load_time = time.perf_counter() - start
    start = time.perf_counter()
    FrozenMatcher.build(campus.entries, KEY_LENGTH, stride=8)
    build_time = time.perf_counter() - start
    assert load_time < build_time


def main() -> None:
    from repro.bench.report import Table, format_seconds
    from repro.workloads.campus import campus_acl
    import time

    table = Table(
        "PLMF plane shipping: compile vs serialize vs load",
        ["dataset", "entries", "compile", "serialize", "wire KiB", "load"],
    )
    for q in (2, 4, 6):
        acl = campus_acl(q)
        start = time.perf_counter()
        plane = FrozenMatcher.build(acl.entries, 128, stride=8)
        compile_time = time.perf_counter() - start
        start = time.perf_counter()
        blob = serialize_frozen(plane)
        serialize_time = time.perf_counter() - start
        start = time.perf_counter()
        deserialize_frozen(blob)
        load_time = time.perf_counter() - start
        table.add_row(
            f"D_{q}",
            len(acl.entries),
            format_seconds(compile_time),
            format_seconds(serialize_time),
            f"{len(blob) / 1024:.1f}",
            format_seconds(load_time),
        )
    print(table.render())


if __name__ == "__main__":
    main()
