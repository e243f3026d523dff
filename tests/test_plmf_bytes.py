"""PLMF bytes pinned against fixed digests.

A frozen plane's PLMF image (docs/formats.md) is a wire format: shard
workers, checkpoints and ``.plmf`` files all carry it.  The identity
harnesses elsewhere compare two code paths within one run, so a change
that moved both paths alike would pass them; these digests were taken
from the compiler as it stood and must not move unless the format does.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core.frozen import freeze
from repro.core.multibit import MultibitPalmtrie
from repro.core.serialize import serialize_frozen
from repro.workloads.classbench import classbench_acl
from repro.workloads.traffic import zipf_trace

#: sha256 of ``serialize_frozen`` per (profile, stride, layout)
DIGESTS = {
    ("acl", 4, "build"): "0efd277ab412bfcd013c91b93005c0bdfd4df543a0bdbe384458b304cb6e526c",
    ("acl", 4, "hot"): "8877f81902f3d75ee05a185d6fd40669ab350cf797f833848251226062fe3ce5",
    ("acl", 8, "build"): "40a2a2c8fd01e12a4ffc6d9b598ec3ddab060d3cebc954e321707eed8ff8ed73",
    ("acl", 8, "hot"): "575c8f06728d72263087c9a5d22ab3901234cb429054110c7c2cc07ed0992e12",
    ("fw", 4, "build"): "6fcd01e3916b39791f256c44462e998ba66821e9645f47d0e021e2c73269a203",
    ("fw", 4, "hot"): "cc6495d1706446ef6612edcbda2c7fc92a6e9e38084e7f0edb21b5cb5607f8b9",
    ("fw", 8, "build"): "933695929b89c56fe74470ee11553a11f7ffd31a558690d27ad6d1b704a5b20f",
    ("fw", 8, "hot"): "2d177fefa61836632f45a5a33bb73106f332459ddc8fd6c34a73f852af0aae4f",
}


@lru_cache(maxsize=None)
def _policy(profile: str):
    return classbench_acl(profile, 500, seed=2020)


# The ``source`` id names what the plane is frozen from: a Palmtrie_k,
# the only source a FrozenMatcher takes.
@pytest.mark.parametrize("source", ["palmtrie"])
@pytest.mark.parametrize("layout", ["build", "hot"])
@pytest.mark.parametrize("stride", [4, 8])
@pytest.mark.parametrize("profile", ["acl", "fw"])
def test_plmf_digest(profile, stride, layout, source):
    acl = _policy(profile)
    trie = MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=stride)
    trace = zipf_trace(acl.entries, 2000, flows=256, seed=7) if layout == "hot" else None
    plane = freeze(trie, layout=layout, trace=trace)
    digest = hashlib.sha256(serialize_frozen(plane)).hexdigest()
    assert digest == DIGESTS[profile, stride, layout]
