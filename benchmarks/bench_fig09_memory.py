"""Figure 9 — memory utilization.

The figure itself is a property of the built structures
(``memory_bytes`` models the C layout of a Palmtrie_k;
``palmtrie_plus_bytes`` models the Palmtrie+ a frozen plane compiles);
the timed part here is the Palmtrie+ compilation (the freeze) that buys
the memory reduction.  Run
``palmtrie-repro experiment fig9`` for the full D_q series.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH
from repro.bench.memory import palmtrie_plus_bytes
from repro.core import FrozenMatcher, MultibitPalmtrie


@pytest.fixture(scope="module")
def palmtrie8(campus):
    return MultibitPalmtrie.build(campus.entries, KEY_LENGTH, stride=8)


def test_fig09_compile_cost(benchmark, palmtrie8):
    """The Palmtrie_k -> Palmtrie+_k compilation step (§3.6)."""
    plus = benchmark(FrozenMatcher.from_matcher, palmtrie8)
    assert len(plus) == len(palmtrie8)


def test_fig09_memory_ordering(campus):
    """The Fig. 9 claim: plus8 memory ~ palmtrie1 << palmtrie8."""
    entries = campus.entries
    p1 = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=1).memory_bytes()
    p8 = MultibitPalmtrie.build(entries, KEY_LENGTH, stride=8).memory_bytes()
    plus8 = palmtrie_plus_bytes(FrozenMatcher.build(entries, KEY_LENGTH, stride=8))
    assert p8 > 10 * p1, "Palmtrie_8 should need an order of magnitude more memory"
    assert plus8 < 4 * p1, "Palmtrie+_8 should be back at the Palmtrie_1 level"


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("fig9").render())


if __name__ == "__main__":
    main()
