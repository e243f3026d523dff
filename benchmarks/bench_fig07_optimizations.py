"""Figure 7 — effect of the §3.5 practical optimizations.

Benchmarks the lookup batch of the basic Palmtrie, Palmtrie_1 and
Palmtrie+_8 with and without low-priority subtree skipping on campus
uniform traffic.  Run ``palmtrie-repro experiment fig7`` for the full
D_q series.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.core import BasicPalmtrie, FrozenMatcher, MultibitPalmtrie


@pytest.fixture(scope="module")
def variants(campus):
    entries = campus.entries
    return {
        "basic": BasicPalmtrie.build(entries, KEY_LENGTH),
        "palmtrie1-noskip": MultibitPalmtrie.build(
            entries, KEY_LENGTH, stride=1, subtree_skipping=False
        ),
        "palmtrie1": MultibitPalmtrie.build(entries, KEY_LENGTH, stride=1),
        "plus8-noskip": FrozenMatcher.build(
            entries, KEY_LENGTH, stride=8, subtree_skipping=False
        ),
        "plus8": FrozenMatcher.build(entries, KEY_LENGTH, stride=8),
    }


@pytest.mark.parametrize(
    "variant", ["basic", "palmtrie1-noskip", "palmtrie1", "plus8-noskip", "plus8"]
)
def test_fig07_lookup(benchmark, variants, campus_uniform, variant):
    matcher = variants[variant]
    hits = benchmark(run_queries, matcher, campus_uniform)
    assert hits == len(campus_uniform)  # campus ACL ends in a deny-all per prefix


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("fig7").render())


if __name__ == "__main__":
    main()
