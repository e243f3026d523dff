"""Table 4 — ClassBench lookup performance.

Benchmarks EffiCuts-style, DPDK-style and Palmtrie+_8 lookups on each
seed-class rule set.  Run ``palmtrie-repro experiment table4`` for the
full dataset grid with modeled Mlps.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.baselines import DpdkStyleAcl, EffiCutsClassifier
from repro.baselines.dpdk_acl import BuildExplosionError
from repro.core import FrozenMatcher


@pytest.fixture(scope="module")
def table4_matchers(classbench):
    matchers = {
        "efficuts": EffiCutsClassifier.build(classbench.entries, KEY_LENGTH),
        "plus8": FrozenMatcher.build(classbench.entries, KEY_LENGTH, stride=8),
    }
    try:
        matchers["dpdk-acl"] = DpdkStyleAcl.build(
            classbench.entries, KEY_LENGTH, state_limit=100_000
        )
    except BuildExplosionError:
        matchers["dpdk-acl"] = None
    return matchers


@pytest.mark.parametrize("name", ["efficuts", "dpdk-acl", "plus8"])
def test_table4_lookup(benchmark, table4_matchers, classbench_trace, name):
    matcher = table4_matchers[name]
    if matcher is None:
        pytest.skip("dpdk-style build exploded on this rule set (paper: N/A)")
    benchmark(run_queries, matcher, classbench_trace)


def test_table4_palmtrie_beats_efficuts(table4_matchers, classbench_trace):
    """The Table 4 headline: Palmtrie+_8 does far less per-lookup work
    than EffiCuts-style classification."""
    efficuts = table4_matchers["efficuts"]
    plus = table4_matchers["plus8"]
    efficuts.stats.reset()
    plus.stats.reset()
    for query in classbench_trace:
        efficuts.profile_lookup(query)
        plus.profile_lookup(query)
    efficuts_work = efficuts.stats.per_lookup()
    plus_work = plus.stats.per_lookup()
    total_efficuts = efficuts_work["node_visits"] + efficuts_work["key_comparisons"]
    total_plus = plus_work["node_visits"] + plus_work["key_comparisons"]
    assert total_plus < total_efficuts


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("table4").render())


if __name__ == "__main__":
    main()
