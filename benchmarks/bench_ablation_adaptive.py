"""Ablation — adaptive structure switching (paper §5).

The paper suggests switching between the sorted list and Palmtrie
variants by ACL size.  These benchmarks quantify the two sides of that
trade at the small/large ends, and the cost of a growth path that
crosses both switch thresholds.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.baselines import SortedListMatcher
from repro.core import AdaptiveMatcher, FrozenMatcher
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import uniform_traffic


@pytest.fixture(scope="module")
def tiny():
    acl = campus_acl(0)  # 18 entries: sorted-list territory
    return list(acl.entries), uniform_traffic(acl.entries, 200)


def test_adaptive_lookup_tiny(benchmark, tiny):
    entries, queries = tiny
    matcher = AdaptiveMatcher.build(entries, KEY_LENGTH)
    assert matcher.active_structure == "sorted-list"
    benchmark(run_queries, matcher, queries)


def test_plus8_lookup_tiny(benchmark, tiny):
    """The structure adaptive mode avoids on tiny ACLs."""
    entries, queries = tiny
    matcher = FrozenMatcher.build(entries, KEY_LENGTH, stride=8)
    benchmark(run_queries, matcher, queries)


def test_adaptive_lookup_large(benchmark, campus, campus_uniform):
    matcher = AdaptiveMatcher.build(
        campus.entries, KEY_LENGTH, small_threshold=50, large_threshold=200
    )
    assert matcher.band == "large"
    benchmark(run_queries, matcher, campus_uniform)


def test_sorted_lookup_large(benchmark, campus, campus_uniform):
    """The structure adaptive mode escapes on large ACLs."""
    matcher = SortedListMatcher.build(campus.entries, KEY_LENGTH)
    benchmark(run_queries, matcher, campus_uniform)


def test_adaptive_growth_crossing_thresholds(benchmark, campus):
    """Insert-driven growth across both switch points (incl. rebuilds)."""
    entries = list(campus.entries)

    def grow():
        matcher = AdaptiveMatcher(
            KEY_LENGTH, small_threshold=50, large_threshold=200, hysteresis=5
        )
        for entry in entries:
            matcher.insert(entry)
        return matcher

    matcher = benchmark(grow)
    assert matcher.band == "large"


def main() -> None:
    from repro.bench.harness import measure_lookup_rate
    from repro.bench.report import Table, format_rate

    table = Table(
        "Adaptive switching ablation (uniform traffic)",
        ["dataset", "entries", "adaptive (structure)", "sorted", "plus8"],
    )
    for q in (0, 2, 4, 6):
        acl = campus_acl(q)
        queries = uniform_traffic(acl.entries, 300)
        adaptive = AdaptiveMatcher.build(acl.entries, 128)
        sorted_list = SortedListMatcher.build(acl.entries, 128)
        plus = FrozenMatcher.build(acl.entries, 128, stride=8)
        cells = [
            f"{format_rate(measure_lookup_rate(m, queries, 0.05, 2).lookups_per_second)}"
            for m in (adaptive, sorted_list, plus)
        ]
        cells[0] += f" ({adaptive.active_structure})"
        table.add_row(f"D_{q}", len(acl.entries), *cells)
    print(table.render())


if __name__ == "__main__":
    main()
