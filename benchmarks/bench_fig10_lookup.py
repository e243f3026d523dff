"""Figure 10 — lookup rate vs the sorted list and DPDK-ACL.

Benchmarks every matcher on both campus traffic patterns.  Run
``palmtrie-repro experiment fig10`` for the full D_q series with the
cache-model Mlps columns.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.baselines import DpdkStyleAcl, SortedListMatcher
from repro.core import FrozenMatcher, MultibitPalmtrie

MATCHER_NAMES = ["sorted", "dpdk-acl", "palmtrie6", "palmtrie8", "plus6", "plus8"]


@pytest.fixture(scope="module")
def matchers(campus):
    entries = campus.entries
    return {
        "sorted": SortedListMatcher.build(entries, KEY_LENGTH),
        "dpdk-acl": DpdkStyleAcl.build(entries, KEY_LENGTH),
        "palmtrie6": MultibitPalmtrie.build(entries, KEY_LENGTH, stride=6),
        "palmtrie8": MultibitPalmtrie.build(entries, KEY_LENGTH, stride=8),
        "plus6": FrozenMatcher.build(entries, KEY_LENGTH, stride=6),
        "plus8": FrozenMatcher.build(entries, KEY_LENGTH, stride=8),
    }


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_fig10_uniform(benchmark, matchers, campus_uniform, name):
    hits = benchmark(run_queries, matchers[name], campus_uniform)
    assert hits == len(campus_uniform)


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_fig10_scan(benchmark, matchers, campus_scan, name):
    hits = benchmark(run_queries, matchers[name], campus_scan)
    assert hits == len(campus_scan)  # scan SYNs match each prefix's deny rule


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("fig10").render())


if __name__ == "__main__":
    main()
