"""Context benchmark — the TCAM trade the paper motivates (§2).

A TCAM answers any ternary lookup in one cycle but pays in energy,
area and fixed capacity; software ternary matching (this paper) pays
in cycles but rides commodity DRAM.  This benchmark puts numbers next
to that sentence: functional parity (the TCAM model is another oracle),
single-visit lookup work, and the modeled energy/area bill as the
table grows.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.baselines.tcam import TcamModel
from repro.bench.memory import palmtrie_plus_bytes
from repro.core import FrozenMatcher


@pytest.fixture(scope="module")
def pair(campus, campus_uniform):
    tcam = TcamModel.build(campus.entries, KEY_LENGTH)
    plus = FrozenMatcher.build(campus.entries, KEY_LENGTH, stride=8)
    return tcam, plus, campus_uniform


def test_tcam_lookup(benchmark, pair):
    tcam, _plus, queries = pair
    benchmark(run_queries, tcam, queries)


def test_tcam_is_single_visit(pair):
    tcam, plus, queries = pair
    tcam.stats.reset()
    plus.stats.reset()
    for query in queries:
        tcam.profile_lookup(query)
        plus.profile_lookup(query)
    assert tcam.stats.per_lookup()["node_visits"] == 1.0
    assert plus.stats.per_lookup()["node_visits"] > 1.0


def test_tcam_energy_grows_with_capacity(campus):
    small = TcamModel.build(campus.entries, KEY_LENGTH, capacity=4096).cost()
    large = TcamModel.build(campus.entries, KEY_LENGTH, capacity=65536).cost()
    assert large.search_energy_nj > 10 * small.search_energy_nj
    assert large.area_mm2 > 10 * small.area_mm2


def main() -> None:
    from repro.bench.report import Table
    from repro.workloads.campus import campus_acl

    table = Table(
        "TCAM context (§2): one-cycle lookups vs energy/area/capacity",
        ["capacity", "search nJ", "area mm^2", "W @ 100 Mlps"],
    )
    for capacity in (4096, 16384, 65536, 262144, 1048576):
        cost = TcamModel(128, capacity=capacity).cost()
        table.add_row(
            f"{capacity // 1024}K",
            f"{cost.search_energy_nj:,.0f}",
            f"{cost.area_mm2:,.1f}",
            f"{cost.watts_at_100mlps:,.1f}",
        )
    print(table.render())
    acl = campus_acl(4)
    plus = FrozenMatcher.build(acl.entries, 128, stride=8)
    print(f"\nPalmtrie+_8 on the same D_4 policy: {palmtrie_plus_bytes(plus) / 1024:.0f} KiB "
          f"of ordinary DRAM, no fixed capacity.")


if __name__ == "__main__":
    main()
