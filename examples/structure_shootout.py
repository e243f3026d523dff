#!/usr/bin/env python3
"""Pick the right structure for your ACL size (paper §4.3 / §5).

Builds every matcher in the library over growing campus ACLs and
reports build time, modeled memory, measured lookup rate and per-lookup
work — the practical decision the paper distills into: sorted list for
tiny ACLs, Palmtrie_6 for medium, Palmtrie+_8 for large.

Run:  python examples/structure_shootout.py
"""

import time

from repro import (
    BasicPalmtrie,
    DpdkStyleAcl,
    FrozenMatcher,
    MultibitPalmtrie,
    SortedListMatcher,
)
from repro.bench.harness import measure_lookup_rate
from repro.bench.memory import modeled_bytes
from repro.bench.report import Table, format_rate, format_seconds
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import uniform_traffic

CONFIGS = [
    ("sorted-list", lambda e: SortedListMatcher.build(e, 128)),
    ("basic", lambda e: BasicPalmtrie.build(e, 128)),
    ("palmtrie6", lambda e: MultibitPalmtrie.build(e, 128, stride=6)),
    ("plus8", lambda e: FrozenMatcher.build(e, 128, stride=8)),
    ("dpdk-style", lambda e: DpdkStyleAcl.build(e, 128, state_limit=50_000)),
]


def main() -> None:
    for q in (0, 3, 6):
        acl = campus_acl(q)
        entries = list(acl.entries)
        queries = uniform_traffic(entries, 300)
        table = Table(
            f"Campus D_{q}: {len(entries)} ternary entries",
            ["structure", "build", "memory KiB", "lookup rate", "visits/lookup"],
        )
        for name, builder in CONFIGS:
            start = time.perf_counter()
            try:
                matcher = builder(entries)
            except Exception as exc:  # e.g. BuildExplosionError
                table.add_row(name, f"N/A ({type(exc).__name__})", "-", "-", "-")
                continue
            build_time = time.perf_counter() - start
            rate = measure_lookup_rate(matcher, queries, min_duration=0.05, samples=2)
            table.add_row(
                name,
                format_seconds(build_time),
                f"{modeled_bytes(matcher) / 1024:.1f}",
                format_rate(rate.lookups_per_second),
                f"{rate.node_visits_per_lookup:.1f}",
            )
        print(table.render())
        print()
    print("Paper's guidance: sorted list < ~100 entries, Palmtrie_6 for medium,")
    print("Palmtrie+_8 for large ACLs — compare the columns above.")


if __name__ == "__main__":
    main()
