#!/usr/bin/env python3
"""Dynamic rule updates, BGP Flowspec style (paper §1, §4.4).

BGP Flowspec advertises filtering rules to routers at runtime, so the
matcher must absorb a stream of rule insertions and withdrawals.  The
paper's answer: Palmtrie_k supports microsecond-order incremental
updates, and Palmtrie+_k recompiles from it when a batch settles.

This example replays a burst of Flowspec-like drop rules (one per
attacking source prefix) into a live Palmtrie_8, measures per-update
latency, then compiles a Palmtrie+_8 snapshot (the frozen plane) and
verifies both agree.

Run:  python examples/flowspec_updates.py
"""

import random
import statistics
import time

from repro import FrozenMatcher, MultibitPalmtrie, TernaryEntry
from repro.acl.compiler import compile_rule
from repro.acl.parser import parse_rule
from repro.bench.memory import palmtrie_plus_bytes
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import uniform_traffic

BURST = 400


def flowspec_burst(rng: random.Random, base_priority: int) -> list[TernaryEntry]:
    """Drop rules for random attacker /24s hitting our DNS service."""
    entries = []
    for i in range(BURST):
        attacker = rng.getrandbits(24) << 8
        rule = parse_rule(
            f"deny udp {attacker >> 24}.{(attacker >> 16) & 255}.{(attacker >> 8) & 255}.0/24"
            f" any eq 53"
        )
        entries.extend(compile_rule(rule, value=f"fs-{i}", priority=base_priority + i))
    return entries


def main() -> None:
    rng = random.Random(2020)
    acl = campus_acl(6)
    print(f"baseline policy: campus D_6 ({len(acl.entries)} entries)")

    live = MultibitPalmtrie.build(acl.entries, key_length=128, stride=8)

    # 1. Incremental updates into the live Palmtrie_8.
    burst = flowspec_burst(rng, base_priority=10_000)
    latencies = []
    for entry in burst:
        start = time.perf_counter()
        live.insert(entry)
        latencies.append(time.perf_counter() - start)
    print(f"\ninserted {len(burst)} Flowspec entries into Palmtrie_8:")
    print(f"  mean   {statistics.fmean(latencies) * 1e6:8.1f} us/update")
    print(f"  median {statistics.median(latencies) * 1e6:8.1f} us/update")
    print(f"  p99    {sorted(latencies)[int(0.99 * len(latencies))] * 1e6:8.1f} us/update")

    # 2. Compile the settled table into Palmtrie+_8 (the part the paper
    #    parenthesizes in Table 5).
    start = time.perf_counter()
    snapshot = FrozenMatcher.from_matcher(live)
    compile_time = time.perf_counter() - start
    print(f"\ncompiled Palmtrie+_8 snapshot in {compile_time * 1e3:.1f} ms "
          f"({palmtrie_plus_bytes(snapshot) / 2**20:.2f} modeled MiB)")

    # 3. Both structures must agree; the new drop rules must win.
    queries = uniform_traffic(list(acl.entries) + burst, 500, seed=5)
    mismatches = 0
    dropped = 0
    for query in queries:
        a = live.lookup(query)
        b = snapshot.lookup(query)
        if (a and a.priority) != (b and b.priority):
            mismatches += 1
        if b is not None and isinstance(b.value, str) and b.value.startswith("fs-"):
            dropped += 1
    print(f"\nverification: {mismatches} mismatches over {len(queries)} queries; "
          f"{dropped} queries hit the new Flowspec drops")

    # 4. Withdraw the burst (route-flap style) and verify cleanup.
    for entry in burst:
        live.delete(entry.key)
    snapshot = FrozenMatcher.from_matcher(live)
    still = sum(
        1
        for query in queries
        if (e := snapshot.lookup(query)) is not None
        and isinstance(e.value, str)
        and e.value.startswith("fs-")
    )
    print(f"after withdrawal: {still} queries still hit Flowspec rules (expect 0)")


if __name__ == "__main__":
    main()
