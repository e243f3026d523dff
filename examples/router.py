#!/usr/bin/env python3
"""A software router: l3fwd-acl over this library (paper §4 context).

Reconstructs the application the paper benchmarks against — DPDK's
``l3fwd-acl`` — entirely from this library's pieces: Palmtrie+ (the
frozen plane its engine serves) for the ACL stage, Poptrie for the
routing stage, and the packet codec for raw frames.  Streams a traffic mix through it, prints per-port forwarding
counters, then performs a BGP-style route flap while traffic flows.

Run:  python examples/router.py
"""

import random
import time

from repro import PacketHeader, compile_acl, parse_acl
from repro.apps.l3fwd import L3Forwarder

ACL = """
# Edge filter: serve web + DNS into 10.0.0.0/8, drop the rest inbound,
# pass everything outbound.
permit tcp any 10.0.0.0/8 eq 80
permit tcp any 10.0.0.0/8 eq 443
permit udp any eq 53 10.0.0.0/8
permit tcp any 10.0.0.0/8 established
deny   ip  any 10.0.0.0/8
permit ip  10.0.0.0/8 any
deny   ip  any any
"""

ROUTES = [
    (0x0A0000, 24, 1),  # 10.0.0.0/24    -> port 1 (server rack)
    (0x0A, 8, 2),       # 10.0.0.0/8     -> port 2 (campus core)
    (0xC0A8 << 8, 24, 3),  # 192.168.0.0/24 -> port 3 (management)
    (0, 0, 0),          # default        -> port 0 (upstream)
]

PACKETS = 4000


def traffic(rng: random.Random):
    for _ in range(PACKETS):
        roll = rng.random()
        if roll < 0.4:  # inbound web requests
            yield PacketHeader(
                rng.getrandbits(32), 0x0A000000 | rng.getrandbits(8), 6,
                rng.randrange(1024, 65536), rng.choice((80, 443)), 0x02,
            )
        elif roll < 0.6:  # outbound from campus
            yield PacketHeader(
                0x0A000000 | rng.getrandbits(24), rng.getrandbits(32), 6,
                rng.randrange(1024, 65536), 443, 0x18,
            )
        elif roll < 0.75:  # DNS responses into campus
            yield PacketHeader(
                rng.getrandbits(32), 0x0A000000 | rng.getrandbits(24), 17,
                53, rng.randrange(1024, 65536),
            )
        else:  # inbound probes that the ACL should drop
            yield PacketHeader(
                rng.getrandbits(32), 0x0A000000 | rng.getrandbits(24), 6,
                rng.randrange(1024, 65536), rng.choice((22, 23, 5060, 3389)), 0x02,
            )


def main() -> None:
    rng = random.Random(7)
    acl = compile_acl(parse_acl(ACL))
    router = L3Forwarder(acl, ROUTES)
    print(f"ACL: {len(acl.rules)} rules ({len(acl.entries)} entries); "
          f"RIB: {len(router.rib)} routes\n")

    start = time.perf_counter()
    for header in traffic(rng):
        router.process(header)
    elapsed = time.perf_counter() - start
    stats = router.stats
    print(f"processed {stats.received} packets in {elapsed:.2f} s "
          f"({stats.received / elapsed:,.0f} pkt/s)")
    print(f"  forwarded  {stats.forwarded}")
    print(f"  acl-drop   {stats.acl_dropped}")
    print(f"  no-route   {stats.no_route}")
    print("  tx per port:", dict(sorted(stats.per_port_tx.items())))

    # Route flap: the /24 moves to port 4 and back.
    probe = PacketHeader(rng.getrandbits(32), 0x0A000007, 6, 40000, 80, 0x02)
    print(f"\nroute flap for 10.0.0.0/24:")
    print(f"  before: port {router.process(probe).out_port}")
    router.add_route(0x0A0000, 24, 4)
    print(f"  moved:  port {router.process(probe).out_port}")
    router.withdraw_route(0x0A0000, 24)
    router.add_route(0x0A0000, 24, 1)
    print(f"  back:   port {router.process(probe).out_port}")


if __name__ == "__main__":
    main()
