#!/usr/bin/env python3
"""Quickstart: compile an ACL and match packets against it.

Builds the paper's Table 2 example ACL (a small stateless firewall
policy for 192.0.2.0/24), compiles it into Palmtrie+ (the frozen plane,
``FrozenMatcher``) and classifies a handful of packets.

Run:  python examples/quickstart.py
"""

from repro import FrozenMatcher, PacketHeader, compile_acl, parse_acl
from repro.acl.ip import parse_ipv4
from repro.acl.layout import TCP_ACK, TCP_SYN

ACL_TEXT = """
# Table 2 of the paper: protect the internal network 192.0.2.0/24.
permit ip 192.0.2.0/24 0.0.0.0/0
permit icmp 0.0.0.0/0 192.0.2.0/24
permit udp 0.0.0.0/0 eq 53 192.0.2.0/24
permit tcp 0.0.0.0/0 192.0.2.0/24 established
deny ip 0.0.0.0/0 192.0.2.0/24
"""


def main() -> None:
    # 1. Parse the configuration dialect and expand it into ternary
    #    matching entries (the established rule becomes two entries).
    acl = compile_acl(parse_acl(ACL_TEXT))
    print(f"ACL: {len(acl.rules)} rules -> {len(acl.entries)} ternary entries")

    # 2. Build the lookup structure.  Palmtrie+ with an 8-bit stride is
    #    the paper's recommended configuration for non-tiny ACLs: a
    #    Palmtrie_8 compiled into flat arrays.
    matcher = FrozenMatcher.build(acl.entries, key_length=128, stride=8)
    print(f"structure: {matcher.name}, stride {matcher.stride}, "
          f"{matcher.memory_bytes()} array bytes\n")

    # 3. Classify packets.
    inside = parse_ipv4("192.0.2.55")
    outside = parse_ipv4("203.0.113.9")
    packets = [
        ("outbound web request", PacketHeader(inside, outside, 6, 40001, 443, TCP_SYN)),
        ("inbound SYN (blocked)", PacketHeader(outside, inside, 6, 40001, 443, TCP_SYN)),
        ("inbound ACK (established)", PacketHeader(outside, inside, 6, 443, 40001, TCP_ACK)),
        ("inbound DNS response", PacketHeader(outside, inside, 17, 53, 5353)),
        ("inbound UDP probe (blocked)", PacketHeader(outside, inside, 17, 9999, 5353)),
        ("inbound ICMP echo", PacketHeader(outside, inside, 1)),
    ]
    for label, packet in packets:
        entry = matcher.lookup(packet.to_query())
        if entry is None:
            verdict = "DENY (implicit)"
        else:
            rule = acl.rules[entry.value]
            verdict = f"{rule.action.value.upper():6} (rule {entry.value + 1}: {rule.to_line()})"
        print(f"{label:28} -> {verdict}")


if __name__ == "__main__":
    main()
