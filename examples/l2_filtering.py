#!/usr/bin/env python3
"""Layer 2 filtering over a pcap capture (paper §3.1's deferred fields).

The paper lists the L2 header fields (MACs, EtherType, VLAN) and then
sets them aside "for simplicity"; this example uses the library's L2
extension end to end: build a 256-bit L2-L4 policy (management-VLAN
lockdown + vendor-OUI quarantine), write a synthetic capture to a real
``.pcap`` file, read it back, and filter frame by frame.

Run:  python examples/l2_filtering.py
"""

import random

from repro import FrozenMatcher, PacketHeader, decode_packet, encode_packet
from repro.acl.layer2 import LAYOUT_L2, EtherType, L2Rule, compile_l2_rules, format_mac, parse_mac
from repro.packet.pcap import LINKTYPE_ETHERNET, PcapPacket, read_pcap, write_pcap

MGMT_VLAN = 10
USER_VLAN = 100
ADMIN_MAC = parse_mac("02:aa:00:00:00:01")
#: a vendor OUI with a known-bad firmware (quarantine its devices)
BAD_OUI = parse_mac("02:bb:cc:00:00:00")
OUI_CARE = 0xFFFFFF000000
EXACT = (1 << 48) - 1

POLICY = [
    L2Rule(priority=40, value="admin-mgmt", src_mac=(ADMIN_MAC, EXACT), vlan=MGMT_VLAN),
    L2Rule(priority=30, value="mgmt-lockdown", vlan=MGMT_VLAN),          # deny class
    L2Rule(priority=20, value="quarantine", src_mac=(BAD_OUI, OUI_CARE)),  # deny class
    L2Rule(priority=10, value="user", vlan=USER_VLAN, ethertype=EtherType.IPV4),
]
PERMIT_CLASSES = {"admin-mgmt", "user"}


def synthesize_capture(path: str, rng: random.Random) -> list[tuple[int, int]]:
    """Write frames to a pcap; returns (vlan, src_mac) per packet.

    Note: the capture stores the IP packet; VLAN/MAC metadata travels
    alongside (a real deployment reads them from the 802.1Q header —
    the pcap here uses one synthetic MAC pair for simplicity).
    """
    frames = []
    metadata = []
    for i in range(400):
        roll = rng.random()
        if roll < 0.1:
            vlan, src = MGMT_VLAN, ADMIN_MAC
        elif roll < 0.25:
            vlan, src = MGMT_VLAN, 0x020000000000 | rng.getrandbits(24)  # intruder
        elif roll < 0.4:
            vlan, src = USER_VLAN, BAD_OUI | rng.getrandbits(24)         # quarantined
        else:
            vlan, src = USER_VLAN, 0x02DD00000000 | rng.getrandbits(24)  # normal user
        header = PacketHeader(
            0x0A000000 | rng.getrandbits(16), rng.getrandbits(32), 6,
            rng.randrange(1024, 65536), 443, 0x18,
        )
        frames.append(PcapPacket(float(i) / 1000, encode_packet(header)))
        metadata.append((vlan, src))
    write_pcap(path, frames, linktype=LINKTYPE_ETHERNET)
    return metadata


def main() -> None:
    rng = random.Random(21)
    entries = compile_l2_rules(POLICY)
    matcher = FrozenMatcher.build(entries, LAYOUT_L2.length, stride=8)
    print(f"L2 policy: {len(POLICY)} rules over {LAYOUT_L2.length}-bit keys "
          f"({matcher.memory_bytes()} array bytes)\n")

    metadata = synthesize_capture("/tmp/l2demo.pcap", rng)
    verdicts: dict[str, int] = {}
    for (vlan, src_mac), packet in zip(metadata, read_pcap("/tmp/l2demo.pcap")):
        header = decode_packet(packet.data)
        query = LAYOUT_L2.pack_query(
            dst_mac=0x020000000002,
            src_mac=src_mac,
            ethertype=EtherType.IPV4,
            vlan=vlan,
            pcp=0,
            src_ip=header.src_ip,
            dst_ip=header.dst_ip,
            proto=header.proto,
            src_port=header.src_port,
            dst_port=header.dst_port,
            tcp_flags=header.tcp_flags,
        )
        entry = matcher.lookup(query)
        klass = "no-match" if entry is None else entry.value
        verdicts[klass] = verdicts.get(klass, 0) + 1

    print(f"{'class':15} {'frames':>7}  verdict")
    for klass, count in sorted(verdicts.items(), key=lambda kv: -kv[1]):
        verdict = "PERMIT" if klass in PERMIT_CLASSES else "DENY"
        print(f"{klass:15} {count:>7}  {verdict}")
    print(f"\nadmin station: {format_mac(ADMIN_MAC)}; quarantined OUI: "
          f"{format_mac(BAD_OUI)[:8]}:*:*:*")


if __name__ == "__main__":
    main()
