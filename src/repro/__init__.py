"""Palmtrie reproduction: ternary key matching for IP packet filtering.

Reproduces "Palmtrie: A Ternary Key Matching Algorithm for IP Packet
Filtering Rules" (Hirochika Asai, CoNEXT 2020).  The top-level package
re-exports the pieces most users need; see ``DESIGN.md`` for the full
system inventory.

Quickstart::

    from repro import FrozenMatcher, parse_acl, compile_acl, PacketHeader

    acl = compile_acl(parse_acl(\"\"\"
        permit ip 192.0.2.0/24 any
        deny ip any 192.0.2.0/24
    \"\"\"))
    # the Palmtrie+_8 (paper §3.6): a Palmtrie_8 compiled into flat arrays
    matcher = FrozenMatcher.build(acl.entries, key_length=128, stride=8)
    packet = PacketHeader(src_ip=0xC0000201, dst_ip=0x08080808, proto=6)
    entry = matcher.lookup(packet.to_query())
    print(acl.rules[entry.value].action)   # Action.PERMIT
"""

from .acl import (
    AclRule,
    Action,
    CompiledAcl,
    LAYOUT_V4,
    LAYOUT_V6,
    Protocol,
    compile_acl,
    parse_acl,
)
from .apps import FlowMonitor, FlowRecord
from .baselines import (
    DpdkStyleAcl,
    EffiCutsClassifier,
    SortedListMatcher,
    TcamModel,
    VectorizedMatcher,
)
from .core import (
    AdaptiveMatcher,
    BasicPalmtrie,
    FrozenMatcher,
    LookupStats,
    MultibitPalmtrie,
    PatriciaTrie,
    RadixTree,
    TernaryEntry,
    TernaryKey,
    TernaryMatcher,
    build_matcher,
    freeze,
    load_frozen,
    save_frozen,
)
from .config import DEFAULT_CONFIG, EngineConfig, serve
from .engine import ClassificationEngine, FlowCache, UpdateReport
from .packet import PacketHeader, decode_packet, encode_packet
from .resilience import (
    CircuitBreaker,
    FaultInjector,
    GuardRail,
    InjectedFault,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from .shard import ShardedEngine

__version__ = "1.0.0"

__all__ = [
    "AclRule",
    "Action",
    "AdaptiveMatcher",
    "BasicPalmtrie",
    "CircuitBreaker",
    "ClassificationEngine",
    "CompiledAcl",
    "DEFAULT_CONFIG",
    "DpdkStyleAcl",
    "EngineConfig",
    "EffiCutsClassifier",
    "FaultInjector",
    "FlowCache",
    "FlowMonitor",
    "FlowRecord",
    "FrozenMatcher",
    "GuardRail",
    "InjectedFault",
    "LAYOUT_V4",
    "LAYOUT_V6",
    "LookupStats",
    "MultibitPalmtrie",
    "PacketHeader",
    "PatriciaTrie",
    "Protocol",
    "RadixTree",
    "SortedListMatcher",
    "TcamModel",
    "TernaryEntry",
    "TernaryKey",
    "TernaryMatcher",
    "UpdateReport",
    "VectorizedMatcher",
    "build_matcher",
    "compile_acl",
    "decode_packet",
    "encode_packet",
    "freeze",
    "load_frozen",
    "parse_acl",
    "read_checkpoint",
    "recover",
    "save_frozen",
    "serve",
    "ShardedEngine",
    "write_checkpoint",
    "__version__",
]
