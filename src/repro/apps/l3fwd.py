"""An l3fwd-acl-style forwarding pipeline (paper §4 evaluation context).

The paper benchmarks against DPDK's ``examples/l3fwd-acl`` — a router
application that filters each packet through an ACL and, if permitted,
forwards it by longest-prefix-match on the destination address.  This
module is that application over this library's components:

* ACL filtering with a Palmtrie+ served by a
  :class:`~repro.engine.ClassificationEngine`;
* IPv4 routing with :class:`~repro.core.poptrie.Poptrie` (the paper's
  predecessor structure);
* per-port RX/TX with batch processing, drop/forward/error counters,
  and optional raw-bytes input through the packet codec.

It is deliberately stateless (the paper's scope): no connection
tracking, no ARP — next hops are port indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..acl.compiler import CompiledAcl
from ..acl.rule import Action
from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.poptrie import Poptrie
from ..core.table import build_matcher
from ..engine import ClassificationEngine, ServedMatcher
from ..packet.codec import PacketDecodeError, decode_packet
from ..packet.headers import PacketHeader

__all__ = ["ForwardingStats", "Verdict", "L3Forwarder"]


@dataclass(frozen=True)
class Verdict:
    """The pipeline's decision for one packet."""

    action: str  # "forward" | "acl-drop" | "no-route" | "error"
    out_port: Optional[int] = None
    rule_index: Optional[int] = None


@dataclass
class ForwardingStats:
    """Aggregate counters, l3fwd style."""

    received: int = 0
    forwarded: int = 0
    acl_dropped: int = 0
    no_route: int = 0
    decode_errors: int = 0
    per_port_tx: dict[int, int] = field(default_factory=dict)

    def record_tx(self, port: int) -> None:
        self.per_port_tx[port] = self.per_port_tx.get(port, 0) + 1


class L3Forwarder:
    """ACL filter + LPM forwarder over packet headers or raw bytes."""

    def __init__(
        self,
        acl: CompiledAcl,
        routes: Iterable[tuple[int, int, int]],
        matcher: Optional[ServedMatcher] = None,
        default_action: Action = Action.DENY,
        config: Optional[EngineConfig] = None,
    ) -> None:
        """``routes`` are ``(prefix_bits, prefix_len, out_port)`` over the
        destination address; ``acl`` decides permit/deny first."""
        config = config if config is not None else DEFAULT_CONFIG
        self.acl = acl
        self.config = config
        self.engine = ClassificationEngine(
            matcher or build_matcher(config, acl.entries, acl.layout.length),
            config,
        )
        self.rib = Poptrie.build(routes, key_length=32)
        self.default_action = default_action
        self.stats = ForwardingStats()
        registry = self.engine.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Mirror the pipeline's verdict counters at export time."""
        registry = self.engine.metrics
        assert registry is not None
        stats = self.stats
        help_text = "Pipeline outcomes, by verdict."
        for verdict, total in (
            ("forward", stats.forwarded),
            ("acl-drop", stats.acl_dropped),
            ("no-route", stats.no_route),
            ("error", stats.decode_errors),
        ):
            registry.counter(
                "l3fwd_packets_total", help_text, labels={"verdict": verdict}
            ).set_total(total)
        registry.counter(
            "l3fwd_received_total", "Packets entering the pipeline."
        ).set_total(stats.received)
        registry.counter(
            "l3fwd_decode_errors_total",
            "Undecodable frames dropped by process_bytes (fail closed).",
        ).set_total(stats.decode_errors)
        for port, sent in sorted(stats.per_port_tx.items()):
            registry.counter(
                "l3fwd_tx_total", "Packets transmitted, by output port.",
                labels={"port": str(port)},
            ).set_total(sent)

    # ------------------------------------------------------------------

    def process(self, header: PacketHeader) -> Verdict:
        """Run one packet through ACL then LPM."""
        self.stats.received += 1
        entry = self.engine.lookup(header.to_query(self.acl.layout))
        return self._route(header, entry)

    def _route(self, header: PacketHeader, entry) -> Verdict:
        """The LPM half of the pipeline, given the packet's ACL verdict."""
        if entry is None:
            action = self.default_action
            rule_index = None
        else:
            rule_index = entry.value
            action = self.acl.rules[rule_index].action
        if action is Action.DENY:
            self.stats.acl_dropped += 1
            return Verdict("acl-drop", rule_index=rule_index)
        out_port = self.rib.lookup(header.dst_ip)
        if out_port is None:
            self.stats.no_route += 1
            return Verdict("no-route", rule_index=rule_index)
        self.stats.forwarded += 1
        self.stats.record_tx(out_port)
        return Verdict("forward", out_port=out_port, rule_index=rule_index)

    def process_bytes(self, frame: bytes) -> Verdict:
        """Decode a raw IPv4 packet, then :meth:`process` it."""
        try:
            header = decode_packet(frame)
        except PacketDecodeError:
            self.stats.received += 1
            self.stats.decode_errors += 1
            return Verdict("error")
        return self.process(header)

    def process_batch(self, headers: Sequence[PacketHeader]) -> list[Verdict]:
        """Batch entry point (the l3fwd burst loop): one batched ACL
        lookup for the whole burst, then per-packet routing."""
        layout = self.acl.layout
        entries = self.engine.lookup_batch([h.to_query(layout) for h in headers])
        self.stats.received += len(headers)
        return [self._route(h, e) for h, e in zip(headers, entries)]

    # ------------------------------------------------------------------

    def replace_acl(
        self, acl: CompiledAcl, matcher: Optional[ServedMatcher] = None
    ) -> None:
        """Swap in a recompiled ACL atomically (new matcher, flushed
        flow cache) while the pipeline's forwarding statistics and the
        engine's cumulative lookup record carry over."""
        self.acl = acl
        self.engine.replace_matcher(
            matcher
            or build_matcher(self.engine.config, acl.entries, acl.layout.length)
        )

    def add_route(self, prefix_bits: int, prefix_len: int, out_port: int) -> None:
        self.rib.insert(prefix_bits, prefix_len, out_port)

    def withdraw_route(self, prefix_bits: int, prefix_len: int) -> bool:
        return self.rib.delete(prefix_bits, prefix_len)
