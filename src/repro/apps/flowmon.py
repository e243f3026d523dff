"""Flow monitoring on top of Palmtrie classification (paper §6).

The paper's closing remark expects "various applications of the
Palmtrie, such as flow monitoring [8]" (RFC 7011, IPFIX).  This module
is that application: packets are classified by a ternary rule table
(which *class* of traffic is this?) and aggregated into per-flow
records (packets, bytes, timestamps, class), with IPFIX-style export of
expired flows.

The classifier is a Palmtrie+ served by a
:class:`~repro.engine.ClassificationEngine`, and the classes are
arbitrary rule values (service names, QoS classes, ACL verdicts...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.table import TernaryEntry, build_matcher
from ..engine import ClassificationEngine, ServedMatcher
from ..packet.codec import PacketDecodeError, decode_packet
from ..packet.headers import PacketHeader

__all__ = ["FlowKey", "FlowRecord", "FlowMonitor"]

#: a flow is the classic 5-tuple
FlowKey = tuple[int, int, int, int, int]


@dataclass
class FlowRecord:
    """One aggregated flow, IPFIX-flavoured."""

    key: FlowKey
    traffic_class: Any
    packets: int = 0
    octets: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0
    tcp_flags_or: int = 0

    def to_ipfix_dict(self) -> dict[str, Any]:
        """The record as IPFIX information elements (RFC 7011/7012 names)."""
        src_ip, dst_ip, proto, src_port, dst_port = self.key
        return {
            "sourceIPv4Address": src_ip,
            "destinationIPv4Address": dst_ip,
            "protocolIdentifier": proto,
            "sourceTransportPort": src_port,
            "destinationTransportPort": dst_port,
            "packetDeltaCount": self.packets,
            "octetDeltaCount": self.octets,
            "flowStartSeconds": self.first_seen,
            "flowEndSeconds": self.last_seen,
            "tcpControlBits": self.tcp_flags_or,
            "className": self.traffic_class,
        }


class FlowMonitor:
    """Classify packets into traffic classes and aggregate flows.

    ``idle_timeout`` controls expiry: a flow whose last packet is older
    than the timeout (relative to the newest observed timestamp) is
    exported by :meth:`expired` / :meth:`export_expired`.
    """

    def __init__(
        self,
        entries: Iterable[TernaryEntry],
        key_length: int = 128,
        matcher: Optional[ServedMatcher] = None,
        idle_timeout: float = 60.0,
        default_class: Any = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle timeout must be positive, got {idle_timeout}")
        config = config if config is not None else DEFAULT_CONFIG
        entries = list(entries)
        self.config = config
        self.engine = ClassificationEngine(
            matcher or build_matcher(config, entries, key_length), config
        )
        self.idle_timeout = idle_timeout
        self.default_class = default_class
        self._flows: dict[FlowKey, FlowRecord] = {}
        self._clock = 0.0
        self.packets_seen = 0
        self.octets_seen = 0
        self.flows_exported = 0
        self.decode_errors = 0
        registry = self.engine.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Mirror the monitor's aggregation counters at export time."""
        registry = self.engine.metrics
        assert registry is not None
        registry.counter(
            "flowmon_packets_total", "Packets accounted into flow records."
        ).set_total(self.packets_seen)
        registry.counter(
            "flowmon_octets_total", "Octets accounted into flow records."
        ).set_total(self.octets_seen)
        registry.counter(
            "flowmon_exported_flows_total", "Expired flows exported (IPFIX-style)."
        ).set_total(self.flows_exported)
        registry.counter(
            "flowmon_decode_errors_total",
            "Undecodable frames skipped by observe_bytes (not accounted).",
        ).set_total(self.decode_errors)
        registry.gauge(
            "flowmon_active_flows", "Flow records currently tracked."
        ).set(len(self._flows))

    def apply_updates(self, ops: Iterable[Any]):
        """Transactionally change the classification rules (one pass,
        one cache sweep — see :meth:`ClassificationEngine.apply_updates`).
        Existing flow records keep the class they were admitted under;
        only packets classified after the update see the new rules."""
        return self.engine.apply_updates(ops)

    def replace_rules(
        self,
        entries: Iterable[TernaryEntry],
        key_length: int = 128,
        matcher: Optional[ServedMatcher] = None,
    ) -> None:
        """Swap the whole classifier atomically (engine statistics and
        active flow records survive the swap)."""
        self.engine.replace_matcher(
            matcher or build_matcher(self.engine.config, entries, key_length)
        )

    # ------------------------------------------------------------------

    def observe(self, header: PacketHeader, length: int = 0, timestamp: float = 0.0) -> FlowRecord:
        """Account one packet; returns its (possibly new) flow record."""
        if length < 0:
            raise ValueError(f"packet length must be non-negative, got {length}")
        self._clock = max(self._clock, timestamp)
        self.packets_seen += 1
        self.octets_seen += length
        key: FlowKey = (
            header.src_ip,
            header.dst_ip,
            header.proto,
            header.src_port,
            header.dst_port,
        )
        record = self._flows.get(key)
        if record is None:
            entry = self.engine.lookup(header.to_query())
            traffic_class = self.default_class if entry is None else entry.value
            record = FlowRecord(
                key=key,
                traffic_class=traffic_class,
                first_seen=timestamp,
                last_seen=timestamp,
            )
            self._flows[key] = record
        record.packets += 1
        record.octets += length
        record.last_seen = max(record.last_seen, timestamp)
        record.tcp_flags_or |= header.tcp_flags
        return record

    def observe_bytes(self, frame: bytes, timestamp: float = 0.0) -> Optional[FlowRecord]:
        """Decode a raw IPv4 packet and account it.

        Undecodable frames are counted and skipped (returns None) — a
        monitor must not crash, and must not attribute garbage octets
        to any flow.
        """
        try:
            header = decode_packet(frame)
        except PacketDecodeError:
            self.decode_errors += 1
            return None
        return self.observe(header, length=len(frame), timestamp=timestamp)

    # ------------------------------------------------------------------

    def active_flows(self) -> int:
        return len(self._flows)

    def flows(self) -> Iterator[FlowRecord]:
        return iter(self._flows.values())

    def class_totals(self) -> dict[Any, tuple[int, int]]:
        """Per-class (packets, octets) aggregates over active flows."""
        totals: dict[Any, tuple[int, int]] = {}
        for record in self._flows.values():
            packets, octets = totals.get(record.traffic_class, (0, 0))
            totals[record.traffic_class] = (packets + record.packets, octets + record.octets)
        return totals

    def expired(self, now: Optional[float] = None) -> list[FlowRecord]:
        """Flows idle longer than the timeout, without removing them."""
        now = self._clock if now is None else now
        return [r for r in self._flows.values() if now - r.last_seen > self.idle_timeout]

    def export_expired(self, now: Optional[float] = None) -> list[dict[str, Any]]:
        """Remove and export expired flows as IPFIX-style dictionaries."""
        exported = []
        for record in self.expired(now):
            del self._flows[record.key]
            exported.append(record.to_ipfix_dict())
        self.flows_exported += len(exported)
        return exported
