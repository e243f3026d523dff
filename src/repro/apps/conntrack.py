"""Stateful firewall: connection tracking over the stateless core.

The paper's opening distinguishes stateful firewalls ("manage the
states of individual flows and apply an action to each packet acting
on the managed state") from the stateless ACLs it accelerates (§1).
This module implements the stateful layer the way real systems do:

* a *flow table* (exact-match hash on the bidirectional 5-tuple) fast-
  paths packets of established connections;
* flow table misses fall through to the stateless ACL (a Palmtrie+
  behind a :class:`~repro.engine.ClassificationEngine`) — a permit
  *creates* the flow state, so return traffic no longer needs an
  ``established`` rule;
* a small TCP lifecycle (NEW → ESTABLISHED → CLOSING) plus idle
  timeouts keep the table bounded; UDP/ICMP flows are purely
  timeout-driven.

This shows the complementary deployment model to the paper's
``established`` trick: the paper encodes "stateful-ish" semantics in
ternary TCP-flag entries; conntrack replaces that with real state while
still leaning on Palmtrie for the policy decision on every new flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..acl.compiler import CompiledAcl
from ..acl.rule import Action
from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.table import build_matcher
from ..engine import ClassificationEngine, ServedMatcher
from ..packet.codec import PacketDecodeError, decode_packet
from ..packet.headers import PROTO_TCP, PacketHeader

__all__ = ["ConnState", "Connection", "StatefulFirewall"]

_TCP_SYN = 0x02
_TCP_ACK = 0x10
_TCP_FIN = 0x01
_TCP_RST = 0x04


class ConnState(enum.Enum):
    NEW = "new"
    ESTABLISHED = "established"
    CLOSING = "closing"


@dataclass
class Connection:
    """Tracked state of one bidirectional flow."""

    state: ConnState
    last_seen: float
    packets: int = 0
    #: the ACL rule index that admitted the flow (None = default action)
    rule_index: Optional[int] = None


def _flow_key(header: PacketHeader) -> tuple:
    """Direction-normalized 5-tuple (both directions share state)."""
    forward = (header.src_ip, header.src_port)
    backward = (header.dst_ip, header.dst_port)
    if forward <= backward:
        return (*forward, *backward, header.proto)
    return (*backward, *forward, header.proto)


class StatefulFirewall:
    """Connection-tracking firewall over a stateless ACL matcher."""

    def __init__(
        self,
        acl: CompiledAcl,
        matcher: Optional[ServedMatcher] = None,
        idle_timeout: float = 300.0,
        closing_timeout: float = 10.0,
        max_connections: int = 1_000_000,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if idle_timeout <= 0 or closing_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if max_connections <= 0:
            raise ValueError("max_connections must be positive")
        config = config if config is not None else DEFAULT_CONFIG
        self.acl = acl
        self.config = config
        self.engine = ClassificationEngine(
            matcher or build_matcher(config, acl.entries, acl.layout.length),
            config,
        )
        self.idle_timeout = idle_timeout
        self.closing_timeout = closing_timeout
        self.max_connections = max_connections
        self._table: dict[tuple, Connection] = {}
        self.fast_path_hits = 0
        self.acl_evaluations = 0
        self.table_full_drops = 0
        self.decode_errors = 0
        registry = self.engine.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Mirror the connection-tracking counters at export time."""
        registry = self.engine.metrics
        assert registry is not None
        registry.counter(
            "conntrack_fast_path_hits_total",
            "Packets permitted by the flow table without an ACL walk.",
        ).set_total(self.fast_path_hits)
        registry.counter(
            "conntrack_acl_evaluations_total",
            "Flow-table misses that consulted the stateless ACL.",
        ).set_total(self.acl_evaluations)
        registry.counter(
            "conntrack_table_full_drops_total",
            "Packets denied because the flow table was full (fail closed).",
        ).set_total(self.table_full_drops)
        registry.counter(
            "conntrack_decode_errors_total",
            "Undecodable frames denied by check_bytes (fail closed).",
        ).set_total(self.decode_errors)
        registry.gauge(
            "conntrack_connections", "Flows currently tracked."
        ).set(len(self._table))

    def replace_acl(
        self, acl: CompiledAcl, matcher: Optional[ServedMatcher] = None
    ) -> None:
        """Swap in a recompiled ACL atomically.  Established connections
        keep their state (the real-system behaviour: policy changes
        gate *new* flows); only flow-table misses consult the new ACL."""
        self.acl = acl
        self.engine.replace_matcher(
            matcher
            or build_matcher(self.engine.config, acl.entries, acl.layout.length)
        )

    # ------------------------------------------------------------------

    def check(self, header: PacketHeader, timestamp: float = 0.0) -> Action:
        """Apply stateful policy to one packet."""
        key = _flow_key(header)
        connection = self._table.get(key)
        if connection is not None:
            if timestamp - connection.last_seen > self._timeout_for(connection):
                del self._table[key]
                connection = None
        if connection is not None:
            self.fast_path_hits += 1
            connection.last_seen = max(connection.last_seen, timestamp)
            connection.packets += 1
            self._advance_tcp(connection, header)
            return Action.PERMIT

        # Flow table miss: consult the stateless policy.
        self.acl_evaluations += 1
        entry = self.engine.lookup(header.to_query(self.acl.layout))
        if entry is None:
            return Action.DENY
        rule_index = entry.value
        if self.acl.rules[rule_index].action is Action.DENY:
            return Action.DENY
        if len(self._table) >= self.max_connections:
            self.expire(timestamp)
            if len(self._table) >= self.max_connections:
                self.table_full_drops += 1
                return Action.DENY  # fail closed under table pressure
        state = ConnState.NEW
        if header.proto != PROTO_TCP:
            state = ConnState.ESTABLISHED  # no handshake to observe
        self._table[key] = Connection(
            state=state, last_seen=timestamp, packets=1, rule_index=rule_index
        )
        return Action.PERMIT

    def check_bytes(self, frame: bytes, timestamp: float = 0.0) -> Action:
        """Decode a raw IPv4 packet and apply stateful policy.

        Undecodable frames are counted and denied (fail closed) — the
        same contract as ``Firewall.check_bytes``; a malformed frame
        never reaches the flow table or the ACL.
        """
        try:
            header = decode_packet(frame)
        except PacketDecodeError:
            self.decode_errors += 1
            return Action.DENY
        return self.check(header, timestamp=timestamp)

    def _advance_tcp(self, connection: Connection, header: PacketHeader) -> None:
        if header.proto != PROTO_TCP:
            return
        flags = header.tcp_flags
        if flags & _TCP_RST:
            connection.state = ConnState.CLOSING
            return
        if connection.state is ConnState.NEW and flags & _TCP_ACK:
            connection.state = ConnState.ESTABLISHED
        elif connection.state is ConnState.ESTABLISHED and flags & _TCP_FIN:
            connection.state = ConnState.CLOSING

    def _timeout_for(self, connection: Connection) -> float:
        return (
            self.closing_timeout
            if connection.state is ConnState.CLOSING
            else self.idle_timeout
        )

    # ------------------------------------------------------------------

    def expire(self, now: float) -> int:
        """Drop timed-out flows; returns the number removed."""
        stale = [
            key
            for key, connection in self._table.items()
            if now - connection.last_seen > self._timeout_for(connection)
        ]
        for key in stale:
            del self._table[key]
        return len(stale)

    def connection_count(self) -> int:
        return len(self._table)

    def connection_for(self, header: PacketHeader) -> Optional[Connection]:
        return self._table.get(_flow_key(header))
