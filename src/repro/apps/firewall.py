"""A stateless firewall engine with per-rule hit counters.

Wraps a compiled ACL and a Palmtrie matcher into the operational shape
of a router's packet filter: packets in, permit/deny verdicts out, and
the per-rule hit counters operators read back (``show access-lists``).
Supports live rule changes through the §3.6 update path (incremental
source-trie updates + recompilation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..acl.compiler import CompiledAcl, compile_acl
from ..acl.parser import parse_acl
from ..acl.rule import AclRule, Action
from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.table import build_matcher
from ..engine import ClassificationEngine
from ..packet.codec import PacketDecodeError, decode_packet
from ..packet.headers import PacketHeader

__all__ = ["Firewall", "RuleCounter"]


@dataclass
class RuleCounter:
    """Hit statistics of one ACL rule."""

    rule: AclRule
    packets: int = 0
    octets: int = 0


class Firewall:
    """Stateless packet filter over a compiled ACL."""

    def __init__(
        self,
        acl: CompiledAcl,
        config: Optional[EngineConfig] = None,
        *,
        default_action: Action = Action.DENY,
    ) -> None:
        config = config if config is not None else DEFAULT_CONFIG
        self.acl = acl
        self.config = config
        self.default_action = default_action
        self.engine = ClassificationEngine(
            build_matcher(config, acl.entries, acl.layout.length), config
        )
        self._counters = [RuleCounter(rule) for rule in acl.rules]
        self.default_hits = 0
        self.decode_errors = 0
        registry = self.engine.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Mirror the firewall's verdict counters at export time."""
        registry = self.engine.metrics
        assert registry is not None
        permits = denies = 0
        for counter in self._counters:
            if counter.rule.action is Action.PERMIT:
                permits += counter.packets
            else:
                denies += counter.packets
        if self.default_action is Action.PERMIT:
            permits += self.default_hits
        else:
            denies += self.default_hits
        help_text = "Firewall verdicts, by action (includes the implicit default)."
        registry.counter(
            "firewall_verdicts_total", help_text, labels={"action": "permit"}
        ).set_total(permits)
        registry.counter(
            "firewall_verdicts_total", help_text, labels={"action": "deny"}
        ).set_total(denies + self.decode_errors)
        registry.counter(
            "firewall_default_verdicts_total",
            "Packets that matched no rule and took the default action.",
        ).set_total(self.default_hits)
        registry.counter(
            "firewall_decode_errors_total",
            "Undecodable frames denied by check_bytes (fail closed).",
        ).set_total(self.decode_errors)
        registry.gauge(
            "firewall_rules", "Rules in the active policy."
        ).set(len(self._counters))

    @classmethod
    def from_text(cls, acl_text: str, **kwargs: object) -> "Firewall":
        """Build directly from configuration text (the Table 2 dialect)."""
        return cls(compile_acl(parse_acl(acl_text)), **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------

    def check(self, header: PacketHeader, length: int = 0) -> Action:
        """Apply the policy to one packet; updates hit counters."""
        entry = self.engine.lookup(header.to_query(self.acl.layout))
        if entry is None:
            self.default_hits += 1
            return self.default_action
        counter = self._counters[entry.value]
        counter.packets += 1
        counter.octets += length
        return counter.rule.action

    def check_batch(
        self, headers: Sequence[PacketHeader], lengths: Optional[Sequence[int]] = None
    ) -> list[Action]:
        """Apply the policy to a burst of packets (one batched lookup)."""
        layout = self.acl.layout
        entries = self.engine.lookup_batch([h.to_query(layout) for h in headers])
        if lengths is None:
            lengths = [0] * len(headers)
        actions: list[Action] = []
        for entry, length in zip(entries, lengths):
            if entry is None:
                self.default_hits += 1
                actions.append(self.default_action)
                continue
            counter = self._counters[entry.value]
            counter.packets += 1
            counter.octets += length
            actions.append(counter.rule.action)
        return actions

    def permits(self, header: PacketHeader, length: int = 0) -> bool:
        return self.check(header, length) is Action.PERMIT

    def check_bytes(self, frame: bytes) -> Action:
        """Decode a raw IPv4 packet and apply the policy.

        Undecodable frames are counted and denied (fail closed).
        """
        try:
            header = decode_packet(frame)
        except PacketDecodeError:
            self.decode_errors += 1
            return Action.DENY
        return self.check(header, length=len(frame))

    # ------------------------------------------------------------------

    def counters(self) -> Sequence[RuleCounter]:
        """Per-rule hit counters, in rule order."""
        return tuple(self._counters)

    def clear_counters(self) -> None:
        for counter in self._counters:
            counter.packets = 0
            counter.octets = 0
        self.default_hits = 0
        self.decode_errors = 0

    def show(self) -> str:
        """An operator-style counter listing."""
        lines = []
        for index, counter in enumerate(self._counters, start=1):
            lines.append(
                f"{index:4}  {counter.rule.to_line():60} "
                f"({counter.packets} matches, {counter.octets} bytes)"
            )
        lines.append(
            f"      implicit {self.default_action.value:6} "
            f"({self.default_hits} matches)"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def replace_policy(self, rules: Sequence[AclRule]) -> None:
        """Swap in a new rule list (counters reset, matcher rebuilt,
        flow cache flushed).

        The rebuilt matcher is swapped into the *existing* engine
        atomically, so the engine's cumulative lookup statistics and
        its ``policy_swaps`` record survive the swap; the per-rule and
        implicit-default counters (and decode error count) describe the
        old policy and are reset.
        """
        self.acl = compile_acl(list(rules), layout=self.acl.layout)
        self.engine.replace_matcher(
            build_matcher(
                self.engine.config, self.acl.entries, self.acl.layout.length
            )
        )
        self._counters = [RuleCounter(rule) for rule in self.acl.rules]
        self.default_hits = 0
        self.decode_errors = 0

    def rule_hits(self, index: int) -> int:
        return self._counters[index].packets

    def unused_rules(self) -> list[int]:
        """Indices of rules that have never matched (candidates for the
        analyzer's attention)."""
        return [i for i, c in enumerate(self._counters) if c.packets == 0]
