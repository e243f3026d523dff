"""Tenant manifest: the declarative input of the multi-tenant plane.

One document describes the fleet a :class:`~repro.tenant.TenantRouter`
serves — per tenant: the policy source, the engine shape, the
admission quotas and the rollout SLO guards::

    tenants:
      - name: alpha
        rules: policies/alpha.acl      # path to ACL text, or inline:
        # acl: |
        #   permit ip any any
        engine:                        # EngineConfig fields (optional)
          stride: 8
          cache_size: 4096
          shards: 0
        quotas:
          rate: 50000                  # packets/second (null = none)
          burst: 8192                  # bucket depth, >= 1 (default: max(rate, 1))
          memory_bytes: 8000000        # compiled-policy ceiling
        rollout:                       # SLOGuards fields (optional)
          max_shadow_mismatches: 0
          max_p99_ratio: 3.0
          max_p999_ratio: 3.0
          warmup_packets: 256
          observe_packets: 1024
        canary_pct: 10                 # default slice for `rollout`

YAML needs PyYAML; the same document as JSON always works (the loader
sniffs by extension, then by content).  Unknown keys are an error —
a typo'd quota must not silently become "no quota".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..config import EngineConfig
from .rollout import SLOGuards, _canary_buckets

__all__ = ["TenantSpec", "load_manifest", "parse_manifest"]

_TENANT_KEYS = {"name", "rules", "acl", "engine", "quotas", "rollout", "canary_pct"}
_QUOTA_KEYS = {"rate", "burst", "memory_bytes"}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declaration, validated and typed."""

    name: str
    #: path to an ACL policy file (Table 2 dialect), exclusive with acl
    rules: Optional[str] = None
    #: inline ACL text, exclusive with rules
    acl: Optional[str] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    rate: Optional[float] = None
    burst: Optional[float] = None
    memory_bytes: Optional[int] = None
    guards: SLOGuards = field(default_factory=SLOGuards)
    canary_pct: float = 10.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"tenant name must be a non-empty string, got {self.name!r}")
        if "/" in self.name or self.name != self.name.strip():
            raise ValueError(f"tenant name {self.name!r} must be a plain token")
        if (self.rules is None) == (self.acl is None):
            raise ValueError(
                f"tenant {self.name!r}: exactly one of 'rules' (path) or "
                "'acl' (inline text) is required"
            )
        if not 0.0 < self.canary_pct <= 100.0:
            raise ValueError(
                f"tenant {self.name!r}: canary_pct must be in (0, 100], "
                f"got {self.canary_pct}"
            )
        if _canary_buckets(self.canary_pct) < 1:
            raise ValueError(
                f"tenant {self.name!r}: canary_pct {self.canary_pct} maps "
                "to an empty flow slice — the rollout would never conclude"
            )

    def policy_text(self) -> str:
        """The tenant's ACL source text (reads ``rules`` when a path)."""
        if self.acl is not None:
            return self.acl
        with open(self.rules, "r", encoding="utf-8") as reader:
            return reader.read()


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def parse_manifest(document: Any) -> list[TenantSpec]:
    """Validate a decoded manifest document into :class:`TenantSpec`s.

    Accepts ``{"tenants": [...]}`` or a bare list of tenant mappings.
    Every violation raises ``ValueError`` naming the offending tenant
    and key — the control plane fails loudly at load time, not at the
    first packet.
    """
    if isinstance(document, dict):
        unknown = set(document) - {"tenants", "schema"}
        if unknown:
            raise ValueError(f"unknown manifest keys {sorted(unknown)}")
        entries = document.get("tenants")
    else:
        entries = document
    if not isinstance(entries, list) or not entries:
        raise ValueError("manifest must declare a non-empty 'tenants' list")
    specs: list[TenantSpec] = []
    seen: set[str] = set()
    for raw in entries:
        raw = _require_mapping(raw, "each tenant")
        name = raw.get("name", "?")
        unknown = set(raw) - _TENANT_KEYS
        if unknown:
            raise ValueError(f"tenant {name!r}: unknown keys {sorted(unknown)}")
        engine_doc = _require_mapping(raw.get("engine", {}), f"tenant {name!r} engine")
        try:
            engine = EngineConfig(**engine_doc)
        except TypeError as exc:
            raise ValueError(f"tenant {name!r}: bad engine config ({exc})") from None
        quota_doc = _require_mapping(raw.get("quotas", {}), f"tenant {name!r} quotas")
        unknown = set(quota_doc) - _QUOTA_KEYS
        if unknown:
            raise ValueError(f"tenant {name!r}: unknown quota keys {sorted(unknown)}")
        rollout_doc = _require_mapping(raw.get("rollout", {}), f"tenant {name!r} rollout")
        try:
            guards = SLOGuards(**rollout_doc)
        except TypeError as exc:
            raise ValueError(f"tenant {name!r}: bad rollout guards ({exc})") from None
        spec = TenantSpec(
            name=str(raw.get("name", "")),
            rules=raw.get("rules"),
            acl=raw.get("acl"),
            engine=engine,
            rate=quota_doc.get("rate"),
            burst=quota_doc.get("burst"),
            memory_bytes=quota_doc.get("memory_bytes"),
            guards=guards,
            canary_pct=float(raw.get("canary_pct", 10.0)),
        )
        if spec.name in seen:
            raise ValueError(f"duplicate tenant name {spec.name!r}")
        seen.add(spec.name)
        specs.append(spec)
    return specs


def load_manifest(path: str) -> list[TenantSpec]:
    """Read and validate a manifest file (YAML or JSON).

    ``.json`` parses as JSON; anything else tries YAML first (when
    PyYAML is importable) and falls back to JSON, so a ``.yaml``
    manifest written as JSON — they overlap — still loads on a box
    without PyYAML.
    """
    with open(path, "r", encoding="utf-8") as reader:
        text = reader.read()
    document: Any = None
    if path.endswith(".json"):
        document = json.loads(text)
    else:
        try:
            import yaml  # type: ignore[import-untyped]
        except ImportError:
            yaml = None
        if yaml is not None:
            document = yaml.safe_load(text)
        else:
            try:
                document = json.loads(text)
            except ValueError:
                raise ValueError(
                    f"{path}: YAML manifest but PyYAML is not installed; "
                    "re-encode the manifest as JSON"
                ) from None
    return parse_manifest(document)
