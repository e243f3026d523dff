"""Typed engine configuration and the ``repro.serve`` facade.

Every app, benchmark and CLI path configures a
:class:`~repro.engine.ClassificationEngine` through one typed,
validated value object:

* :class:`EngineConfig` — a frozen dataclass holding every serving knob
  (and the Palmtrie_k ``stride`` the build paths need), validated at
  construction so a bad value fails where it was written, not three
  layers down;
* :func:`serve` — the one-call facade: ACL text (or parsed rules, or an
  already-compiled ACL) plus a config in, a serving
  :class:`~repro.engine.ClassificationEngine` out (with ``shards > 0``,
  one whose cache misses are resolved by a
  :class:`~repro.shard.ShardedEngine` pool of worker processes).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

__all__ = ["EngineConfig", "serve", "DEFAULT_CONFIG"]

@dataclass(frozen=True)
class EngineConfig:
    """Every serving knob of a classification engine, in one value.

    The config is immutable; derive variants with
    :meth:`replace` (a thin :func:`dataclasses.replace`).  ``stride`` is
    used by the *build* paths — :func:`serve`,
    :func:`~repro.core.table.build_matcher`, the CLI and the apps — and
    ignored by the :class:`~repro.engine.ClassificationEngine`
    constructor, which receives an already-built matcher.

    ``shards = 0`` (the default) serves in-process; ``shards = N``
    resolves the engine's cache misses in N worker processes, each
    serving its own copy of the frozen plane decoded from one PLMF
    image (:mod:`repro.shard`).  The engine then
    attaches a guard rail and sizes its one flow cache at
    ``cache_size × shards`` rows.

    No knob picks the served form either: every engine serves the
    frozen plane compiled from its Palmtrie_k, which answers only as
    the guard's middle rung and behind the plane's update overlay.

    No knob times an update's cache sweep either: every update leaves
    its changed keys pending, and the next lookup sweeps the keys of
    all updates since the last one in one pass.
    """

    #: Palmtrie_k stride the build paths build with
    stride: int = 8
    #: LRU flow-cache capacity in distinct queries (0 disables caching),
    #: per shard when ``shards > 0``
    cache_size: int = 4096
    #: always True (the engine always serves the frozen plane); deleted
    #: once the benchmark ledger stops passing it
    auto_freeze: bool = True
    #: True / a shared MetricsRegistry to instrument the engine
    metrics: Union[None, bool, Any] = None
    #: True / a configured GuardRail to enable guarded degradation
    resilience: Union[None, bool, Any] = None
    #: worker processes resolving cache misses (0 = in-process)
    shards: int = 0
    #: seconds a shard worker may take to answer one slice before it is
    #: declared dead and its slice degrades to the parent's plane
    shard_timeout: float = 30.0
    #: consecutive worker respawns per shard before the shard is
    #: abandoned and its slices are answered by the parent for good
    shard_max_restarts: int = 3
    #: where the engine's last-known-good PLMC checkpoint lives; set by
    #: the control plane so :meth:`~repro.engine.ClassificationEngine.
    #: mark_last_good` / ``restore_last_good`` have a default target
    last_good_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if not 1 <= self.stride <= 16:
            raise ValueError(f"stride must be in 1..16, got {self.stride}")
        if not self.auto_freeze:
            raise ValueError("auto_freeze=False is gone: the engine always serves the frozen plane")
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, got {self.shard_timeout}")
        if self.shard_max_restarts < 0:
            raise ValueError(
                f"shard_max_restarts must be >= 0, got {self.shard_max_restarts}"
            )

    # -- derivation ------------------------------------------------------

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (validated like a fresh one)."""
        return dataclasses.replace(self, **changes)


#: the all-defaults config (module-level so callers can compare against it)
DEFAULT_CONFIG = EngineConfig()


def serve(rules: Any, config: Optional[EngineConfig] = None) -> Any:
    """One-call facade: rules in, a serving engine out.

    ``rules`` may be ACL configuration text (the Table 2 dialect), a
    sequence of parsed :class:`~repro.acl.rule.AclRule` objects, an
    already-compiled :class:`~repro.acl.compiler.CompiledAcl`, or a
    built :class:`~repro.core.multibit.MultibitPalmtrie` /
    :class:`~repro.core.frozen.FrozenMatcher` to wrap as-is (any other
    matcher is a :class:`TypeError`).  The stride and every serving knob
    come from ``config``; the returned engine is a
    :class:`~repro.engine.ClassificationEngine` (close it, or use it as a
    context manager, to stop the shard workers of a ``config.shards > 0``
    engine).

    >>> engine = serve("permit ip any any", EngineConfig(cache_size=1024))
    """
    from .acl.compiler import CompiledAcl, compile_acl
    from .acl.parser import parse_acl
    from .core.table import build_matcher
    from .engine import ClassificationEngine

    config = config if config is not None else DEFAULT_CONFIG
    if isinstance(rules, str):
        compiled: Any = compile_acl(parse_acl(rules))
    elif isinstance(rules, CompiledAcl):
        compiled = rules
    elif isinstance(rules, Sequence):
        compiled = compile_acl(list(rules))
    elif callable(getattr(rules, "lookup", None)):
        # Already a matcher: the engine wraps it without rebuilding (and
        # rejects anything but a Palmtrie_k, a Palmtrie+ or a plane).
        return ClassificationEngine(rules, config)
    else:
        raise TypeError(
            "serve() takes ACL text, AclRule sequences, a CompiledAcl or a "
            f"matcher; got {type(rules).__name__}"
        )
    matcher = build_matcher(config, compiled.entries, compiled.layout.length)
    return ClassificationEngine(matcher, config)
