"""Ternary matching table abstractions.

The paper's problem statement (§3.1): a table of entries, each holding a
ternary *key*, a *value* and a *priority*; a lookup returns the value of
the highest-priority entry matching a binary query key.  Higher numbers
mean higher priority.

Every matcher in this library (the Palmtrie family and all baselines)
implements :class:`TernaryMatcher`, so they are interchangeable in the
benchmarks and differential tests.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Type, Union

from .ternary import TernaryKey

__all__ = [
    "TernaryEntry",
    "LookupStats",
    "TernaryMatcher",
    "build_matcher",
    "matcher_kinds",
]


@dataclass(frozen=True, slots=True)
class TernaryEntry:
    """One row of a ternary matching table (paper Table 1)."""

    key: TernaryKey
    value: Any
    priority: int

    def matches(self, query: int) -> bool:
        return self.key.matches(query)


@dataclass
class LookupStats:
    """Per-structure work counters.

    Wall-clock lookup rates in pure Python are dominated by interpreter
    overhead, so the harness also reports deterministic work counts: the
    number of structure nodes visited and full key comparisons performed.
    Counters accumulate across lookups; call :meth:`reset` between runs.

    The cache counters are written by :class:`repro.engine.FlowCache` /
    :class:`repro.engine.ClassificationEngine`; they stay zero for bare
    matchers.
    """

    node_visits: int = 0
    key_comparisons: int = 0
    lookups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def reset(self) -> None:
        self.node_visits = 0
        self.key_comparisons = 0
        self.lookups = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def per_lookup(self) -> dict[str, float]:
        n = max(self.lookups, 1)
        return {
            "node_visits": self.node_visits / n,
            "key_comparisons": self.key_comparisons / n,
        }

    @property
    def cache_hit_ratio(self) -> float:
        """Flow-cache hit ratio (0.0 when no cached lookups were served)."""
        served = self.cache_hits + self.cache_misses
        return self.cache_hits / served if served else 0.0


class TernaryMatcher(abc.ABC):
    """Interface shared by every ternary matching structure in this repo."""

    #: human-readable algorithm name, overridden by subclasses
    name = "abstract"
    #: True when the constructor takes a ``stride`` shape knob.
    #: :meth:`EngineConfig.build_kwargs` forwards ``config.stride`` only
    #: to classes that declare it — replaces the signature sniffing the
    #: build paths used to do.
    accepts_stride = False
    #: True when the constructor takes the frozen-plane ``layout`` /
    #: ``plan`` knobs (the adaptive layer of PR 7).
    accepts_layout = False

    def __init__(self, key_length: int) -> None:
        if key_length <= 0:
            raise ValueError(f"key length must be positive, got {key_length}")
        self.key_length = key_length
        self.stats = LookupStats()
        #: monotonically increasing content version.  Every successful
        #: mutation (``insert``, ``delete``, ``remove_entry``, bulk
        #: updates) bumps it, so layers stacked above a matcher — the
        #: :class:`repro.engine.ClassificationEngine` flow cache and
        #: frozen plane — can detect staleness with one integer compare
        #: even when callers mutate the matcher directly.  Recompiles
        #: (``compile``/refreeze) do not bump it: the logical content is
        #: unchanged.
        self.generation = 0

    # -- construction ---------------------------------------------------

    @abc.abstractmethod
    def insert(self, entry: TernaryEntry) -> None:
        """Insert one entry.

        Structures without incremental update support (Palmtrie+, the
        DPDK- and EffiCuts-style baselines) raise
        :class:`NotImplementedError`; build them with :meth:`build`.
        """

    def delete(self, key: TernaryKey) -> bool:
        """Remove the entry with exactly this ternary key.

        Returns True if an entry was removed.  Optional; incremental
        structures override it.
        """
        raise NotImplementedError(f"{self.name} does not support deletion")

    @classmethod
    def build(cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: Any) -> "TernaryMatcher":
        """Build a matcher from a full rule set (bulk construction)."""
        matcher = cls(key_length, **kwargs)
        for entry in entries:
            matcher.insert(entry)
        return matcher

    # -- lookup -----------------------------------------------------------

    @abc.abstractmethod
    def lookup(self, query: int) -> Optional[TernaryEntry]:
        """Return the highest-priority matching entry, or None."""

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Resolve many queries at once, in query order.

        The default simply loops :meth:`lookup`.  Structures that can
        amortize work across a batch (shared trie paths, data
        parallelism) override it with a genuinely batched traversal:
        :class:`~repro.core.multibit.MultibitPalmtrie`,
        :class:`~repro.core.plus.PalmtriePlus`,
        :class:`~repro.baselines.vectorized.VectorizedMatcher` and
        :class:`~repro.core.pipeline.PipelinedLookup`.
        """
        lookup = self.lookup
        return [lookup(query) for query in queries]

    def lookup_value(self, query: int, default: Any = None) -> Any:
        entry = self.lookup(query)
        return default if entry is None else entry.value

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """Every matching entry, highest priority first.

        The ternary matching problem proper returns only the winner
        (:meth:`lookup`); multi-match classification (e.g. a packet
        belonging to several monitoring classes) needs the full list.
        Optional; structures that resolve matches away at build time
        (the DPDK-style trie) do not support it.
        """
        raise NotImplementedError(f"{self.name} does not support multi-match lookup")

    # -- instrumented lookup ----------------------------------------------

    def profile_lookup(self, query: int) -> Optional[TernaryEntry]:
        """Instrumented lookup: updates ``self.stats`` work counters.

        One implementation for every matcher; structures that count work
        differently override the :meth:`_counted_lookup` hook, not this
        method.
        """
        result, visits, comparisons = self._counted_lookup(query)
        stats = self.stats
        stats.lookups += 1
        stats.node_visits += visits
        stats.key_comparisons += comparisons
        return result

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Hook: ``(result, node_visits, key_comparisons)`` for one query.

        The default charges one visit and one comparison — the opaque
        work model.  Traversal structures override it with a counted
        walk mirroring :meth:`lookup`.
        """
        return self.lookup(query), 1, 1

    # -- introspection ----------------------------------------------------

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of entries stored."""

    def memory_bytes(self) -> int:
        """Model of the memory footprint of the *C* layout (paper §4.2).

        This deliberately models the struct sizes a C implementation
        would allocate (the quantity Figure 9 plots), not Python object
        overhead: 32 bytes per stored key (L=128: data+mask), 8-byte
        values, 4-byte priorities, 8-byte pointers.
        """
        raise NotImplementedError(f"{self.name} does not model memory")


def _check_entries(entries: Sequence[TernaryEntry], key_length: int) -> None:
    for entry in entries:
        if entry.key.length != key_length:
            raise ValueError(
                f"entry key length {entry.key.length} != table key length {key_length}"
            )


_KINDS_CACHE: Optional[dict[str, Type[TernaryMatcher]]] = None


def matcher_kinds() -> dict[str, Type[TernaryMatcher]]:
    """The public registry of matcher kinds: ``{kind: class}``.

    Populated lazily (the baseline modules import this one), then
    cached; re-exported from ``repro`` as ``MATCHER_KINDS``.  The
    returned dict is a copy — mutate freely.
    """
    global _KINDS_CACHE
    if _KINDS_CACHE is None:
        from ..baselines.dpdk_acl import DpdkStyleAcl
        from ..baselines.efficuts import EffiCutsClassifier
        from ..baselines.sorted_list import SortedListMatcher
        from ..baselines.tcam import TcamModel
        from ..baselines.vectorized import VectorizedMatcher
        from .adaptive import AdaptiveMatcher
        from .basic import BasicPalmtrie
        from .frozen import FrozenMatcher
        from .multibit import MultibitPalmtrie
        from .plus import PalmtriePlus

        _KINDS_CACHE = {
            "sorted-list": SortedListMatcher,
            "palmtrie-basic": BasicPalmtrie,
            "palmtrie": MultibitPalmtrie,
            "palmtrie-plus": PalmtriePlus,
            "frozen": FrozenMatcher,
            "dpdk-acl": DpdkStyleAcl,
            "efficuts": EffiCutsClassifier,
            "adaptive": AdaptiveMatcher,
            "tcam": TcamModel,
            "vectorized": VectorizedMatcher,
        }
    return dict(_KINDS_CACHE)


def build_matcher(
    kind: Union[str, Type[TernaryMatcher], Any],
    entries: Sequence[TernaryEntry],
    key_length: int,
    **kwargs: Any,
) -> TernaryMatcher:
    """Factory used by the CLI, the apps and the benchmarks.

    ``kind`` is a registry name from :func:`matcher_kinds` —
    ``sorted-list``, ``palmtrie-basic``, ``palmtrie`` (multi-bit; pass
    ``stride=k``), ``palmtrie-plus`` (pass ``stride=k``), ``frozen``
    (struct-of-arrays compiled plane; pass ``stride=k``), ``dpdk-acl``,
    ``efficuts``, ``adaptive``, ``tcam``, ``vectorized`` — a
    :class:`TernaryMatcher` subclass itself, or an
    :class:`~repro.config.EngineConfig`, whose ``matcher`` / ``stride``
    / ``matcher_kwargs`` fields pick the class and its constructor
    knobs (``stride`` is forwarded only to kinds that take one), so
    every construction path in the repo builds matchers one way.
    """
    from ..config import EngineConfig

    entries = list(entries)
    _check_entries(entries, key_length)
    if isinstance(kind, EngineConfig):
        config, kind = kind, kind.matcher
    else:
        config = None
    if isinstance(kind, type):
        if not issubclass(kind, TernaryMatcher):
            raise TypeError(f"{kind!r} is not a TernaryMatcher subclass")
        cls = kind
    else:
        kinds = matcher_kinds()
        try:
            cls = kinds[kind]
        except KeyError:
            raise ValueError(
                f"unknown matcher kind {kind!r}; choose from {sorted(kinds)}"
            ) from None
    if config is not None:
        kwargs = {**config.build_kwargs(cls), **kwargs}
    return cls.build(entries, key_length, **kwargs)
