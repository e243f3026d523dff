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
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from .ternary import TernaryKey

if TYPE_CHECKING:
    from ..config import EngineConfig
    from .multibit import MultibitPalmtrie

__all__ = [
    "TernaryEntry",
    "LookupStats",
    "TernaryMatcher",
    "build_matcher",
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
        """Build a matcher from a full rule set (bulk construction).  A
        built table starts at generation 0, as one compiled in a single
        step does: construction is not a mutation."""
        matcher = cls(key_length, **kwargs)
        for entry in entries:
            matcher.insert(entry)
        matcher.generation = 0
        return matcher

    # -- lookup -----------------------------------------------------------

    @abc.abstractmethod
    def lookup(self, query: int) -> Optional[TernaryEntry]:
        """Return the highest-priority matching entry, or None."""

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Resolve many queries at once, in query order.

        The default simply loops :meth:`lookup`.  Structures that can
        amortize work across a batch override it:
        :class:`~repro.core.frozen.FrozenMatcher` (one walk per unique
        query) and :class:`~repro.baselines.vectorized.VectorizedMatcher`
        (data parallelism).
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


def build_matcher(
    config: "EngineConfig",
    entries: Sequence[TernaryEntry],
    key_length: int,
) -> "MultibitPalmtrie":
    """The Palmtrie_k an :class:`~repro.config.EngineConfig` describes:
    ``MultibitPalmtrie.build(entries, key_length, stride=config.stride)``.

    The one build path of the CLI, the apps, the tenant router and
    :func:`~repro.serve`: the engine serves this retained source trie
    (paper §3.6) through the frozen plane compiled from it, which is
    the paper's Palmtrie+.  The paper's comparison structures (the
    basic trie, the baselines) are built through their own classes by
    the experiment drivers.
    """
    from ..config import EngineConfig
    from .multibit import MultibitPalmtrie

    if not isinstance(config, EngineConfig):
        raise TypeError(f"build_matcher takes an EngineConfig, got {config!r}")
    entries = list(entries)
    _check_entries(entries, key_length)
    return MultibitPalmtrie.build(entries, key_length, stride=config.stride)
