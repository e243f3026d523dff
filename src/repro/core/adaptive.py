"""Adaptive layer: structure switching (§5).

:class:`AdaptiveMatcher` is the paper's §5 policy: sorted lists win on
tiny ACLs, Palmtrie with a low branching order on medium ones, and
Palmtrie with a high branching order on large ones, with hysteresis so
flapping at the thresholds is avoided.  The large band keeps the
updatable Palmtrie_8: its Palmtrie+ is the frozen plane a serving
engine freezes from it (:func:`~repro.core.frozen.freeze`), so inserts
land in a trie instead of recompiling one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..baselines.sorted_list import SortedListMatcher
from .multibit import MultibitPalmtrie
from .table import TernaryEntry, TernaryMatcher
from .ternary import TernaryKey

__all__ = ["AdaptiveMatcher"]


class AdaptiveMatcher(TernaryMatcher):
    """Size-adaptive wrapper around sorted list / Palmtrie_6 / Palmtrie_8."""

    name = "adaptive"

    def __init__(
        self,
        key_length: int,
        small_threshold: int = 100,
        large_threshold: int = 1000,
        hysteresis: int = 10,
    ) -> None:
        super().__init__(key_length)
        if not 0 < small_threshold < large_threshold:
            raise ValueError("thresholds must satisfy 0 < small < large")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.small_threshold = small_threshold
        self.large_threshold = large_threshold
        self.hysteresis = hysteresis
        self._entries: list[TernaryEntry] = []
        self._inner: TernaryMatcher = SortedListMatcher(key_length)
        self._band = "small"

    # ------------------------------------------------------------------

    def _target_band(self, size: int) -> str:
        """The band ``size`` falls into, with hysteresis around edges."""
        h = self.hysteresis
        band = self._band
        if band == "small":
            if size > self.large_threshold + h:
                return "large"
            if size > self.small_threshold + h:
                return "medium"
        elif band == "medium":
            if size > self.large_threshold + h:
                return "large"
            if size < self.small_threshold - h:
                return "small"
        else:  # large
            if size < self.small_threshold - h:
                return "small"
            if size < self.large_threshold - h:
                return "medium"
        return band

    def _rebuild(self, band: str) -> None:
        if band == "small":
            inner: TernaryMatcher = SortedListMatcher(self.key_length)
            for entry in self._entries:
                inner.insert(entry)
        else:
            stride = 6 if band == "medium" else 8
            inner = MultibitPalmtrie.build(
                self._entries, self.key_length, stride=min(stride, self.key_length)
            )
        self._inner = inner
        self._band = band

    def _resize(self) -> None:
        band = self._target_band(len(self._entries))
        if band != self._band:
            self._rebuild(band)

    # ------------------------------------------------------------------

    def insert(self, entry: TernaryEntry) -> None:
        if entry.key.length != self.key_length:
            raise ValueError(
                f"entry key length {entry.key.length} != table key length {self.key_length}"
            )
        self._entries.append(entry)
        self._inner.insert(entry)
        self.generation += 1
        self._resize()

    def delete(self, key: TernaryKey) -> bool:
        kept = [e for e in self._entries if e.key != key]
        if len(kept) == len(self._entries):
            return False
        self._entries = kept
        if not self._inner.delete(key):  # pragma: no cover - inner mirrors us
            raise AssertionError("inner structure out of sync")
        self.generation += 1
        self._resize()
        return True

    @classmethod
    def build(
        cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: object
    ) -> "AdaptiveMatcher":
        matcher = cls(key_length, **kwargs)  # type: ignore[arg-type]
        matcher._entries = list(entries)
        band = "small"
        if len(matcher._entries) > matcher.large_threshold:
            band = "large"
        elif len(matcher._entries) > matcher.small_threshold:
            band = "medium"
        matcher._rebuild(band)
        return matcher

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        return self._inner.lookup(query)

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        # Charge the active structure's work model to our own stats.
        return self._inner._counted_lookup(query)

    # ------------------------------------------------------------------

    @property
    def band(self) -> str:
        """The §5 size band in force: ``small``, ``medium`` or ``large``."""
        return self._band

    @property
    def active_structure(self) -> str:
        """Name of the structure currently answering lookups."""
        return self._inner.name

    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        return self._inner.memory_bytes()
