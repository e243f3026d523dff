"""Sorted-list baseline (paper §2, §4).

The naive ACL matcher used by iptables/pf-style filters: entries are
kept sorted by priority (highest first) and a lookup scans linearly,
returning the first match.  O(n) lookup, O(log n) insertion position
search; the paper's scalability foil — and, per §4.3/§5, actually the
fastest structure on tiny ACLs, which the adaptive matcher exploits.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from ..core.table import TernaryEntry, TernaryMatcher
from ..core.ternary import TernaryKey

__all__ = ["SortedListMatcher"]


def _hold(by_key: dict[tuple[int, int], list[TernaryEntry]], entry: TernaryEntry) -> None:
    """File ``entry`` under its key in a ``(data, mask)`` index."""
    slot = (entry.key.data, entry.key.mask)
    held = by_key.get(slot)
    if held is None:
        by_key[slot] = [entry]
    else:
        held.append(entry)


class SortedListMatcher(TernaryMatcher):
    """Priority-sorted linear scan."""

    name = "sorted-list"

    def __init__(self, key_length: int) -> None:
        super().__init__(key_length)
        self._entries: list[TernaryEntry] = []
        # Parallel list of negated priorities, kept for O(log n) bisection.
        self._neg_priorities: list[int] = []
        # (data, mask) -> the entries holding that key, so a delete finds
        # its positions by bisection instead of scanning every entry.
        # Built by the first delete and kept by insert from then on: a
        # table that is only built and searched never pays for it.
        self._by_key: Optional[dict[tuple[int, int], list[TernaryEntry]]] = None

    def insert(self, entry: TernaryEntry) -> None:
        if entry.key.length != self.key_length:
            raise ValueError(
                f"entry key length {entry.key.length} != table key length {self.key_length}"
            )
        position = bisect.bisect_left(self._neg_priorities, -entry.priority)
        self._entries.insert(position, entry)
        self._neg_priorities.insert(position, -entry.priority)
        if self._by_key is not None:
            _hold(self._by_key, entry)
        self.generation += 1

    def delete(self, key: TernaryKey) -> bool:
        # Remove every entry holding the key, in place.  Each one sits
        # in the run of its priority, found by bisection; both lists
        # lose the same positions, so they stay aligned.
        entries = self._entries
        by_key = self._by_key
        if by_key is None:
            by_key = self._by_key = {}
            for entry in entries:
                _hold(by_key, entry)
        held = by_key.pop((key.data, key.mask), None)
        if held is None:
            return False
        neg_priorities = self._neg_priorities
        for entry in held:
            position = bisect.bisect_left(neg_priorities, -entry.priority)
            while entries[position] is not entry:
                position += 1
            del entries[position]
            del neg_priorities[position]
        self.generation += 1
        return True

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        # Highest priority first, so the first match is the answer.
        full = (1 << self.key_length) - 1
        masked_cache = query & full
        for entry in self._entries:
            key = entry.key
            if masked_cache & ~key.mask & full == key.data:
                return entry
        return None

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """All matching entries; already in priority order."""
        return [entry for entry in self._entries if entry.key.matches(query)]

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Work model: entries scanned until the first match."""
        for position, entry in enumerate(self._entries):
            if entry.key.matches(query):
                return entry, position + 1, position + 1
        n = len(self._entries)
        return None, n, n

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TernaryEntry]:
        return iter(self._entries)

    def memory_bytes(self) -> int:
        """C-layout model: a flat array of (key, value, priority) records."""
        key_bytes = 2 * (self.key_length // 8)
        return len(self._entries) * (key_bytes + 8 + 4)
