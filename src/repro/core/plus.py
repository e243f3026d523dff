"""Palmtrie+_k: bitmap-compressed Palmtrie (paper §3.6, Algorithm 3).

Palmtrie_k nodes waste most of their ``2**(k+1) - 1`` pointer slots on
NULLs.  Palmtrie+ removes them with the Poptrie technique: each internal
node keeps two bitmaps (one per branch array) marking the non-NULL
slots, and its surviving children are stored as contiguous runs inside
one global node array.  A child is located with a population count:
child ``i`` lives at ``offset + popcount(bitmap & ((1 << i) - 1))``.
Nodes with keys and values are pushed to the leaves (the B-tree vs
B+ tree analogy of §3.6).

Palmtrie+ does not support incremental updates directly.  Following the
paper, updates are applied to a retained source Palmtrie_k and the
compressed form is recompiled from it (:meth:`compile`).  The table is
stale exactly when the source's ``generation`` differs from the one it
was compiled at; lookups then recompile transparently.

Note: Algorithm 3 line 20 in the paper tests ``x.bitmap_c`` inside the
don't care loop; that is a typo for ``x.bitmap_t`` (the corresponding
popcount on line 21 uses ``bitmap_t``).  This implementation uses
``bitmap_t`` for both.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterable, Iterator, Optional, Union

from .multibit import MultibitPalmtrie
from .multibit import _Internal as _SourceInternal  # noqa: F401 (typing aid)
from .multibit import _Leaf as _SourceLeaf
from .table import LookupStats, TernaryEntry, TernaryMatcher
from .ternary import TernaryKey

__all__ = ["PalmtriePlus"]


class _PlusLeaf:
    """A leaf of the compressed trie (bit index conceptually -inf)."""

    __slots__ = ("key", "entries", "max_priority", "data", "care_mask")

    def __init__(self, key: TernaryKey, entries: list[TernaryEntry]) -> None:
        self.key = key
        self.entries = entries  # best priority first
        self.max_priority = entries[0].priority
        # Precomputed match test: query & care_mask == data.
        self.data = key.data
        self.care_mask = ~key.mask & ((1 << key.length) - 1)

    @property
    def best(self) -> TernaryEntry:
        return self.entries[0]


class _PlusInternal:
    __slots__ = ("bit", "max_priority", "bitmap_c", "offset_c", "bitmap_t", "offset_t")

    def __init__(self, bit: int, max_priority: int) -> None:
        self.bit = bit
        self.max_priority = max_priority
        self.bitmap_c = 0
        self.offset_c = 0
        self.bitmap_t = 0
        self.offset_t = 0


_PlusNode = Union[_PlusLeaf, _PlusInternal]


class PalmtriePlus(TernaryMatcher):
    """Palmtrie+_k: Palmtrie_k compiled into bitmap-indexed node arrays."""

    name = "palmtrie-plus"

    # Compile-cost counters for the observability plane (class-level
    # defaults so every construction path starts at zero).
    #: cumulative seconds spent in :meth:`compile`
    compile_seconds_total = 0.0
    #: seconds the most recent :meth:`compile` took
    last_compile_seconds = 0.0

    def __init__(self, key_length: int, stride: int = 8, subtree_skipping: bool = True) -> None:
        self._attach(
            MultibitPalmtrie(key_length, stride=stride, subtree_skipping=subtree_skipping)
        )

    def _attach(self, source: MultibitPalmtrie) -> None:
        """Take ``source`` as the retained Palmtrie_k, nothing compiled.

        Not ``TernaryMatcher.__init__``: it zeroes ``generation``, which
        here is the source's counter."""
        self.key_length = source.key_length
        self.stats = LookupStats()
        self.stride = source.stride
        self.subtree_skipping = source.subtree_skipping
        self._source = source
        self._nodes: list[_PlusNode] = []
        self._root: Optional[_PlusNode] = None
        self._ternary_slots = source._ternary_slots
        self._compile_count = 0
        #: source generation the node array was compiled at; None until
        #: the first compile, which ``build()`` (or the first lookup)
        #: performs, so constructing-then-bulk-inserting does not
        #: compile an empty trie just to throw it away
        self._compiled_generation: Optional[int] = None

    @property
    def generation(self) -> int:
        """The retained Palmtrie_k's content generation: every update
        lands there, through this table or directly."""
        return self._source.generation

    @generation.setter
    def generation(self, value: int) -> None:
        self._source.generation = value

    @property
    def stale(self) -> bool:
        """True while the node array lags the retained Palmtrie_k (the
        next lookup or :meth:`compile` recompiles it)."""
        return self._compiled_generation != self._source.generation

    # ------------------------------------------------------------------
    # Construction: updates go to the source trie, then recompile.
    # ------------------------------------------------------------------

    @classmethod
    def from_palmtrie(cls, source: MultibitPalmtrie) -> "PalmtriePlus":
        """Compile an existing Palmtrie_k (the §3.6 compilation step)."""
        plus = cls.__new__(cls)
        plus._attach(source)
        plus.compile()
        return plus

    @classmethod
    def build(
        cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: Any
    ) -> "PalmtriePlus":
        """Bulk build: fill a source Palmtrie_k, compile once."""
        return cls.from_palmtrie(MultibitPalmtrie.build(entries, key_length, **kwargs))

    # Updates go to the source Palmtrie_k, which bumps its generation;
    # that leaves the compressed form stale until the next lookup or
    # :meth:`compile`.  The paper calls out exactly this cost model:
    # insertion implies recompilation (§3.6, §4.4).

    def insert(self, entry: TernaryEntry) -> None:
        self.source.insert(entry)

    def delete(self, key: TernaryKey) -> bool:
        return self.source.delete(key)

    def remove_entry(self, entry: TernaryEntry) -> bool:
        """Remove one specific entry via the source trie (then recompile)."""
        return self.source.remove_entry(entry)

    def bulk_update(self, ops: Iterable[tuple[str, Any]]) -> tuple[int, int, int]:
        """Apply ``("insert", TernaryEntry)`` / ``("delete", TernaryKey)``
        pairs to the source trie, with one deferred recompile.  Returns
        ``(inserted, deleted, missing_deletes)``."""
        return self.source.bulk_update(ops)

    def compile(self) -> None:
        """Rebuild the node array from the source trie (compilation part
        of the update procedure, measured separately in Fig. 11/Table 5)."""
        compile_start = time.perf_counter()
        nodes: list[_PlusNode] = []
        root = self._compile_shallow(self._source._root)
        queue: deque[tuple[Any, _PlusNode]] = deque([(self._source._root, root)])
        while queue:
            src, dst = queue.popleft()
            if isinstance(src, _SourceLeaf):
                continue
            assert isinstance(dst, _PlusInternal)
            bitmap = 0
            dst.offset_c = len(nodes)
            for i, child in enumerate(src.descendants):
                if child is not None:
                    bitmap |= 1 << i
                    compiled = self._compile_shallow(child)
                    nodes.append(compiled)
                    queue.append((child, compiled))
            dst.bitmap_c = bitmap
            bitmap = 0
            dst.offset_t = len(nodes)
            for i, child in enumerate(src.ternaries):
                if child is not None:
                    bitmap |= 1 << i
                    compiled = self._compile_shallow(child)
                    nodes.append(compiled)
                    queue.append((child, compiled))
            dst.bitmap_t = bitmap
        self._nodes = nodes
        self._root = root
        self._compiled_generation = self._source.generation
        self._compile_count += 1
        self.last_compile_seconds = time.perf_counter() - compile_start
        self.compile_seconds_total += self.last_compile_seconds

    @property
    def compile_count(self) -> int:
        """Compilations performed so far (the §3.6/§4.4 update cost)."""
        return self._compile_count

    @staticmethod
    def _compile_shallow(src: Any) -> _PlusNode:
        if isinstance(src, _SourceLeaf):
            return _PlusLeaf(src.key, list(src.entries))
        return _PlusInternal(src.bit, src.max_priority)

    # ------------------------------------------------------------------
    # Lookup (Algorithm 3)
    # ------------------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        if self.stale:
            self.compile()
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        skipping = self.subtree_skipping
        nodes = self._nodes
        result: Optional[TernaryEntry] = None
        result_priority = -1
        stack: list[_PlusNode] = [self._root]
        push = stack.append
        pop = stack.pop
        while stack:
            x = pop()
            if skipping and result_priority > x.max_priority:
                continue
            if type(x) is _PlusLeaf:
                if query & x.care_mask == x.data and x.max_priority > result_priority:
                    result = x.entries[0]
                    result_priority = result.priority
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            bitmap_c = x.bitmap_c
            if (bitmap_c >> i) & 1:
                push(nodes[x.offset_c + (bitmap_c & ((1 << i) - 1)).bit_count()])
            bitmap_t = x.bitmap_t
            if bitmap_t:
                offset_t = x.offset_t
                for h in slots[i]:
                    if (bitmap_t >> h) & 1:
                        push(nodes[offset_t + (bitmap_t & ((1 << h) - 1)).bit_count()])
        return result

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """All matching entries, highest priority first (no skipping)."""
        if self.stale:
            self.compile()
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        nodes = self._nodes
        matches: list[TernaryEntry] = []
        stack: list[_PlusNode] = [self._root]
        while stack:
            x = stack.pop()
            if type(x) is _PlusLeaf:
                if query & x.care_mask == x.data:
                    matches.extend(x.entries)
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            bitmap_c = x.bitmap_c
            if (bitmap_c >> i) & 1:
                stack.append(nodes[x.offset_c + (bitmap_c & ((1 << i) - 1)).bit_count()])
            bitmap_t = x.bitmap_t
            if bitmap_t:
                offset_t = x.offset_t
                for h in slots[i]:
                    if (bitmap_t >> h) & 1:
                        stack.append(nodes[offset_t + (bitmap_t & ((1 << h) - 1)).bit_count()])
        matches.sort(key=lambda e: e.priority, reverse=True)
        return matches

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Counted traversal hook for :meth:`profile_lookup`."""
        if self.stale:
            self.compile()
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        skipping = self.subtree_skipping
        nodes = self._nodes
        result: Optional[TernaryEntry] = None
        result_priority = -1
        visits = comparisons = 0
        stack: list[_PlusNode] = [self._root]
        while stack:
            x = stack.pop()
            if skipping and result_priority > x.max_priority:
                continue
            visits += 1
            if type(x) is _PlusLeaf:
                comparisons += 1
                if query & x.care_mask == x.data and x.max_priority > result_priority:
                    result = x.entries[0]
                    result_priority = result.priority
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            if (x.bitmap_c >> i) & 1:
                stack.append(nodes[x.offset_c + (x.bitmap_c & ((1 << i) - 1)).bit_count()])
            for h in slots[i]:
                if (x.bitmap_t >> h) & 1:
                    stack.append(nodes[x.offset_t + (x.bitmap_t & ((1 << h) - 1)).bit_count()])
        return result, visits, comparisons

    def lookup_batch(self, queries) -> list[Optional[TernaryEntry]]:
        """Batched traversal over the compiled node array.

        Mirrors :meth:`MultibitPalmtrie.lookup_batch`: the batch is
        deduplicated, then traversed node-major so queries sharing a
        branch share the node visit and the popcount child computation.
        """
        if self.stale:
            self.compile()
        results: list[Optional[TernaryEntry]] = [None] * len(queries)
        if not queries:
            return results
        positions: dict[int, list[int]] = {}
        for index, query in enumerate(queries):
            positions.setdefault(query, []).append(index)
        unique = list(positions)
        best: list[Optional[TernaryEntry]] = [None] * len(unique)
        best_priority = [-1] * len(unique)
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        skipping = self.subtree_skipping
        nodes = self._nodes
        stack: list[tuple[_PlusNode, list[int]]] = [
            (self._root, list(range(len(unique))))
        ]
        while stack:
            x, group = stack.pop()
            maxp = x.max_priority
            if skipping:
                group = [g for g in group if best_priority[g] <= maxp]
                if not group:
                    continue
            if type(x) is _PlusLeaf:
                data = x.data
                care_mask = x.care_mask
                for g in group:
                    if unique[g] & care_mask == data and maxp > best_priority[g]:
                        best[g] = x.entries[0]
                        best_priority[g] = best[g].priority
                continue
            bit = x.bit
            buckets: dict[int, list[int]] = {}
            if bit >= 0:
                for g in group:
                    buckets.setdefault((unique[g] >> bit) & chunk_mask, []).append(g)
            else:
                for g in group:
                    buckets.setdefault((unique[g] << -bit) & chunk_mask, []).append(g)
            bitmap_c = x.bitmap_c
            bitmap_t = x.bitmap_t
            for i, bucket in buckets.items():
                if (bitmap_c >> i) & 1:
                    stack.append(
                        (nodes[x.offset_c + (bitmap_c & ((1 << i) - 1)).bit_count()], bucket)
                    )
                if bitmap_t:
                    offset_t = x.offset_t
                    for h in slots[i]:
                        if (bitmap_t >> h) & 1:
                            stack.append(
                                (nodes[offset_t + (bitmap_t & ((1 << h) - 1)).bit_count()], bucket)
                            )
        for g, query in enumerate(unique):
            for index in positions[query]:
                results[index] = best[g]
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._source)

    def entries(self) -> Iterator[TernaryEntry]:
        return self._source.entries()

    def node_count(self) -> tuple[int, int]:
        """(internal nodes, leaves) of the *compiled* structure."""
        if self.stale:
            self.compile()
        internal = sum(1 for n in self._nodes if isinstance(n, _PlusInternal))
        leaves = len(self._nodes) - internal
        if isinstance(self._root, _PlusInternal):
            internal += 1
        elif self._root is not None:
            leaves += 1
        return internal, leaves

    def memory_bytes(self) -> int:
        """C-layout model of the compiled form (Figure 6's union node):
        per internal node two ``2**k``-bit bitmaps, two 4-byte offsets,
        bit index and max_priority; per leaf the 2L-bit key and its
        max_priority, plus an 8-byte value and a 4-byte priority for
        *every* entry sharing that key.  The pointer arrays of
        Palmtrie_k are gone — this is what Figure 9 shows collapsing to
        the Palmtrie_1 level.  Entries are charged individually because
        a leaf whose key several rules share keeps the whole list — the
        serialized form writes every one of them.
        """
        if self.stale:
            self.compile()
        internal, leaves = self.node_count()
        bitmap_bytes = (1 << self.stride) // 8 if self.stride >= 3 else 1
        internal_bytes = 2 * bitmap_bytes + 4 + 4 + 4 + 4
        key_bytes = 2 * (self.key_length // 8)
        leaf_bytes = key_bytes + 4
        entry_bytes = 8 + 4
        return internal * internal_bytes + leaves * leaf_bytes + len(self) * entry_bytes

    @property
    def source(self) -> MultibitPalmtrie:
        """The retained Palmtrie_k that absorbs incremental updates."""
        return self._source
