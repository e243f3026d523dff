"""The basic Palmtrie (paper §3.3, Algorithm 1).

A Patricia trie extended with a third, *center* branch for don't care
bits.  Insertion and deletion treat ``*`` as a third digit value (it
does not match 0 or 1); only lookup gives ``*`` its wildcard meaning by
exploring the don't care branch alongside the exact matching branch and
priority-encoding the candidates.

Like :class:`repro.core.patricia.PatriciaTrie`, this uses the
child-owning crit-bit formulation: entries live in leaves and internal
nodes carry the distinguishing bit index.  Reaching a leaf and
comparing the full stored key against the query plays the role of
Algorithm 1's ``bit <= N.bit`` termination test (paper lines 4-9); the
center/left/right recursion and the final ``max(lr, c)`` priority
encoding follow the algorithm directly.  The lookup walks that
recursion with an explicit stack (the exact matching branch is popped
before the don't care branch, so priority ties resolve as ``max(lr, c)``
does), which keeps a 512-bit IPv6 key's chain clear of Python's
recursion limit.

Lookup cost is O(n^log3(2)) on dense tries (paper Table 3).
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .table import TernaryEntry, TernaryMatcher
from .ternary import TernaryKey

__all__ = ["BasicPalmtrie"]

#: child slot for a don't care digit (0 and 1 are the binary digits)
_DC = 2


def _digit(key: TernaryKey, pos: int) -> int:
    """Ternary digit of ``key`` at ``pos``: 0, 1, or 2 for don't care."""
    if (key.mask >> pos) & 1:
        return _DC
    return (key.data >> pos) & 1


class _Leaf:
    """Stores every entry sharing one ternary key, best priority first."""

    __slots__ = ("key", "care_mask", "data", "entries")

    def __init__(self, entry: TernaryEntry) -> None:
        key = self.key = entry.key
        #: ``query & care_mask == data`` is ``key.matches(query)``
        self.care_mask = ~key.mask & ((1 << key.length) - 1)
        self.data = key.data
        self.entries: list[TernaryEntry] = [entry]

    def add(self, entry: TernaryEntry) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.priority, reverse=True)

    @property
    def best(self) -> TernaryEntry:
        return self.entries[0]


class _Internal:
    __slots__ = ("bit", "children")

    def __init__(self, bit: int) -> None:
        self.bit = bit
        self.children: list[Optional[_Node]] = [None, None, None]


_Node = Union[_Leaf, _Internal]


class BasicPalmtrie(TernaryMatcher):
    """Palmtrie (basic): recursive ternary Patricia, no optimizations."""

    name = "palmtrie-basic"

    def __init__(self, key_length: int) -> None:
        super().__init__(key_length)
        self._root: Optional[_Node] = None
        self._size = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _check_entry(self, entry: TernaryEntry) -> None:
        if entry.key.length != self.key_length:
            raise ValueError(
                f"entry key length {entry.key.length} != trie key length {self.key_length}"
            )

    def insert(self, entry: TernaryEntry) -> None:
        self._check_entry(entry)
        self._size += 1
        self.generation += 1
        if self._root is None:
            self._root = _Leaf(entry)
            return
        key = entry.key
        # Walk to a leaf, preferring the child matching the key's digit.
        node = self._root
        while isinstance(node, _Internal):
            child = node.children[_digit(key, node.bit)]
            if child is None:
                child = next(c for c in node.children if c is not None)
            node = child
        pos = key.first_diff_bit(node.key)
        if pos < 0:
            node.add(entry)
            return
        # Re-descend to the first node at or below the differing position.
        parent: Optional[_Internal] = None
        node = self._root
        while isinstance(node, _Internal) and node.bit > pos:
            parent = node
            node = node.children[_digit(key, node.bit)]
        if isinstance(node, _Internal) and node.bit == pos:
            # The key introduces a brand-new digit value at this split.
            slot = _digit(key, pos)
            assert node.children[slot] is None
            node.children[slot] = _Leaf(entry)
            return
        split = _Internal(pos)
        split.children[_digit(key, pos)] = _Leaf(entry)
        split.children[_digit(self._representative(node), pos)] = node
        if parent is None:
            self._root = split
        else:
            parent.children[_digit(key, parent.bit)] = split

    @staticmethod
    def _representative(node: _Node) -> TernaryKey:
        while isinstance(node, _Internal):
            node = next(c for c in node.children if c is not None)
        return node.key

    def delete(self, key: TernaryKey) -> bool:
        """Remove all entries stored under exactly this ternary key."""
        if key.length != self.key_length:
            raise ValueError(f"key length {key.length} != trie key length {self.key_length}")
        parent: Optional[_Internal] = None
        grandparent: Optional[_Internal] = None
        node = self._root
        while isinstance(node, _Internal):
            grandparent = parent
            parent = node
            node = node.children[_digit(key, node.bit)]
            if node is None:
                return False
        if node is None or node.key != key:
            return False
        self._size -= len(node.entries)
        self.generation += 1
        if parent is None:
            self._root = None
            return True
        parent.children[_digit(key, parent.bit)] = None
        remaining = [c for c in parent.children if c is not None]
        if len(remaining) == 1:
            # Splice out the now-unary internal node (Patricia invariant).
            if grandparent is None:
                self._root = remaining[0]
            else:
                grandparent.children[_digit(key, grandparent.bit)] = remaining[0]
        return True

    # ------------------------------------------------------------------
    # Lookup (Algorithm 1)
    # ------------------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        # Algorithm 1's recursion on an explicit stack.  The exact
        # matching child is pushed last, so its whole subtree is walked
        # before the don't care branch; keeping the first candidate of
        # the best priority then resolves ties as ``max(lr, c)`` does.
        root = self._root
        if root is None:
            return None
        result: Optional[TernaryEntry] = None
        stack: list[_Node] = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            if type(node) is _Leaf:
                if query & node.care_mask == node.data:
                    best = node.entries[0]
                    if result is None or best.priority > result.priority:
                        result = best
                continue
            children = node.children
            child = children[_DC]
            if child is not None:
                push(child)
            child = children[(query >> node.bit) & 1]
            if child is not None:
                push(child)
        return result

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """All matching entries, highest priority first."""
        matches: list[TernaryEntry] = []
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                if node.key.matches(query):
                    matches.extend(node.entries)
                continue
            if node.children[_DC] is not None:
                stack.append(node.children[_DC])
            child = node.children[(query >> node.bit) & 1]
            if child is not None:
                stack.append(child)
        matches.sort(key=lambda e: e.priority, reverse=True)
        return matches

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Counted traversal hook for :meth:`profile_lookup`."""
        result: Optional[TernaryEntry] = None
        visits = comparisons = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            visits += 1
            if isinstance(node, _Leaf):
                comparisons += 1
                if node.key.matches(query) and (
                    result is None or node.best.priority > result.priority
                ):
                    result = node.best
                continue
            if node.children[_DC] is not None:
                stack.append(node.children[_DC])
            child = node.children[(query >> node.bit) & 1]
            if child is not None:
                stack.append(child)
        return result, visits, comparisons

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def entries(self) -> Iterator[TernaryEntry]:
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                yield from node.entries
            else:
                stack.extend(c for c in node.children if c is not None)

    def node_count(self) -> tuple[int, int]:
        """(internal nodes, leaves)."""
        internal = leaves = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                leaves += 1
            else:
                internal += 1
                stack.extend(c for c in node.children if c is not None)
        return internal, leaves

    def depth(self) -> int:
        """Maximum node depth (the d of the complexity analysis, §3.3)."""
        best = 0
        stack: list[tuple[Optional[_Node], int]] = (
            [(self._root, 0)] if self._root is not None else []
        )
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            if isinstance(node, _Internal):
                stack.extend((c, depth + 1) for c in node.children if c is not None)
        return best

    def memory_bytes(self) -> int:
        """C-layout model: 3 pointers + bit index per node, key/value/priority
        in leaves (paper stores 32-byte keys, 8-byte values, 4-byte
        priorities for L=128; see §4).
        """
        internal, leaves = self.node_count()
        key_bytes = 2 * (self.key_length // 8)
        node_header = 3 * 8 + 4  # three child pointers + bit index
        return internal * node_header + leaves * (node_header + key_bytes + 8 + 4)
