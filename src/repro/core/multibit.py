"""Palmtrie_k: the multi-bit stride Palmtrie (paper §3.4-3.5, Algorithm 2).

A node consumes a k-bit chunk of the key at its bit index.  Chunks that
are fully binary take the *exact matching branch*: one of ``2**k``
descendant slots indexed by the chunk value (Figure 5, top array).
Chunks containing a don't care bit take a *don't care branch*: the
chunk's binary prefix p (length l) up to its most significant ``*``
selects one of ``2**k - 1`` ternary slots, indexed by ``2**l + p - 1``
(Figure 5, bottom array); the key's remaining digits continue in the
subtree below, whose bit index restarts right below the ``*``.  This is
the paper's variable don't-care stride: bit indices therefore need not
stay k-aligned, and the least significant chunk may sit at a negative
bit index (> -k), reading bits below position 0 as 0.

The three practical optimizations of §3.5 are all here:

1. descendant indexing via the two contiguous slot arrays,
2. an iterative lookup driven by a self-managed stack (Algorithm 2's
   ``p``/``b`` stacks) instead of recursion,
3. low-priority subtree skipping via a per-node ``max_priority``
   (constructible without it for the Figure 7 ablation).

Entries live in leaves holding their full ternary key (path
compression: a chain with a single entry is represented by the leaf
alone), and reaching a leaf triggers the full-key comparison that
Algorithm 2 performs at line 6.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, Optional, Union

from .table import TernaryEntry, TernaryMatcher
from .ternary import TernaryKey

__all__ = ["MultibitPalmtrie", "key_path", "PathStep"]

#: branch kinds within a path step
EXACT = 0
TERNARY = 1

#: a path step: (bit index of the node, branch kind, slot index)
PathStep = tuple[int, int, int]


def key_path(key: TernaryKey, stride: int) -> list[PathStep]:
    """Decompose a ternary key into its Palmtrie_k branch steps.

    This is the paper's key split method (§3.4), listed step by step
    with :func:`_step`, the one split the trie descends by: the key is
    cut at every don't care bit (the ``*`` roots a subtree) and the
    binary runs in between are cut into k-bit chunks, the last of which
    may extend below bit 0 (negative bit index, padded with 0).
    """
    length = key.length
    if length < stride:
        raise ValueError(f"key length {length} shorter than stride {stride}")
    data, mask = key.data, key.mask
    steps: list[PathStep] = []
    bit = length - stride
    while True:
        kind, index, low = _step(data, mask, bit, stride)
        steps.append((bit, kind, index))
        if low <= 0:
            return steps
        bit = low - stride


def _star_run_low(mask: int, top: int) -> int:
    """Lowest position of the run of don't care bits that ends at
    ``top`` (``mask`` has bit ``top`` set)."""
    return (~mask & ((1 << top) - 1)).bit_length()


def _step(data: int, mask: int, bit: int, stride: int) -> tuple[int, int, int]:
    """The key's step at a node of bit index ``bit``: ``(kind, slot
    index, low)``, where ``low`` is the lowest key position the step
    consumes (the chunk's most significant ``*``, or ``bit`` for an
    exact chunk); the key's next step tops out at ``low - 1``."""
    chunk_mask = (1 << stride) - 1
    if bit >= 0:
        chunk = (data >> bit) & chunk_mask
        wild = (mask >> bit) & chunk_mask
    else:
        chunk = (data << -bit) & chunk_mask
        wild = (mask << -bit) & chunk_mask
    if not wild:
        return EXACT, chunk, bit
    star = wild.bit_length() - 1
    return TERNARY, (1 << (stride - 1 - star)) + (chunk >> (star + 1)) - 1, bit + star


def _divergence_bit(data: int, mask: int, top: int, position: int, stride: int) -> int:
    """Bit index of the key's step that consumes ``position``, walking
    its steps from the one whose chunk tops out at ``top``.

    The steps' consumed digits tile the key from the top down, so when
    ``position`` is the most significant digit where two keys differ,
    this is the first step where their paths differ.  Runs of ``*``
    and of exact chunks that end above ``position`` are skipped whole.
    """
    chunk_mask = (1 << stride) - 1
    while True:
        bit = top - stride + 1
        wild = (mask >> bit) & chunk_mask if bit >= 0 else (mask << -bit) & chunk_mask
        if not wild:
            if position >= bit:
                return bit
            # Skip the exact chunks above both ``position`` and the next '*'.
            bound = max(position, (mask & ((1 << bit) - 1)).bit_length() - 1)
            top = bit - 1 - (bit - 1 - bound) // stride * stride
            continue
        low = bit + wild.bit_length() - 1
        if low == top:
            low = _star_run_low(mask, top)
            if position >= low:
                return position - stride + 1
        elif position >= low:
            return bit
        top = low - 1


class _Leaf:
    __slots__ = ("key", "entries", "max_priority", "data", "care_mask")

    def __init__(self, entry: TernaryEntry) -> None:
        self.key = entry.key
        self.entries: list[TernaryEntry] = [entry]
        self.max_priority = entry.priority
        # Precomputed match test: query & care_mask == data.
        self.data = entry.key.data
        self.care_mask = ~entry.key.mask & ((1 << entry.key.length) - 1)

    def add(self, entry: TernaryEntry) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.priority, reverse=True)
        self.max_priority = self.entries[0].priority

    def remove(self, entry: TernaryEntry) -> None:
        self.entries.remove(entry)
        self.max_priority = self.entries[0].priority

    @property
    def best(self) -> TernaryEntry:
        return self.entries[0]


class _Internal:
    __slots__ = ("bit", "descendants", "ternaries", "max_priority", "rep")

    def __init__(self, bit: int, stride: int, rep: Optional[TernaryKey] = None) -> None:
        self.bit = bit
        self.descendants: list[Optional[_Node]] = [None] * (1 << stride)
        self.ternaries: list[Optional[_Node]] = [None] * ((1 << stride) - 1)
        self.max_priority = -1
        # A key stored below this node (Patricia path compression: the
        # steps between a parent and child node are not materialized, so
        # an insert compares the new key against this representative,
        # digit by digit, to find where its path leaves the edge).  All
        # keys below share the digits the steps above self.bit consume,
        # so any representative is equivalent — even one whose entry
        # has since been deleted.  The root has none.
        self.rep = rep

    def get(self, kind: int, index: int) -> Optional["_Node"]:
        return self.descendants[index] if kind == EXACT else self.ternaries[index]

    def set(self, kind: int, index: int, node: Optional["_Node"]) -> None:
        if kind == EXACT:
            self.descendants[index] = node
        else:
            self.ternaries[index] = node

    def children(self) -> Iterator["_Node"]:
        # filter(None, ...) skips the empty slots in C (nodes are always
        # truthy), where a generator paid a Python-level test for each of
        # the 2^(k+1) - 1 slots.
        return chain(filter(None, self.descendants), filter(None, self.ternaries))


_Node = Union[_Leaf, _Internal]

#: an internal node and the slot a key takes there: (node, kind, index)
_Slot = tuple[_Internal, int, int]


def _lower_max(path: list[_Slot], removed: int) -> None:
    """Refresh ``max_priority`` bottom-up along ``path`` after an entry
    of priority ``removed`` left the subtree below it.  Only an ancestor
    whose maximum was ``removed`` can fall; the walk stops at the first
    whose maximum stands, since every node above it holds it too."""
    for node, _, _ in reversed(path):
        if node.max_priority != removed:
            return
        best = max([child.max_priority for child in node.children()], default=-1)
        if best == removed:
            return
        node.max_priority = best


class MultibitPalmtrie(TernaryMatcher):
    """Palmtrie_k with the §3.5 practical optimizations."""

    name = "palmtrie"

    def __init__(self, key_length: int, stride: int = 8, subtree_skipping: bool = True) -> None:
        super().__init__(key_length)
        if not 1 <= stride <= 16:
            raise ValueError(f"stride must be in 1..16, got {stride}")
        if key_length < stride:
            raise ValueError(f"stride {stride} exceeds key length {key_length}")
        self.stride = stride
        self.subtree_skipping = subtree_skipping
        self._root = _Internal(key_length - stride, stride)
        self._size = 0
        # Ternary slot indices per chunk value: slots for prefixes of
        # lengths 0..k-1 of the chunk, i.e. (i >> (k-l)) + 2**l - 1.
        self._ternary_slots = [
            tuple((i >> (stride - plen)) + (1 << plen) - 1 for plen in range(stride))
            for i in range(1 << stride)
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: Any
    ) -> "MultibitPalmtrie":
        """Bulk build: one top-down partition pass over the distinct keys.

        At a node of bit index B the keys below split by their step at B
        (read straight from each key's chunk, no step list).  A group of
        several keys gets an internal node at the first step where its
        keys' paths differ: the step of its first key that consumes the
        most significant digit where any two of them differ (the
        highest set bit of the OR of ``(d0 ^ d) | (m0 ^ m)``).  This is
        the canonical Patricia trie of the key set, so it equals the
        trie one :meth:`insert` per entry builds, node for node and
        leaf order included: entries sharing a key join one leaf in
        input order, best priority first.  A built trie starts at
        generation 0.
        """
        trie = cls(key_length, **kwargs)
        leaves: dict[tuple[int, int], _Leaf] = {}
        size = 0
        for entry in entries:
            key = entry.key
            if key.length != key_length:
                raise ValueError(
                    f"entry key length {key.length} != trie key length {key_length}"
                )
            leaf = leaves.get((key.data, key.mask))
            if leaf is None:
                leaves[key.data, key.mask] = _Leaf(entry)
            else:
                leaf.add(entry)
            size += 1
        trie._size = size
        if leaves:
            trie._partition(list(leaves.values()))
        return trie

    def _partition(self, leaves: list[_Leaf]) -> None:
        """Fill the empty root with ``leaves`` (distinct keys)."""
        stride = self.stride
        chunk_mask = (1 << stride) - 1
        slots = 1 << stride
        stack: list[tuple[_Internal, list[_Leaf]]] = [(self._root, leaves)]
        while stack:
            node, members = stack.pop()
            bit = node.bit
            node.max_priority = max([leaf.max_priority for leaf in members])
            # Group by slot: exact slot i is i, ternary slot i is 2**k + i
            # (_step inlined: this loop runs once per key per level).
            groups: dict[int, list[_Leaf]] = {}
            for leaf in members:
                key = leaf.key
                if bit >= 0:
                    wild = (key.mask >> bit) & chunk_mask
                    chunk = (key.data >> bit) & chunk_mask
                else:
                    wild = (key.mask << -bit) & chunk_mask
                    chunk = (key.data << -bit) & chunk_mask
                if wild:
                    star = wild.bit_length() - 1
                    chunk = slots + (1 << (stride - 1 - star)) + (chunk >> (star + 1)) - 1
                group = groups.get(chunk)
                if group is None:
                    groups[chunk] = [leaf]
                else:
                    group.append(leaf)
            descendants = node.descendants
            ternaries = node.ternaries
            for slot, group in groups.items():
                if len(group) == 1:
                    child: _Node = group[0]
                else:
                    rep = group[0].key
                    data, mask = rep.data, rep.mask
                    diff = 0
                    for leaf in group:
                        key = leaf.key
                        diff |= (data ^ key.data) | (mask ^ key.mask)
                    low = _step(data, mask, bit, stride)[2]
                    child = _Internal(
                        _divergence_bit(data, mask, low - 1, diff.bit_length() - 1, stride),
                        stride,
                        rep,
                    )
                    stack.append((child, group))
                if slot < slots:
                    descendants[slot] = child
                else:
                    ternaries[slot - slots] = child

    def insert(self, entry: TernaryEntry) -> None:
        key = entry.key
        if key.length != self.key_length:
            raise ValueError(
                f"entry key length {key.length} != trie key length {self.key_length}"
            )
        stride = self.stride
        data, mask = key.data, key.mask
        node = self._root
        while True:
            node.max_priority = max(node.max_priority, entry.priority)
            kind, index, low = _step(data, mask, node.bit, stride)
            child = node.get(kind, index)
            if child is None:
                node.set(kind, index, _Leaf(entry))
                break
            rep = child.key if isinstance(child, _Leaf) else child.rep
            diff = (data ^ rep.data) | (mask ^ rep.mask)
            if isinstance(child, _Internal):
                # Path compression: the edge to this internal child
                # skips the steps every key below shares, which consume
                # the digits above the child's chunk.  Follow it if the
                # new key agrees with the representative on all of them.
                if not diff >> (child.bit + stride):
                    node = child
                    continue
            elif not diff:
                child.add(entry)
                break
            # The paths diverge above the child: splice a node in at the
            # first step where they differ.
            bit = _divergence_bit(data, mask, low - 1, diff.bit_length() - 1, stride)
            split = _Internal(bit, stride, rep)
            split.max_priority = max(child.max_priority, entry.priority)
            new_kind, new_index, _ = _step(data, mask, bit, stride)
            rep_kind, rep_index, _ = _step(rep.data, rep.mask, bit, stride)
            split.set(new_kind, new_index, _Leaf(entry))
            split.set(rep_kind, rep_index, child)
            node.set(kind, index, split)
            break
        self._size += 1
        self.generation += 1

    def bulk_update(self, ops: Iterable[tuple[str, Any]]) -> tuple[int, int, int]:
        """Apply ``("insert", TernaryEntry)`` / ``("delete", TernaryKey)``
        pairs in order (one transaction of the serving engine).  Returns
        ``(inserted, deleted, missing_deletes)``."""
        inserted = deleted = missing = 0
        for op, payload in ops:
            if op == "insert":
                self.insert(payload)
                inserted += 1
            elif self.delete(payload):
                deleted += 1
            else:
                missing += 1
        return inserted, deleted, missing

    def remove_entry(self, entry: TernaryEntry) -> bool:
        """Remove one specific entry (key + value + priority).

        Unlike :meth:`delete`, other entries sharing the same ternary
        key survive — the granularity a single ACL rule withdrawal
        needs.  Returns True if the entry was present.
        """
        path, leaf = self._path_to(entry.key)
        if leaf is None or entry not in leaf.entries:
            return False
        if len(leaf.entries) == 1:
            self._unlink(path, leaf)
            return True
        leaf.remove(entry)
        self._size -= 1
        self.generation += 1
        if leaf.max_priority < entry.priority:
            _lower_max(path, entry.priority)
        return True

    def delete(self, key: TernaryKey) -> bool:
        """Remove all entries stored under exactly this ternary key."""
        path, leaf = self._path_to(key)
        if leaf is None:
            return False
        self._unlink(path, leaf)
        return True

    def _path_to(self, key: TernaryKey) -> tuple[list[_Slot], Optional[_Leaf]]:
        """The slots from the root down to ``key``'s leaf, and that leaf
        (None if the key is not stored).  The descent steps with
        :func:`_step` as :meth:`insert` does; a stored key has a step at
        every node on its path, so only the leaf's key is compared."""
        if key.length != self.key_length:
            raise ValueError(f"key length {key.length} != trie key length {self.key_length}")
        stride = self.stride
        data, mask = key.data, key.mask
        path: list[_Slot] = []
        node = self._root
        while True:
            kind, index, _ = _step(data, mask, node.bit, stride)
            path.append((node, kind, index))
            child = node.get(kind, index)
            if type(child) is _Internal:
                node = child
            elif child is not None and child.key == key:
                return path, child
            else:
                return path, None

    def _unlink(self, path: list[_Slot], leaf: _Leaf) -> None:
        """Take ``leaf`` (the end of ``path``) out of the trie.

        A non-root parent left with one child hands it to the
        grandparent, where a build of the remaining keys puts it, so
        churn leaves the canonical trie.
        """
        parent, kind, index = path[-1]
        parent.set(kind, index, None)
        # Is the parent left with one child?  list.count tests the empty
        # slots in C, four times faster than listing the children.
        empty = parent.descendants.count(None) + parent.ternaries.count(None)
        if len(path) > 1 and empty == (2 << self.stride) - 2:
            path.pop()
            grand, kind, index = path[-1]
            grand.set(kind, index, next(parent.children()))
        self._size -= len(leaf.entries)
        self.generation += 1
        _lower_max(path, leaf.max_priority)

    # ------------------------------------------------------------------
    # Lookup (Algorithm 2)
    # ------------------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        skipping = self.subtree_skipping
        result: Optional[TernaryEntry] = None
        result_priority = -1
        stack: list[_Node] = [self._root]
        push = stack.append
        pop = stack.pop
        while stack:
            x = pop()
            if skipping and result_priority > x.max_priority:
                continue
            if type(x) is _Leaf:
                if query & x.care_mask == x.data and x.max_priority > result_priority:
                    result = x.entries[0]
                    result_priority = result.priority
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            child = x.descendants[i]
            if child is not None:
                push(child)
            ternaries = x.ternaries
            for slot in slots[i]:
                t = ternaries[slot]
                if t is not None:
                    push(t)
        return result

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """All matching entries, highest priority first (no skipping)."""
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        matches: list[TernaryEntry] = []
        stack: list[_Node] = [self._root]
        while stack:
            x = stack.pop()
            if type(x) is _Leaf:
                if query & x.care_mask == x.data:
                    matches.extend(x.entries)
                continue
            bit = x.bit
            if bit >= 0:
                i = (query >> bit) & chunk_mask
            else:
                i = (query << -bit) & chunk_mask
            child = x.descendants[i]
            if child is not None:
                stack.append(child)
            for slot in slots[i]:
                t = x.ternaries[slot]
                if t is not None:
                    stack.append(t)
        matches.sort(key=lambda e: e.priority, reverse=True)
        return matches

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Counted traversal hook for :meth:`profile_lookup`."""
        chunk_mask = (1 << self.stride) - 1
        slots = self._ternary_slots
        skipping = self.subtree_skipping
        result: Optional[TernaryEntry] = None
        result_priority = -1
        visits = comparisons = 0
        stack: list[_Node] = [self._root]
        while stack:
            x = stack.pop()
            if skipping and result_priority > x.max_priority:
                continue
            visits += 1
            if type(x) is _Leaf:
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
            child = x.descendants[i]
            if child is not None:
                stack.append(child)
            for slot in slots[i]:
                t = x.ternaries[slot]
                if t is not None:
                    stack.append(t)
        return result, visits, comparisons

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def entries(self) -> Iterator[TernaryEntry]:
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                yield from node.entries
            else:
                stack.extend(node.children())

    def node_count(self) -> tuple[int, int]:
        """(internal nodes, leaves)."""
        internal = leaves = 0
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                leaves += 1
            else:
                internal += 1
                stack.extend(node.children())
        return internal, leaves

    def depth(self) -> int:
        best = 0
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            if isinstance(node, _Internal):
                stack.extend((c, depth + 1) for c in node.children())
        return best

    def memory_bytes(self) -> int:
        """C-layout model (the quantity Figure 9 plots): each internal
        node allocates ``2**(k+1) - 1`` 8-byte pointers plus its bit
        index and max_priority; each leaf stores the 2L-bit key and its
        max_priority, plus an 8-byte value and a 4-byte priority for
        *every* entry sharing that key (§3.6's motivation: over 4 KiB
        per node at k = 8).  Entries are charged individually because a
        leaf whose key several rules share keeps the whole list — the
        serialized form writes every one of them.
        """
        internal, leaves = self.node_count()
        pointers = (1 << (self.stride + 1)) - 1
        internal_bytes = pointers * 8 + 4 + 4
        key_bytes = 2 * (self.key_length // 8)
        leaf_bytes = key_bytes + 4
        entry_bytes = 8 + 4
        return internal * internal_bytes + leaves * leaf_bytes + len(self) * entry_bytes
