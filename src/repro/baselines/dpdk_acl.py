"""DPDK-ACL-style baseline: an 8-bit stride decision trie.

``librte_acl`` (the classifier behind DPDK's ``l3fwd-acl`` example the
paper compares against) compiles the whole rule set into multi-bit
stride tries walked byte by byte, giving very fast, nearly
constant-work lookups — at the price of a build step whose size and
time blow up combinatorially on extensive ACLs (paper §2, §4.4: more
than three hours for 279 K entries).

This reimplementation keeps exactly those two structural behaviours:

* **Lookup** walks one node per key byte (16 loads for L = 128), each a
  direct 256-way index — the fast path of a stride-8 trie.
* **Build** performs the rule-set-subdivision that causes librte_acl's
  blowup: each trie node materializes the set of rules still alive
  after the bytes consumed so far, and children are deduplicated by
  alive-set.  The number of distinct states grows superlinearly with
  overlapping wildcard rules, which is where the long build times come
  from.  A ``state_limit`` guard raises :class:`BuildExplosionError`
  instead of looping for hours (the paper reports DPDK-ACL/EffiCuts
  "N/A" cells the same way).

A state resolves to a leaf early when its highest-priority alive rule
is all-wildcard over the remaining bytes (it then beats every other
candidate on every completion), mirroring librte_acl's match nodes.

Like librte_acl, the builder can *split* the rule set into several
tries (``max_tries > 1``): rules are grouped by their per-byte wildcard
signature, so rules wild in different fields stop multiplying each
other's states.  A lookup then walks every trie and keeps the best
priority — more memory loads per lookup, far smaller builds.  This is
the trade the real library makes to get extensive ACLs built at all
(§2: it still takes hours at 279 K entries).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..core.table import TernaryEntry, TernaryMatcher

__all__ = ["DpdkStyleAcl", "BuildExplosionError"]


class BuildExplosionError(RuntimeError):
    """Raised when trie construction exceeds the configured state budget."""


class _Node:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: list[Any] = [None] * 256


class DpdkStyleAcl(TernaryMatcher):
    """Byte-stride decision trie over the full ternary rule set."""

    name = "dpdk-acl"

    def __init__(self, key_length: int, state_limit: int = 1_000_000, max_tries: int = 1) -> None:
        super().__init__(key_length)
        if key_length % 8:
            raise ValueError(f"key length must be a multiple of 8, got {key_length}")
        if max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {max_tries}")
        self.state_limit = state_limit
        self.max_tries = max_tries
        self._entries: list[TernaryEntry] = []
        self._roots: list[Any] = []
        self._state_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, entry: TernaryEntry) -> None:
        raise NotImplementedError(
            "dpdk-acl does not support incremental updates (paper §4.4); "
            "use DpdkStyleAcl.build()"
        )

    @classmethod
    def build(
        cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: Any
    ) -> "DpdkStyleAcl":
        matcher = cls(key_length, **kwargs)
        matcher._entries = sorted(entries, key=lambda e: e.priority, reverse=True)
        for entry in matcher._entries:
            if entry.key.length != key_length:
                raise ValueError(
                    f"entry key length {entry.key.length} != table key length {key_length}"
                )
        matcher._compile()
        return matcher

    def _compile(self) -> None:
        self._state_count = 0
        self._roots = []
        for group in self._split_groups():
            self._roots.append(self._compile_group(group))

    def _split_groups(self) -> list[list[TernaryEntry]]:
        """Partition entries by per-byte wildcard signature (librte_acl's
        trie splitting), merging down to at most ``max_tries`` groups."""
        if self.max_tries == 1 or len(self._entries) <= 1:
            return [self._entries] if self._entries else []
        groups: dict[tuple[bool, ...], list[TernaryEntry]] = {}
        for entry in self._entries:
            signature = tuple(
                (entry.key.mask >> shift) & 0xFF == 0xFF
                for shift in range(self.key_length - 8, -8, -8)
            )
            groups.setdefault(signature, []).append(entry)
        ordered = sorted(groups.values(), key=len, reverse=True)
        if len(ordered) > self.max_tries:
            head = ordered[: self.max_tries - 1]
            tail: list[TernaryEntry] = []
            for group in ordered[self.max_tries - 1 :]:
                tail.extend(group)
            tail.sort(key=lambda e: e.priority, reverse=True)
            ordered = head + [tail]
        return ordered

    def _compile_group(self, entries: list[TernaryEntry]) -> Any:
        depth_bytes = self.key_length // 8
        n = len(entries)
        # Per rule and byte position: the (data, mask) byte patterns.
        data_bytes = [
            [(e.key.data >> (self.key_length - 8 * (d + 1))) & 0xFF for d in range(depth_bytes)]
            for e in entries
        ]
        mask_bytes = [
            [(e.key.mask >> (self.key_length - 8 * (d + 1))) & 0xFF for d in range(depth_bytes)]
            for e in entries
        ]
        # wild_from[r][d]: rule r is all-wildcard from byte d onward.
        wild_from = []
        for r in range(n):
            suffix = [True] * (depth_bytes + 1)
            for d in range(depth_bytes - 1, -1, -1):
                suffix[d] = suffix[d + 1] and mask_bytes[r][d] == 0xFF
            wild_from.append(suffix)

        memo: dict[tuple[int, tuple[int, ...]], Any] = {}

        def make_state(depth: int, alive: tuple[int, ...]) -> Any:
            """A trie node (or leaf result) for the alive rules at depth."""
            if not alive:
                return None
            if depth >= depth_bytes or wild_from[alive[0]][depth]:
                # Every completion matches the top-priority alive rule.
                return entries[alive[0]]
            key = (depth, alive)
            cached = memo.get(key)
            if cached is not None:
                return cached
            self._state_count += 1
            if self._state_count > self.state_limit:
                raise BuildExplosionError(
                    f"trie construction exceeded {self.state_limit} states "
                    f"({len(entries)} rules)"
                )
            node = _Node()
            memo[key] = node
            # Group alive rules by their byte pattern at this depth.
            pattern_rules: dict[tuple[int, int], list[int]] = {}
            for r in alive:
                pattern_rules.setdefault((data_bytes[r][depth], mask_bytes[r][depth]), []).append(r)
            wild_rules = pattern_rules.pop((0, 0xFF), [])
            # Which specific patterns match each byte value.
            value_patterns: list[list[tuple[int, int]]] = [[] for _ in range(256)]
            for (db, mb), _rules in pattern_rules.items():
                # Enumerate all byte values matching the pattern: db | submask(mb).
                sub = mb
                while True:
                    value_patterns[db | sub].append((db, mb))
                    if sub == 0:
                        break
                    sub = (sub - 1) & mb
            # Deduplicate children by their pattern signature before
            # materializing (and re-memoizing) the alive subsets.
            signature_child: dict[tuple[tuple[int, int], ...], Any] = {}
            for value in range(256):
                signature = tuple(value_patterns[value])
                child = signature_child.get(signature)
                if child is None and signature not in signature_child:
                    survivors = wild_rules + [
                        r for pattern in signature for r in pattern_rules[pattern]
                    ]
                    survivors.sort()  # rule ids are priority-ordered
                    child = make_state(depth + 1, tuple(survivors))
                    signature_child[signature] = child
                node.children[value] = signature_child[signature]
            return node

        return make_state(0, tuple(range(n)))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        top_shift = self.key_length - 8
        best: Optional[TernaryEntry] = None
        for node in self._roots:
            shift = top_shift
            while type(node) is _Node:
                node = node.children[(query >> shift) & 0xFF]
                shift -= 8
            if node is not None and (best is None or node.priority > best.priority):
                best = node
        return best

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Counted traversal hook for :meth:`profile_lookup`."""
        top_shift = self.key_length - 8
        best: Optional[TernaryEntry] = None
        visits = 0
        for node in self._roots:
            shift = top_shift
            while type(node) is _Node:
                visits += 1
                node = node.children[(query >> shift) & 0xFF]
                shift -= 8
            if node is not None and (best is None or node.priority > best.priority):
                best = node
        return best, visits, 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def state_count(self) -> int:
        """Distinct trie nodes built — the build-blowup driver."""
        return self._state_count

    @property
    def trie_count(self) -> int:
        """Tries actually built (<= max_tries)."""
        return len(self._roots)

    def memory_bytes(self) -> int:
        """C-layout model: 256 8-byte transitions per trie node plus the
        rule records (this is why real librte_acl tries get huge)."""
        key_bytes = 2 * (self.key_length // 8)
        return self._state_count * 256 * 8 + len(self._entries) * (key_bytes + 8 + 4)

