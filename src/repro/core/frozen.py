"""Frozen struct-of-arrays lookup plane: the paper's Palmtrie+ (§3.6).

The mutable tries in this package are graphs of Python objects: every
lookup pays attribute loads, bitmap slicing on wide Python ints, and an
inner slot loop per node visit.  The paper's practical message — and the
one cache-aware flattened forwarding structures and computational
classifiers make across the literature — is that the hot path belongs in
contiguous arrays.  :func:`freeze` is that compiler for Python: it takes
a *built* :class:`~repro.core.multibit.MultibitPalmtrie` and emits the
whole trie as flat parallel integer arrays:

* ``bit`` / ``max_priority`` — per-node chunk index and priority
  ceiling (the §3.5 subtree-skipping bound), in :mod:`array` arrays;
* a *dispatch table* — for every (internal node, chunk value) pair one
  packed ``array('I')`` word: ``(target << 5) | 1`` when exactly one
  child survives that chunk (the overwhelmingly common case — the walk
  follows these chains without touching its stack), otherwise
  ``(base << 5) | count`` locating the surviving children inside one
  shared ``array('Q')`` push list.  This is the Palmtrie+ popcount
  child indexing with the popcounts taken **once at freeze time**: the
  per-lookup ``offset + popcount(bitmap & (1 << i) - 1)`` arithmetic
  and the §3.4 ternary-slot loop both collapse into a single indexed
  word.  Identical multi-successor runs are deduplicated, so chunks
  that fall through to the same don't-care children share one run;
* a separate *leaf-entry table* — per-leaf precomputed ``data`` /
  ``care`` match words plus a flat, priority-sorted entry list.

The compiler emits a node's dispatch words per don't-care *interval*,
not per chunk, so its cost follows the children a node has rather
than its 2^k chunks.  The don't-care child at ternary slot ``h`` has
prefix length ``p = (h+1).bit_length() - 1`` and value
``v = h + 1 - 2**p``; it covers exactly the aligned chunk range
``[v << (k-p), (v+1) << (k-p))``.  One node's ranges nest or are
disjoint, so cutting ``[0, 2**k)`` at every range bound leaves
intervals over which the don't-care tail of every run is constant.
Each interval's word is written with one slice assignment, then the
chunks that have an exact child are overwritten with ``[exact] +
tail``.  Multi-child runs are still registered in ascending chunk
order, so the image is the one the per-chunk loop would emit.

``lookup`` is then an allocation-free iterative loop over integer node
ids (internals first, leaves above ``first_leaf``).  ``lookup_batch``
deduplicates the batch and runs that same loop once per unique query,
at every batch size.  The arrays are the canonical plane — what
:meth:`memory_bytes` measures and :mod:`repro.core.serialize` writes;
because indexing an :mod:`array` boxes a fresh int on every access, each
freeze also keeps plain-list mirrors of the hot arrays for the
interpreter loop.

A frozen plane is immutable.  Updates go to the Palmtrie_k it was
compiled from (paper §3.6), and the serving engine refreezes a new
plane from it; a plane loaded from disk
(:func:`repro.core.serialize.load_frozen`) carries no source trie, and
:meth:`FrozenMatcher.rebuild_source` builds one from its entries when
one is needed.  A plane is a pure function of the Palmtrie_k it is
frozen from: nodes are numbered in one order, breadth-first.

This plane is the repository's one compiled form of Algorithm 3: it
holds exactly the Palmtrie_k's nodes, visits exactly the nodes the
Palmtrie_k visits, and ``FrozenMatcher.build(entries, key_length,
stride=k)`` is the Palmtrie+_k of the experiment drivers.  Figure 6's
C-layout memory model of that Palmtrie+ is a function of the plane's
node counts (:func:`repro.bench.memory.palmtrie_plus_bytes`); the
plane's own :meth:`~FrozenMatcher.memory_bytes` stays its true
footprint.
"""

from __future__ import annotations

import time
from array import array
from functools import lru_cache
from itertools import compress
from typing import Any, Iterable, Iterator, Optional, Sequence

from .multibit import MultibitPalmtrie
from .multibit import _Leaf as _MbLeaf
from .table import TernaryEntry, TernaryMatcher

__all__ = ["FrozenMatcher", "freeze"]

#: bits reserved for the successor count in a packed dispatch word;
#: count <= stride + 1, so any stride up to 30 fits.
_COUNT_BITS = 5
_COUNT_MASK = (1 << _COUNT_BITS) - 1


@lru_cache(maxsize=8)
def _ternary_slots(stride: int) -> list[tuple[int, ...]]:
    """Per-stride ternary slot tables (same indexing as the mutable
    tries): ``slots[i][l]`` is the don't-care slot for the length-l
    prefix of chunk ``i``.

    These are the slots Algorithm 3's don't-care loop probes.  The
    paper's line 20 tests ``x.bitmap_c`` inside that loop; that is a
    typo for ``x.bitmap_t``, the bitmap whose popcount line 21 takes.
    The freeze compiler reads the ternary children these slots name,
    which is the ``bitmap_t`` reading.

    Bounded LRU memo: a stride-16 table alone is 64 Ki tuples, so the
    cache keeps the hottest few and exposes the
    :func:`functools.lru_cache` surface (``cache_clear()`` /
    ``cache_info()``) so operators can drop the tables outright.
    """
    return [
        tuple((i >> (stride - plen)) + (1 << plen) - 1 for plen in range(stride))
        for i in range(1 << stride)
    ]


class FrozenMatcher(TernaryMatcher):
    """A Palmtrie compiled into flat parallel arrays (struct-of-arrays).

    Build one with :func:`freeze` (from an existing trie), the usual
    ``FrozenMatcher.build(entries, key_length, stride=8)``, or
    :func:`repro.core.serialize.load_frozen`.  A plane is read-only:
    updates go to its source trie, and a new plane is frozen from it.
    """

    name = "frozen"

    # Work/latency counters for the observability plane.  Class-level
    # defaults on purpose: deserialized planes construct via ``__new__``
    # and must still read as zero; the compiler and ``+=`` shadow them
    # with instance attributes.
    #: seconds the freeze compiler spent on this plane
    freeze_seconds_total = 0.0
    #: what one freeze of this plane costs: the compiler's seconds, or
    #: for a loaded plane the engine's rebuild of its source (the
    #: engine's overlay pays up to this much before it compacts)
    last_freeze_seconds = 0.0
    #: (node, query) pairs the batch walk visited after skipping
    batch_walk_node_visits = 0
    #: resilience-plane hook: a :class:`~repro.resilience.faults.FaultInjector`
    #: installed class-wide (so deserialized planes built via ``__new__``
    #: see it too); None in production — one identity test per walk
    _fault_injector = None

    def __init__(
        self,
        key_length: int,
        stride: int = 8,
        subtree_skipping: bool = True,
    ) -> None:
        """An empty plane; :meth:`build` and :meth:`from_matcher` compile
        filled ones."""
        self._compile(
            MultibitPalmtrie(key_length, stride=stride, subtree_skipping=subtree_skipping)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        entries: Iterable[TernaryEntry],
        key_length: int,
        *,
        stride: int = 8,
        subtree_skipping: bool = True,
    ) -> "FrozenMatcher":
        """Bulk build: fill a source Palmtrie_k, then freeze it once."""
        source = MultibitPalmtrie.build(
            entries, key_length, stride=stride, subtree_skipping=subtree_skipping
        )
        return cls.from_matcher(source)

    @classmethod
    def from_matcher(cls, source: TernaryMatcher) -> "FrozenMatcher":
        """Compile an existing built Palmtrie_k (the §3.6 compilation
        step, and the :func:`freeze` entry point)."""
        if not isinstance(source, MultibitPalmtrie):
            raise TypeError(
                f"cannot freeze {type(source).__name__}; expected MultibitPalmtrie"
            )
        frozen = cls.__new__(cls)
        frozen._compile(source)
        return frozen

    def insert(self, entry: TernaryEntry) -> None:
        """A plane is read-only: updates go to the Palmtrie_k it is
        compiled from (a :class:`~repro.engine.ClassificationEngine`
        serves them behind the plane and refreezes)."""
        raise NotImplementedError("a frozen plane is read-only; update its source trie")

    def rebuild_source(self) -> MultibitPalmtrie:
        """A fresh Palmtrie_k holding this plane's entries (a plane
        loaded from PLMF bytes carries no source trie).  Entries go in
        table order, best first within each leaf, so ties keep the
        winner this plane serves."""
        return MultibitPalmtrie.build(
            self._entry_table,
            self.key_length,
            stride=self.stride,
            subtree_skipping=self.subtree_skipping,
        )

    # -- the freeze compiler --------------------------------------------

    def _compile(self, source: MultibitPalmtrie) -> None:
        """Compile the arrays from the Palmtrie_k ``source``."""
        freeze_start = time.perf_counter()
        TernaryMatcher.__init__(self, source.key_length)
        self.stride = source.stride
        self.subtree_skipping = source.subtree_skipping

        # Pass 1: breadth-first id assignment (internals and leaves
        # numbered separately; leaves sit above every internal id).
        internals: list[Any] = []
        leaves: list[Any] = []
        order: list[Any] = [source._root]
        kids: dict[int, tuple[dict[int, Any], dict[int, Any]]] = {}
        cursor = 0
        while cursor < len(order):
            node = order[cursor]
            cursor += 1
            if type(node) is _MbLeaf:
                leaves.append(node)
                continue
            internals.append(node)
            # compress() keeps the occupied slots (nodes are truthy)
            # without a Python-level test per slot.
            exact_slots = node.descendants
            ternary_slots = node.ternaries
            exact = {i: exact_slots[i] for i in compress(range(len(exact_slots)), exact_slots)}
            ternary = {
                h: ternary_slots[h] for h in compress(range(len(ternary_slots)), ternary_slots)
            }
            kids[id(node)] = (exact, ternary)
            order.extend(exact.values())
            order.extend(ternary.values())

        self._emit(internals, leaves, kids)
        self.last_freeze_seconds = time.perf_counter() - freeze_start
        self.freeze_seconds_total = self.last_freeze_seconds

    def _emit(
        self,
        internals: list[Any],
        leaves: list[Any],
        kids: dict[int, tuple[dict[int, Any], dict[int, Any]]],
    ) -> None:
        """Pass 2: emit the flat arrays, node ids in list order (internals
        first, then leaves)."""
        stride = self.stride
        first_leaf = len(internals)
        ids: dict[int, int] = {id(n): x for x, n in enumerate(internals)}
        ids.update({id(n): first_leaf + j for j, n in enumerate(leaves)})

        dispatch = array("I", bytes(4 * (first_leaf << stride)))

        bit_arr = array("i", bytes(4 * first_leaf))
        maxp_arr = array("q", bytes(8 * (first_leaf + len(leaves))))
        for x, node in enumerate(internals):
            bit_arr[x] = node.bit
            maxp_arr[x] = node.max_priority
        for j, leaf in enumerate(leaves):
            maxp_arr[first_leaf + j] = leaf.max_priority

        push: list[int] = []
        run_pool: dict[tuple[int, ...], int] = {}

        def word(run: list[int]) -> int:
            """The dispatch word for one chunk's survivors (never empty)."""
            if len(run) == 1:
                # Single survivor: the dispatch word IS the target.
                return (run[0] << _COUNT_BITS) | 1
            signature = tuple(run)
            base = run_pool.get(signature)
            if base is None:
                base = len(push)
                push.extend(run)
                run_pool[signature] = base
            return (base << _COUNT_BITS) | len(run)

        slots_of = _ternary_slots(stride)
        chunks = 1 << stride
        for x, node in enumerate(internals):
            base_slot = x << stride
            exact, ternary = kids[id(node)]
            # The don't-care child at slot h (prefix length p, value v)
            # covers the aligned chunk range [v << (k-p), (v+1) << (k-p)).
            # One node's ranges nest or are disjoint, so cutting the
            # chunk space at every range bound leaves intervals over
            # which the don't-care tail of the run is constant.
            cuts = {0, chunks}
            for h in ternary:
                p = (h + 1).bit_length() - 1
                shift = stride - p
                v = h + 1 - (1 << p)
                cuts.add(v << shift)
                cuts.add((v + 1) << shift)
            bounds = sorted(cuts)
            exact_chunks = iter(exact)  # ascending: insertion order
            chunk = next(exact_chunks, chunks)
            for lo, hi in zip(bounds, bounds[1:]):
                # Push order mirrors the mutable lookups: exact child
                # first, then don't-care slots from the shortest prefix
                # up, so the pop order (and therefore which of several
                # equal-priority winners is reported) is unchanged.
                tail = [ids[id(ternary[h])] for h in slots_of[lo] if h in ternary]
                # Runs register in ascending chunk order: exact chunks
                # below the interval's first exact-free chunk, then the
                # tail's own run there, then the remaining exact chunks.
                free = lo
                while chunk == free < hi:
                    dispatch[base_slot + chunk] = word([ids[id(exact[chunk])]] + tail)
                    free += 1
                    chunk = next(exact_chunks, chunks)
                if tail and free < hi:
                    dispatch[base_slot + free : base_slot + hi] = array(
                        "I", [word(tail)]
                    ) * (hi - free)
                while chunk < hi:
                    dispatch[base_slot + chunk] = word([ids[id(exact[chunk])]] + tail)
                    chunk = next(exact_chunks, chunks)

        leaf_data: list[int] = []
        leaf_care: list[int] = []
        leaf_best: list[TernaryEntry] = []
        entry_base = array("Q", bytes(8 * len(leaves)))
        entry_count = array("Q", bytes(8 * len(leaves)))
        entry_table: list[TernaryEntry] = []
        for j, leaf in enumerate(leaves):
            leaf_data.append(leaf.data)
            leaf_care.append(leaf.care_mask)
            leaf_best.append(leaf.entries[0])
            entry_base[j] = len(entry_table)
            entry_count[j] = len(leaf.entries)
            entry_table.extend(leaf.entries)

        self._bit = bit_arr
        self._maxp = maxp_arr
        self._dispatch = dispatch
        self._push = array("Q", push)
        self._leaf_data = leaf_data
        self._leaf_care = leaf_care
        self._leaf_best = leaf_best
        self._leaf_entry_base = entry_base
        self._leaf_entry_count = entry_count
        self._entry_table = entry_table
        self._first_leaf = first_leaf
        self._build_hot()

    def _build_hot(self) -> None:
        """Derive the scalar loop's hot mirrors from the canonical arrays.

        Indexing an ``array`` boxes a fresh int on every access; these
        lists hold the already-boxed values, and one attribute load +
        unpack per lookup replaces a dozen.  Both the freeze compiler
        and :func:`repro.core.serialize.load_frozen` call this, so a
        loaded plane carries every mirror a freshly compiled one does.

        ``_node_bits`` is the other mirror: per internal node, the query
        bits its dispatch reads (its whole chunk), which the masked walk
        ORs into the bits a query's verdict depends on.  Like ``_hot`` it
        is derived, never serialized.
        """
        stride = self.stride
        chunk_mask = (1 << stride) - 1
        bits = list(self._bit)
        self._hot = (
            list(self._maxp),
            bits,
            list(self._dispatch),
            list(self._push),
            self._leaf_data,
            self._leaf_care,
            self._leaf_best,
            self._first_leaf,
            stride,
            chunk_mask,
            self.subtree_skipping,
        )
        self._node_bits = [
            chunk_mask << b if b >= 0 else chunk_mask >> -b for b in bits
        ]

    # ------------------------------------------------------------------
    # Lookup: an iterative loop over array indices
    # ------------------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        injector = self._fault_injector
        if injector is not None:
            injector.check("frozen_walk")
        (
            maxp, bits, dispatch, push, data, care, best_of,
            first_leaf, stride, chunk_mask, skipping,
        ) = self._hot
        if first_leaf == 0 and not data:
            return None
        count_mask = _COUNT_MASK
        count_bits = _COUNT_BITS
        result: Optional[TernaryEntry] = None
        result_priority = -1
        stack = [0]
        pop = stack.pop
        extend = stack.extend
        while stack:
            x = pop()
            # Inner loop: follow single-successor chains without
            # touching the stack (the dominant dispatch shape).
            while True:
                mp = maxp[x]
                if skipping and result_priority > mp:
                    break
                if x >= first_leaf:
                    j = x - first_leaf
                    if query & care[j] == data[j] and mp > result_priority:
                        result = best_of[j]
                        result_priority = mp
                    break
                b = bits[x]
                if b >= 0:
                    packed = dispatch[(x << stride) + ((query >> b) & chunk_mask)]
                else:
                    packed = dispatch[(x << stride) + ((query << -b) & chunk_mask)]
                c = packed & count_mask
                if c == 1:
                    x = packed >> count_bits
                    continue
                if c == 0:
                    break
                # Continue with the run's LAST element (the one the
                # LIFO walk would pop first) and stack the rest.
                base = packed >> count_bits
                x = push[base + c - 1]
                extend(push[base : base + c - 1])
        return result

    def _scalar_walk(self, queries: Sequence[int]) -> tuple[list[int], int]:
        """:meth:`lookup`'s walk over many queries: the winning leaf index
        of each (-1 where nothing matches) and the (node, query) pairs
        visited after skipping.

        Batches run here when the caller wants no masks.  It is
        :meth:`_scalar_walk_masks` without the mask ORs, which cost
        8-26% per query on the ledger's acl/fw queries
        (docs/algorithms.md, "The cost"); ``tests/test_frozen.py`` pins
        the two loops to the same winners and visit counts.  It is a
        copy of ``lookup``'s loop rather than its callee: routing
        ``lookup`` through it (a call, a one-tuple, a result list) cost
        it 10-13% per query on 500-rule acl/fw sets.
        """
        (
            maxp, bits, dispatch, push, data, care, _best_of,
            first_leaf, stride, chunk_mask, skipping,
        ) = self._hot
        count_mask = _COUNT_MASK
        count_bits = _COUNT_BITS
        winners: list[int] = []
        visits = 0
        # One stack for every query: each walk leaves it empty.
        stack: list[int] = []
        pop = stack.pop
        extend = stack.extend
        for query in queries:
            winner = winner_priority = -1
            x = 0
            while True:
                mp = maxp[x]
                if not (skipping and winner_priority > mp):
                    visits += 1
                    if x >= first_leaf:
                        if mp > winner_priority:
                            j = x - first_leaf
                            if query & care[j] == data[j]:
                                winner = j
                                winner_priority = mp
                    else:
                        b = bits[x]
                        if b >= 0:
                            packed = dispatch[(x << stride) + ((query >> b) & chunk_mask)]
                        else:
                            packed = dispatch[(x << stride) + ((query << -b) & chunk_mask)]
                        c = packed & count_mask
                        if c == 1:
                            x = packed >> count_bits
                            continue
                        if c:
                            base = packed >> count_bits
                            x = push[base + c - 1]
                            extend(push[base : base + c - 1])
                            continue
                if not stack:
                    break
                x = pop()
            winners.append(winner)
        return winners, visits

    def _scalar_walk_masks(self, queries: Sequence[int]) -> tuple[list[int], list[int], int]:
        """:meth:`_scalar_walk` that also returns the bits each walk
        examined (the region tier's batches).

        A query's examined-bit mask ``M`` is the union of the chunk
        (``_node_bits``) of every internal node it visits and the
        ``care`` word of every leaf it tests while that leaf could still
        win (``mp > winner_priority``).  Every branch the walk takes
        reads only bits in ``M``, and a skip decision depends only on
        earlier outcomes, so any ``q'`` with ``q' & M == q & M`` takes
        the same walk to the same leaf: ``(q & M, M)`` is a decision
        region (docs/algorithms.md).
        """
        (
            maxp, bits, dispatch, push, data, care, _best_of,
            first_leaf, stride, chunk_mask, skipping,
        ) = self._hot
        node_bits = self._node_bits
        count_mask = _COUNT_MASK
        count_bits = _COUNT_BITS
        winners: list[int] = []
        masks: list[int] = []
        visits = 0
        # One stack for every query: each walk leaves it empty.
        stack: list[int] = []
        pop = stack.pop
        extend = stack.extend
        for query in queries:
            winner = winner_priority = -1
            mask = 0
            x = 0
            while True:
                mp = maxp[x]
                if not (skipping and winner_priority > mp):
                    visits += 1
                    if x >= first_leaf:
                        if mp > winner_priority:
                            j = x - first_leaf
                            leaf_care = care[j]
                            mask |= leaf_care
                            if query & leaf_care == data[j]:
                                winner = j
                                winner_priority = mp
                    else:
                        mask |= node_bits[x]
                        b = bits[x]
                        if b >= 0:
                            packed = dispatch[(x << stride) + ((query >> b) & chunk_mask)]
                        else:
                            packed = dispatch[(x << stride) + ((query << -b) & chunk_mask)]
                        c = packed & count_mask
                        # Follow single-successor chains without touching
                        # the stack (the dominant dispatch shape).
                        if c == 1:
                            x = packed >> count_bits
                            continue
                        if c:
                            # Continue with the run's LAST element (the one
                            # the LIFO walk would pop first); stack the rest.
                            base = packed >> count_bits
                            x = push[base + c - 1]
                            extend(push[base : base + c - 1])
                            continue
                if not stack:
                    break
                x = pop()
            winners.append(winner)
            masks.append(mask)
        return winners, masks, visits

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        """All matching entries, highest priority first (no skipping)."""
        (
            _maxp, bits, dispatch, push, data, care, _best_of,
            first_leaf, stride, chunk_mask, _skipping,
        ) = self._hot
        entry_base = self._leaf_entry_base
        entry_count = self._leaf_entry_count
        entry_table = self._entry_table
        matches: list[TernaryEntry] = []
        stack = [0] if (first_leaf or data) else []
        while stack:
            x = stack.pop()
            if x >= first_leaf:
                j = x - first_leaf
                if query & care[j] == data[j]:
                    base = entry_base[j]
                    matches.extend(entry_table[base : base + entry_count[j]])
                continue
            b = bits[x]
            base_slot = x << stride
            if b >= 0:
                s = base_slot + ((query >> b) & chunk_mask)
            else:
                s = base_slot + ((query << -b) & chunk_mask)
            packed = dispatch[s]
            c = packed & _COUNT_MASK
            if c == 1:
                stack.append(packed >> _COUNT_BITS)
            elif c:
                base = packed >> _COUNT_BITS
                stack.extend(push[base : base + c])
        matches.sort(key=lambda e: e.priority, reverse=True)
        return matches

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """Counted traversal hook for :meth:`profile_lookup`."""
        (
            maxp, bits, dispatch, push, data, care, best_of,
            first_leaf, stride, chunk_mask, skipping,
        ) = self._hot
        result: Optional[TernaryEntry] = None
        result_priority = -1
        visits = comparisons = 0
        stack = [0] if (first_leaf or data) else []
        while stack:
            x = stack.pop()
            mp = maxp[x]
            if skipping and result_priority > mp:
                continue
            visits += 1
            if x >= first_leaf:
                comparisons += 1
                j = x - first_leaf
                if query & care[j] == data[j] and mp > result_priority:
                    result = best_of[j]
                    result_priority = mp
                continue
            b = bits[x]
            base_slot = x << stride
            if b >= 0:
                s = base_slot + ((query >> b) & chunk_mask)
            else:
                s = base_slot + ((query << -b) & chunk_mask)
            packed = dispatch[s]
            c = packed & _COUNT_MASK
            if c == 1:
                stack.append(packed >> _COUNT_BITS)
            elif c:
                base = packed >> _COUNT_BITS
                stack.extend(push[base : base + c])
        return result, visits, comparisons

    # ------------------------------------------------------------------
    # Batched lookup: the scalar loop once per unique query
    # ------------------------------------------------------------------

    def lookup_batch(
        self, queries: Sequence[int], masks: Optional[list[int]] = None
    ) -> list[Optional[TernaryEntry]]:
        """The entry :meth:`lookup` returns for each query.

        With ``masks`` (a list), the walk also appends each query's
        examined-bit mask to it, in query order (see
        :meth:`_scalar_walk_masks`); an empty plane appends nothing.
        Without it the walk skips the mask work (:meth:`_scalar_walk`).
        """
        indices = self.lookup_batch_indices(queries, masks)
        best_of = self._leaf_best
        return [best_of[j] if j >= 0 else None for j in indices]

    def lookup_batch_indices(
        self, queries: Sequence[int], masks: Optional[list[int]] = None
    ) -> list[int]:
        """Winning *leaf indices* for a batch (-1 where nothing matches).

        Same walk (and ``masks``) as :meth:`lookup_batch`, but the
        answers are plain ints indexing ``self._leaf_best`` / the
        per-leaf entry slices.  Leaf numbering is a pure function of
        the frozen image, so two processes holding the same PLMF bytes
        agree on every index — the sharded data plane ships these
        across process boundaries and resolves entries locally instead
        of pickling entry objects.
        """
        injector = self._fault_injector
        if injector is not None:
            # One check per unique query, so a rate-armed injector can
            # fault a batch "mid-walk" the way a real corruption would.
            for _ in set(queries):
                injector.check("frozen_walk")
        results = [-1] * len(queries)
        if not queries or not self._leaf_best:
            return results
        positions: dict[int, list[int]] = {}
        for index, query in enumerate(queries):
            positions.setdefault(query, []).append(index)
        unique = list(positions)
        if masks is None:
            best, visits = self._scalar_walk(unique)
            self.batch_walk_node_visits += visits
        else:
            best, walked, visits = self._scalar_walk_masks(unique)
            self.batch_walk_node_visits += visits
            if len(unique) == len(queries):
                masks.extend(walked)
            else:
                by_query = dict(zip(unique, walked))
                masks.extend([by_query[query] for query in queries])
        if len(unique) == len(queries):
            return best
        for g, query in enumerate(unique):
            for index in positions[query]:
                results[index] = best[g]
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entry_table)

    def entries(self) -> Iterator[TernaryEntry]:
        return iter(self._entry_table)

    def node_count(self) -> tuple[int, int]:
        """(internal nodes, leaves) of the frozen plane."""
        return self._first_leaf, len(self._leaf_best)

    def memory_bytes(self) -> int:
        """The flat plane's true footprint: the array buffers as
        allocated, plus the modeled leaf-key words (2L bits each) and
        entry slots (8-byte value, 4-byte priority) — the quantity a C
        port of this layout would allocate, and what
        ``serialize_frozen`` writes (header and value encoding aside).
        """
        buffers = (
            len(self._bit) * self._bit.itemsize
            + len(self._maxp) * self._maxp.itemsize
            + len(self._dispatch) * self._dispatch.itemsize
            + len(self._push) * self._push.itemsize
            + len(self._leaf_entry_base) * self._leaf_entry_base.itemsize
            + len(self._leaf_entry_count) * self._leaf_entry_count.itemsize
        )
        key_bytes = 2 * ((self.key_length + 7) // 8)
        return buffers + len(self._leaf_best) * key_bytes + len(self._entry_table) * 12


def freeze(matcher: Any) -> "FrozenMatcher":
    """Compile a built :class:`MultibitPalmtrie` into its frozen
    struct-of-arrays plane.

    An already-frozen plane is returned as-is: a plane is laid out
    once, when it is frozen from its trie.
    """
    if isinstance(matcher, FrozenMatcher):
        return matcher
    return FrozenMatcher.from_matcher(matcher)
