"""Memory accounting: modeled C bytes vs actual Python bytes.

Figure 9 plots the memory a C implementation allocates; every matcher
models that via ``memory_bytes()``.  The Palmtrie+ column is the one
exception: the Palmtrie+ is the frozen plane, whose ``memory_bytes()``
is its true footprint, so :func:`palmtrie_plus_bytes` computes Figure
6's C layout from the plane's node counts.  This module adds the
complementary measurement — the *actual* CPython footprint of a
structure, from a deep ``sys.getsizeof`` walk over its object graph —
so the model can be sanity-checked and Python deployments can be
sized.

The walk visits every reachable object once (id-deduplicated), follows
``__dict__``, ``__slots__`` and container items, and stops at shared
singletons (interned ints are still counted once, which slightly
overstates sharing with the rest of the process — fine for relative
comparisons).
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

from ..core.frozen import FrozenMatcher

__all__ = ["deep_sizeof", "memory_comparison", "modeled_bytes", "palmtrie_plus_bytes"]


def palmtrie_plus_bytes(plane: FrozenMatcher) -> int:
    """Figure 6's C layout of the Palmtrie+_k a frozen plane compiles.

    Per internal node: two ``2**k``-bit bitmaps, two 4-byte offsets, the
    bit index and max_priority.  Per leaf: the 2L-bit key and its
    max_priority.  Per entry: an 8-byte value and a 4-byte priority;
    every entry is charged, because a leaf whose key several rules
    share keeps the whole list.  The pointer arrays of Palmtrie_k are
    gone, which is what Figure 9 shows collapsing to the Palmtrie_1
    level.
    """
    internal, leaves = plane.node_count()
    bitmap_bytes = (1 << plane.stride) // 8 if plane.stride >= 3 else 1
    internal_bytes = 2 * bitmap_bytes + 4 + 4 + 4 + 4
    leaf_bytes = 2 * (plane.key_length // 8) + 4
    return internal * internal_bytes + leaves * leaf_bytes + len(plane) * (8 + 4)


def modeled_bytes(matcher: Any) -> int:
    """Figure 6's C-layout bytes of any matcher: a frozen plane stands
    for the Palmtrie+ it compiles, every other matcher models itself."""
    if isinstance(matcher, FrozenMatcher):
        return palmtrie_plus_bytes(matcher)
    return matcher.memory_bytes()


def _references(obj: Any) -> Iterable[Any]:
    if isinstance(obj, dict):
        yield from obj.keys()
        yield from obj.values()
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        yield from obj
        return
    if isinstance(obj, (str, bytes, bytearray, int, float, complex, bool, type(None))):
        return
    obj_dict = getattr(obj, "__dict__", None)
    if obj_dict is not None:
        yield obj_dict
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            try:
                yield getattr(obj, slot)
            except AttributeError:
                continue


def deep_sizeof(root: Any) -> int:
    """Total bytes of the object graph reachable from ``root``."""
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        total += sys.getsizeof(obj)
        stack.extend(_references(obj))
    return total


def memory_comparison(matcher: Any) -> dict[str, int]:
    """Modeled C bytes and actual Python bytes of one matcher."""
    return {
        "modeled_c_bytes": modeled_bytes(matcher),
        "python_bytes": deep_sizeof(matcher),
    }
