#!/usr/bin/env python3
"""Dissect Palmtrie structures: shape stats, memory, Graphviz export.

Uses the introspection tooling to show *why* the paper's design choices
work: how stride changes depth and branching, how much of the traversal
is don't-care branching, what compression saves, and how the modeled C
memory compares to actual CPython memory.  Writes the paper's Table 1
trie as ``table1_basic.dot`` / ``table1_k3.dot`` (render with Graphviz:
``dot -Tpng table1_k3.dot -o table1_k3.png``).

Run:  python examples/trie_anatomy.py
"""

from repro import BasicPalmtrie, FrozenMatcher, MultibitPalmtrie, TernaryEntry, TernaryKey
from repro.bench.memory import deep_sizeof, modeled_bytes
from repro.core.introspect import to_dot, trie_shape
from repro.workloads.campus import campus_acl

TABLE1 = [
    ("011*1000", 1, 6), ("1*0***10", 2, 8), ("0001****", 3, 9),
    ("10110011", 4, 3), ("0*1101**", 5, 7), ("1110****", 6, 4),
    ("010010**", 7, 5), ("01110***", 8, 2), ("1*******", 9, 1),
]


def table1_dots() -> None:
    entries = [TernaryEntry(TernaryKey.from_string(k), v, p) for k, v, p in TABLE1]
    basic = BasicPalmtrie.build(entries, 8)
    stride3 = MultibitPalmtrie.build(entries, 8, stride=3)
    for name, trie in (("table1_basic.dot", basic), ("table1_k3.dot", stride3)):
        with open(name, "w") as handle:
            handle.write(to_dot(trie, title=name.removesuffix(".dot")))
        print(f"wrote {name}")


def shape_by_stride() -> None:
    acl = campus_acl(4)
    print(f"\ncampus D_4 ({len(acl.entries)} entries): shape by stride")
    print(f"{'k':>2} {'internal':>9} {'leaves':>7} {'height':>7} "
          f"{'avg depth':>10} {'branching':>10} {'dont-care %':>12}")
    for k in (1, 2, 4, 6, 8):
        trie = MultibitPalmtrie.build(acl.entries, 128, stride=k)
        shape = trie_shape(trie)
        print(f"{k:>2} {shape.internal_nodes:>9} {shape.leaves:>7} {shape.height:>7} "
              f"{shape.average_leaf_depth:>10.2f} {shape.average_branching:>10.2f} "
              f"{100 * shape.dont_care_fraction:>11.1f}%")


def memory_story() -> None:
    acl = campus_acl(4)
    print(f"\ncampus D_4: modeled C bytes vs actual CPython bytes")
    print(f"{'structure':>12} {'modeled C':>12} {'python':>12} {'ratio':>6}")
    for name, matcher in (
        ("palmtrie1", MultibitPalmtrie.build(acl.entries, 128, stride=1)),
        ("palmtrie8", MultibitPalmtrie.build(acl.entries, 128, stride=8)),
        ("plus8", FrozenMatcher.build(acl.entries, 128, stride=8)),
    ):
        modeled = modeled_bytes(matcher)  # plus8: the Palmtrie+ model
        python = deep_sizeof(matcher)
        print(f"{name:>12} {modeled:>12,} {python:>12,} {python / modeled:>6.1f}")
    print("\n(the Fig. 9 claim is visible in the modeled column: palmtrie8")
    print(" explodes, plus8 collapses back to the palmtrie1 level)")


def main() -> None:
    table1_dots()
    shape_by_stride()
    memory_story()


if __name__ == "__main__":
    main()
