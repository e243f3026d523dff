"""Table 5 — ClassBench build/update performance.

Benchmarks construction of each structure on ClassBench-like sets, with
the Palmtrie+ compilation part isolated.  Run ``palmtrie-repro
experiment table5`` for the full dataset grid.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH
from repro.baselines import DpdkStyleAcl, EffiCutsClassifier
from repro.baselines.dpdk_acl import BuildExplosionError
from repro.core import FrozenMatcher, MultibitPalmtrie


def test_table5_build_efficuts(benchmark, classbench):
    entries = list(classbench.entries)
    benchmark(EffiCutsClassifier.build, entries, KEY_LENGTH)


def test_table5_build_dpdk(benchmark, classbench):
    entries = list(classbench.entries)

    def build():
        try:
            return DpdkStyleAcl.build(entries, KEY_LENGTH, state_limit=100_000)
        except BuildExplosionError:
            pytest.skip("dpdk-style build exploded on this rule set (paper: N/A)")

    benchmark(build)


def test_table5_build_palmtrie8(benchmark, classbench):
    """The bulk Palmtrie_k build every serving path and Palmtrie+ starts from."""
    entries = list(classbench.entries)
    benchmark(MultibitPalmtrie.build, entries, KEY_LENGTH, stride=8)


def test_table5_build_plus8(benchmark, classbench):
    entries = list(classbench.entries)
    benchmark(FrozenMatcher.build, entries, KEY_LENGTH, stride=8)


def test_table5_compile_part(benchmark, classbench):
    """The compilation part the paper parenthesizes."""
    source = MultibitPalmtrie.build(classbench.entries, KEY_LENGTH, stride=8)
    benchmark(FrozenMatcher.from_matcher, source)


def test_table5_incremental_insert(benchmark, classbench):
    """Palmtrie_k incremental insertion (the paper's microsecond-order
    update claim, §4.4): 50 single-entry inserts into a built trie.
    Only the inserts are timed; each round builds its base trie in the
    untimed set-up."""
    entries = list(classbench.entries)
    base = entries[:-50]
    extra = entries[-50:]

    def fresh_base():
        return (MultibitPalmtrie.build(base, KEY_LENGTH, stride=8),), {}

    def insert_batch(trie):
        for entry in extra:
            trie.insert(entry)
        return trie

    benchmark.pedantic(insert_batch, setup=fresh_base, rounds=20)


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("table5").render())


if __name__ == "__main__":
    main()
