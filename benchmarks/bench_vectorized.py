"""Substrate benchmark — the vectorized (SIMD-style) linear matcher.

"Why not just SIMD the linear scan?"  This benchmark answers with
data: the NumPy engine crushes the scalar sorted list at every size,
but it is still O(n) per lookup — the Palmtrie overtakes it as the ACL
grows, which is the paper's asymptotic argument surviving even against
a brute-force data-parallel baseline.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.baselines import SortedListMatcher, VectorizedMatcher
from repro.core import FrozenMatcher


@pytest.fixture(scope="module")
def trio(campus, campus_uniform):
    entries = campus.entries
    return (
        SortedListMatcher.build(entries, KEY_LENGTH),
        VectorizedMatcher.build(entries, KEY_LENGTH),
        FrozenMatcher.build(entries, KEY_LENGTH, stride=8),
        campus_uniform,
    )


def test_scalar_list_lookup(benchmark, trio):
    scalar, _vector, _plus, queries = trio
    benchmark(run_queries, scalar, queries)


def test_vectorized_batch_lookup(benchmark, trio):
    _scalar, vector, _plus, queries = trio
    benchmark(vector.lookup_batch, queries)


def test_plus8_lookup(benchmark, trio):
    _scalar, _vector, plus, queries = trio
    benchmark(run_queries, plus, queries)


def test_vectorized_agrees_with_plus(trio):
    _scalar, vector, plus, queries = trio
    batch = vector.lookup_batch(queries)
    for query, got in zip(queries, batch):
        expected = plus.lookup(query)
        assert (expected and expected.priority) == (got and got.priority)


def test_vectorized_work_stays_linear(campus):
    """The vectorized engine touches every entry per lookup; Palmtrie
    does not — the asymptotic gap the paper's Table 3 formalizes."""
    from repro.workloads.campus import campus_acl

    small = campus_acl(1)
    vector_small = VectorizedMatcher.build(small.entries, KEY_LENGTH)
    vector_large = VectorizedMatcher.build(campus.entries, KEY_LENGTH)
    vector_small.stats.reset()
    vector_large.stats.reset()
    vector_small.profile_lookup(0)
    vector_large.profile_lookup(0)
    ratio = vector_large.stats.key_comparisons / vector_small.stats.key_comparisons
    assert ratio == pytest.approx(len(campus.entries) / len(small.entries))


def main() -> None:
    import timeit

    from repro.bench.report import Table, format_rate
    from repro.workloads.campus import campus_acl
    from repro.workloads.traffic import uniform_traffic

    table = Table(
        "Vectorized linear scan vs scalar list vs Palmtrie+_8 (uniform)",
        ["dataset", "entries", "sorted", "vectorized", "plus8"],
    )
    for q in (0, 2, 4, 6, 8):
        acl = campus_acl(q)
        queries = uniform_traffic(acl.entries, 300)
        scalar = SortedListMatcher.build(acl.entries, 128)
        vector = VectorizedMatcher.build(acl.entries, 128)
        plus = FrozenMatcher.build(acl.entries, 128, stride=8)
        cells = []
        for fn in (
            lambda: [scalar.lookup(x) for x in queries],
            lambda: vector.lookup_batch(queries),
            lambda: [plus.lookup(x) for x in queries],
        ):
            seconds = timeit.timeit(fn, number=1)
            cells.append(format_rate(len(queries) / seconds))
        table.add_row(f"D_{q}", len(acl.entries), *cells)
    print(table.render())


if __name__ == "__main__":
    main()
