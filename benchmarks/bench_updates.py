"""Update-plane benchmark — transactional vs per-op policy churn.

The paper's update cost model (§3.6, §4.4) is that a Palmtrie+ update
is a source-trie update plus a recompile; the serving layer adds a
third cost on top: invalidating the flow cache rows the changed keys
might re-verdict.  Applied one op at a time, that invalidation is a
full sweep of the cache *per op*; the engine's ``apply_updates``
transaction pays it once for the whole batch — and, above
``invalidation_threshold`` cached rows, defers that one sweep (each
row tested once per distinct care mask among the changed keys) to the
next lookup.

This benchmark churns a warmed engine at ~1 % of the trace (canary
rules with exact-match keys, inserted and deleted in pairs) and
compares

* the per-op path (scalar ``insert``/``delete`` with
  ``invalidation_threshold=None``: every op sweeps the cache), and
* one ``apply_updates`` transaction (one bulk source pass, the sweep
  deferred to the next lookup).

The acceptance bar, asserted in ``main(smoke=True)`` (the CI entry
point): the transactional path applies the same churn at least **5x**
faster than per-op invalidation.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH
from repro.core import PalmtriePlus
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.config import EngineConfig
from repro.engine import ClassificationEngine
from repro.workloads.traffic import uniform_traffic

#: cached rows the churn sweeps against (the per-op cost driver)
CACHE_ROWS = 2048
#: churn intensity: canary insert/delete pairs per trace packet
CHURN = 0.01
#: batched engines defer above this many cached rows
THRESHOLD = CACHE_ROWS // 4


def _canary_ops(queries: list[int], count: int) -> list[tuple[str, object]]:
    """``count`` insert+delete pairs of exact-match canary rules.

    Priority -1 keeps every canary below the real rules, so applying
    (and re-applying, in timing loops) the ops never changes verdicts;
    each pair is net-zero on the table.
    """
    ops: list[tuple[str, object]] = []
    for i in range(count):
        key = TernaryKey.exact(queries[i % len(queries)], KEY_LENGTH)
        ops.append(("insert", TernaryEntry(key, -1, -1)))
        ops.append(("delete", key))
    return ops


def _warm_engine(entries, queries, threshold) -> ClassificationEngine:
    engine = ClassificationEngine(
        PalmtriePlus.build(entries, KEY_LENGTH, stride=8),
        EngineConfig(cache_size=CACHE_ROWS, invalidation_threshold=threshold),
    )
    engine.lookup_batch(queries)  # fill the flow cache before churning
    return engine


def _apply_per_op(engine: ClassificationEngine, ops) -> None:
    for kind, payload in ops:
        if kind == "insert":
            engine.insert(payload)
        else:
            engine.delete(payload)


@pytest.fixture(scope="module")
def churn_setup(campus):
    queries = uniform_traffic(campus.entries, CACHE_ROWS)
    ops = _canary_ops(queries, max(2, int(len(queries) * CHURN)))
    return campus, queries, ops


def test_per_op_updates(benchmark, churn_setup):
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries, threshold=None)
    benchmark(_apply_per_op, engine, ops)


def test_batched_updates(benchmark, churn_setup):
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries, threshold=THRESHOLD)
    benchmark(engine.apply_updates, ops)


def test_batched_beats_per_op(churn_setup):
    """The acceptance criterion, asserted: one transaction applies the
    churn at least 5x faster than per-op cache invalidation."""
    import timeit

    campus, queries, ops = churn_setup
    per_op_engine = _warm_engine(campus.entries, queries, threshold=None)
    batched_engine = _warm_engine(campus.entries, queries, threshold=THRESHOLD)
    per_op = timeit.timeit(lambda: _apply_per_op(per_op_engine, ops), number=3)
    batched = timeit.timeit(lambda: batched_engine.apply_updates(ops), number=3)
    assert batched_engine.last_update is not None
    assert batched_engine.last_update.deferred_invalidation
    assert per_op / batched >= 5.0


def test_batched_updates_preserve_verdicts(churn_setup):
    """Churned engines keep answering exactly like an unchurned matcher
    (canaries are below every real rule and net-zero)."""
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries, threshold=THRESHOLD)
    reference = PalmtriePlus.build(campus.entries, KEY_LENGTH, stride=8)
    engine.apply_updates(ops)
    for query in queries[:200]:
        expected = reference.lookup(query)
        got = engine.lookup(query)
        assert (expected and expected.priority) == (got and got.priority)


def main(smoke: bool = False) -> dict[str, float]:
    """Run the comparison; returns the smoke-ratio metrics the unified
    ``benchmarks/run_smokes.py`` records in the perf trajectory."""
    import timeit

    from repro.bench.harness import clamp_seconds, safe_rate
    from repro.bench.report import Table
    from repro.workloads.campus import campus_acl

    acl = campus_acl(2 if smoke else 4)
    rows = 512 if smoke else CACHE_ROWS
    threshold = rows // 4
    queries = uniform_traffic(acl.entries, rows)
    pairs = max(2, int(len(queries) * CHURN))
    ops = _canary_ops(queries, pairs)
    repeats = 3 if smoke else 10

    def warm(th):
        engine = ClassificationEngine(
            PalmtriePlus.build(acl.entries, KEY_LENGTH, stride=8),
            EngineConfig(cache_size=rows, invalidation_threshold=th),
        )
        engine.lookup_batch(queries)
        return engine

    per_op_engine = warm(None)
    batched_engine = warm(threshold)
    per_op = timeit.timeit(lambda: _apply_per_op(per_op_engine, ops), number=repeats)
    batched = timeit.timeit(lambda: batched_engine.apply_updates(ops), number=repeats)
    ratio = clamp_seconds(per_op) / clamp_seconds(batched)

    table = Table(
        f"policy churn ({pairs} insert+delete pairs, {len(per_op_engine.cache)}-row "
        f"warm cache, {repeats} rounds)",
        ["update path", "seconds", "ops/s", "speedup"],
    )
    total_ops = len(ops) * repeats
    table.add_row(
        "per-op invalidation",
        f"{per_op:.4f}",
        f"{safe_rate(total_ops, per_op):,.0f}",
        "1.0x",
    )
    table.add_row(
        "apply_updates (transactional)",
        f"{batched:.4f}",
        f"{safe_rate(total_ops, batched):,.0f}",
        f"{ratio:.1f}x",
    )
    print(table.render())
    report = batched_engine.report()
    print(
        f"transactional engine: {report['updates_applied']} updates in "
        f"{report['update_batches']} transactions, "
        f"{report['targeted_invalidations']} targeted / "
        f"{report['lazy_invalidations']} lazy clears, "
        f"generation {report['generation']}"
    )
    if smoke and ratio < 5.0:
        raise SystemExit(
            f"update plane regression: transactional churn only {ratio:.1f}x "
            f"faster than per-op invalidation (need >= 5x)"
        )
    if smoke:
        print(f"update smoke benchmark: transactional churn {ratio:.1f}x faster")
    return {"update_batch_speedup": ratio}


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv)
