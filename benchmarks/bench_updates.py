"""Update-plane benchmark — transactional vs per-op policy churn.

The paper's update cost model (§3.6, §4.4) is that a Palmtrie+ update
is a source-trie update plus a recompile; the serving layer adds a
third cost on top: invalidating the flow cache rows the changed keys
might re-verdict.  Every update leaves that sweep (each row tested once
per distinct care mask among the changed keys) to the next lookup, so
an op followed by a lookup pays a full pass over the cache *per op*,
while an ``apply_updates`` transaction pays one pass for the whole
batch.

This benchmark churns a warmed engine at ~1 % of the trace (canary
rules with exact-match keys, inserted and deleted in pairs) and
compares

* the per-op path: scalar ``insert``/``delete``, each settled by an
  empty ``lookup_batch``, so every op pays its own cache sweep;
* one ``apply_updates`` transaction, timed alone: one bulk source pass,
  with its sweep left pending and *not* timed; and, ungated,
* the same transaction settled by the next lookup, which pays that
  sweep.

The acceptance bar, asserted in ``main(smoke=True)`` (the CI entry
point): the transaction, timed alone, applies the same churn at least
**5x** faster than the settled per-op path.
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


def _warm_engine(entries, queries, rows: int = CACHE_ROWS) -> ClassificationEngine:
    engine = ClassificationEngine(
        PalmtriePlus.build(entries, KEY_LENGTH, stride=8),
        EngineConfig(cache_size=rows),
    )
    engine.lookup_batch(queries)  # fill the flow cache before churning
    return engine


def _apply_per_op(engine: ClassificationEngine, ops) -> None:
    """One scalar op at a time, each settled by an empty lookup, which
    pays the cache sweep the op left pending."""
    for kind, payload in ops:
        if kind == "insert":
            engine.insert(payload)
        else:
            engine.delete(payload)
        engine.lookup_batch([])


def _apply_settled(engine: ClassificationEngine, ops) -> None:
    """One transaction, settled by the next lookup's one sweep."""
    engine.apply_updates(ops)
    engine.lookup_batch([])


@pytest.fixture(scope="module")
def churn_setup(campus):
    queries = uniform_traffic(campus.entries, CACHE_ROWS)
    ops = _canary_ops(queries, max(2, int(len(queries) * CHURN)))
    return campus, queries, ops


def test_per_op_updates(benchmark, churn_setup):
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries)
    benchmark(_apply_per_op, engine, ops)


def test_batched_updates(benchmark, churn_setup):
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries)
    benchmark(engine.apply_updates, ops)


def test_batched_beats_per_op(churn_setup):
    """The acceptance criterion, asserted: one transaction applies the
    churn at least 5x faster than per-op cache invalidation."""
    import timeit

    campus, queries, ops = churn_setup
    per_op_engine = _warm_engine(campus.entries, queries)
    batched_engine = _warm_engine(campus.entries, queries)
    per_op = timeit.timeit(lambda: _apply_per_op(per_op_engine, ops), number=3)
    batched = timeit.timeit(lambda: batched_engine.apply_updates(ops), number=3)
    # What each arm timed: a sweep per op, against none (still pending).
    assert per_op_engine.targeted_invalidations == 3 * len(ops)
    assert batched_engine.targeted_invalidations == 0
    assert per_op / batched >= 5.0


def test_batched_updates_preserve_verdicts(churn_setup):
    """Churned engines keep answering exactly like an unchurned matcher
    (canaries are below every real rule and net-zero)."""
    campus, queries, ops = churn_setup
    engine = _warm_engine(campus.entries, queries)
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
    queries = uniform_traffic(acl.entries, rows)
    pairs = max(2, int(len(queries) * CHURN))
    ops = _canary_ops(queries, pairs)
    repeats = 3 if smoke else 10

    per_op_engine = _warm_engine(acl.entries, queries, rows)
    batched_engine = _warm_engine(acl.entries, queries, rows)
    settled_engine = _warm_engine(acl.entries, queries, rows)
    per_op = timeit.timeit(lambda: _apply_per_op(per_op_engine, ops), number=repeats)
    batched = timeit.timeit(lambda: batched_engine.apply_updates(ops), number=repeats)
    settled = timeit.timeit(lambda: _apply_settled(settled_engine, ops), number=repeats)
    ratio = clamp_seconds(per_op) / clamp_seconds(batched)

    table = Table(
        f"policy churn ({pairs} insert+delete pairs, {len(per_op_engine.cache)}-row "
        f"warm cache, {repeats} rounds)",
        ["update path", "seconds", "us/op", "ops/s", "speedup"],
    )
    total_ops = len(ops) * repeats
    for label, seconds in (
        ("per-op, each op swept (settled)", per_op),
        ("apply_updates, sweep pending (gated)", batched),
        ("apply_updates + next lookup (ungated)", settled),
    ):
        table.add_row(
            label,
            f"{seconds:.4f}",
            f"{seconds / total_ops * 1e6:.2f}",
            f"{safe_rate(total_ops, seconds):,.0f}",
            f"{clamp_seconds(per_op) / clamp_seconds(seconds):.1f}x",
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
