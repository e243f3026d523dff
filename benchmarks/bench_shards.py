"""Sharded data-plane smoke: cross-process differential + scaling.

Two claims, two gates:

* **Correctness (always gated)** — a :class:`ClassificationEngine`
  whose misses a :class:`repro.shard.ShardedEngine` pool resolves over
  N worker processes must return *exactly* the verdicts of the
  in-process engine on the same trace, including across a mid-trace
  transactional policy update (the atomic plane-swap path).  One
  mismatch fails the smoke.

* **Scaling (gated only where it can hold)** — the pool's replay path
  (no flow cache: every query is walked by a worker) must reach at least 3x the single-core rate at 4 workers.  Worker
  parallelism cannot exceed the machine, so this gate arms only when
  ``os.cpu_count() >= 4``; on smaller runners the scaling numbers are
  printed but only the correctness gate applies.  The perf-trajectory
  baseline therefore tracks ``shard_replay_match_ratio`` (always
  producible, must be 1.0); scaling ratios are reported when measured
  and get baselined per-machine via ``--rebaseline``.

``main()`` prints the scaling table; ``main(smoke=True)`` is the CI
entry point (same gates, smaller trace).
"""

from __future__ import annotations

import os
import time

from conftest import KEY_LENGTH
from repro.config import EngineConfig
from repro.core.multibit import MultibitPalmtrie
from repro.core.table import TernaryEntry
from repro.core.ternary import TernaryKey
from repro.engine import ClassificationEngine
from repro.workloads.campus import campus_acl
from repro.workloads.traffic import zipf_trace

#: flows in the Zipf population
FLOWS = 256
#: replay chunk the pool splits across its workers
CHUNK = 4096
#: the scaling gate: sharded replay rate over single-core rate at 4 workers
SCALING_FLOOR = 3.0
SCALING_WORKERS = 4


def _verdict_key(entry) -> object:
    return None if entry is None else (entry.value, entry.priority)


def _single_replay_qps(acl, queries, cache_size: int, rounds: int = 3) -> float:
    """Best-of-rounds single-process replay rate (chunked lookup_batch)."""
    best = float("inf")
    for _ in range(rounds):
        engine = ClassificationEngine(
            MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
            EngineConfig(cache_size=cache_size),
        )
        started = time.perf_counter()
        for offset in range(0, len(queries), CHUNK):
            engine.lookup_batch(queries[offset : offset + CHUNK])
        best = min(best, time.perf_counter() - started)
    return len(queries) / best if best > 0 else 0.0


def _differential(acl, queries) -> int:
    """Mismatches between 2-shard and single-process verdicts, including
    across a mid-trace policy update.  Must be zero."""
    single = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
        EngineConfig(cache_size=4 * FLOWS),
    )
    override = TernaryEntry(
        key=TernaryKey.wildcard(KEY_LENGTH), value=-7, priority=1 << 30
    )
    mismatches = 0
    with ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
        EngineConfig(cache_size=4 * FLOWS, shards=2),
    ) as sharded:
        half = len(queries) // 2
        for index, burst in enumerate((queries[:half], queries[half:])):
            got = sharded.lookup_batch(burst)
            want = single.lookup_batch(burst)
            mismatches += sum(
                1 for g, w in zip(got, want) if _verdict_key(g) != _verdict_key(w)
            )
            if index == 0:
                sharded.apply_updates([("insert", override)])
                single.apply_updates([("insert", override)])
    return mismatches


def _sharded_replay_qps(acl, queries, workers: int, cache_size: int) -> float:
    with ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
        EngineConfig(cache_size=cache_size, shards=workers),
    ) as sharded:
        sharded.pool.replay(queries[: 4 * CHUNK], chunk_size=CHUNK)  # warm spawn+maps
        result = sharded.pool.replay(queries, chunk_size=CHUNK)
    return result["qps"]


def main(smoke: bool = False) -> dict[str, float]:
    from repro.bench.report import Table

    acl = campus_acl(2 if smoke else 4)
    count = 20_000 if smoke else 200_000
    queries = zipf_trace(acl.entries, count, flows=FLOWS)
    cache_size = 4 * FLOWS
    cores = os.cpu_count() or 1

    mismatches = _differential(acl, queries[: min(count, 20_000)])
    if mismatches:
        raise SystemExit(
            f"shard differential FAILED: {mismatches} verdicts differ from the "
            "single-process engine (must be 0)"
        )
    print(
        f"shard differential: 0/{min(count, 20_000)} mismatches across "
        "2 workers incl. a mid-trace policy swap"
    )

    single_qps = _single_replay_qps(acl, queries, cache_size)
    table = Table(
        f"sharded replay scaling ({count} packets, {cores} cores)",
        ["workers", "qps", "vs single-core"],
    )
    table.add_row("in-process", f"{single_qps:,.0f}", "1.00x")
    speedups: dict[int, float] = {}
    for workers in (1, 2, SCALING_WORKERS):
        if workers > max(cores, 2):
            # more workers than cores only adds scheduling noise; report
            # the honest configuration instead of a fake one
            continue
        qps = _sharded_replay_qps(acl, queries, workers, cache_size)
        speedups[workers] = qps / single_qps if single_qps > 0 else 0.0
        table.add_row(str(workers), f"{qps:,.0f}", f"{speedups[workers]:.2f}x")
    print(table.render())

    metrics = {"shard_replay_match_ratio": 1.0}
    if SCALING_WORKERS in speedups:
        metrics["shard_scaling_4w"] = speedups[SCALING_WORKERS]
    if cores >= SCALING_WORKERS:
        if speedups.get(SCALING_WORKERS, 0.0) < SCALING_FLOOR:
            raise SystemExit(
                f"shard scaling regression: {SCALING_WORKERS} workers reach "
                f"{speedups.get(SCALING_WORKERS, 0.0):.2f}x the single-core rate "
                f"(floor {SCALING_FLOOR:.1f}x on this {cores}-core machine)"
            )
        print(
            f"shard smoke: scaling gate passed "
            f"({speedups[SCALING_WORKERS]:.2f}x >= {SCALING_FLOOR:.1f}x at "
            f"{SCALING_WORKERS} workers)"
        )
    else:
        print(
            f"shard smoke: scaling gate skipped ({cores} cores < "
            f"{SCALING_WORKERS} workers; correctness gate still applied)"
        )
    return metrics


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv)
