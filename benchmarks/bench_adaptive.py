"""The adaptive frozen-plane layer: the hot-first layout.

``freeze(..., layout="hot")`` replays a trace and re-emits the node
arrays in walk-frequency order, with each dispatch run re-ordered by
measured *win mass* — the subtree that actually produces the final
answer is walked first, so §3.5 subtree skipping prunes its siblings
(after arXiv 1804.09254 and 2205.08606).

The benchmark workload is the favorable-but-realistic case: a skewed
Zipf flow population whose heavy hitters match the top of the policy
(first-match ACLs are written hot-rules-first), over the ternary-heavy
ClassBench ``fw`` profile.

Acceptance bar (CI smoke, ``main(smoke=True)``):
``adaptive_hot_layout_speedup`` — hot layout >= 1.1x build-order
scalar qps on the skewed zipf trace.
"""

from __future__ import annotations

import json
import random
import timeit
from pathlib import Path

import pytest

from conftest import KEY_LENGTH, run_queries
from repro.core import MultibitPalmtrie
from repro.core.frozen import freeze
from repro.workloads.classbench import classbench_acl
from repro.workloads.traffic import query_matching_entry

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

HOT_GATE = 1.1


def topflow_zipf(entries, count: int, flows: int = 32, s: float = 1.2,
                 seed: int = 2020) -> list[int]:
    """A Zipf flow trace whose heavy flows match the highest-priority
    rules — hot traffic hitting the top of a first-match policy."""
    rng = random.Random(seed)
    ranked = sorted(entries, key=lambda e: -e.priority)[:flows]
    population = [query_matching_entry(e, rng) for e in ranked]
    weights = [1.0 / (rank + 1) ** s for rank in range(len(population))]
    return rng.choices(population, weights=weights, k=count)


def _best(stmt, repeat: int = 5) -> float:
    return min(timeit.repeat(stmt, number=1, repeat=repeat))


def _priority(result) -> object:
    return None if result is None else result.priority


def _assert_same_verdicts(reference, candidate, queries) -> None:
    for query in queries:
        a = _priority(reference.lookup(query))
        b = _priority(candidate.lookup(query))
        assert a == b, f"verdict diverged at {query:#x}: {a} vs {b}"


# ----------------------------------------------------------------------
# pytest-benchmark timings (small fixed sizes)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def hot_setup():
    acl = classbench_acl("fw", 120)
    queries = topflow_zipf(acl.entries, 1000)
    build_plane = freeze(MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8))
    hot_plane = freeze(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
        layout="hot",
        trace=queries,
    )
    return build_plane, hot_plane, queries


def test_build_layout_scalar(benchmark, hot_setup):
    build_plane, _hot, queries = hot_setup
    benchmark(run_queries, build_plane, queries)


def test_hot_layout_scalar(benchmark, hot_setup):
    _build, hot_plane, queries = hot_setup
    benchmark(run_queries, hot_plane, queries)


def test_hot_layout_same_verdicts(hot_setup):
    build_plane, hot_plane, queries = hot_setup
    _assert_same_verdicts(build_plane, hot_plane, queries)


# ----------------------------------------------------------------------
# The standalone driver (CI smoke + full run)
# ----------------------------------------------------------------------

def _measure_hot(rules: int, count: int) -> dict:
    acl = classbench_acl("fw", rules)
    queries = topflow_zipf(acl.entries, count)
    build_plane = freeze(MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8))
    hot_plane = freeze(
        MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
        layout="hot",
        trace=queries,
    )
    _assert_same_verdicts(build_plane, hot_plane, queries[: max(200, count // 10)])
    t_build = _best(lambda: run_queries(build_plane, queries))
    t_hot = _best(lambda: run_queries(hot_plane, queries))
    return {
        "rules": rules,
        "queries": count,
        "build_ms": 1e3 * t_build,
        "hot_ms": 1e3 * t_hot,
        "speedup": t_build / t_hot,
        "layout_applied": hot_plane.layout_applied,
    }


def main(smoke: bool = False) -> dict[str, float]:
    """Run the adaptive-layer benchmark; returns the smoke metric
    ``benchmarks/run_smokes.py`` records in the perf trajectory."""
    rules = 120 if smoke else 300
    count = 3_000 if smoke else 10_000

    hot = _measure_hot(rules, count)
    print(
        f"hot-first layout: {hot['speedup']:.2f}x over build order "
        f"({hot['build_ms']:.1f} -> {hot['hot_ms']:.1f} ms, "
        f"{rules} fw rules, {count} zipf queries)"
    )
    metrics = {"adaptive_hot_layout_speedup": hot["speedup"]}

    if smoke:
        if hot["speedup"] < HOT_GATE:
            raise SystemExit(
                f"adaptive regression: hot layout {hot['speedup']:.2f}x "
                f"< {HOT_GATE}x build-order scalar qps on the zipf trace"
            )
        print(f"adaptive smoke benchmark: hot {hot['speedup']:.2f}x")
        return metrics

    RESULTS_PATH.write_text(
        json.dumps({"hot_layout": hot}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {RESULTS_PATH}")
    return metrics


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv)
