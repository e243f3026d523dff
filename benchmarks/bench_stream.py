"""Streaming data plane benchmark — pipeline vs batch, and the attack matrix.

Four jobs in one module:

* **Differential gate** (the acceptance criterion): for every scenario
  in the registry, streaming through the bounded-queue
  :class:`~repro.stream.StreamPipeline` (block policy, full drain)
  must answer every packet of a >=10k-packet seeded trace exactly as
  flat batch replay does — churn transactions applied at identical
  burst boundaries, zero mismatches tolerated.
* **Histogram budget**: the per-flow latency histograms ride the hot
  path, so the pipeline with histograms on must sustain >= 0.98x the
  rate of the pipeline with them off (interleaved min-of-rounds, the
  same protocol as ``bench_engine_cache``).
* **Stream cost** (:func:`pipeline_ratio`): batch replay time over
  pipeline time on the same warmed engine and trace, so the stream
  layer's own per-packet cost shows as an absolute share, which a
  ratio of two pipelines cannot see.
* **Scenario matrix** (:func:`scenario_matrix`): every scenario run
  through its own pipeline profile — attack scenarios through the
  constrained queue that forces shedding — reporting ``p999_us`` and
  ``shed_rate`` per scenario.  ``run_smokes.py --scenarios`` gates
  these against the ``scenarios`` section of BENCH_baseline.json
  (p999 at <= 1.2x baseline; shed rate to an absolute bound, since it
  is deterministic arithmetic, not timing).

``main(smoke=True)`` is the CI entry point; it returns the trajectory
ratios (``stream_match_ratio``, ``stream_hist_overhead_ratio``,
``stream_pipeline_ratio``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.bench.harness import safe_rate
from repro.config import EngineConfig
from repro.core.multibit import MultibitPalmtrie
from repro.engine import ClassificationEngine
from repro.obs.timing import best_of_attempts_ratio
from repro.stream import DROPPED, ScenarioSource, StreamPipeline, TraceSource, batch_replay
from repro.workloads import churn_applier, scenario_names, zipf_trace
from repro.workloads.scenarios import all_scenarios, get_scenario

SEED = 2020
GATE_PACKETS = 10_000
HIST_BUDGET = 0.98


def _engine_for(compiled, cache_size: int = 4096) -> ClassificationEngine:
    return ClassificationEngine(
        MultibitPalmtrie.build(compiled.entries, compiled.layout.length),
        EngineConfig(cache_size=cache_size),
    )


def _verdict_signature(verdicts) -> list:
    return [
        "DROPPED" if v is DROPPED else (None if v is None else (v.priority, v.value))
        for v in verdicts
    ]


def differential_gate(packets: int = GATE_PACKETS) -> dict[str, int]:
    """Streaming-vs-batch verdict equality over every scenario.

    Returns ``{scenario: packets_compared}``; raises SystemExit on the
    first mismatch (zero tolerance — a streaming pipeline that answers
    even one packet differently than batch replay is wrong, not slow).
    """
    compared: dict[str, int] = {}
    for name in scenario_names():
        source = ScenarioSource(name, seed=SEED, packets=packets)
        engine = _engine_for(source.compiled)
        pipeline = StreamPipeline(engine, policy="block", max_inflight=1024)
        streamed = pipeline.run(
            source, collect_verdicts=True, on_burst=churn_applier(source, engine)
        )
        replay_source = ScenarioSource(name, seed=SEED, packets=packets)
        replay_engine = _engine_for(replay_source.compiled)
        reference = batch_replay(
            replay_engine, replay_source, on_burst=churn_applier(replay_source, replay_engine)
        )
        got = _verdict_signature(streamed.verdicts)
        want = _verdict_signature(reference)
        mismatches = sum(1 for a, b in zip(got, want) if a != b)
        if mismatches or len(got) != len(want):
            raise SystemExit(
                f"streaming differential gate FAILED: scenario {name!r} "
                f"diverged from batch replay on {mismatches} of {len(want)} "
                f"packets (seed {SEED})"
            )
        compared[name] = len(want)
    return compared


def _warmed_campus(cache_size: int) -> tuple[ClassificationEngine, TraceSource]:
    """A campus-ACL engine and a 4,000-query zipf trace over 2,048 flows
    in 64-packet bursts, the engine's result cache warmed on the trace
    before timing."""
    from repro.workloads.campus import campus_acl

    acl = campus_acl(2)
    queries = zipf_trace(acl.entries, 4_000, flows=2048, seed=SEED)
    length = acl.layout.length
    engine = ClassificationEngine(
        MultibitPalmtrie.build(acl.entries, length),
        EngineConfig(cache_size=cache_size),
    )
    engine.lookup_batch(queries)
    return engine, TraceSource(queries, length, burst_size=64)


def hist_overhead_ratio(
    rounds: int = 8,
    attempts: int = 12,
    early_stop: float = 0.985,
) -> float:
    """Histograms-on over histograms-off streaming rate (best of N).

    Both pipelines drive the *same* warmed engine over the same
    flow-diverse zipf trace (2048 flows against a 256-entry result
    cache, so the matcher does representative per-packet work), timed
    with :func:`repro.obs.timing.best_of_attempts_ratio`.  A single
    attempt is not trustworthy: on a shared box the noise floor is
    +/-5 % *between identical pipelines* (measured), swamping a 2 %
    budget.  A pipeline that truly busts the budget (the
    pre-amortisation implementation measured 0.60-0.92x here) never
    produces a clean attempt; a compliant one almost always does
    within a few tries.  1.0 means the latency histograms are free;
    the budget is >= 0.98.
    """
    engine, source = _warmed_campus(cache_size=256)
    plain = StreamPipeline(engine, histograms=False)
    instrumented = StreamPipeline(engine, histograms=True)
    return best_of_attempts_ratio(
        lambda: plain.run(source),
        lambda: instrumented.run(source),
        rounds=rounds,
        attempts=attempts,
        number=4,
        early_stop=early_stop,
    )


def pipeline_ratio(
    rounds: int = 8,
    attempts: int = 6,
    early_stop: float = 0.95,
) -> float:
    """``batch_replay`` time over ``StreamPipeline.run`` time (best of N).

    Both arms serve the same 4,000-query zipf trace in 64-packet bursts
    from the same engine, warmed so its 4,096-row cache holds every
    flow: the engine's work is the same per packet in both arms, and
    what the ratio charges the pipeline is its queue, micro-batching,
    verdict write-back and latency histograms.  1.0 would mean the
    stream layer is free; the floor in BENCH_baseline.json is 0.75.
    """
    engine, source = _warmed_campus(cache_size=4096)
    pipeline = StreamPipeline(engine)
    return best_of_attempts_ratio(
        lambda: batch_replay(engine, source),
        lambda: pipeline.run(source),
        rounds=rounds,
        attempts=attempts,
        number=4,
        early_stop=early_stop,
    )


def run_scenario(
    name: str,
    packets: Optional[int] = None,
    seed: int = SEED,
    policy: str = "shed",
) -> dict[str, Any]:
    """One scenario through its own pipeline profile; the matrix row.

    Attack scenarios get their constrained queue (``max_inflight`` +
    ``service_quantum``), so overload — and therefore shedding — is
    part of the workload, not an accident of machine speed.  Non-attack
    scenarios use their profile as a sizing hint with full drain.
    """
    scenario = get_scenario(name)
    if packets is None:
        packets = scenario.smoke_packets
    source = ScenarioSource(scenario, seed=seed, packets=packets)
    engine = _engine_for(source.compiled)
    pipeline = StreamPipeline(
        engine,
        policy=policy if scenario.attack else "block",
        max_inflight=scenario.max_inflight,
        service_quantum=scenario.service_quantum if scenario.attack else None,
    )
    report = pipeline.run(source, on_burst=churn_applier(source, engine))
    latency = report.latency or {}
    return {
        "scenario": name,
        "attack": scenario.attack,
        "packets": report.offered,
        "served": report.served,
        "shed_rate": round(report.shed_rate, 6),
        "drop_rate": round(report.drop_rate, 6),
        "churn_transactions": report.churn_transactions,
        "p50_us": round(latency.get("p50", 0.0) * 1e6, 3),
        "p999_us": round(latency.get("p999", 0.0) * 1e6, 3),
        "queries_per_second": round(safe_rate(report.served, report.seconds), 1),
    }


def scenario_matrix(smoke: bool = True, seed: int = SEED) -> dict[str, dict[str, Any]]:
    """Every registered scenario's matrix row, keyed by name."""
    rows = {}
    for scenario in all_scenarios():
        packets = scenario.smoke_packets if smoke else max(GATE_PACKETS, scenario.smoke_packets)
        rows[scenario.name] = run_scenario(scenario.name, packets=packets, seed=seed)
    return rows


def main(smoke: bool = False) -> dict[str, float]:
    """Gate the streaming plane; returns the trajectory ratios."""
    from repro.bench.report import Table

    compared = differential_gate(GATE_PACKETS)
    total = sum(compared.values())
    print(
        f"streaming differential gate: {len(compared)} scenarios, "
        f"{total} packets, streaming == batch on every one"
    )

    overhead = hist_overhead_ratio()
    if overhead < HIST_BUDGET:
        raise SystemExit(
            f"histogram overhead regression: per-flow latency histograms run "
            f"the pipeline at {overhead:.3f}x the uninstrumented rate "
            f"(budget >= {HIST_BUDGET}x)"
        )
    print(
        f"per-flow histogram overhead: instrumented pipeline at "
        f"{overhead:.3f}x the plain rate (budget >= {HIST_BUDGET}x)"
    )

    stream_cost = pipeline_ratio()
    print(
        f"stream layer cost: batch replay runs in {stream_cost:.3f}x the "
        f"pipeline's time on a warmed engine (floor 0.75 in BENCH_baseline.json)"
    )

    rows = scenario_matrix(smoke=smoke)
    table = Table(
        "Scenario matrix (attack profiles constrained; p999 = admission to verdict)",
        ["scenario", "packets", "shed", "churn", "p50 us", "p999 us", "served/s"],
    )
    for row in rows.values():
        table.add_row(
            row["scenario"] + (" [attack]" if row["attack"] else ""),
            str(row["packets"]),
            f"{100 * row['shed_rate']:.1f} %",
            str(row["churn_transactions"]),
            f"{row['p50_us']:,.0f}",
            f"{row['p999_us']:,.0f}",
            f"{row['queries_per_second']:,.0f}",
        )
    print(table.render())

    # The matrix's absolute latencies are machine numbers and gate via
    # the scenarios section of BENCH_baseline.json (run_smokes.py
    # --scenarios); the trajectory carries the ratio gates.
    return {
        "stream_match_ratio": 1.0,
        "stream_hist_overhead_ratio": overhead,
        "stream_pipeline_ratio": stream_cost,
    }


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv)
