#!/usr/bin/env python3
"""The repo benchmark: seeded traffic mixes through the full serving stack.

One workload, one fresh process::

    python3 benchmarks/ledger/run.py --workload hot-flows --seed 2020 \
        --seconds 20 --trace 0

prints every end-to-end metric with its unit and sample count, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` runs the same phases with spans recorded
around each layer's entry points and reports the per-layer metrics
instead (the span log goes to ``benchmarks/ledger/out/``).

Without ``--workload`` the script runs every workload, each in its own
process, alternating the order on every repetition (``--repeat N`` uses
seeds ``seed .. seed+N-1``), and prints the median and quartiles of each
metric next to its bound from ``BENCHMARK.json``.

Each run: five cold set-ups (median = ``setup_s``); a correctness pass
whose every verdict is checked against a sorted-list oracle; a warm-up
pass whose layer counters are exactly repeatable; the timed phase of
``--seconds`` (whole rounds of 128 bursts); a closing correctness pass.
A wrong verdict prints ``"correct": false`` and exits 1.  Times are
scaled to a reference machine speed by an interleaved calibration loop
(``stack.Timing``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: default timed-phase length; BENCHMARK.json's run_seconds
SECONDS = 20
#: throughput is the median over this many equal windows of the timed phase
WINDOWS = 10
#: the gated tail quantile.  Deeper ones do not repeat on a shared
#: machine (README.md, "Why p90"); they are printed, not gated.
TAIL = 0.9
INFO_TAILS = (0.99, 0.998)
#: queries profile_lookup walks for the deterministic work counts
PROFILE_QUERIES = 4_096
#: packets per pass and set-ups per run; the smoke sizes are the
#: self-test's quick pass over every code path
SIZES = {
    "full": {"trace": 1 << 18, "check": 65_536, "warm": 65_536, "closing": 8_192, "setups": 5},
    "smoke": {"trace": 1 << 14, "check": 4_096, "warm": 4_096, "closing": 1_024, "setups": 2},
}

END_TO_END = {
    "setup_s": "s",
    "pps": "packets/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "rss_peak_mib": "MiB",
}

PER_LAYER = {
    "stream.self_ns_per_pkt": "ns",
    "stream.max_backlog": "packets",
    "tenant.self_ns_per_pkt": "ns",
    "tenant.denied_share": "ratio",
    "engine.self_ns_per_pkt": "ns",
    "engine.hit_ratio": "ratio",
    "engine.unique_per_resolve": "ratio",
    "engine.evictions_per_pkt": "count",
    "guard.self_ns_per_pkt": "ns",
    "guard.shadow_checks": "count",
    "guard.faults": "count",
    "frozen.self_ns_per_query": "ns",
    "frozen.queries_per_call": "count",
    "frozen.visits_per_query": "count",
    "frozen.comparisons_per_query": "count",
    "frozen.plane_bytes": "bytes",
    "update.apply_ms_p50": "ms",
    "update.refreeze_ms_p50": "ms",
    "update.rows_invalidated_per_tx": "count",
    "update.e2e_p50_ms": "ms",
    "update.e2e_p90_ms": "ms",
    "shard.self_ns_per_pkt": "ns",
    "shard.worker_hit_ratio": "ratio",
    "shard.fallback_share": "ratio",
    "setup.compile_s": "s",
    "setup.build_s": "s",
    "setup.freeze_s": "s",
    "setup.spawn_s": "s",
    "trace.pps": "packets/s",
    "trace.coverage": "ratio",
}


# -- helpers -------------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile of the raw samples (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _git_sha() -> Optional[str]:
    """HEAD's commit, read from .git without running git (None outside
    a repository)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int, load_start: float) -> dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _import_program() -> None:
    """Put the program's sources and this directory on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({SRC / 'repro'})")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- one workload, one process ---------------------------------------------


def _counters(stack: Any) -> dict[str, float]:
    """The layers' own counters, from their public report() surfaces."""
    tenant = stack.tenant.report()
    engine = tenant["engine"]
    guard = engine.get("resilience") or {}
    shards = engine.get("shards") or {}
    workers = shards.get("workers") or []
    return {
        "tenant_lookups": tenant["lookups"],
        "denied": tenant["rate_quota"]["denied"],
        "hits": engine["cache_hits"],
        "misses": engine["cache_misses"],
        "evictions": engine["cache_evictions"],
        "rows_invalidated": engine["cache_rows_invalidated"],
        "update_batches": engine["update_batches"],
        "shadow_checks": guard.get("shadow_checks", 0),
        "faults": sum((guard.get("faults") or {}).values()),
        "worker_lookups": sum(w.get("lookups", 0) for w in workers),
        "worker_hits": sum(w.get("cache_hits", 0) for w in workers),
        "fallback": shards.get("local_fallback_lookups", 0),
    }


def _setup_wrappers(tracer: Any) -> None:
    import repro.core.frozen as frozen
    import repro.tenant.router as router
    from repro.shard import ShardedEngine

    tracer.wrap(router, "parse_acl", "compile")
    tracer.wrap(router, "compile_acl", "compile")
    tracer.wrap(router, "build_matcher", "build")
    tracer.wrap(frozen, "freeze", "freeze")
    tracer.wrap(frozen.FrozenMatcher, "from_matcher", "freeze")
    # ShardedEngine construction minus the freeze inside it: plane
    # publish and worker spawn.
    tracer.wrap(ShardedEngine, "__init__", "spawn")


def _timed_wrappers(tracer: Any) -> None:
    import repro.core.frozen as frozen
    from repro.engine import ClassificationEngine
    from repro.shard import ShardedEngine
    from repro.stream.pipeline import StreamPipeline
    from repro.tenant import Tenant

    tracer.wrap(StreamPipeline, "run", "stream")
    tracer.wrap(Tenant, "lookup_batch", "tenant")
    tracer.wrap(Tenant, "apply_updates", "update")
    tracer.wrap(ClassificationEngine, "lookup_batch", "engine")
    # The guard's per-packet shadow roll, its reference lookups and the
    # reference rebuild after an update all run inside _shadow_pass;
    # wrapping only the reference lookups would leave the roll in the
    # engine's self time.
    tracer.wrap(ClassificationEngine, "_shadow_pass", "guard")
    tracer.wrap(ShardedEngine, "lookup_batch", "shard")
    tracer.wrap(frozen.FrozenMatcher, "lookup_batch", "frozen", count_arg=1)
    tracer.wrap(frozen, "freeze", "freeze")
    tracer.wrap(frozen.FrozenMatcher, "from_matcher", "freeze")


def _profile(inputs: Any) -> dict[str, float]:
    """Deterministic frozen-plane work counts on a fixed query sample."""
    from repro.config import EngineConfig
    from repro.core.frozen import freeze
    from repro.core.table import build_matcher

    plane = freeze(build_matcher(EngineConfig(), inputs.entries, inputs.key_length))
    sample = inputs.trace[:PROFILE_QUERIES]
    for query in sample:
        plane.profile_lookup(query)
    return {
        "visits": plane.stats.node_visits / len(sample),
        "comparisons": plane.stats.key_comparisons / len(sample),
        "bytes": plane.memory_bytes(),
    }


def _window_pps(timing: Any, packets_per_round: int) -> tuple[float, int]:
    """Median packets/s over WINDOWS equal windows of whole rounds, at
    the reference speed; also returns the packets per window."""
    seconds = timing.rounds
    size = len(seconds) // WINDOWS
    rates = [
        size * packets_per_round / sum(seconds[i * size : (i + 1) * size])
        for i in range(WINDOWS)
    ]
    return statistics.median(rates), size * packets_per_round


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's resource tracker to exit.

    The shard plane's shared memory starts the tracker; it would
    otherwise outlive the run by the moment it takes to notice the
    parent is gone.  A no-op when it never started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _pin_to_one_cpu() -> Optional[int]:
    """Run this process, and the shard workers it spawns, on one CPU.

    The workers inherit the mask.  A sharded burst then wakes its
    workers on the CPU the parent waits on, instead of waking an idle
    one, and the calibration loop runs where the workers run, so the
    speed factor covers them too.  None where affinity is unsupported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Failed(Exception):
    """A verdict disagreed with the oracle."""


def run_workload(args: argparse.Namespace) -> int:
    from spans import Tracer
    from stack import (
        CALIBRATION_REFERENCE_S, ROUND_BURSTS, WORKLOADS, Inputs, Oracle, Stack, Timing,
        Traffic, calibrate,
    )

    load_start = os.getloadavg()[0]
    cpu = _pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    burst = workload.burst
    sizes = SIZES["smoke" if args.smoke else "full"]
    inputs = Inputs(workload, args.seed, sizes["trace"])
    traced = bool(args.trace)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"cpu={cpu}")

    # -- set-up: cold builds, ACL text to first verdicts -------------------------
    setup_seconds: list[float] = []
    setup_parts: dict[str, list[float]] = {"compile": [], "build": [], "freeze": [], "spawn": []}
    stack = None
    for _ in range(sizes["setups"]):
        if stack is not None:
            stack.close()
            stack = None
        speed = CALIBRATION_REFERENCE_S / statistics.median(calibrate() for _ in range(5))
        tracer = Tracer() if traced else None
        if tracer is not None:
            _setup_wrappers(tracer)
            tracer.begin("setup")
        start = time.perf_counter()
        try:
            stack = Stack(inputs)
        finally:
            if tracer is not None:
                tracer.end()
                tracer.uninstall()
        setup_seconds.append((time.perf_counter() - start) * speed)
        if tracer is not None:
            for part, values in setup_parts.items():
                values.append(tracer.layer(part).self_ns / 1e9 * speed)
    assert stack is not None

    def check(oracle: Any, first_packet: int, report: Any) -> None:
        mismatch = oracle.first_mismatch(first_packet, report.verdicts)
        if mismatch is not None:
            raise _Failed(mismatch)

    tracer = Tracer(keep_durations=("update", "freeze")) if traced else None
    try:
        traffic = Traffic(inputs, stack)
        oracle = Oracle(inputs, traffic)
        pipeline = stack.pipeline
        attempted = sizes["check"]
        check(oracle, 0, pipeline.run(
            traffic.bursts(count=sizes["check"] // burst), collect_verdicts=True
        ))

        # -- warm-up: fills the cache; its counters repeat exactly.  It ends
        # on a round boundary, where the timed phase must start.
        warm_end = traffic.next_burst + sizes["warm"] // burst
        warm_end += -warm_end % ROUND_BURSTS
        before = _counters(stack)
        warm = pipeline.run(traffic.bursts(count=warm_end - traffic.next_burst))
        after = _counters(stack)
        counts = {key: after[key] - before[key] for key in after}

        # -- timed phase -----------------------------------------------------
        if tracer is not None:
            _timed_wrappers(tracer)
        timing_before = _counters(stack)
        start = time.perf_counter()
        timing = Timing(deadline=start + args.seconds, min_rounds=WINDOWS)
        try:
            timed = pipeline.run(traffic.bursts(timing=timing, tracer=tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        timing_after = _counters(stack)
        attempted = timed.offered
        failed = timed.shed + timed.dropped + int(timing_after["denied"] - timing_before["denied"])

        # -- closing correctness pass ----------------------------------------
        first_packet = traffic.next_burst * burst
        check(oracle, first_packet, pipeline.run(
            traffic.bursts(count=sizes["closing"] // burst), collect_verdicts=True
        ))
        # Read before the metrics below allocate their own lists.
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        profile = _profile(inputs) if traced else {}
    except _Failed as exc:
        print(f"error: wrong verdict on workload {workload.name}, seed {args.seed}: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    finally:
        stack.close()
        _stop_resource_tracker()

    pps, window_packets = _window_pps(timing, ROUND_BURSTS * burst)
    speed = timing.speed
    served = timed.served
    print(f"  timed phase: {served} packets in {wall:.2f} s ({served / wall:.6g} packets/s "
          f"as clocked); median speed factor {speed:.3f} over "
          f"{len(timing.calibrations)} calibrations")
    metrics: dict[str, tuple[float, str, str]]
    if not traced:
        latencies_us = [latency * 1e6 for latency in timing.latencies]
        n = len(latencies_us)
        metrics = {
            "setup_s": (_median(setup_seconds), "s", f"median of {len(setup_seconds)} set-ups"),
            "pps": (pps, "packets/s", f"median of {WINDOWS} windows x {window_packets} packets"),
            "latency_p50_us": (quantile(latencies_us, 0.50), "us", f"n={n} bursts"),
            "latency_p90_us": (
                quantile(latencies_us, TAIL), "us",
                f"n={n} bursts, {n - math.ceil(TAIL * n)} above",
            ),
            "rss_peak_mib": (rss_mib, "MiB", "ru_maxrss after the closing pass"),
        }
        for q in INFO_TAILS:
            print(f"  (not gated) latency p{100 * q:g}: {quantile(latencies_us, q):.6g} us, "
                  f"{n - math.ceil(q * n)} bursts above")
    else:
        layer = tracer.layer
        frozen = layer("frozen")
        misses = timing_after["misses"] - timing_before["misses"]

        def per_packet_ns(name: str) -> tuple[float, str, str]:
            return (layer(name).self_ns * speed / served, "ns", f"timed phase, {served} packets")

        def p_ms(samples_s: Sequence[float], q: float, what: str) -> tuple[float, str, str]:
            samples = [seconds * 1e3 for seconds in samples_s]
            return (quantile(samples, q), "ms", f"n={len(samples)} {what}")

        def span_seconds(name: str) -> list[float]:
            return [d * speed / 1e9 for d in layer(name).durations_ns or ()]

        warm_note = f"warm-up pass, {warm.served} packets"
        metrics = {
            "stream.self_ns_per_pkt": per_packet_ns("stream"),
            "stream.max_backlog": (warm.max_backlog, "packets", warm_note),
            "tenant.self_ns_per_pkt": per_packet_ns("tenant"),
            "tenant.denied_share": (
                _ratio(counts["denied"], counts["tenant_lookups"]), "ratio", warm_note
            ),
            "engine.self_ns_per_pkt": per_packet_ns("engine"),
            "engine.hit_ratio": (
                _ratio(counts["hits"], counts["hits"] + counts["misses"]), "ratio", warm_note
            ),
            "engine.unique_per_resolve": (
                _ratio(frozen.items, misses), "ratio", f"{frozen.items} walked / {misses} missed"
            ),
            "engine.evictions_per_pkt": (_ratio(counts["evictions"], warm.served), "count",
                                         warm_note),
            "guard.self_ns_per_pkt": per_packet_ns("guard"),
            "guard.shadow_checks": (counts["shadow_checks"], "count", warm_note),
            "guard.faults": (counts["faults"], "count", warm_note),
            "frozen.self_ns_per_query": (
                _ratio(frozen.self_ns * speed, frozen.items), "ns", f"{frozen.items} queries"
            ),
            "frozen.queries_per_call": (
                _ratio(frozen.items, frozen.calls), "count", f"{frozen.calls} calls"
            ),
            "frozen.visits_per_query": (profile["visits"], "count", f"{PROFILE_QUERIES} queries"),
            "frozen.comparisons_per_query": (
                profile["comparisons"], "count", f"{PROFILE_QUERIES} queries"
            ),
            "frozen.plane_bytes": (profile["bytes"], "bytes", "memory_bytes()"),
            "update.apply_ms_p50": p_ms(span_seconds("update"), 0.5, "transactions"),
            "update.refreeze_ms_p50": p_ms(span_seconds("freeze"), 0.5, "refreezes"),
            "update.rows_invalidated_per_tx": (
                _ratio(counts["rows_invalidated"], counts["update_batches"]), "count", warm_note
            ),
            "update.e2e_p50_ms": p_ms(timing.updates, 0.5, "transactions"),
            "update.e2e_p90_ms": p_ms(timing.updates, 0.9, "transactions"),
            "shard.self_ns_per_pkt": per_packet_ns("shard"),
            "shard.worker_hit_ratio": (
                _ratio(counts["worker_hits"], counts["worker_lookups"]), "ratio", warm_note
            ),
            "shard.fallback_share": (_ratio(counts["fallback"], warm.served), "ratio", warm_note),
            "setup.compile_s": (_median(setup_parts["compile"]), "s", "median of set-ups"),
            "setup.build_s": (_median(setup_parts["build"]), "s", "median of set-ups"),
            "setup.freeze_s": (_median(setup_parts["freeze"]), "s", "median of set-ups"),
            "setup.spawn_s": (_median(setup_parts["spawn"]), "s", "median of set-ups"),
            "trace.pps": (pps, "packets/s", f"traced, median of {WINDOWS} windows"),
            "trace.coverage": (
                tracer.self_ns_total() / (wall * 1e9), "ratio", "span self times / wall time"
            ),
        }
        out = Path(args.trace_out) if args.trace_out else (
            HERE / "out" / f"trace-{workload.name}-{args.seed}.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out), {"workload": workload.name, "seed": args.seed, "wall_ns": wall * 1e9,
                                "speed_factor": speed})
        print(f"  span log: {out} ({len(tracer.spans)} spans kept, "
              f"{tracer.dropped_spans} dropped)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit:10s} {note}")
    print("fingerprint " + json.dumps(fingerprint(args.seed, load_start)))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


# -- every workload, fresh processes ---------------------------------------


def _bounds() -> dict[str, float]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {metric["name"]: metric["bound"] for metric in spec.get("end_to_end", [])}


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} exited {done.returncode}")
    return result


def run_all(args: argparse.Namespace) -> int:
    from stack import WORKLOADS

    load_start = os.getloadavg()[0]
    names = list(WORKLOADS)
    bounds = _bounds()
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    traced: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for repetition in range(args.repeat):
        order = names if repetition % 2 == 0 else names[::-1]
        for name in order:
            seed = args.seed + repetition
            results[name].append(_one(name, seed, args.seconds, 0))
            if args.trace:
                traced[name].append(_one(name, seed, args.seconds, 1))
    print()
    print(f"{'workload':12s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  n")
    flagged = 0
    summary: dict[str, Any] = {}
    for name in names:
        summary[name] = {}
        for metric in END_TO_END:
            values = [result["metrics"][metric]["value"] for result in results[name]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            spread = (q3 - q1) / median
            bound = bounds.get(metric, math.nan)
            flag = ""
            if metric != "setup_s" and spread > bound:
                flag = "  SPREAD > BOUND"
                flagged += 1
            print(f"{name:12s} {metric:16s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound:6.2f}  {len(values)}{flag}")
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
        if traced[name]:
            pps = statistics.median(r["metrics"]["pps"]["value"] for r in results[name])
            traced_pps = statistics.median(r["metrics"]["trace.pps"]["value"] for r in traced[name])
            coverage = min(r["metrics"]["trace.coverage"]["value"] for r in traced[name])
            print(f"{name:12s} tracing overhead {pps / traced_pps:.3f}x "
                  f"(untraced pps / traced pps), span coverage >= {coverage:.3f}")
            summary[name]["tracing_overhead"] = pps / traced_pps
    print(json.dumps({"summary": summary, "flagged": flagged,
                      "fingerprint": fingerprint(args.seed, load_start)}))
    return 1 if flagged else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=int, default=SECONDS, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--trace-out", help="span log path (default: out/trace-<workload>-<seed>.json)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be >= 1")
    _import_program()
    if args.workload is None:
        return run_all(args)
    from stack import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
