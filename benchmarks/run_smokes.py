"""Unified CI smoke runner and perf-trajectory gate.

Runs every benchmark smoke in one process (``bench_engine_cache``,
``bench_frozen``, ``bench_updates``, ``bench_chaos``,
``bench_shards``, ``bench_ipv6_keylen``, ``bench_stream``,
``bench_tenant``),
collects the headline ratios each
``main(smoke=True)`` returns, and writes them as a *trajectory*: one
record per metric, stamped with the current commit SHA and a UTC
timestamp, so CI artifacts accumulate into a per-commit history of the
repo's performance story.

The gate (``--gate``) compares the fresh trajectory against the
committed ``benchmarks/BENCH_baseline.json`` and fails when any smoke
ratio degrades by more than ``--tolerance`` (default 20 %).  All
tracked metrics are higher-is-better speedup/overhead ratios, so the
check is one-sided: ``fresh >= baseline * (1 - tolerance)``.

``--scenarios`` switches to the attack-scenario matrix: every
registered scenario streams through its own pipeline profile
(``bench_stream.scenario_matrix``), the rows land in
``BENCH_scenarios.json``, and with ``--gate`` each scenario's
``p999_us`` must stay within +20 % of the committed ``scenarios``
section of the baseline while its deterministic ``shed_rate`` may
drift at most +0.02 absolute.  ``--summary-out`` appends a markdown
table (aimed at ``$GITHUB_STEP_SUMMARY``) in either mode.

Re-baselining (after a deliberate trade-off or a hardware change on
the runners): run ``python benchmarks/run_smokes.py --rebaseline`` on
a quiet machine and commit the updated baseline alongside the change
that moved the numbers — the diff then documents the new expectation.
See docs/observability.md for the workflow.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY_SCHEMA = "palmtrie-repro/bench-trajectory/v1"
BASELINE_PATH = HERE / "BENCH_baseline.json"
DEFAULT_OUT = HERE.parent / "BENCH_trajectory.json"
DEFAULT_SCENARIOS_OUT = HERE.parent / "BENCH_scenarios.json"
DEFAULT_TOLERANCE = 0.20
#: p999-under-attack may inflate at most this much over its baseline
P999_HEADROOM = 0.20
#: shed rate is seeded arithmetic, not timing — tiny absolute headroom
SHED_HEADROOM = 0.02

#: module name -> human label, in run order (cheapest first)
SMOKES = (
    ("bench_engine_cache", "flow-cache serving path"),
    ("bench_frozen", "frozen lookup plane"),
    ("bench_updates", "transactional update plane"),
    ("bench_chaos", "resilience chaos plane"),
    ("bench_shards", "sharded multi-process data plane"),
    ("bench_ipv6_keylen", "IPv6 long-key plane"),
    ("bench_stream", "streaming data plane"),
    ("bench_tenant", "multi-tenant control plane"),
)


def _git_commit() -> str:
    """Current commit SHA, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_all_smokes() -> dict[str, float]:
    """Run every smoke; returns the merged {metric: ratio} dict.

    A smoke that fails its own acceptance bar raises SystemExit, which
    propagates — the runner never papers over a failing smoke.
    """
    sys.path.insert(0, str(HERE))
    try:
        metrics: dict[str, float] = {}
        for module_name, label in SMOKES:
            print(f"=== {label} ({module_name} --smoke) ===")
            module = __import__(module_name)
            result = module.main(smoke=True) or {}
            overlap = set(result) & set(metrics)
            if overlap:
                raise SystemExit(
                    f"{module_name} re-reported metrics {sorted(overlap)}"
                )
            metrics.update(result)
            print()
        return metrics
    finally:
        sys.path.remove(str(HERE))


def build_trajectory(metrics: dict[str, float]) -> dict:
    """One record per metric, stamped with commit + timestamp."""
    commit = _git_commit()
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return {
        "schema": TRAJECTORY_SCHEMA,
        "commit": commit,
        "timestamp": timestamp,
        "records": [
            {
                "metric": name,
                "value": value,
                "commit": commit,
                "timestamp": timestamp,
            }
            for name, value in sorted(metrics.items())
        ],
    }


def trajectory_metrics(trajectory: dict) -> dict[str, float]:
    """Flatten a trajectory document back into {metric: value}."""
    return {
        record["metric"]: record["value"]
        for record in trajectory.get("records", [])
    }


def check_trajectory(
    fresh: dict[str, float],
    baseline: dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Compare fresh ratios against the baseline; returns failures.

    Every baseline metric must be present in the fresh run and must not
    have degraded below ``baseline * (1 - tolerance)``.  Metrics the
    fresh run reports but the baseline does not are fine (new metrics
    get baselined on the next ``--rebaseline``).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures = []
    for name, expected in sorted(baseline.items()):
        got = fresh.get(name)
        if got is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        floor = expected * (1.0 - tolerance)
        if got < floor:
            failures.append(
                f"{name}: {got:.3f} < {floor:.3f} "
                f"(baseline {expected:.3f} - {tolerance:.0%} tolerance)"
            )
    return failures


def run_scenario_matrix() -> dict[str, dict]:
    """Stream every registered scenario; returns {name: matrix row}."""
    sys.path.insert(0, str(HERE))
    try:
        import bench_stream

        return bench_stream.scenario_matrix(smoke=True)
    finally:
        sys.path.remove(str(HERE))


def check_scenarios(
    fresh: dict[str, dict],
    baseline: dict[str, dict],
    p999_headroom: float = P999_HEADROOM,
    shed_headroom: float = SHED_HEADROOM,
) -> list[str]:
    """Gate the scenario matrix against the baseline; returns failures.

    ``p999_us`` is wall-clock and gets multiplicative headroom;
    ``shed_rate`` is deterministic burst arithmetic and gets only a
    small absolute allowance (it moves when the scenario or pipeline
    profile changes, which should show up in the baseline diff).
    """
    failures = []
    for name, expected in sorted(baseline.items()):
        row = fresh.get(name)
        if row is None:
            failures.append(f"{name}: missing from the fresh matrix")
            continue
        p999_ceiling = expected["p999_us"] * (1.0 + p999_headroom)
        if row["p999_us"] > p999_ceiling:
            failures.append(
                f"{name}: p999_under_attack {row['p999_us']:.0f} us > "
                f"{p999_ceiling:.0f} us (baseline {expected['p999_us']:.0f} us "
                f"+ {p999_headroom:.0%} headroom)"
            )
        shed_ceiling = expected["shed_rate"] + shed_headroom
        if row["shed_rate"] > shed_ceiling:
            failures.append(
                f"{name}: shed_rate {row['shed_rate']:.4f} > "
                f"{shed_ceiling:.4f} (baseline {expected['shed_rate']:.4f} "
                f"+ {shed_headroom} headroom)"
            )
    return failures


def scenarios_markdown(fresh: dict[str, dict]) -> str:
    """The scenario matrix as a GitHub-flavoured markdown table."""
    lines = [
        "### Attack scenario matrix",
        "",
        "| scenario | attack | packets | shed rate | churn tx | p50 | p999 | served/s |",
        "| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for name in sorted(fresh):
        row = fresh[name]
        lines.append(
            f"| {name} | {'yes' if row['attack'] else 'no'} "
            f"| {row['packets']} "
            f"| {100 * row['shed_rate']:.1f} % "
            f"| {row['churn_transactions']} "
            f"| {row['p50_us']:,.0f} us "
            f"| {row['p999_us']:,.0f} us "
            f"| {row['queries_per_second']:,.0f} |"
        )
    return "\n".join(lines) + "\n"


def metrics_markdown(metrics: dict[str, float], baseline: dict[str, float]) -> str:
    """The smoke ratios as a markdown table (with baseline context)."""
    lines = [
        "### Benchmark smoke ratios",
        "",
        "| metric | fresh | baseline floor |",
        "| --- | ---: | ---: |",
    ]
    for name in sorted(metrics):
        floor = baseline.get(name)
        floor_cell = f"{floor:.3f}" if floor is not None else "(unbaselined)"
        lines.append(f"| {name} | {metrics[name]:.3f} | {floor_cell} |")
    return "\n".join(lines) + "\n"


def _append_summary(path: Path, text: str) -> None:
    """Append markdown to ``path`` ($GITHUB_STEP_SUMMARY semantics)."""
    with open(path, "a") as handle:
        handle.write(text)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run all benchmark smokes; write and gate the perf trajectory"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"trajectory output path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"committed baseline to gate against (default {BASELINE_PATH})",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail when any smoke ratio degrades past the tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional degradation before the gate fails (default 0.20)",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the committed baseline with this run's ratios",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the trajectory already written at --out instead of re-running "
        "the smokes (implies --gate)",
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="run the attack-scenario matrix instead of the smokes; with "
        "--gate, enforce p999/shed ceilings from the baseline's scenarios "
        "section",
    )
    parser.add_argument(
        "--scenarios-out",
        type=Path,
        default=DEFAULT_SCENARIOS_OUT,
        help=f"scenario matrix output path (default {DEFAULT_SCENARIOS_OUT})",
    )
    parser.add_argument(
        "--summary-out",
        type=Path,
        default=None,
        help="append a markdown results table to this file "
        "(point it at $GITHUB_STEP_SUMMARY in CI)",
    )
    args = parser.parse_args(argv)

    if args.scenarios:
        rows = run_scenario_matrix()
        document = {
            "schema": "palmtrie-repro/bench-scenarios/v1",
            "commit": _git_commit(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scenarios": rows,
        }
        args.scenarios_out.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.scenarios_out} ({len(rows)} scenarios)")
        if args.summary_out is not None:
            _append_summary(args.summary_out, scenarios_markdown(rows))
        if args.rebaseline:
            baseline_doc = (
                json.loads(args.baseline.read_text())
                if args.baseline.exists()
                else {}
            )
            baseline_doc["scenarios"] = {
                name: {
                    "p999_us": row["p999_us"],
                    "shed_rate": row["shed_rate"],
                }
                for name, row in rows.items()
            }
            args.baseline.write_text(
                json.dumps(baseline_doc, indent=2, sort_keys=True) + "\n"
            )
            print(f"rebaselined scenarios section of {args.baseline}")
            return 0
        if args.gate:
            if not args.baseline.exists():
                print(f"gate: no baseline at {args.baseline}", file=sys.stderr)
                return 2
            baseline = json.loads(args.baseline.read_text()).get("scenarios", {})
            if not baseline:
                print(
                    f"gate: no scenarios section in {args.baseline}",
                    file=sys.stderr,
                )
                return 2
            failures = check_scenarios(rows, baseline)
            if failures:
                print("scenario matrix gate FAILED:", file=sys.stderr)
                for failure in failures:
                    print(f"  {failure}", file=sys.stderr)
                print(
                    "(deliberate change? rerun with --scenarios --rebaseline "
                    "on a quiet machine and commit the new baseline)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"scenario matrix gate passed: {len(baseline)} scenarios "
                f"within p999 +{P999_HEADROOM:.0%} / shed +{SHED_HEADROOM}"
            )
        return 0

    if args.check:
        if not args.out.exists():
            print(f"check: no trajectory at {args.out}", file=sys.stderr)
            return 2
        metrics = trajectory_metrics(json.loads(args.out.read_text()))
        args.gate = True
    else:
        metrics = run_all_smokes()
        trajectory = build_trajectory(metrics)
        args.out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out} ({len(metrics)} metrics @ {trajectory['commit'][:12]})")

    if args.summary_out is not None:
        known = (
            json.loads(args.baseline.read_text()).get("metrics", {})
            if args.baseline.exists()
            else {}
        )
        _append_summary(args.summary_out, metrics_markdown(metrics, known))

    if args.rebaseline:
        # Update only the metrics section: the scenarios ceilings (and
        # the note) re-baseline separately via --scenarios --rebaseline.
        baseline_doc = (
            json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        )
        baseline_doc["metrics"] = metrics
        args.baseline.write_text(
            json.dumps(baseline_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"rebaselined metrics section of {args.baseline}")
        return 0

    if args.gate:
        if not args.baseline.exists():
            print(f"gate: no baseline at {args.baseline}", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text()).get("metrics", {})
        failures = check_trajectory(metrics, baseline, args.tolerance)
        if failures:
            print("perf trajectory gate FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            print(
                "(deliberate change? rerun with --rebaseline on a quiet machine "
                "and commit the new baseline — see docs/observability.md)",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf trajectory gate passed: {len(baseline)} metrics within "
            f"{args.tolerance:.0%} of baseline"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
