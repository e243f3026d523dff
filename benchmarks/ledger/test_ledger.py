"""Self-test of the ledger benchmark (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Runs every workload at smoke sizes, untraced and traced, and checks the
output contract against BENCHMARK.json; then serves a deliberately
wrong matcher and checks that the correctness pass refuses it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, float]:
    spans = tmp_path_factory.mktemp("spans")
    results = {}
    start = time.perf_counter()
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke",
                 "--trace-out", str(spans / f"{name}.json")],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            results[name, trace] = _result(done.stdout)
    return results, time.perf_counter() - start


def test_smoke_sizes_finish_under_a_minute(smoke: tuple[dict, float]) -> None:
    assert smoke[1] < 60


def test_every_benchmark_metric_is_emitted(smoke: tuple[dict, float]) -> None:
    for (name, trace), result in smoke[0].items():
        section = SPEC["per_layer" if trace else "end_to_end"]
        assert {key: metric["unit"] for key, metric in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in section
        }, (name, trace)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        if not trace:
            assert all(metric["value"] > 0 for metric in result["metrics"].values()), name


def test_span_self_times_cover_the_traced_wall_time(smoke: tuple[dict, float]) -> None:
    for (name, trace), result in smoke[0].items():
        if trace:
            assert result["metrics"]["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.05)


def test_wrong_matcher_fails_the_correctness_pass() -> None:
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]",
        "from repro.core.frozen import FrozenMatcher",
        "FrozenMatcher.lookup_batch = lambda self, queries: [None] * len(queries)",
        "import run",
        "sys.exit(run.main(['--workload', 'scan-miss', '--seed', '7', '--seconds', '1',"
        " '--smoke']))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1
    assert "wrong verdict on workload scan-miss, seed 7: packet " in done.stderr
    assert _result(done.stdout)["correct"] is False
