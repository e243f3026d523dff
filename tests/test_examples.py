"""Examples must keep running: every script executes end to end.

The heavier ones (multi-second builds) get a longer timeout.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

FAST = [
    "quickstart.py",
    "paper_walkthrough.py",
    "flow_monitoring.py",
    "l2_filtering.py",
    "router.py",
]
SLOW = [
    "firewall.py",
    "flowspec_updates.py",
    "stateful_firewall.py",
    "structure_shootout.py",
    "trie_anatomy.py",
]


def _run(name: str, timeout: int = 240) -> subprocess.CompletedProcess:
    # The examples import ``repro`` without installing the package, so
    # the subprocess needs src/ on its path regardless of how pytest
    # itself was launched.
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else os.pathsep.join([SRC, existing])
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES,
        env=env,
    )


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{name} produced no output"


@pytest.mark.parametrize("name", SLOW)
def test_slow_example_runs(name):
    result = _run(name, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_output_verdicts():
    result = _run("quickstart.py")
    assert "PERMIT" in result.stdout and "DENY" in result.stdout


def test_walkthrough_reproduces_winner():
    result = _run("paper_walkthrough.py")
    assert "selects entry 5" in result.stdout
