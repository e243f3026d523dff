"""Figure 11 — build time on campus ACLs.

Benchmarks each structure's construction and the Palmtrie+ compilation
part.  The headline shape: the DPDK-style build explodes superlinearly
while Palmtrie builds stay near-linear.  Run ``palmtrie-repro
experiment fig11`` for the full D_q series.
"""

from __future__ import annotations

import pytest

from conftest import KEY_LENGTH
from repro.baselines import DpdkStyleAcl
from repro.core import BasicPalmtrie, FrozenMatcher, MultibitPalmtrie


def test_fig11_build_basic(benchmark, campus):
    entries = list(campus.entries)
    benchmark(BasicPalmtrie.build, entries, KEY_LENGTH)


@pytest.mark.parametrize("stride", [6, 8])
def test_fig11_build_palmtrie(benchmark, campus, stride):
    entries = list(campus.entries)
    benchmark(MultibitPalmtrie.build, entries, KEY_LENGTH, stride=stride)


def test_fig11_build_plus8(benchmark, campus):
    entries = list(campus.entries)
    benchmark(FrozenMatcher.build, entries, KEY_LENGTH, stride=8)


def test_fig11_build_dpdk(benchmark, campus):
    entries = list(campus.entries)
    benchmark(DpdkStyleAcl.build, entries, KEY_LENGTH)


def test_fig11_dpdk_build_superlinear(campus):
    """DPDK-style state count must grow superlinearly in the rule count
    (the structural cause of the paper's 3-hour builds)."""
    from repro.workloads.campus import campus_acl

    small = DpdkStyleAcl.build(campus_acl(2).entries, KEY_LENGTH)
    large = DpdkStyleAcl.build(campus_acl(4).entries, KEY_LENGTH)
    # 4x the rules should cost clearly more than 4x the states.
    assert large.state_count > 6 * small.state_count


def main() -> None:
    from repro.bench.experiments import run_experiment

    print(run_experiment("fig11").render())


if __name__ == "__main__":
    main()
