"""First-order CPU cost model for lookup comparisons.

The paper's headline lookup numbers (Fig. 10, Table 4) depend on CPU
cache behaviour: DPDK-ACL's stride-8 tries are fast while they fit in
cache and stall on DRAM once the rule set is extensive, which is
exactly where Palmtrie+'s compact nodes win.  A Python reimplementation
cannot exhibit those effects — every object access costs interpreter
time, not memory-hierarchy time.

This module recovers the *shape* with a deliberately simple model:

    cycles/lookup = sum over memory touches of latency(footprint)
                    + touches * per-touch ALU work

where a memory touch is one structure-node visit (measured with the
matchers' instrumented ``profile_lookup``), and ``latency`` is a step
function over the structure's modeled C footprint using the paper
machine's hierarchy (i7-6700K: 32 KiB L1, 256 KiB L2, 8 MiB L3, DRAM).
Between levels the latency is blended by the fraction of the structure
that fits, approximating a warm cache holding the hottest nodes.

Reported "modeled Mlps" numbers are *not* measurements; benchmarks
print them side by side with the measured Python rates, and
EXPERIMENTS.md discusses both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.table import TernaryMatcher
from .memory import modeled_bytes

__all__ = ["CacheModel", "DEFAULT_MODEL", "modeled_mlps"]


@dataclass(frozen=True)
class CacheModel:
    """Latency parameters of the modeled memory hierarchy (cycles)."""

    clock_ghz: float = 4.0  # i7-6700K
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 8 * 1024 * 1024
    l1_cycles: float = 4.0
    l2_cycles: float = 12.0
    l3_cycles: float = 40.0
    dram_cycles: float = 200.0
    #: ALU cycles charged per node visit (branch, extract, index math)
    work_cycles: float = 6.0

    def latency(self, footprint: int) -> float:
        """Expected cycles of one touch in a structure of this size.

        The fraction of touches served by each level is the fraction of
        the footprint that fits there, a uniform-touch approximation.
        """
        if footprint <= 0:
            return self.l1_cycles
        levels = (
            (self.l1_bytes, self.l1_cycles),
            (self.l2_bytes, self.l2_cycles),
            (self.l3_bytes, self.l3_cycles),
        )
        expected = 0.0
        covered = 0
        for capacity, cycles in levels:
            span = min(footprint, capacity) - covered
            if span > 0:
                expected += cycles * (span / footprint)
                covered += span
        if footprint > covered:
            expected += self.dram_cycles * ((footprint - covered) / footprint)
        return expected


DEFAULT_MODEL = CacheModel()


def modeled_mlps(
    matcher: TernaryMatcher,
    queries: Sequence[int],
    model: CacheModel = DEFAULT_MODEL,
) -> float:
    """Modeled mega-lookups/second for a matcher on a query stream.

    Requires the matcher to implement ``profile_lookup``.  The
    footprint is :func:`repro.bench.memory.modeled_bytes`, so a frozen
    plane is modeled as the Palmtrie+ it compiles.
    """
    if not queries:
        raise ValueError("cannot model an empty query stream")
    matcher.stats.reset()
    for query in queries:
        matcher.profile_lookup(query)
    per = matcher.stats.per_lookup()
    touches = max(per["node_visits"], 1.0)
    footprint = modeled_bytes(matcher)
    cycles = touches * (model.latency(footprint) + model.work_cycles)
    return model.clock_ghz * 1e3 / cycles  # GHz * 1e9 / cycles / 1e6
