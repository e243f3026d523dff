"""Workloads, the serving stack and the closed-loop traffic source.

Every workload runs through the same production stack::

    StreamPipeline(policy="block", max_inflight=4*burst, batch_max=burst)
      -> TenantRouter([TenantSpec(...)])[TENANT]      (repro.tenant.router)
      -> ClassificationEngine | ShardedEngine         (repro.engine, repro.shard)
      -> GuardRail(shadow_sample=0.001)               (repro.resilience.guard)
      -> FrozenMatcher                                (repro.core.frozen)

The rule sets are fixed ClassBench-like sets (generator seed 2020), the
way a device's configuration is fixed; ``--seed`` drives the traffic
and the rule-churn transactions.  The source is a closed loop: with
``service_quantum=None`` the pipeline drains a burst before it asks for
the next one, so the time from yielding burst k to being asked for
burst k+1 is burst k's arrival-to-verdict latency.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.acl.compiler import compile_acl, compile_rule
from repro.acl.rule import AclRule, Action, Protocol
from repro.baselines.sorted_list import SortedListMatcher
from repro.config import EngineConfig
from repro.resilience.guard import GuardRail
from repro.stream.pipeline import StreamPipeline
from repro.tenant import TenantRouter, TenantSpec
from repro.workloads.classbench import PROFILES, classbench_rules
from repro.workloads.traffic import reverse_byte_scan, zipf_trace

__all__ = [
    "WORKLOADS", "Workload", "Inputs", "Stack", "Traffic", "Oracle", "Timing", "calibrate",
    "ROUND_BURSTS", "CALIBRATION_REFERENCE_S",
]

TENANT = "ledger"
#: rules per ClassBench-like set, and the seed of the set generator
RULES = 500
RULE_SEED = 2020
#: bursts per round; rounds are the unit the timed phase stops on and
#: the throughput windows are cut from (one churn transaction each)
ROUND_BURSTS = 128
#: top-priority /16 deny keys the rule-churn transactions rotate through
CHURN_POOL = 64
#: iterations of the calibration loop (about 0.3 ms on the reference box)
CALIBRATION_LOOPS = 2_000
#: the calibration loop's time at the reference machine speed
CALIBRATION_REFERENCE_S = 0.3e-3
#: seconds between calibrations in the timed phase
CALIBRATE_EVERY_S = 0.01


def _hot_flows(entries: Sequence[Any], count: int, rng: random.Random) -> list[int]:
    return zipf_trace(entries, count, flows=1024, s=1.1, seed=rng.getrandbits(32))


def _scan_miss(entries: Sequence[Any], count: int, rng: random.Random) -> list[int]:
    # The scan keeps its reverse-byte order; zipf packets are dropped
    # in at seeded positions, about one in ten.
    scan = iter(
        reverse_byte_scan(count, seed=rng.getrandbits(32), start=rng.randrange(1 << 24))
    )
    flows = iter(zipf_trace(entries, count, flows=128, s=1.1, seed=rng.getrandbits(32)))
    return [next(flows) if rng.random() < 0.1 else next(scan) for _ in range(count)]


def _rule_churn(entries: Sequence[Any], count: int, rng: random.Random) -> list[int]:
    return zipf_trace(entries, count, flows=8192, s=1.0, seed=rng.getrandbits(32))


def _sharded_fw(entries: Sequence[Any], count: int, rng: random.Random) -> list[int]:
    return zipf_trace(entries, count, flows=16384, s=0.9, seed=rng.getrandbits(32))


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the stack settings it runs with."""

    name: str
    profile: str
    traffic: Callable[[Sequence[Any], int, random.Random], list[int]]
    burst: int = 64
    shards: int = 0
    #: bursts between rule-churn transactions (0: no updates)
    churn_every: int = 0


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        # Cache hits near 100 %: stream, tenant, engine and cache code
        # dominate and the frozen walk is idle, so a walk optimisation
        # should show no change here.
        Workload("hot-flows", "acl", _hot_flows),
        # The paper's section 6 pathology: nine in ten packets are new,
        # so the frozen walk dominates and every cache probe and fill
        # is wasted work.
        Workload("scan-miss", "acl", _scan_miss),
        # Writes beside reads: one transaction per round exercises
        # apply_updates, the lazy refreeze and cache invalidation.
        Workload("rule-churn", "acl", _rule_churn, churn_every=ROUND_BURSTS),
        # The only mix that crosses shard IPC (two workers).
        Workload("sharded-fw", "fw", _sharded_fw, burst=256, shards=2),
    )
}


class Inputs:
    """Everything a run derives from (workload, seed), built once."""

    def __init__(self, workload: Workload, seed: int, packets: int) -> None:
        if packets % workload.burst:
            raise ValueError(f"trace of {packets} packets does not split into bursts")
        self.workload = workload
        self.rules = classbench_rules(PROFILES[workload.profile], RULES, seed=RULE_SEED)
        self.acl_text = "\n".join(rule.to_line() for rule in self.rules)
        compiled = compile_acl(self.rules)
        self.entries = compiled.entries
        self.key_length = compiled.layout.length
        rng = random.Random(f"{seed}:{workload.name}")
        self.trace = workload.traffic(self.entries, packets, rng)
        burst = workload.burst
        self.bursts = [self.trace[i : i + burst] for i in range(0, packets, burst)]
        self.churn_keys = self._churn_entries(rng, compiled.layout) if workload.churn_every else []

    def _churn_entries(self, rng: random.Random, layout: Any) -> list[Any]:
        """Top-priority ``deny ip any <net>/16`` entries whose keys the
        rule set does not already hold (a delete must hit exactly one)."""
        taken = {entry.key for entry in self.entries}
        nets = [rule.dst_prefix[0] >> 16 for rule in self.rules if rule.dst_prefix[1] >= 16]
        pool: list[Any] = []
        while len(pool) < CHURN_POOL:
            net = rng.choice(nets) if rng.random() < 0.75 else rng.getrandbits(16)
            rule = AclRule(Action.DENY, Protocol.IP, (0, 0), (net << 16, 16))
            (entry,) = compile_rule(rule, value=RULES, priority=RULES + 1, layout=layout)
            if entry.key not in taken:
                taken.add(entry.key)
                pool.append(entry)
        return pool

    def query(self, packet: int) -> int:
        """The query of global packet index ``packet`` (the trace cycles)."""
        return self.trace[packet % len(self.trace)]


class Stack:
    """One freshly built serving stack: router, tenant and pipeline."""

    def __init__(self, inputs: Inputs) -> None:
        workload = inputs.workload
        config = EngineConfig(
            cache_size=4096,
            auto_freeze=True,
            resilience=GuardRail(shadow_sample=0.001),
            shards=workload.shards,
        )
        self.router = TenantRouter([TenantSpec(TENANT, acl=inputs.acl_text, engine=config)])
        try:
            self.tenant = self.router[TENANT]
            self.pipeline = StreamPipeline(
                self.tenant,
                policy="block",
                max_inflight=4 * workload.burst,
                batch_max=workload.burst,
            )
            # The first burst's verdicts are part of set-up: they pay
            # the lazy freeze.
            self.pipeline.run([inputs.bursts[0]])
        except BaseException:
            self.router.close()
            raise

    def close(self) -> None:
        self.router.close()


class Traffic:
    """The closed-loop source: cycles the trace burst by burst, applies
    rule-churn transactions at their boundaries and logs them for the
    oracle."""

    def __init__(self, inputs: Inputs, stack: Stack) -> None:
        self.inputs = inputs
        self.stack = stack
        #: global index of the next burst to yield
        self.next_burst = 0
        #: (first packet index served under it, ops) per transaction
        self.oplog: list[tuple[int, list[tuple[str, Any]]]] = []

    def _transaction(self, burst: int) -> None:
        keys = self.inputs.churn_keys
        index = burst // self.inputs.workload.churn_every
        ops: list[tuple[str, Any]] = []
        if index:
            ops.append(("delete", keys[(index - 1) % len(keys)].key))
        ops.append(("insert", keys[index % len(keys)]))
        self.stack.tenant.apply_updates(ops)
        self.oplog.append((burst * self.inputs.workload.burst, ops))

    def bursts(
        self,
        count: Optional[int] = None,
        timing: Optional["Timing"] = None,
        tracer: Optional[Any] = None,
    ) -> Iterator[list[int]]:
        """Yield ``count`` bursts, or whole rounds until ``timing`` says
        the timed phase is over, recording into ``timing`` as it goes."""
        bursts = self.inputs.bursts
        period = self.inputs.workload.churn_every
        k = self.next_burst
        if timing is not None and k % ROUND_BURSTS:
            raise ValueError(f"a timed phase must start on a round boundary, not burst {k}")
        stop = None if count is None else k + count
        clock = time.perf_counter
        yielded: Optional[float] = None
        update_start: Optional[float] = None
        while True:
            now = clock()
            if timing is not None and yielded is not None:
                timing.served(now, now - yielded, update_start)
            update_start = None
            if stop is not None and k >= stop:
                return
            if tracer is not None:
                tracer.begin("source")
                tracer.burst = k
            if timing is not None:
                if k % ROUND_BURSTS == 0 and timing.boundary(now):
                    if tracer is not None:
                        tracer.end()
                    return
                timing.cycle(now)
            if period and k % period == 0:
                update_start = clock()
                self._transaction(k)
            burst = bursts[k % len(bursts)]
            k += 1
            self.next_burst = k
            if tracer is not None:
                tracer.end()
            yielded = clock()
            yield burst


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop never changes, so its time tracks how fast this machine
    runs the interpreter at the moment; the timed phase divides every
    round by it (see :class:`Timing`).
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = i
        total += table.get(i & 511, 0) ^ i
    return time.perf_counter() - start


class Timing:
    """Clock readings of one timed phase, scaled to a reference speed.

    On a shared machine the interpreter's speed drifts by tens of
    percent within seconds, even for one seed.  So between two bursts,
    every ``CALIBRATE_EVERY_S``, the phase runs :func:`calibrate`
    (a few percent of the time, outside every burst's latency and
    outside every cycle), and until the next calibration each time it
    records is scaled by ``speed = CALIBRATION_REFERENCE_S /
    calibration``: the time it would have taken while the calibration
    loop runs at its reference time.

    A *cycle* is the time from one resumption of the source to the
    next: the pipeline serving one burst plus the source preparing the
    next.  A round's time is the sum of its bursts' scaled cycles.
    """

    def __init__(self, deadline: float, min_rounds: int) -> None:
        self.deadline = deadline
        self.min_rounds = min_rounds
        #: per burst, scaled arrival-to-verdict seconds (unboxed, so the
        #: samples barely move the process's peak RSS)
        self.latencies = array("d")
        #: per transaction, scaled apply-to-next-verdicts seconds
        self.updates: list[float] = []
        #: per completed round, scaled seconds
        self.rounds: list[float] = []
        #: every calibration's raw seconds
        self.calibrations: list[float] = []
        self._speed = 1.0
        self._round = 0.0
        self._cycle_start: Optional[float] = None
        self._calibrated_at = -math.inf

    @property
    def speed(self) -> float:
        """Median factor from clocked to reference time over the phase
        (>1 while the machine ran slower than the reference)."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations)

    def served(self, now: float, latency: float, update_start: Optional[float]) -> None:
        """The burst yielded last got its verdicts at ``now``."""
        speed = self._speed
        self.latencies.append(latency * speed)
        if update_start is not None:
            self.updates.append((now - update_start) * speed)
        if self._cycle_start is not None:
            self._round += (now - self._cycle_start) * speed

    def boundary(self, now: float) -> bool:
        """A round boundary at ``now``; True once the phase is over."""
        if self._cycle_start is not None:
            self.rounds.append(self._round)
            self._round = 0.0
        return now >= self.deadline and len(self.rounds) >= self.min_rounds

    def cycle(self, now: float) -> None:
        """A cycle starts at ``now``; calibrates first when one is due."""
        if now - self._calibrated_at >= CALIBRATE_EVERY_S:
            seconds = calibrate()
            self.calibrations.append(seconds)
            self._speed = CALIBRATION_REFERENCE_S / seconds
            now = self._calibrated_at = time.perf_counter()
        self._cycle_start = now


class Oracle:
    """A :class:`SortedListMatcher` fed the same update ops as the stack."""

    def __init__(self, inputs: Inputs, traffic: Traffic) -> None:
        self.inputs = inputs
        self.traffic = traffic
        self.matcher = SortedListMatcher(inputs.key_length)
        for entry in inputs.entries:
            self.matcher.insert(entry)
        self.applied = 0

    def first_mismatch(self, first_packet: int, verdicts: Sequence[Any]) -> Optional[str]:
        """Compare each verdict's winning priority with the oracle's;
        describes the first mismatch, None when every verdict agrees."""
        log = self.traffic.oplog
        memo: dict[int, Optional[int]] = {}
        lookup = self.matcher.lookup
        for offset, got in enumerate(verdicts):
            packet = first_packet + offset
            while self.applied < len(log) and log[self.applied][0] <= packet:
                for kind, payload in log[self.applied][1]:
                    if kind == "insert":
                        self.matcher.insert(payload)
                    else:
                        self.matcher.delete(payload)
                self.applied += 1
                memo.clear()
            query = self.inputs.query(packet)
            if query in memo:
                expected = memo[query]
            else:
                entry = lookup(query)
                expected = memo[query] = None if entry is None else entry.priority
            served = getattr(got, "priority", None)
            if served != expected or (got is not None and served is None):
                return (
                    f"packet {packet}: served "
                    f"{'no match' if got is None else f'priority {served} ({got!r})'}, "
                    f"oracle says {'no match' if expected is None else f'priority {expected}'}"
                )
        return None
