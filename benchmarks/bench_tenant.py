"""Multi-tenant smoke — isolation under a noisy neighbour and a bad rollout.

Three tenants share one :class:`~repro.tenant.TenantRouter`:

* ``victim`` — the well-behaved sibling whose verdict stream is the
  isolation oracle;
* ``noisy`` — a scanner with a tiny rate quota it exhausts almost
  immediately (the token-bucket clock is frozen, so the deny schedule
  is pure arithmetic);
* ``roller`` — a tenant whose staged policy update goes bad: the fault
  injector poisons its canary engine's flow cache, shadow verification
  (sample 1.0) catches the lies, and the SLO guard auto-rolls back by
  discarding the canary.

The two gated ratios (``run_smokes.py`` perf trajectory):

* ``tenant_isolation_ratio`` — fraction of the victim's verdicts that
  are bit-identical (priority *and* value) to a solo run of the same
  tenant, across both incidents.  Must be 1.0: quotas and rollouts are
  per-tenant or they are nothing.
* ``rollback_containment`` — fraction of the roller's *non-canary*
  packets (stable slice during the canary window, every packet after
  rollback) whose verdict matches the old-policy linear-scan reference.
  Must be 1.0: a bad rollout may only ever touch the canary slice.

Both are exact-equality counters, not timings, so the gate cannot
flake; the victim's p999 is additionally checked against a generous
absolute budget.  After the rollback, 8 update transactions on the
roller must refreeze nothing: the stable engine's plane, untouched by
the rollback, keeps serving behind the changed-key overlay (a work
count, not a ratio).  ``--soak`` runs repeated canary cycles (alternating
promote and rollback) at 10x volume with the roller sharded across
worker processes, and asserts that no shard worker process outlives
``router.close()``.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.acl.compiler import compile_acl
from repro.acl.parser import parse_acl
from repro.baselines.sorted_list import SortedListMatcher
from repro.config import EngineConfig
from repro.obs.metrics import Histogram
from repro.resilience import FaultInjector
from repro.tenant import SLOGuards, TenantRouter, TenantSpec, canary_member
from repro.workloads.traffic import reverse_byte_scan, zipf_trace

#: the deterministic seed everything replays from (matches the suite)
SEED = 2020
#: victim/roller packets in the CI smoke; --soak multiplies by 10
SMOKE_PACKETS = 2_000
BATCH = 64

#: the roller's policies, old and new (semantics differ on port 80)
OLD_POLICY = "permit tcp any any eq 80\npermit udp any any\npermit ip any any"
NEW_POLICY = "deny tcp any any eq 80\npermit udp any any\npermit ip any any"
VICTIM_POLICY = "permit tcp any any\npermit ip any any"
NOISY_POLICY = "permit ip any any"

#: victim p999 budget (seconds) — generous: the gate is the exact-count
#: ratios above, this only catches pathological cross-tenant stalls
P999_BUDGET_SECONDS = 0.050


def _signature(verdict) -> object:
    return None if verdict is None else (verdict.priority, verdict.value)


def _specs(guards: SLOGuards) -> list[TenantSpec]:
    return [
        TenantSpec(name="victim", acl=VICTIM_POLICY),
        # burst=512 tokens and a frozen clock: packets 513+ are denied
        TenantSpec(name="noisy", acl=NOISY_POLICY, rate=1.0, burst=512.0),
        # the roller serves from its frozen plane, so its post-rollback
        # updates show whether that plane survived the rollback
        TenantSpec(
            name="roller",
            acl=OLD_POLICY,
            guards=guards,
            canary_pct=25.0,
            engine=EngineConfig(),
        ),
    ]


def _traffic(router: TenantRouter, packets: int):
    victim = zipf_trace(
        router["victim"].compiled.entries, packets, flows=128, seed=SEED + 1
    )
    noisy = reverse_byte_scan(
        packets, seed=SEED + 2, layout=router["noisy"].compiled.layout
    )
    roller = zipf_trace(
        router["roller"].compiled.entries, packets, flows=128, seed=SEED + 3
    )
    return victim, noisy, roller


def _solo_victim_verdicts(queries) -> list[object]:
    router = TenantRouter([TenantSpec(name="victim", acl=VICTIM_POLICY)])
    try:
        out = []
        for offset in range(0, len(queries), BATCH):
            out.extend(
                _signature(v)
                for v in router.lookup_batch("victim", queries[offset : offset + BATCH])
            )
        return out
    finally:
        router.close()


def isolation_run(packets: int, roller_shards: int = 0):
    """The incident run: noisy quota exhaustion + roller bad rollout,
    victim interleaved throughout.  Returns the measured dict."""
    guards = SLOGuards(warmup_packets=64, observe_packets=512)
    injector = FaultInjector(seed=7)
    injector.arm("cache", rate=1.0)
    specs = _specs(guards)
    if roller_shards:
        specs[2] = TenantSpec(
            name="roller",
            acl=OLD_POLICY,
            guards=guards,
            canary_pct=25.0,
            engine=EngineConfig(shards=roller_shards),
        )
    router = TenantRouter(specs, injector=injector, clock=lambda: 0.0)
    try:
        victim_q, noisy_q, roller_q = _traffic(router, packets)
        solo = _solo_victim_verdicts(victim_q)

        old = compile_acl(parse_acl(OLD_POLICY))
        reference = SortedListMatcher.build(old.entries, old.layout.length)
        truth = {}

        new_compiled = compile_acl(parse_acl(NEW_POLICY))
        roller = router["roller"]
        roller.stage_rollout(new_compiled, seed=SEED)
        canary_pct, canary_seed = roller.rollout.canary_pct, roller.rollout.seed

        victim_sigs: list[object] = []
        victim_hist = Histogram("victim_latency_seconds")
        contained = counted = 0
        for offset in range(0, packets, BATCH):
            state_before = roller.rollout.state
            r_batch = roller_q[offset : offset + BATCH]
            r_verdicts = router.lookup_batch("roller", r_batch)
            for query, verdict in zip(r_batch, r_verdicts):
                if state_before == "canary" and canary_member(
                    query, canary_seed, canary_pct
                ):
                    continue  # the canary slice is allowed to differ
                counted += 1
                if query not in truth:
                    entry = reference.lookup(query)
                    truth[query] = None if entry is None else entry.priority
                got = None if verdict is None else verdict.priority
                contained += got == truth[query]
            router.lookup_batch("noisy", noisy_q[offset : offset + BATCH])
            v_batch = victim_q[offset : offset + BATCH]
            start = time.perf_counter()
            v_verdicts = router.lookup_batch("victim", v_batch)
            victim_hist.observe(
                (time.perf_counter() - start) / len(v_batch), len(v_batch)
            )
            victim_sigs.extend(_signature(v) for v in v_verdicts)

        identical = sum(1 for a, b in zip(victim_sigs, solo) if a == b)
        noisy_denied = router["noisy"].bucket.denied
        updates = _updates_after_rollback(roller)
        return {
            "router": None,
            "isolation_ratio": identical / len(solo) if solo else 0.0,
            "containment": contained / counted if counted else 0.0,
            "rollout_state": roller.rollout.state,
            "rollbacks": roller.rollout.rollbacks,
            "failclosed": roller.rollout.failclosed_packets,
            "noisy_denied": noisy_denied,
            "victim_p999": victim_hist.quantiles()["p999"],
            **updates,
        }
    finally:
        router.close()


#: update transactions the roller takes after its rollback
ROLLBACK_UPDATES = 8


def _updates_after_rollback(roller) -> dict[str, int]:
    """``ROLLBACK_UPDATES`` one-rule transactions on the rolled-back
    roller, back to back: the rollback left the stable engine's plane
    in place, and it keeps serving behind the overlay, so the engine
    freezes nothing.  Returns the refreezes and the overlay's key count."""
    ports = range(9000, 9000 + ROLLBACK_UPDATES)
    extra = compile_acl(parse_acl("\n".join(f"deny tcp any any eq {p}" for p in ports)))
    assert extra.layout.length == roller.key_length
    engine = roller.engine
    freezes = engine.freezes
    for entry in extra.entries[:ROLLBACK_UPDATES]:
        roller.apply_updates([("insert", entry)])
    report = engine.report()
    return {
        "rollback_refreezes": engine.freezes - freezes,
        "rollback_overlay_keys": report["plane_overlay_keys"],
    }


def soak_churn(cycles: int, packets: int) -> dict[str, int]:
    """Repeated canary cycles (alternating promote/rollback) against a
    sharded roller; closing the router must stop every shard worker it
    spawned, respawns included."""
    guards = SLOGuards(
        warmup_packets=64,
        observe_packets=512,
        # promote on merit: latency parity between two identical
        # in-process builds is noisy, the mismatch guard is the gate
        max_p99_ratio=100.0,
        max_p999_ratio=100.0,
    )
    injector = FaultInjector(seed=7)
    router = TenantRouter(
        [
            TenantSpec(
                name="roller",
                acl=OLD_POLICY,
                guards=guards,
                canary_pct=25.0,
                engine=EngineConfig(shards=2),
            )
        ],
        injector=injector,
        clock=lambda: 0.0,
    )
    promotes = rollbacks = 0
    try:
        roller = router["roller"]
        queries = zipf_trace(roller.compiled.entries, packets, flows=128, seed=SEED + 3)
        for cycle in range(cycles):
            bad = cycle % 2 == 1
            if bad:
                injector.arm("cache", rate=1.0)
            else:
                injector.disarm("cache")
            policy = NEW_POLICY if cycle % 4 < 2 else OLD_POLICY
            roller.stage_rollout(compile_acl(parse_acl(policy)), seed=SEED + cycle)
            for offset in range(0, packets, BATCH):
                router.lookup_batch("roller", queries[offset : offset + BATCH])
                if roller.rollout.state != "canary":
                    break
            state = roller.rollout.state
            if state == "canary":
                raise SystemExit(
                    f"tenant soak: cycle {cycle} never left the canary window"
                )
            if bad and state != "rolled_back":
                raise SystemExit(f"tenant soak: bad cycle {cycle} ended {state!r}")
            if not bad and state != "promoted":
                raise SystemExit(f"tenant soak: good cycle {cycle} ended {state!r}")
            promotes += state == "promoted"
            rollbacks += state == "rolled_back"
    finally:
        router.close()
    survivors = multiprocessing.active_children()
    if survivors:
        raise SystemExit(
            f"tenant soak: {len(survivors)} shard workers outlived router.close() "
            f"across {cycles} canary cycles: {[p.name for p in survivors]}"
        )
    return {"promotes": promotes, "rollbacks": rollbacks, "survivors": len(survivors)}


def main(smoke: bool = False, soak: bool = False) -> dict[str, float]:
    from repro.bench.report import Table

    packets = SMOKE_PACKETS * (10 if soak else 1)
    result = isolation_run(packets)

    table = Table(
        f"multi-tenant isolation ({packets} packets/tenant, victim vs solo run)",
        ["check", "value", "bar"],
    )
    table.add_row("victim verdicts identical", f"{result['isolation_ratio']:.6f}", "= 1.0")
    table.add_row("roller containment", f"{result['containment']:.6f}", "= 1.0")
    table.add_row("roller rollout state", result["rollout_state"], "rolled_back")
    table.add_row("roller fail-closed packets", str(result["failclosed"]), "> 0")
    table.add_row(
        f"refreezes over {ROLLBACK_UPDATES} post-rollback updates",
        f"{result['rollback_refreezes']} ({result['rollback_overlay_keys']} overlay keys)",
        f"0 ({ROLLBACK_UPDATES})",
    )
    table.add_row("noisy rate denials", str(result["noisy_denied"]), "> 0")
    table.add_row(
        "victim p999", f"{result['victim_p999'] * 1e6:.0f} us",
        f"< {P999_BUDGET_SECONDS * 1e6:.0f} us",
    )
    print(table.render())

    failures = []
    if result["isolation_ratio"] != 1.0:
        failures.append(f"victim verdicts diverged ({result['isolation_ratio']:.6f})")
    if result["containment"] != 1.0:
        failures.append(f"bad rollout escaped the canary slice ({result['containment']:.6f})")
    if result["rollout_state"] != "rolled_back":
        failures.append(f"bad rollout ended {result['rollout_state']!r}")
    if result["failclosed"] <= 0:
        failures.append("tripped canary never failed closed")
    if result["rollback_refreezes"] or result["rollback_overlay_keys"] != ROLLBACK_UPDATES:
        failures.append(
            f"post-rollback updates refroze {result['rollback_refreezes']} times "
            f"({result['rollback_overlay_keys']} overlay keys)"
        )
    if result["noisy_denied"] <= 0:
        failures.append("noisy tenant was never rate-denied")
    if result["victim_p999"] >= P999_BUDGET_SECONDS:
        failures.append(f"victim p999 {result['victim_p999'] * 1e6:.0f}us over budget")
    if failures:
        raise SystemExit("tenant isolation FAILED: " + "; ".join(failures))

    if soak:
        churn = soak_churn(cycles=8, packets=packets)
        print(
            f"tenant soak: {churn['promotes']} promotes + {churn['rollbacks']} "
            f"rollbacks across 8 canary cycles, {churn['survivors']} workers left running"
        )

    print(
        f"tenant: victim bit-identical through quota exhaustion + bad rollout "
        f"({packets} packets/tenant); containment 1.0, "
        f"{result['noisy_denied']} rate denials, "
        f"{result['failclosed']} canary packets failed closed"
    )
    return {
        "tenant_isolation_ratio": result["isolation_ratio"],
        "rollback_containment": result["containment"],
    }


if __name__ == "__main__":
    import sys

    main(smoke="--smoke" in sys.argv, soak="--soak" in sys.argv)
