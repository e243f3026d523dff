"""The multi-tenant control plane (repro.tenant).

The acceptance gate for canaried rollouts, asserted from the exported
``tenant_*``/``rollout_*`` metric series (never from logs or internal
attributes alone):

* a seeded **bad** policy auto-rolls back — zero wrong verdicts outside
  the canary slice, the canary slice fails closed after the trip, and a
  sibling tenant's verdict stream stays bit-identical to a solo run;
* a seeded **good** policy promotes, and the stable engine serves the
  new policy afterwards.

Plus the units underneath: deterministic canary membership, the token
bucket under a frozen clock, the compiled-policy memory quota, manifest
validation (typos fail loudly), and crash recovery mid-rollout.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.acl.compiler import compile_acl
from repro.acl.parser import parse_acl
from repro.baselines.sorted_list import SortedListMatcher
from repro.config import EngineConfig
from repro.core.frozen import freeze
from repro.core.table import build_matcher
from repro.obs import MetricsRegistry, snapshot, validate_snapshot
from repro.resilience import FaultInjector
from repro.resilience.faults import InjectedFault
from repro.tenant import (
    MemoryQuota,
    QuotaExceeded,
    RolloutController,
    SLOGuards,
    TenantRouter,
    TenantSpec,
    TokenBucket,
    canary_member,
    parse_manifest,
)
from repro.workloads.traffic import zipf_trace

SEED = 2020
BATCH = 64

OLD_POLICY = "permit tcp any any eq 80\npermit udp any any\npermit ip any any"
NEW_POLICY = "deny tcp any any eq 80\npermit udp any any\npermit ip any any"
VICTIM_POLICY = "permit tcp any any\npermit ip any any"

#: short guard windows so a 2000-packet trace finishes the verdict;
#: latency ceilings wide open — two identical in-process builds have
#: noisy relative latency, and these tests gate on *correctness*
GUARDS = SLOGuards(
    warmup_packets=16,
    observe_packets=64,
    max_p99_ratio=100.0,
    max_p999_ratio=100.0,
)


def _sig(verdict) -> object:
    return None if verdict is None else (verdict.priority, verdict.value)


def _roller_spec(**overrides) -> TenantSpec:
    kwargs = dict(name="roller", acl=OLD_POLICY, guards=GUARDS, canary_pct=50.0)
    kwargs.update(overrides)
    return TenantSpec(**kwargs)


def _trace(tenant, packets: int, seed: int = SEED) -> list[int]:
    return zipf_trace(tenant.compiled.entries, packets, flows=128, seed=seed)


def _compiled(policy: str) -> tuple:
    """``(entries, key_length)`` of an ACL text."""
    compiled = compile_acl(parse_acl(policy))
    return compiled.entries, compiled.layout.length


def _drive_rollout(router, name: str, queries) -> None:
    """Feed batches until the rollout leaves the canary window."""
    tenant = router[name]
    for offset in range(0, len(queries), BATCH):
        router.lookup_batch(name, queries[offset : offset + BATCH])
        if tenant.rollout.state != "canary":
            return
    raise AssertionError("rollout never left the canary window")


def _metric(document: dict, name: str, **labels) -> float:
    """One series' value out of an exported snapshot document."""
    for entry in document["metrics"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry["value"]
    raise AssertionError(
        f"no series {name}{labels} in snapshot "
        f"(have {[ (e['name'], e['labels']) for e in document['metrics'] ]})"
    )


# ----------------------------------------------------------------------
# Canary membership
# ----------------------------------------------------------------------


class TestCanaryMembership:
    def test_deterministic_and_flow_stable(self):
        queries = [hash(("flow", i)) & (2**104 - 1) for i in range(2000)]
        first = [canary_member(q, SEED, 25.0) for q in queries]
        assert first == [canary_member(q, SEED, 25.0) for q in queries]
        # flow-stable: the same query always lands in the same slice
        assert canary_member(queries[0], SEED, 25.0) == first[0]

    def test_slice_fraction_tracks_pct(self):
        import random

        rng = random.Random(5)
        queries = [rng.getrandbits(104) for _ in range(20_000)]
        for pct in (5.0, 25.0, 75.0):
            hits = sum(canary_member(q, SEED, pct) for q in queries)
            assert abs(hits / len(queries) - pct / 100.0) < 0.02, pct

    def test_seed_moves_the_slice(self):
        import random

        rng = random.Random(6)
        queries = [rng.getrandbits(104) for _ in range(4000)]
        a = [canary_member(q, 1, 25.0) for q in queries]
        b = [canary_member(q, 2, 25.0) for q in queries]
        assert a != b

    def test_bucket_count_rounds_instead_of_truncating(self):
        from repro.tenant.rollout import _canary_buckets

        # int() truncation gave 0.29% -> 28 buckets and anything under
        # 0.01% -> zero buckets (no flow ever canaried)
        assert _canary_buckets(0.29) == 29
        assert _canary_buckets(0.01) == 1
        assert _canary_buckets(0.004) == 0
        assert _canary_buckets(100.0) == 10_000

    def test_tiny_slice_is_nonempty(self):
        import random

        rng = random.Random(7)
        queries = [rng.getrandbits(104) for _ in range(30_000)]
        hits = sum(canary_member(q, SEED, 0.01) for q in queries)
        assert 0 < hits < 30  # ~3 expected at 1/10000

    def test_zero_bucket_pct_rejected_at_begin_canary(self):
        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            with pytest.raises(ValueError, match="empty flow slice"):
                roller.stage_rollout(NEW_POLICY, canary_pct=0.004, seed=SEED)
        finally:
            router.close()

    def test_zero_bucket_pct_rejected_at_spec_validation(self):
        with pytest.raises(ValueError, match="empty flow slice"):
            TenantSpec(name="t", acl=VICTIM_POLICY, canary_pct=0.004)

    def test_zero_bucket_pct_is_cli_error_not_traceback(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "fleet.json"
        manifest.write_text(
            json.dumps({"tenants": [{"name": "a", "acl": VICTIM_POLICY}]}),
            encoding="utf-8",
        )
        rules = tmp_path / "new.acl"
        rules.write_text(NEW_POLICY, encoding="utf-8")
        code = main(
            [
                "rollout", "--tenants", str(manifest), "--tenant", "a",
                "--rules", str(rules), "--canary-pct", "0.004",
            ]
        )
        assert code == 2
        assert "empty flow slice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_frozen_clock_burst_arithmetic(self):
        bucket = TokenBucket(rate=1.0, burst=8.0, clock=lambda: 0.0)
        grants = [bucket.take(1) for _ in range(12)]
        assert grants == [True] * 8 + [False] * 4
        assert bucket.granted == 8
        assert bucket.denied == 4

    def test_refill_follows_the_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=lambda: now[0])
        assert all(bucket.take(1) for _ in range(5))
        assert not bucket.take(1)
        now[0] = 0.5  # half a second at 10/s -> 5 tokens back
        assert all(bucket.take(1) for _ in range(5))
        assert not bucket.take(1)

    def test_rate_none_disables(self):
        bucket = TokenBucket(rate=None, clock=lambda: 0.0)
        assert all(bucket.take(1) for _ in range(1000))
        assert bucket.denied == 0
        assert bucket.tokens == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)

    def test_sub_token_rate_still_grants(self):
        """rate < 1 used to default burst to the rate, so the bucket
        could never hold the one token a packet spends."""
        now = [0.0]
        bucket = TokenBucket(rate=0.5, clock=lambda: now[0])
        assert bucket.burst == 1.0
        for _ in range(10):
            now[0] += 100.0
            assert bucket.take(1)
            assert not bucket.take(1)
        assert bucket.granted == 10

    def test_sub_token_burst_is_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=5.0, burst=0.5)

    def test_take_upto_grants_after_a_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.5, clock=lambda: now[0])
        assert bucket.take_upto(3) == 1
        assert bucket.take_upto(3) == 0
        now[0] = 2.0  # one token back at 0.5/s
        assert bucket.take_upto(3) == 1
        assert (bucket.granted, bucket.denied) == (2, 7)

    @staticmethod
    def _per_packet(bucket, n):
        """``take_upto`` written as the per-packet loop it replaced."""
        return sum(bucket.take(1) for _ in range(n))

    @pytest.mark.parametrize("rate,burst", [(None, None), (3.0, 10.5), (0.75, 2.25), (1000.0, 64.0)])
    def test_take_upto_equals_per_packet_takes(self, rate, burst):
        rng = random.Random(f"{rate}:{burst}")
        now = [0.0]
        bulk = TokenBucket(rate=rate, burst=burst, clock=lambda: now[0])
        loop = TokenBucket(rate=rate, burst=burst, clock=lambda: now[0])
        for _ in range(300):
            now[0] += rng.choice((0.0, 0.125, 0.25, 1.5, 3.0))
            n = rng.randrange(20)
            assert bulk.take_upto(n) == self._per_packet(loop, n)
            assert (bulk.granted, bulk.denied) == (loop.granted, loop.denied)
            assert bulk.tokens == pytest.approx(loop.tokens)


class TestMemoryQuota:
    def _matchers(self):
        small = compile_acl(parse_acl("permit ip any any"))
        lines = "\n".join(f"permit tcp any any eq {p}" for p in range(1, 60))
        big = compile_acl(parse_acl(lines))
        config = EngineConfig()
        return (
            freeze(build_matcher(config, small.entries, small.layout.length)),
            freeze(build_matcher(config, big.entries, big.layout.length)),
        )

    def test_admit_and_reject_by_compiled_footprint(self):
        small, big = self._matchers()
        quota = MemoryQuota(small.memory_bytes() + 1)
        assert quota.admit(small, tenant="t") == small.memory_bytes()
        with pytest.raises(QuotaExceeded) as excinfo:
            quota.admit(big, tenant="t")
        assert excinfo.value.kind == "memory"
        assert quota.admitted == 1
        assert quota.rejected == 1
        assert quota.last_bytes == big.memory_bytes()

    def test_unmeasurable_matcher_admits_as_zero(self):
        quota = MemoryQuota(1)
        assert quota.admit(object(), tenant="t") == 0


# ----------------------------------------------------------------------
# Manifest validation
# ----------------------------------------------------------------------


class TestManifest:
    def _doc(self):
        return {
            "tenants": [
                {
                    "name": "alpha",
                    "acl": "permit ip any any",
                    "engine": {"cache_size": 128},
                    "quotas": {"rate": 100.0, "burst": 16.0, "memory_bytes": 10_000},
                    "rollout": {"warmup_packets": 8, "observe_packets": 32},
                    "canary_pct": 25,
                }
            ]
        }

    def test_full_document_round_trip(self):
        (spec,) = parse_manifest(self._doc())
        assert spec.name == "alpha"
        assert spec.engine.cache_size == 128
        assert spec.rate == 100.0
        assert spec.burst == 16.0
        assert spec.memory_bytes == 10_000
        assert spec.guards.warmup_packets == 8
        assert spec.canary_pct == 25.0

    def test_bare_list_accepted(self):
        specs = parse_manifest([{"name": "a", "acl": "permit ip any any"}])
        assert [s.name for s in specs] == ["a"]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.__setitem__("quota", {}), "unknown keys"),
            (
                lambda t: t["quotas"].__setitem__("memory", 1),
                "unknown quota keys",
            ),
            (lambda t: t.pop("acl"), "exactly one of"),
            (
                lambda t: t.__setitem__("rules", "also.acl"),
                "exactly one of",
            ),
            (
                lambda t: t["engine"].__setitem__("no_such_knob", 1),
                "bad engine config",
            ),
            (
                lambda t: t["rollout"].__setitem__("no_such_guard", 1),
                "bad rollout guards",
            ),
        ],
    )
    def test_typos_fail_loudly(self, mutate, fragment):
        doc = self._doc()
        mutate(doc["tenants"][0])
        with pytest.raises(ValueError, match=fragment):
            parse_manifest(doc)

    def test_duplicate_names_rejected(self):
        doc = {
            "tenants": [
                {"name": "a", "acl": "permit ip any any"},
                {"name": "a", "acl": "permit ip any any"},
            ]
        }
        with pytest.raises(ValueError, match="duplicate"):
            parse_manifest(doc)

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            parse_manifest({"tenants": []})

    def test_json_file_loads_regardless_of_extension(self, tmp_path):
        from repro.tenant import load_manifest

        path = tmp_path / "fleet.yaml"  # JSON body: must load without PyYAML
        path.write_text(json.dumps(self._doc()), encoding="utf-8")
        (spec,) = load_manifest(str(path))
        assert spec.name == "alpha"

    def test_yaml_file_loads_when_pyyaml_present(self, tmp_path):
        pytest.importorskip("yaml")
        from repro.tenant import load_manifest

        path = tmp_path / "fleet.yaml"
        path.write_text(
            "tenants:\n"
            "  - name: alpha\n"
            "    acl: permit ip any any\n"
            "    quotas:\n"
            "      rate: 50\n",
            encoding="utf-8",
        )
        (spec,) = load_manifest(str(path))
        assert spec.name == "alpha"
        assert spec.rate == 50


# ----------------------------------------------------------------------
# Admission control on the serving path
# ----------------------------------------------------------------------


class TestAdmission:
    def test_rate_denial_is_fail_closed_and_exported(self):
        registry = MetricsRegistry()
        router = TenantRouter(
            [TenantSpec(name="t", acl=VICTIM_POLICY, rate=1.0, burst=16.0)],
            metrics=registry,
            clock=lambda: 0.0,
        )
        try:
            queries = _trace(router["t"], 100)
            verdicts = router.lookup_batch("t", queries)
            # the first 16 tokens serve; every later packet is denied None
            assert all(v is not None for v in verdicts[:16])
            assert all(v is None for v in verdicts[16:])
            doc = snapshot(registry)
            assert validate_snapshot(doc) == []
            assert _metric(doc, "tenant_lookups_total", tenant="t") == 100
            assert _metric(doc, "tenant_denied_total", tenant="t", reason="rate") == 84
            assert _metric(doc, "tenant_denied_total", tenant="t", reason="memory") == 0
            assert _metric(doc, "tenant_engine_health", tenant="t", state="ok") == 1.0
        finally:
            router.close()

    def test_denied_packets_are_a_suffix_of_the_burst(self):
        now = [0.0]
        router = TenantRouter(
            [TenantSpec(name="t", acl=VICTIM_POLICY, rate=0.5)],
            clock=lambda: now[0],
        )
        try:
            tenant = router["t"]
            queries = _trace(tenant, 8)
            truth = tenant.engine.lookup_batch(queries)
            assert router.lookup_batch("t", queries) == truth[:1] + [None] * 7
            assert router.lookup_batch("t", queries) == [None] * 8
            now[0] = 4.0  # two tokens accrue, but the bucket holds one
            assert router.lookup_batch("t", queries) == truth[:1] + [None] * 7
            assert (tenant.bucket.granted, tenant.bucket.denied) == (2, 22)
        finally:
            router.close()

    def test_build_time_memory_quota_blocks_boot(self):
        with pytest.raises(QuotaExceeded):
            TenantRouter([TenantSpec(name="t", acl=VICTIM_POLICY, memory_bytes=1)])

    def test_staged_policy_over_quota_never_serves(self):
        compiled = compile_acl(parse_acl(OLD_POLICY))
        config = EngineConfig()
        footprint = freeze(
            build_matcher(config, compiled.entries, compiled.layout.length)
        ).memory_bytes()
        router = TenantRouter(
            [_roller_spec(memory_bytes=footprint + 1)], clock=lambda: 0.0
        )
        try:
            roller = router["roller"]
            lines = "\n".join(f"permit tcp any any eq {p}" for p in range(1, 60))
            with pytest.raises(QuotaExceeded):
                roller.stage_rollout(lines, seed=SEED)
            assert roller.rollout.state == "idle"
            # the old policy still serves
            assert any(
                v is not None for v in router.lookup_batch("roller", _trace(roller, 64))
            )
        finally:
            router.close()

    def test_unknown_tenant_names_the_fleet(self):
        router = TenantRouter([TenantSpec(name="a", acl=VICTIM_POLICY)])
        try:
            with pytest.raises(KeyError, match="serving"):
                router.lookup("nobody", 1)
        finally:
            router.close()


# ----------------------------------------------------------------------
# The e2e gate: good policy promotes
# ----------------------------------------------------------------------


class TestRolloutPromote:
    def test_good_policy_promotes_and_serves(self):
        registry = MetricsRegistry()
        router = TenantRouter([_roller_spec()], metrics=registry, clock=lambda: 0.0)
        try:
            roller = router["roller"]
            queries = _trace(roller, 2000, seed=SEED + 3)
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            _drive_rollout(router, "roller", queries)
            assert roller.rollout.state == "promoted"

            # the verdict is in the exported series, not just attributes
            doc = snapshot(registry)
            assert validate_snapshot(doc) == []
            assert _metric(doc, "rollout_promotes_total", tenant="roller") == 1
            assert _metric(doc, "rollout_state", tenant="roller", state="promoted") == 1.0
            assert _metric(doc, "rollout_state", tenant="roller", state="canary") == 0.0
            assert (
                _metric(doc, "rollout_transitions_total", tenant="roller", to="promoted")
                == 1
            )
            canaried = _metric(
                doc, "rollout_canary_packets_total", tenant="roller", slice="canary"
            )
            stable = _metric(
                doc, "rollout_canary_packets_total", tenant="roller", slice="stable"
            )
            assert canaried > 0 and stable > 0
            assert (
                _metric(doc, "rollout_shadow_mismatches_total", tenant="roller") == 0
            )

            # the stable engine now answers with the NEW policy
            new = compile_acl(parse_acl(NEW_POLICY))
            reference = SortedListMatcher.build(new.entries, new.layout.length)
            tail = queries[:512]
            got = [_sig(v) for v in router.lookup_batch("roller", tail)]
            want = [_sig(reference.lookup(q)) for q in tail]
            assert got == want
        finally:
            router.close()

    def test_stage_requires_terminal_state(self):
        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            with pytest.raises(RuntimeError, match="cannot stage"):
                roller.rollout.stage(object())
        finally:
            router.close()


# ----------------------------------------------------------------------
# The e2e gate: bad policy auto-rolls back, contained to the canary slice
# ----------------------------------------------------------------------


class TestRolloutRollback:
    def test_bad_policy_rolls_back_contained_with_identical_sibling(self):
        packets = 2000
        registry = MetricsRegistry()
        injector = FaultInjector(seed=7)
        injector.arm("cache", rate=1.0)  # poison the canary's flow cache
        router = TenantRouter(
            [TenantSpec(name="victim", acl=VICTIM_POLICY), _roller_spec()],
            metrics=registry,
            injector=injector,
            clock=lambda: 0.0,
        )
        solo_router = TenantRouter([TenantSpec(name="victim", acl=VICTIM_POLICY)])
        try:
            roller = router["roller"]
            roller_q = _trace(roller, packets, seed=SEED + 3)
            victim_q = _trace(router["victim"], packets, seed=SEED + 1)

            old = compile_acl(parse_acl(OLD_POLICY))
            reference = SortedListMatcher.build(old.entries, old.layout.length)
            truth: dict[int, object] = {}

            roller.stage_rollout(NEW_POLICY, seed=SEED)
            pct, seed = roller.rollout.canary_pct, roller.rollout.seed

            wrong_outside_canary = 0
            victim_sigs: list[object] = []
            solo_sigs: list[object] = []
            for offset in range(0, packets, BATCH):
                state_before = roller.rollout.state
                batch = roller_q[offset : offset + BATCH]
                verdicts = router.lookup_batch("roller", batch)
                for query, verdict in zip(batch, verdicts):
                    if state_before == "canary" and canary_member(query, seed, pct):
                        continue  # only the canary slice may differ
                    if query not in truth:
                        truth[query] = _sig(reference.lookup(query))
                    wrong_outside_canary += _sig(verdict) != truth[query]
                v_batch = victim_q[offset : offset + BATCH]
                victim_sigs.extend(_sig(v) for v in router.lookup_batch("victim", v_batch))
                solo_sigs.extend(
                    _sig(v) for v in solo_router.lookup_batch("victim", v_batch)
                )

            # 1. the rollout auto-rolled back on the shadow-mismatch guard
            assert roller.rollout.state == "rolled_back"
            doc = snapshot(registry)
            assert validate_snapshot(doc) == []
            assert (
                _metric(
                    doc,
                    "rollout_rollbacks_total",
                    tenant="roller",
                    reason="shadow-mismatch",
                )
                == 1
            )
            assert (
                _metric(doc, "rollout_state", tenant="roller", state="rolled_back")
                == 1.0
            )
            assert _metric(doc, "rollout_shadow_mismatches_total", tenant="roller") > 0

            # 2. after the trip, the canary slice failed closed (None), and
            #    the fail-closed packets are in the exported slice counter
            assert (
                _metric(
                    doc,
                    "rollout_canary_packets_total",
                    tenant="roller",
                    slice="failclosed",
                )
                > 0
            )

            # 3. zero wrong verdicts ever escaped the canary slice
            assert wrong_outside_canary == 0

            # 4. the sibling tenant is bit-identical to its solo run
            assert victim_sigs == solo_sigs

            # 5. the stable engine still serves the OLD policy
            tail = roller_q[:256]
            got = [_sig(v) for v in router.lookup_batch("roller", tail)]
            want = [_sig(reference.lookup(q)) for q in tail]
            assert got == want
        finally:
            solo_router.close()
            router.close()

    def test_operator_rollback(self):
        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            router.lookup_batch("roller", _trace(roller, BATCH))
            if roller.rollout.state == "canary":
                roller.rollout.rollback()
            assert roller.rollout.state in ("rolled_back", "promoted")
            if roller.rollout.state == "rolled_back":
                assert roller.rollout.last_verdict["reason"] == "operator"
        finally:
            router.close()

    def test_rollback_leaves_the_stable_engine_serving(self):
        """A rollback discards the canary and nothing else: the stable
        engine keeps its epoch and plane (no checkpoint restore), and an
        update it took during the window still serves afterwards."""
        from repro.core.table import TernaryEntry
        from repro.packet.headers import PacketHeader

        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            engine = roller.engine
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            key = compile_acl(parse_acl("deny tcp any any eq 9000")).entries[0].key
            engine.apply_updates([("insert", TernaryEntry(key, "block-9000", 10_000))])
            before = (engine.epoch, engine.checkpoint_restores, engine.freezes)
            roller.rollout.rollback()
            assert roller.rollout.state == "rolled_back"
            assert (engine.epoch, engine.checkpoint_restores, engine.freezes) == before
            query = PacketHeader(1, 2, 6, 3, 9000).to_query()
            assert router.lookup_batch("roller", [query])[0].value == "block-9000"
        finally:
            router.close()

    @pytest.mark.parametrize("state", ["staged", "canary"])
    def test_updates_are_refused_during_a_rollout(self, state):
        """A promote replaces the stable policy wholesale, so an update
        taken mid-rollout would be lost: the tenant refuses it, and
        accepts it again once the rollout has concluded."""
        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            extra = compile_acl(parse_acl("deny tcp any any eq 9000")).entries[0]
            if state == "staged":
                roller.rollout.stage(build_matcher(EngineConfig(), *_compiled(NEW_POLICY)))
            else:
                roller.stage_rollout(NEW_POLICY, seed=SEED)
            assert roller.rollout.state == state
            generation = roller.engine.report()["generation"]
            with pytest.raises(RuntimeError, match="cannot update"):
                roller.apply_updates([("insert", extra)])
            assert roller.engine.report()["generation"] == generation
            if state == "canary":
                roller.rollout.rollback()
                report = roller.apply_updates([("insert", extra)])
                assert report.inserted == 1
        finally:
            router.close()


# ----------------------------------------------------------------------
# Crash recovery mid-rollout
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_in_promote_window_recovers_rolled_back(self, tmp_path):
        ckpt_dir = str(tmp_path / "state")
        injector = FaultInjector(seed=17)
        injector.arm("rollout", rate=1.0, count=1)  # kill inside promote
        registry = MetricsRegistry()
        router = TenantRouter(
            [_roller_spec()],
            metrics=registry,
            injector=injector,
            checkpoint_dir=ckpt_dir,
            clock=lambda: 0.0,
        )
        roller = router["roller"]
        queries = _trace(roller, 2000, seed=SEED + 3)
        roller.stage_rollout(NEW_POLICY, seed=SEED)
        crashed = False
        try:
            _drive_rollout(router, "roller", queries)
        except InjectedFault as fault:
            crashed = True
            assert fault.site == "rollout"
        assert crashed, "the rollout fault site never fired"
        router.close()

        # the persisted sidecar still says CANARY — the crash window
        sidecar = f"{ckpt_dir}/roller.rollout.json"
        doc = RolloutController.read_state(sidecar)
        assert doc is not None and doc["state"] == "canary"

        # supervisor restart: recover=True must land the tenant coherent
        recovery_registry = MetricsRegistry()
        revived = TenantRouter(
            [_roller_spec()],
            metrics=recovery_registry,
            checkpoint_dir=ckpt_dir,
            clock=lambda: 0.0,
            recover=True,
        )
        try:
            roller = revived["roller"]
            assert roller.rollout.state == "rolled_back"
            assert roller.rollout.last_verdict["reason"] == "crash-recovery"
            assert roller.engine.checkpoint_restores == 1

            exported = snapshot(recovery_registry)
            assert (
                _metric(
                    exported,
                    "rollout_rollbacks_total",
                    tenant="roller",
                    reason="crash-recovery",
                )
                == 1
            )

            # and it serves the last-good OLD policy, exactly
            old = compile_acl(parse_acl(OLD_POLICY))
            reference = SortedListMatcher.build(old.entries, old.layout.length)
            tail = queries[:512]
            got = [_sig(v) for v in revived.lookup_batch("roller", tail)]
            want = [_sig(reference.lookup(q)) for q in tail]
            assert got == want

            # the sidecar now records the terminal state durably
            doc = RolloutController.read_state(sidecar)
            assert doc["state"] == "rolled_back"
        finally:
            revived.close()


# ----------------------------------------------------------------------
# Update-transaction quota rollback (no checkpoint_dir required)
# ----------------------------------------------------------------------


class TestUpdateQuotaRollback:
    def test_over_quota_update_is_undone_without_checkpoint_dir(self):
        compiled = compile_acl(parse_acl(OLD_POLICY))
        config = EngineConfig()
        footprint = freeze(
            build_matcher(config, compiled.entries, compiled.layout.length)
        ).memory_bytes()
        # enough headroom to boot, not enough for the bloated update;
        # crucially: NO checkpoint_dir, so the last-good stamp must
        # work through the in-memory blob
        router = TenantRouter(
            [_roller_spec(memory_bytes=footprint + 64)], clock=lambda: 0.0
        )
        try:
            roller = router["roller"]
            reference = SortedListMatcher.build(
                compiled.entries, compiled.layout.length
            )
            queries = _trace(roller, 256)

            lines = "\n".join(f"permit tcp any any eq {p}" for p in range(1, 60))
            bloat = compile_acl(parse_acl(lines))
            with pytest.raises(QuotaExceeded):
                roller.apply_updates([("insert", e) for e in bloat.entries])

            assert roller.quota.rejected == 1
            # the tenant still serves the PRE-update policy, exactly
            got = [_sig(v) for v in router.lookup_batch("roller", queries)]
            want = [_sig(reference.lookup(q)) for q in queries]
            assert got == want
        finally:
            router.close()

    def test_in_quota_update_is_kept(self):
        router = TenantRouter([_roller_spec(memory_bytes=10**9)], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            extra = compile_acl(parse_acl("deny udp any any eq 53\n" + OLD_POLICY))
            report = roller.apply_updates([("insert", extra.entries[0])])
            assert report.inserted == 1
            assert roller.quota.last_bytes > 0
        finally:
            router.close()


# ----------------------------------------------------------------------
# Latency guards need a stable baseline
# ----------------------------------------------------------------------


class TestLatencyBaselineEvidence:
    def test_full_slice_canary_promotes_on_shadow_alone_and_says_so(self):
        router = TenantRouter([_roller_spec(canary_pct=100.0)], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            queries = _trace(roller, 2000, seed=SEED + 3)
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            _drive_rollout(router, "roller", queries)
            assert roller.rollout.state == "promoted"
            verdict = roller.rollout.last_verdict
            assert verdict["latency_ratios"] is None
            assert "skipped" in verdict["latency_guards"]
            assert roller.rollout.stable_packets == 0
        finally:
            router.close()

    def test_partial_slice_waits_for_stable_traffic(self):
        router = TenantRouter([_roller_spec()], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            pct, seed = roller.rollout.canary_pct, roller.rollout.seed
            pool = _trace(roller, 4000, seed=SEED + 3)
            canary_only = [q for q in pool if canary_member(q, seed, pct)]
            stable_only = [q for q in pool if not canary_member(q, seed, pct)]
            assert len(canary_only) > 300 and len(stable_only) > 300

            # feed ONLY canary-member flows: the observation window
            # completes but there is no baseline — must keep observing,
            # not promote on vacuous 0.0 ratios
            for offset in range(0, 300, BATCH):
                router.lookup_batch("roller", canary_only[offset : offset + BATCH])
            assert roller.rollout._observed >= roller.rollout.guards.observe_packets
            assert roller.rollout.state == "canary"

            # stable traffic arrives -> the verdict lands with evidence
            for offset in range(0, len(stable_only), BATCH):
                router.lookup_batch("roller", stable_only[offset : offset + BATCH])
                if roller.rollout.state != "canary":
                    break
            assert roller.rollout.state == "promoted"
            assert roller.rollout.last_verdict["latency_ratios"] is not None
        finally:
            router.close()


    def test_a_stalled_first_canary_batch_is_warmup_not_evidence(self, monkeypatch):
        """The canary's first batch stalls (a cold start), and its
        canary share alone crosses ``warmup_packets``: that batch began
        inside warm-up, so it must not count against the latency guards."""
        import time

        guards = SLOGuards(
            warmup_packets=8, observe_packets=64, max_p99_ratio=20.0, max_p999_ratio=20.0
        )
        router = TenantRouter([_roller_spec(guards=guards)], clock=lambda: 0.0)
        try:
            roller = router["roller"]
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            canary = roller.rollout.canary_engine
            lookup_batch = canary.lookup_batch
            calls = []

            def stalled_once(queries):
                if not calls:
                    time.sleep(0.05)
                calls.append(len(queries))
                return lookup_batch(queries)

            monkeypatch.setattr(canary, "lookup_batch", stalled_once)
            _drive_rollout(router, "roller", _trace(roller, 2000, seed=SEED + 3))
            assert calls[0] > guards.warmup_packets
            assert roller.rollout.state == "promoted"
            assert roller.rollout.last_verdict["latency_ratios"] is not None
        finally:
            router.close()


# ----------------------------------------------------------------------
# Sharded tenants: the rollout contract over an engine's shard pool
# ----------------------------------------------------------------------


def _published_is_current(engine) -> bool:
    """The shard pool serves the plane frozen from the engine's current
    policy: its last publish is the engine's plane, compiled at the
    matcher's current generation."""
    engine.refresh()
    return (
        engine.pool._plane is engine._plane
        and engine._plane_generation == getattr(engine.matcher, "generation", None)
    )


class TestShardedRollout:
    def test_good_policy_promotes_on_sharded_engine(self):
        router = TenantRouter(
            [_roller_spec(engine=EngineConfig(shards=2))], clock=lambda: 0.0
        )
        try:
            roller = router["roller"]
            from repro.shard import ShardedEngine

            assert isinstance(roller.engine.pool, ShardedEngine)
            queries = _trace(roller, 2000, seed=SEED + 3)
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            _drive_rollout(router, "roller", queries)
            assert roller.rollout.state == "promoted"
            assert _published_is_current(roller.engine)

            new = compile_acl(parse_acl(NEW_POLICY))
            reference = SortedListMatcher.build(new.entries, new.layout.length)
            tail = queries[:512]
            got = [_sig(v) for v in router.lookup_batch("roller", tail)]
            want = [_sig(reference.lookup(q)) for q in tail]
            assert got == want
        finally:
            router.close()

    def test_bad_policy_rolls_back_and_workers_remap_eagerly(self):
        injector = FaultInjector(seed=7)
        injector.arm("cache", rate=1.0)  # poison the canary's flow cache
        router = TenantRouter(
            [_roller_spec(engine=EngineConfig(shards=2))],
            injector=injector,
            clock=lambda: 0.0,
        )
        try:
            roller = router["roller"]
            queries = _trace(roller, 2000, seed=SEED + 3)
            roller.stage_rollout(NEW_POLICY, seed=SEED)
            _drive_rollout(router, "roller", queries)
            assert roller.rollout.state == "rolled_back"
            # the stable engine's plane is still what the pool publishes:
            # no worker ever served the bad plane
            assert _published_is_current(roller.engine)

            old = compile_acl(parse_acl(OLD_POLICY))
            reference = SortedListMatcher.build(old.entries, old.layout.length)
            tail = queries[:512]
            got = [_sig(v) for v in router.lookup_batch("roller", tail)]
            want = [_sig(reference.lookup(q)) for q in tail]
            assert got == want
        finally:
            router.close()


# ----------------------------------------------------------------------
# Recovery re-enforces the memory quota
# ----------------------------------------------------------------------


class TestRecoveryQuota:
    def _boot_and_checkpoint(self, tmp_path, **spec_overrides):
        ckpt_dir = str(tmp_path / "state")
        router = TenantRouter(
            [_roller_spec(**spec_overrides)],
            checkpoint_dir=ckpt_dir,
            clock=lambda: 0.0,
        )
        router["roller"].engine.mark_last_good()
        router.close()
        return ckpt_dir

    def test_recovered_policy_is_measured_and_admitted(self, tmp_path):
        ckpt_dir = self._boot_and_checkpoint(tmp_path)
        revived = TenantRouter(
            [_roller_spec(memory_bytes=10**9)],
            checkpoint_dir=ckpt_dir,
            clock=lambda: 0.0,
            recover=True,
        )
        try:
            roller = revived["roller"]
            assert roller.engine.checkpoint_restores == 1
            # the quota saw the recovered matcher (metrics no longer
            # report 0 bytes until the first update)
            assert roller.quota.last_bytes > 0
            assert roller.quota.admitted == 1
        finally:
            revived.close()

    def test_recovery_fits_the_quota_its_boot_fit(self, tmp_path):
        """Boot and recovery measure the same bytes (the served plane,
        what the checkpoint writes), so a tenant recovers under exactly
        the quota it booted under."""
        ckpt_dir = str(tmp_path / "state")
        booted = TenantRouter(
            [_roller_spec(memory_bytes=10**9)], checkpoint_dir=ckpt_dir, clock=lambda: 0.0
        )
        footprint = booted["roller"].quota.last_bytes
        booted["roller"].engine.mark_last_good()
        booted.close()
        revived = TenantRouter(
            [_roller_spec(memory_bytes=footprint)],
            checkpoint_dir=ckpt_dir,
            clock=lambda: 0.0,
            recover=True,
        )
        try:
            roller = revived["roller"]
            assert roller.engine.checkpoint_restores == 1
            assert roller.quota.last_bytes == footprint
        finally:
            revived.close()

    def test_recovery_over_a_tightened_quota_fails_closed(self, tmp_path):
        ckpt_dir = self._boot_and_checkpoint(tmp_path)
        with pytest.raises(QuotaExceeded):
            TenantRouter(
                [_roller_spec(memory_bytes=1)],
                checkpoint_dir=ckpt_dir,
                clock=lambda: 0.0,
                recover=True,
            )
