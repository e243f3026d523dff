"""Canaried policy rollouts with regression-triggered auto-rollback.

The closed loop ROADMAP item 4 asks for: a staged policy update serves
a deterministic seeded slice of the tenant's flows from a **canary
engine** running the new policy while the stable engine keeps the rest,
two SLO guards watch the canary — its shadow-verify mismatch counter
(a miscompiled or corrupt new plane disagrees with its own
basic-Palmtrie reference) and its p99/p999 latency ratio against the
stable engine —
and the controller either **promotes** the new policy atomically
(:meth:`~repro.engine.ClassificationEngine.replace_matcher`) or
**auto-rolls back** by discarding the canary: the stable engine served
the old policy for the whole window, so it simply keeps serving.

The state machine::

    IDLE ──stage──▶ STAGED ──begin_canary──▶ CANARY ──▶ PROMOTED
                                                │
                                                └─────▶ ROLLED_BACK

Every transition is stamped (sequence number, engine epoch, wall
time), counted in metrics (``rollout_transitions_total``), and —
when the controller has a ``state_path`` — persisted atomically, so a
supervisor restarting after a crash mid-rollout can land the tenant
coherent: the stable engine recovers from the last-good checkpoint and
the interrupted rollout is marked ROLLED_BACK (reason
``crash-recovery``).  The crash window between the CANARY stamp and
the promote carries the ``rollout`` fault site
(:data:`repro.resilience.faults.FAULT_SITES`), so the chaos suite can
kill the controller there deterministically.

Guard semantics (fail closed, never serve a known-bad answer):

* a shadow mismatch past ``max_shadow_mismatches`` trips the guard at
  the batch boundary where it is observed — any time, warmup included;
* the latency verdict waits for ``warmup_packets`` canary packets to
  pass (observation starts with the first batch that begins after
  them) and then ``observe_packets`` more to accumulate, comparing
  p99/p999 ratios via :func:`repro.obs.metrics.quantile_ratios` — and
  it requires at least one stable-slice observation as the baseline,
  otherwise the ratios would be vacuously 0.0 and anything would pass.
  A full-slice canary (``canary_pct == 100``) structurally has no
  stable baseline, so it promotes on shadow verification alone and the
  verdict records that the latency guards were skipped;
* once tripped, the *next* batch's canary slice is answered ``None``
  (implicit deny — the canary fails closed rather than serving an
  engine under suspicion) and the rollback executes at that batch's
  end.  The stable slice never touches the canary engine, so sibling
  flows are bit-identical throughout.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..config import EngineConfig
from ..obs.metrics import Histogram, MetricsRegistry, quantile_ratios
from ..resilience.guard import GuardRail
from ..shard.engine import flow_shard

__all__ = [
    "ROLLOUT_STATES",
    "STATE_SCHEMA",
    "SLOGuards",
    "RolloutController",
    "canary_member",
]

#: the rollout lifecycle, in transition order
ROLLOUT_STATES = ("idle", "staged", "canary", "promoted", "rolled_back")

#: schema stamp of the persisted rollout-state sidecar
STATE_SCHEMA = "palmtrie-repro/rollout-state/v1"

#: odd multiplier that spreads a rollout seed over the query's bits, so
#: each seed canaries a different set of flows
_CANARY_SALT = 0x9E3779B97F4A7C15


#: canary membership granularity: flows hash into this many buckets
_CANARY_BUCKETS = 10_000


def _canary_buckets(canary_pct: float) -> int:
    """How many of the :data:`_CANARY_BUCKETS` membership buckets a
    slice of ``canary_pct`` percent covers (``round``, not ``int`` —
    truncation made 0.29% cover 28 buckets instead of 29, and any pct
    under 0.01% cover none at all)."""
    return round(canary_pct * (_CANARY_BUCKETS / 100.0))


def canary_member(query: int, seed: int, canary_pct: float) -> bool:
    """Deterministic canary membership: the same flow lands in the same
    slice on every process and every run (no ``PYTHONHASHSEED``
    dependence), and the slice is *flow-stable* — a flow is either
    canaried for the whole window or not at all.  Routes through the
    same avalanched fold as :func:`repro.shard.flow_shard`, salted with
    the rollout seed so each rollout canaries a different set of flows.
    """
    return flow_shard(
        query ^ ((seed & 0xFFFFFFFF) * _CANARY_SALT), _CANARY_BUCKETS
    ) < _canary_buckets(canary_pct)


@dataclass(frozen=True)
class SLOGuards:
    """The configurable guard knobs one rollout is judged against."""

    #: canary shadow-verify mismatches tolerated before rollback
    max_shadow_mismatches: int = 0
    #: canary-over-stable p99 latency ratio ceiling
    max_p99_ratio: float = 3.0
    #: canary-over-stable p999 latency ratio ceiling
    max_p999_ratio: float = 3.0
    #: canary packets served before latency observation begins (with
    #: the first canary batch that starts after them)
    warmup_packets: int = 256
    #: canary packets observed (post-warmup) before the latency verdict
    observe_packets: int = 1024

    def __post_init__(self) -> None:
        if self.max_shadow_mismatches < 0:
            raise ValueError("max_shadow_mismatches must be >= 0")
        if self.max_p99_ratio <= 0 or self.max_p999_ratio <= 0:
            raise ValueError("latency ratio ceilings must be > 0")
        if self.warmup_packets < 0 or self.observe_packets < 1:
            raise ValueError("warmup_packets >= 0 and observe_packets >= 1 required")

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_shadow_mismatches": self.max_shadow_mismatches,
            "max_p99_ratio": self.max_p99_ratio,
            "max_p999_ratio": self.max_p999_ratio,
            "warmup_packets": self.warmup_packets,
            "observe_packets": self.observe_packets,
        }


class RolloutController:
    """Supervises one tenant's staged policy update end to end.

    ``engine`` is the tenant's stable serving engine (in-process or
    sharded — anything with the engine surface plus
    ``mark_last_good``, which stamps the pre-rollout policy for crash
    recovery); ``state_path`` (optional)
    is where transitions persist for crash recovery; ``injector`` is a
    :class:`~repro.resilience.FaultInjector` whose ``rollout`` site sits
    in the promote path and whose ``cache``/``stall`` sites flow into
    the canary engine's guard (the chaos plane's levers); ``metrics``
    labels every series with ``{"tenant": name}``.
    """

    def __init__(
        self,
        name: str,
        engine: Any,
        *,
        guards: Optional[SLOGuards] = None,
        state_path: Optional[str] = None,
        injector: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.guards = guards if guards is not None else SLOGuards()
        self.state_path = state_path
        self.injector = injector
        self.metrics = metrics
        self.state = "idle"
        self.canary_engine: Optional[Any] = None
        self._new_matcher: Optional[Any] = None
        self.canary_pct = 0.0
        self.seed = 0
        self.transitions: list[dict[str, Any]] = []
        self.last_verdict: Optional[dict[str, Any]] = None
        self.promotes = 0
        self.rollbacks = 0
        self.canary_packets = 0
        self.stable_packets = 0
        self.failclosed_packets = 0
        self._observed = 0
        self._tripped: Optional[str] = None
        # Standalone histograms (not registry-owned): the windows reset
        # per rollout, which exported series must never do.
        self._baseline_hist = Histogram("rollout_stable_latency_seconds")
        self._canary_hist = Histogram("rollout_canary_latency_seconds")

    # -- transitions -------------------------------------------------------

    def _transition(self, to: str, reason: Optional[str] = None) -> None:
        entry = {
            "seq": len(self.transitions) + 1,
            "from": self.state,
            "to": to,
            "reason": reason,
            "epoch": getattr(self.engine, "epoch", 0),
            "time": time.time(),
        }
        self.transitions.append(entry)
        self.state = to
        registry = self.metrics
        if registry is not None:
            registry.counter(
                "rollout_transitions_total",
                "Rollout state-machine transitions, labeled by target state.",
                labels={"tenant": self.name, "to": to},
            ).inc()
            for state in ROLLOUT_STATES:
                registry.gauge(
                    "rollout_state",
                    "One-hot rollout state per tenant.",
                    labels={"tenant": self.name, "state": state},
                ).set(1.0 if state == to else 0.0)
        self._persist()

    def _persist(self) -> None:
        if self.state_path is None:
            return
        doc = {
            "schema": STATE_SCHEMA,
            "tenant": self.name,
            "state": self.state,
            "canary_pct": self.canary_pct,
            "seed": self.seed,
            "guards": self.guards.to_dict(),
            "last_good_path": str(getattr(self.engine, "last_good_path", None) or ""),
            "transitions": self.transitions,
            "last_verdict": self.last_verdict,
        }
        tmp = f"{self.state_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as writer:
            json.dump(doc, writer, indent=2, sort_keys=True)
            writer.flush()
            os.fsync(writer.fileno())
        os.replace(tmp, self.state_path)

    @staticmethod
    def read_state(state_path: str) -> Optional[dict[str, Any]]:
        """The persisted sidecar as a dict; None when absent/unreadable
        (a first boot — nothing to recover)."""
        try:
            with open(state_path, "r", encoding="utf-8") as reader:
                doc = json.load(reader)
        except (OSError, ValueError):
            return None
        if doc.get("schema") != STATE_SCHEMA:
            return None
        return doc

    # -- the lifecycle -----------------------------------------------------

    def stage(self, new_matcher: Any) -> None:
        """Stamp the current policy as last-good and stand up the canary
        engine on the new one (shadow verification at sample 1.0 — the
        canary is exactly where full-cost checking is worth it)."""
        if self.state not in ("idle", "promoted", "rolled_back"):
            raise RuntimeError(
                f"cannot stage while rollout is {self.state!r} (finish it first)"
            )
        self.engine.mark_last_good()
        config = getattr(self.engine, "config", None) or EngineConfig()
        guard = GuardRail(shadow_sample=1.0, injector=self.injector)
        from ..engine import ClassificationEngine

        self.canary_engine = ClassificationEngine(
            new_matcher,
            config.replace(
                shards=0, resilience=guard, metrics=None, last_good_path=None
            ),
        )
        self._new_matcher = new_matcher
        self.last_verdict = None
        self._transition("staged")

    def begin_canary(self, canary_pct: float, seed: int = 2020) -> None:
        """Open the canary window: ``canary_pct`` percent of flows
        (deterministically seeded) route to the new policy."""
        if self.state != "staged":
            raise RuntimeError(f"cannot begin canary from {self.state!r}")
        if not 0.0 < canary_pct <= 100.0:
            raise ValueError(f"canary_pct must be in (0, 100], got {canary_pct}")
        if _canary_buckets(canary_pct) < 1:
            raise ValueError(
                f"canary_pct {canary_pct} maps to an empty flow slice "
                f"(minimum is {100.0 / _CANARY_BUCKETS}%) — no flow would "
                "ever be canaried and the rollout would never conclude"
            )
        self.canary_pct = float(canary_pct)
        self.seed = seed
        self.canary_packets = 0
        self.stable_packets = 0
        self.failclosed_packets = 0
        self._observed = 0
        self._tripped = None
        self._baseline_hist.reset()
        self._canary_hist.reset()
        self._transition("canary")

    def route_batch(self, queries: Sequence[int]) -> list[Any]:
        """Serve one batch through the split data plane.

        Only meaningful in the CANARY state (the router bypasses the
        controller otherwise).  Returns verdicts in offered order.
        """
        if self.state != "canary":
            return self.engine.lookup_batch(list(queries))
        failing = self._tripped is not None
        canary_idx: list[int] = []
        stable_idx: list[int] = []
        for i, query in enumerate(queries):
            if canary_member(query, self.seed, self.canary_pct):
                canary_idx.append(i)
            else:
                stable_idx.append(i)
        out: list[Any] = [None] * len(queries)
        if stable_idx:
            start = time.perf_counter()
            answers = self.engine.lookup_batch([queries[i] for i in stable_idx])
            elapsed = time.perf_counter() - start
            for i, verdict in zip(stable_idx, answers):
                out[i] = verdict
            self._baseline_hist.observe(elapsed / len(stable_idx), len(stable_idx))
            self.stable_packets += len(stable_idx)
        if canary_idx:
            if failing:
                # Fail closed: a tripped canary engine serves nobody.
                self.failclosed_packets += len(canary_idx)
            else:
                start = time.perf_counter()
                answers = self.canary_engine.lookup_batch(
                    [queries[i] for i in canary_idx]
                )
                elapsed = time.perf_counter() - start
                for i, verdict in zip(canary_idx, answers):
                    out[i] = verdict
                n = len(canary_idx)
                self.canary_packets += n
                # Observe only batches that begin after warm-up: the
                # batch that crosses it still pays the canary's cold
                # start, which is not the policy's latency.
                if self.canary_packets - n >= self.guards.warmup_packets:
                    self._canary_hist.observe(elapsed / n, n)
                    self._observed += n
        self._count_batch(len(canary_idx), len(stable_idx), failing)
        if failing:
            self._rollback(self._tripped)
        else:
            self._evaluate()
        return out

    def _count_batch(self, canaried: int, stable: int, failing: bool) -> None:
        registry = self.metrics
        if registry is None:
            return

        def bump(slice_name: str, n: int) -> None:
            if n:
                registry.counter(
                    "rollout_canary_packets_total",
                    "Packets routed during canary windows, by slice fate.",
                    labels={"tenant": self.name, "slice": slice_name},
                ).inc(n)

        bump("failclosed" if failing else "canary", canaried)
        bump("stable", stable)

    # -- guards ------------------------------------------------------------

    def _shadow_mismatches(self) -> int:
        guard = getattr(self.canary_engine, "resilience", None)
        return guard.shadow_mismatches if guard is not None else 0

    def _evaluate(self) -> None:
        """Check the guards at a batch boundary; set the trip latch or
        promote when the observation window completes."""
        mismatches = self._shadow_mismatches()
        registry = self.metrics
        if registry is not None:
            registry.counter(
                "rollout_shadow_mismatches_total",
                "Shadow-verify mismatches observed on canary engines.",
                labels={"tenant": self.name},
            ).set_total(mismatches)
        if mismatches > self.guards.max_shadow_mismatches:
            self._tripped = "shadow-mismatch"
            return
        if self._observed >= self.guards.observe_packets:
            if self._baseline_hist.count == 0:
                # No stable-slice evidence yet: the latency ratios would
                # be vacuously 0.0 and the guards would wave anything
                # through.  A full-slice "canary" (canary_pct == 100)
                # structurally never produces a baseline — promote on
                # shadow verification alone and say so in the verdict;
                # any narrower slice keeps observing until real stable
                # traffic arrives.
                if _canary_buckets(self.canary_pct) >= _CANARY_BUCKETS:
                    self._promote(None)
                return
            ratios = quantile_ratios(self._canary_hist, self._baseline_hist)
            if ratios["p99"] > self.guards.max_p99_ratio:
                self._tripped = "p99-regression"
            elif ratios["p999"] > self.guards.max_p999_ratio:
                self._tripped = "p999-regression"
            else:
                self._promote(ratios)

    def _promote(self, ratios: Optional[dict[str, float]]) -> None:
        """Adopt the new policy atomically and stamp it last-good.

        The ``rollout`` fault site sits here — after the CANARY stamp,
        before the swap — so chaos runs can kill the controller inside
        the exact window crash recovery must cover.
        """
        if self.injector is not None:
            self.injector.check("rollout")
        self.engine.replace_matcher(self._new_matcher)
        self.engine.mark_last_good()
        self.last_verdict = {
            "decision": "promoted",
            "shadow_mismatches": self._shadow_mismatches(),
            "latency_ratios": ratios,
            "canary_packets": self.canary_packets,
            "stable_packets": self.stable_packets,
        }
        if ratios is None:
            self.last_verdict["latency_guards"] = (
                "skipped (full-slice canary has no stable baseline)"
            )
        self.promotes += 1
        if self.metrics is not None:
            self.metrics.counter(
                "rollout_promotes_total",
                "Canary rollouts promoted to the stable engine.",
                labels={"tenant": self.name},
            ).inc()
        self._discard_canary()
        self._transition("promoted")

    def _rollback(self, reason: str) -> None:
        """Discard the canary.  The stable engine is left alone: the
        canary window only ever read it, so it already serves the old
        policy (with any update it took meanwhile), its cache and guard
        state intact."""
        self.last_verdict = {
            "decision": "rolled_back",
            "reason": reason,
            "shadow_mismatches": self._shadow_mismatches(),
            "latency_ratios": quantile_ratios(self._canary_hist, self._baseline_hist),
            "canary_packets": self.canary_packets,
            "failclosed_packets": self.failclosed_packets,
            "stable_packets": self.stable_packets,
        }
        self.rollbacks += 1
        if self.metrics is not None:
            self.metrics.counter(
                "rollout_rollbacks_total",
                "Canary rollouts rolled back, labeled by tripped guard.",
                labels={"tenant": self.name, "reason": reason},
            ).inc()
        self._discard_canary()
        self._transition("rolled_back", reason=reason)

    def rollback(self, reason: str = "operator") -> None:
        """Operator-initiated rollback of a live canary."""
        if self.state != "canary":
            raise RuntimeError(f"cannot roll back from {self.state!r}")
        self._rollback(reason)

    def mark_crash_recovered(self) -> None:
        """Land an interrupted rollout after a restart: the stable
        engine is already back on the last-good policy (the supervisor
        recovered it from the checkpoint); stamp the rollout
        ROLLED_BACK so the record says what happened."""
        if self.state not in ("staged", "canary"):
            raise RuntimeError(f"no interrupted rollout to recover (state {self.state!r})")
        self.last_verdict = {"decision": "rolled_back", "reason": "crash-recovery"}
        self.rollbacks += 1
        if self.metrics is not None:
            self.metrics.counter(
                "rollout_rollbacks_total",
                "Canary rollouts rolled back, labeled by tripped guard.",
                labels={"tenant": self.name, "reason": "crash-recovery"},
            ).inc()
        self._discard_canary()
        self._transition("rolled_back", reason="crash-recovery")

    def _discard_canary(self) -> None:
        self.canary_engine = None
        self._new_matcher = None
        self._tripped = None

    # -- observability -----------------------------------------------------

    def report(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "canary_pct": self.canary_pct,
            "seed": self.seed,
            "guards": self.guards.to_dict(),
            "canary_packets": self.canary_packets,
            "stable_packets": self.stable_packets,
            "failclosed_packets": self.failclosed_packets,
            "promotes": self.promotes,
            "rollbacks": self.rollbacks,
            "transitions": list(self.transitions),
            "last_verdict": self.last_verdict,
        }
