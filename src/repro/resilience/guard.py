"""Guarded degradation for the classification engine.

Palmtrie always has a slower-but-sound fallback: the frozen plane is
compiled from the interpreted matcher, and the interpreted matcher's
entry list builds the paper's basic Palmtrie (Algorithm 1), a separate
code path that gives the same answers.  :class:`GuardRail` makes that
ladder operational — attached to a
:class:`~repro.engine.ClassificationEngine` it turns faults into
degraded-but-correct service instead of tracebacks:

* a fault in the **frozen plane** drops the plane and re-resolves the
  burst through the interpreted matcher; a **circuit breaker** stops
  re-freeze attempts after ``failure_threshold`` consecutive plane
  faults and retries with exponential backoff (OPEN → one HALF_OPEN
  probe → CLOSED on success);
* a fault in the **matcher itself** falls to the **reference** (a
  :class:`~repro.core.basic.BasicPalmtrie` built lazily from
  ``matcher.entries()`` and patched in place by engine transactions)
  — it shares no code with Palmtrie_k or the plane, so a bug in
  either cannot make it agree (the tests, the ledger and the chaos
  bench keep the sorted list as their own oracle);
* optional **shadow verification** cross-checks a sampled fraction of
  answers (cache hits included) against the reference; a mismatch means
  the fast path is lying — the engine serves the reference answer,
  repairs the cache row, and the guard **quarantines**: every
  subsequent miss is resolved by the reference until
  :meth:`GuardRail.reset` or a policy swap.  ``shadow_sample=1.0``
  checks everything, which is how the chaos suite proves zero wrong
  answers under cache poisoning.

Health is three-valued: ``ok`` (fast path serving), ``degraded``
(breaker not closed, or the last burst fell past the frozen plane) and
``quarantined`` (sticky, mismatch observed).  Everything the guard
knows is in :meth:`report` and mirrored into the engine's
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import enum
import math
import random
import time
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

__all__ = ["BreakerState", "CircuitBreaker", "GuardRail"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with exponential-backoff probes.

    ``record_failure`` past ``failure_threshold`` consecutive failures
    opens the breaker for ``backoff_seconds`` (doubling per reopen, up
    to ``max_backoff_seconds``).  Once the window has elapsed,
    :meth:`allow` admits a half-open probe; ``record_success`` closes
    the breaker and resets the backoff, another failure reopens it with
    a doubled window.  ``clock`` is injectable for deterministic tests
    (defaults to :func:`time.monotonic`).
    """

    __slots__ = (
        "failure_threshold", "backoff_seconds", "max_backoff_seconds",
        "_clock", "state", "consecutive_failures", "_current_backoff",
        "_retry_at", "opens", "probes", "recoveries",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        backoff_seconds: float = 0.1,
        max_backoff_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if backoff_seconds <= 0 or max_backoff_seconds < backoff_seconds:
            raise ValueError(
                f"need 0 < backoff_seconds <= max_backoff_seconds, "
                f"got {backoff_seconds}/{max_backoff_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self._clock = clock
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._current_backoff = backoff_seconds
        self._retry_at = 0.0
        self.opens = 0
        self.probes = 0
        self.recoveries = 0

    def allow(self) -> bool:
        """May the protected plane serve right now?

        CLOSED always; OPEN only once the backoff window has elapsed
        (the call itself transitions to HALF_OPEN — the probe); a
        HALF_OPEN probe already in flight keeps being allowed until its
        outcome is recorded.
        """
        state = self.state
        if state is BreakerState.CLOSED or state is BreakerState.HALF_OPEN:
            return True
        if self._clock() >= self._retry_at:
            self.state = BreakerState.HALF_OPEN
            self.probes += 1
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self._current_backoff = self.backoff_seconds
            self.recoveries += 1

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # Failed probe: reopen with a doubled window.
            self._open(double=True)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._open(double=False)

    def _open(self, double: bool) -> None:
        if double:
            self._current_backoff = min(
                self._current_backoff * 2.0, self.max_backoff_seconds
            )
        self.state = BreakerState.OPEN
        self._retry_at = self._clock() + self._current_backoff
        self.opens += 1

    @property
    def current_backoff_seconds(self) -> float:
        return self._current_backoff

    @property
    def retry_in_seconds(self) -> float:
        """Seconds until the next probe is admitted (0 when not OPEN)."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(0.0, self._retry_at - self._clock())

    def reset(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._current_backoff = self.backoff_seconds
        self._retry_at = 0.0

    def report(self) -> dict[str, Any]:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "backoff_seconds": self._current_backoff,
            "retry_in_seconds": self.retry_in_seconds,
            "opens": self.opens,
            "probes": self.probes,
            "recoveries": self.recoveries,
        }


class GuardRail:
    """Fault accounting, degradation ladder and shadow verification.

    Pass one to ``ClassificationEngine(..., resilience=GuardRail(...))``
    (or ``resilience=True`` for the defaults).  The engine consults it
    on every miss path; on the healthy path the cost is one ``is None``
    test plus one breaker-state check per batch (the enforced budget is
    the same 0.98x mechanism as the metrics plane).

    ``shadow_sample`` is the fraction of answers (hits and misses)
    cross-checked against the basic-Palmtrie reference — 0.0 disables the
    shadow entirely, 1.0 verifies every answer.  The sampled answers are
    an i.i.d. Bernoulli(``shadow_sample``) process over served answers,
    drawn as geometric gaps: one random draw per *check*, not per
    answer, and a countdown the scalar and batch paths share.  A
    mismatch quarantines:
    misses are then resolved by the reference until :meth:`reset` or a
    policy swap, because a lying fast path cannot be trusted twice.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        backoff_seconds: float = 0.1,
        max_backoff_seconds: float = 30.0,
        shadow_sample: float = 0.0,
        shadow_seed: int = 2020,
        injector: Optional["FaultInjector"] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 <= shadow_sample <= 1.0:
            raise ValueError(f"shadow_sample must be in [0, 1], got {shadow_sample}")
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            backoff_seconds=backoff_seconds,
            max_backoff_seconds=max_backoff_seconds,
            clock=clock,
        )
        self.shadow_sample = shadow_sample
        self._shadow_rng = random.Random(shadow_seed)
        #: answers still to pass before the next sampled one
        self._shadow_skip = self._shadow_gap()
        self.injector = injector
        self.quarantined = False
        #: where the most recent miss burst was resolved:
        #: "frozen" | "matcher" | "reference" (None before any miss)
        self.last_plane: Optional[str] = None
        #: True while the most recent burst was served below the plane
        #: the engine is configured to serve from (fault fallback)
        self.serving_fallback = False
        self.faults: dict[str, int] = {}
        self.degraded_lookups = 0
        self.reference_lookups = 0
        self.shadow_checks = 0
        self.shadow_mismatches = 0
        self.refreeze_faults = 0
        #: times the basic-Palmtrie reference was rebuilt from the
        #: matcher's entries (engine updates patch it in place instead)
        self.reference_rebuilds = 0
        #: cumulative seconds those rebuilds took
        self.reference_rebuild_seconds = 0.0
        self.last_fault: Optional[str] = None

    # -- fault accounting ------------------------------------------------

    def record_fault(self, site: str, exc: Optional[BaseException] = None) -> None:
        self.faults[site] = self.faults.get(site, 0) + 1
        self.last_fault = f"{site}: {exc!r}" if exc is not None else site

    def quarantine(self, reason: str) -> None:
        self.quarantined = True
        self.record_fault("shadow_mismatch", None)
        self.last_fault = f"shadow_mismatch: {reason}"

    def reset(self) -> None:
        """Lift quarantine and close the breaker (operator action —
        call it after the root cause is fixed, or let a policy swap do
        it).  Cumulative fault counters are kept."""
        self.quarantined = False
        self.breaker.reset()
        self.last_plane = None
        self.serving_fallback = False

    # -- shadow verification ---------------------------------------------

    def _shadow_gap(self) -> int:
        """Unsampled answers before the next sampled one: a geometric
        draw, ``floor(ln(1-U) / ln(1-p))``, so each answer is sampled
        independently with probability ``p``.  No draw at ``p`` 0 or 1."""
        sample = self.shadow_sample
        if sample <= 0.0 or sample >= 1.0:
            return 0
        return int(math.log1p(-self._shadow_rng.random()) / math.log1p(-sample))

    def shadow_roll(self) -> bool:
        """One sampling decision (the scalar path; shares its countdown
        with :meth:`shadow_positions`)."""
        if self.shadow_sample <= 0.0:
            return False
        if self._shadow_skip:
            self._shadow_skip -= 1
            return False
        self._shadow_skip = self._shadow_gap()
        return True

    def shadow_positions(self, n: int) -> Sequence[int]:
        """The sampled positions among the next ``n`` answers, in
        ascending order (the batch form of :meth:`shadow_roll`)."""
        if self.shadow_sample <= 0.0:
            return ()
        if self.shadow_sample >= 1.0:
            return range(n)
        position = self._shadow_skip
        sampled = []
        while position < n:
            sampled.append(position)
            position += 1 + self._shadow_gap()
        self._shadow_skip = position - n
        return sampled

    @staticmethod
    def answers_agree(got: Any, expected: Any) -> bool:
        """The repo's equivalence notion: the *winning priority* must
        match (equal-priority ties may legitimately pick different
        entries across structures)."""
        if got is None or expected is None:
            return got is None and expected is None
        return got.priority == expected.priority

    # -- health ----------------------------------------------------------

    @property
    def health(self) -> str:
        if self.quarantined:
            return "quarantined"
        if self.breaker.state is not BreakerState.CLOSED or self.serving_fallback:
            return "degraded"
        return "ok"

    def report(self) -> dict[str, Any]:
        summary: dict[str, Any] = {
            "health": self.health,
            "quarantined": self.quarantined,
            "last_plane": self.last_plane,
            "serving_fallback": self.serving_fallback,
            "breaker": self.breaker.report(),
            "faults": dict(self.faults),
            "degraded_lookups": self.degraded_lookups,
            "reference_lookups": self.reference_lookups,
            "reference_rebuilds": self.reference_rebuilds,
            "reference_rebuild_seconds": self.reference_rebuild_seconds,
            "shadow_sample": self.shadow_sample,
            "shadow_checks": self.shadow_checks,
            "shadow_mismatches": self.shadow_mismatches,
            "last_fault": self.last_fault,
        }
        if self.injector is not None:
            summary["injector"] = self.injector.report()
        return summary
