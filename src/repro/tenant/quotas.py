"""Per-tenant admission control: rate and memory quotas.

A multi-tenant router cannot let one tenant's traffic or rule bloat
degrade its neighbours, so every tenant carries two quotas enforced at
the two places resources are actually consumed:

* :class:`TokenBucket` — a classic token-bucket rate limiter checked
  once per burst at lookup admission (:meth:`TokenBucket.take_upto`
  grants the longest prefix of the burst the bucket covers).  An
  over-rate packet is **fail-closed denied**: answered ``None`` (the
  implicit-deny verdict) without ever touching the matcher, exactly the
  stance the streaming plane's ``shed`` policy takes under overload.
  Refill is computed lazily from the clock, so an idle bucket costs
  nothing.
* :class:`MemoryQuota` — a byte ceiling on the tenant's *compiled
  policy*: the ``memory_bytes()`` of the frozen plane it serves (what
  its checkpoint writes), enforced at build, recovery, update and
  rollout-stage time — before a new policy serves, never after.  An over-quota
  policy is rejected (:class:`QuotaExceeded`) and the tenant keeps
  serving its previous policy; admission never races enforcement.

Both quotas keep granted/denied counters the router exports as
``tenant_*`` metrics (docs/observability.md).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

__all__ = ["QuotaExceeded", "TokenBucket", "MemoryQuota"]


class QuotaExceeded(RuntimeError):
    """An admission or build-time quota said no.

    ``kind`` is ``"rate"`` or ``"memory"``; the router counts denials
    under it (``tenant_denied_total{reason=...}``).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class TokenBucket:
    """Lazy-refill token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``rate=None`` disables the quota (every ``take`` grants).  The
    clock is injectable so tests drive time deterministically.
    ``burst`` must be at least one token (a bucket that can never hold
    a whole token would deny every packet forever); it defaults to
    ``max(rate, 1)``.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_stamp", "granted", "denied")

    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be > 0 or None, got {rate}")
        if burst is not None and burst < 1:
            raise ValueError(f"burst must be >= 1 or None, got {burst}")
        self.rate = rate
        #: maximum tokens the bucket holds (default: one second of rate,
        #: and never less than the one token a packet spends)
        if burst is None:
            burst = max(rate, 1.0) if rate is not None else 0.0
        self.burst = burst
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self.granted = 0
        self.denied = 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * (self.rate or 0.0))
            self._stamp = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (after a lazy refill)."""
        if self.rate is None:
            return float("inf")
        self._refill()
        return self._tokens

    def take(self, n: int = 1) -> bool:
        """Spend ``n`` tokens if available; False means deny (and the
        caller must fail closed)."""
        if self.rate is None:
            self.granted += n
            return True
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            self.granted += n
            return True
        self.denied += n
        return False

    def take_upto(self, n: int) -> int:
        """Grant the longest prefix of ``n`` one-token packets the
        bucket covers: ``min(n, floor(tokens))`` after one refill.  The
        other packets are denied (the caller fails them closed).

        Equal to ``n`` calls of ``take(1)`` under a clock that does not
        move during the call; tokens that accrue meanwhile are granted
        at the next call.
        """
        if self.rate is None:
            self.granted += n
            return n
        self._refill()
        granted = min(n, int(self._tokens))
        self._tokens -= granted
        self.granted += granted
        self.denied += n - granted
        return granted

    def report(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tokens": None if self.rate is None else self.tokens,
            "granted": self.granted,
            "denied": self.denied,
        }


class MemoryQuota:
    """Byte ceiling on a tenant's compiled policy.

    ``limit_bytes=None`` disables the quota.  :meth:`admit` raises
    :class:`QuotaExceeded` when the candidate (the router passes frozen
    planes) is over the ceiling — called *before* the policy serves
    traffic, so the tenant never serves an over-quota policy.
    """

    __slots__ = ("limit_bytes", "admitted", "rejected", "last_bytes")

    def __init__(self, limit_bytes: Optional[int]) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be > 0 or None, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self.admitted = 0
        self.rejected = 0
        #: size of the last matcher shown to the quota (admitted or not)
        self.last_bytes = 0

    def measure(self, matcher: Any) -> int:
        """The candidate's footprint; 0 when the matcher cannot say
        (no ``memory_bytes`` surface — nothing to enforce against)."""
        probe = getattr(matcher, "memory_bytes", None)
        return int(probe()) if callable(probe) else 0

    def admit(self, matcher: Any, *, tenant: str = "?") -> int:
        """Admit the candidate or raise :class:`QuotaExceeded`; returns
        the measured footprint in bytes."""
        size = self.measure(matcher)
        self.last_bytes = size
        if self.limit_bytes is not None and size > self.limit_bytes:
            self.rejected += 1
            raise QuotaExceeded(
                "memory",
                f"tenant {tenant!r}: policy needs {size} bytes, "
                f"quota is {self.limit_bytes}",
            )
        self.admitted += 1
        return size

    def report(self) -> dict[str, Any]:
        return {
            "limit_bytes": self.limit_bytes,
            "last_bytes": self.last_bytes,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }
