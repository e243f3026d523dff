"""Deterministic fault injection for the resilience plane.

Production failures are rare and unreproducible; injected ones are
neither.  :class:`FaultInjector` is a seedable chaos source with four
hook points matching the failure surfaces the serving stack actually
has:

* ``frozen_walk`` — raise :class:`InjectedFault` inside the frozen
  plane's ``lookup``/``lookup_batch`` (a compiled-plane bug or a
  corrupted array);
* ``cache`` — poison live :class:`~repro.engine.FlowCache` rows, and
  one :class:`~repro.engine.RegionCache` row, with wrong verdicts (a
  memory-corruption stand-in the shadow-verify mode must catch);
* ``deserialize`` — flip bits in PLMF plane bytes before they reach the
  decoder (torn writes, disk corruption);
* ``update`` — raise mid-transaction inside ``apply_updates`` so the
  source trie is left partially mutated;
* ``stall`` — sleep on the lookup path (a scheduling hiccup the
  throughput-loss bound in the chaos smoke measures);
* ``rollout`` — raise inside the control plane's canary rollout,
  between the canary stamp and the promote (a crashed controller; the
  recovery path must land on the last-good checkpoint).

Every decision comes from one seeded :class:`random.Random`, so a chaos
run replays bit-for-bit.  Sites are armed with a firing probability and
an optional budget; :func:`install` / :func:`uninstall` (or the
:func:`injected` context manager) attach an injector to the global hook
points — :attr:`repro.core.frozen.FrozenMatcher._fault_injector` and
``repro.core.serialize._deserialize_hook`` — while engine-level sites
(``cache``, ``update``, ``stall``) flow through the
:class:`~repro.resilience.guard.GuardRail` the injector is handed to.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Any, Iterator, Optional

__all__ = ["FAULT_SITES", "InjectedFault", "FaultInjector", "install", "uninstall", "injected"]

#: the hook points an injector can arm
FAULT_SITES = ("frozen_walk", "cache", "deserialize", "update", "stall", "rollout")


class InjectedFault(RuntimeError):
    """Raised by an armed :class:`FaultInjector` at a hook point."""

    def __init__(self, site: str, message: str = "") -> None:
        super().__init__(message or f"injected fault at {site!r}")
        #: which hook point fired (the guard files the fault under it)
        self.site = site


class FaultInjector:
    """Seeded, per-site fault source.

    ``arm(site, rate, count)`` makes ``check(site)`` raise (or act, for
    the active sites) with probability ``rate`` per check, at most
    ``count`` times (None = unlimited).  All randomness comes from one
    ``random.Random(seed)``, so schedules are reproducible.
    """

    def __init__(self, seed: int = 2020, stall_seconds: float = 0.0005) -> None:
        if stall_seconds < 0:
            raise ValueError(f"stall_seconds must be >= 0, got {stall_seconds}")
        self.seed = seed
        self.stall_seconds = stall_seconds
        self._rng = random.Random(seed)
        #: site -> [rate, remaining budget (None = unlimited)]
        self._armed: dict[str, list[Any]] = {}
        #: how many times each site actually fired
        self.fired: dict[str, int] = {site: 0 for site in FAULT_SITES}
        #: how many times each site was consulted
        self.checks: dict[str, int] = {site: 0 for site in FAULT_SITES}

    # -- arming ----------------------------------------------------------

    def arm(self, site: str, rate: float = 1.0, count: Optional[int] = None) -> None:
        """Arm one site: fire with probability ``rate`` per check, at
        most ``count`` times."""
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}; choose from {FAULT_SITES}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if count is not None and count < 0:
            raise ValueError(f"count must be >= 0 or None, got {count}")
        self._armed[site] = [rate, count]

    def disarm(self, site: str) -> None:
        self._armed.pop(site, None)

    def disarm_all(self) -> None:
        self._armed.clear()

    def armed(self, site: str) -> bool:
        """True while the site can still fire (budget not exhausted)."""
        state = self._armed.get(site)
        return state is not None and (state[1] is None or state[1] > 0)

    # -- firing ----------------------------------------------------------

    def should_fire(self, site: str) -> bool:
        """Roll the dice for one check; consumes budget when it fires."""
        self.checks[site] += 1
        state = self._armed.get(site)
        if state is None:
            return False
        rate, remaining = state
        if remaining is not None and remaining <= 0:
            return False
        if rate < 1.0 and self._rng.random() >= rate:
            return False
        if remaining is not None:
            state[1] = remaining - 1
        self.fired[site] += 1
        return True

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` if the armed site fires.

        The ``stall`` site never raises: it sleeps ``stall_seconds``
        instead (latency faults degrade throughput, not correctness).
        """
        if not self.should_fire(site):
            return
        if site == "stall":
            time.sleep(self.stall_seconds)
            return
        raise InjectedFault(site)

    # -- active faults ---------------------------------------------------

    def corrupt(self, data: bytes, flips: int = 1) -> bytes:
        """Return ``data`` with ``flips`` deterministic bit flips."""
        if not data or flips <= 0:
            return data
        blob = bytearray(data)
        for _ in range(flips):
            position = self._rng.randrange(len(blob) * 8)
            blob[position // 8] ^= 1 << (position % 8)
        return bytes(blob)

    def deserialize_hook(self, data: bytes) -> bytes:
        """The ``repro.core.serialize._deserialize_hook`` shape: corrupt
        the wire bytes when the ``deserialize`` site fires."""
        if self.should_fire("deserialize"):
            return self.corrupt(data, flips=max(1, self._rng.randrange(1, 4)))
        return data

    def poison_cache(self, cache: Any, rows: int = 1, regions: Any = None) -> int:
        """Overwrite up to ``rows`` cached verdicts with wrong answers.

        A poisoned row flips a cached match to a cached miss (and a
        cached miss to the first *other* cached entry when one exists),
        modelling silent memory corruption.  When ``regions`` (the
        engine's :class:`~repro.engine.RegionCache`) holds any rows, the
        same firing flips one region row too — a lie that answers every
        query in that region.  Returns the rows poisoned.  Only counts
        as a firing when at least one row was changed.
        """
        victims = list(getattr(cache, "_map", {}))
        if not victims:
            self.checks["cache"] += 1
            return 0
        if not self.should_fire("cache"):
            return 0
        table = cache._map
        poisoned = 0
        entries = [value for value in table.values() if value is not None]
        for _ in range(min(rows, len(victims))):
            poisoned += self._flip(table, self._rng.choice(victims), entries)
        region_tables = [rows_held for rows_held in getattr(regions, "_tables", {}).values()
                         if rows_held]
        if region_tables:
            region_table = self._rng.choice(region_tables)
            poisoned += self._flip(region_table, self._rng.choice(list(region_table)), entries)
        return poisoned

    def _flip(self, table: dict, key: Any, entries: list) -> int:
        """Make ``table[key]`` wrong; returns 1 when it changed."""
        current = table[key]
        if current is not None:
            table[key] = None
        elif entries:
            table[key] = self._rng.choice(entries)
        else:
            return 0
        return 1

    # -- observability ---------------------------------------------------

    def report(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "armed": {site: {"rate": rate, "remaining": remaining}
                      for site, (rate, remaining) in self._armed.items()},
            "fired": dict(self.fired),
            "checks": dict(self.checks),
        }


def install(injector: FaultInjector) -> None:
    """Attach ``injector`` to the global hook points.

    Sets :attr:`FrozenMatcher._fault_injector` (class-wide: every plane,
    including ones compiled after this call) and the serializer's
    ``_deserialize_hook``.  Engine-level sites need the injector passed
    to the :class:`~repro.resilience.guard.GuardRail` as well.
    """
    from ..core import serialize
    from ..core.frozen import FrozenMatcher

    FrozenMatcher._fault_injector = injector
    serialize._deserialize_hook = injector.deserialize_hook


def uninstall() -> None:
    """Detach any installed injector from the global hook points."""
    from ..core import serialize
    from ..core.frozen import FrozenMatcher

    FrozenMatcher._fault_injector = None
    serialize._deserialize_hook = None


@contextlib.contextmanager
def injected(injector: FaultInjector) -> Iterator[FaultInjector]:
    """``with injected(inj): ...`` — install for the block, always detach."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
