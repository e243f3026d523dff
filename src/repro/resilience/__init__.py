"""Resilience plane: fault injection, guarded degradation, checkpoints.

Three pieces, built to the same pattern as the paper's own fallback
story (the compiled fast path is always backstopped by an exact slower
one):

* :mod:`~repro.resilience.guard` — :class:`GuardRail` degrades frozen →
  interpreted → reference rung (the paper's basic Palmtrie) under
  faults, with a circuit breaker and sampled shadow verification;
* :mod:`~repro.resilience.faults` — a seedable :class:`FaultInjector`
  with hook points in the frozen walk, flow cache, deserializer and
  update path (the chaos suite's instrument);
* :mod:`~repro.resilience.checkpoint` — atomic, checksummed
  checkpoint/restore of the frozen policy + coherence stamps, with
  rebuild-from-source recovery.

Wire a guard in with ``ClassificationEngine(..., resilience=True)`` (or
a configured :class:`GuardRail`); see ``docs/resilience.md``.
"""

from .checkpoint import (
    Checkpoint,
    RecoveryReport,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from .faults import FAULT_SITES, FaultInjector, InjectedFault, injected, install, uninstall
from .guard import BreakerState, CircuitBreaker, GuardRail

__all__ = [
    "BreakerState",
    "Checkpoint",
    "CircuitBreaker",
    "FAULT_SITES",
    "FaultInjector",
    "GuardRail",
    "InjectedFault",
    "RecoveryReport",
    "injected",
    "install",
    "read_checkpoint",
    "recover",
    "uninstall",
    "write_checkpoint",
]
