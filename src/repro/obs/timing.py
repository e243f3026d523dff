"""Shared wall-clock helpers for throughput math.

Every timed path in this repo — engine batches, benchmark smokes, the
CLI replay loop — divides a work count by an elapsed ``perf_counter``
interval.  Work that completes between two clock ticks reads as 0.0
seconds, which turns into a rate of zero (or a ZeroDivisionError) and
poisons ratio-based regression gates.  The engine grew a private clamp
for this in PR 3; this module is the one canonical home for it, so the
benchmarks and the metrics plane divide the same way the engine does.

The module also holds the one noise-robust A/B timing estimator the
benchmark smokes gate overhead budgets with
(:func:`best_of_attempts_ratio`).

Zero-dependency on purpose: ``repro.engine`` and ``repro.bench`` both
import from here, and this module must never import back.
"""

from __future__ import annotations

import time
import timeit
from typing import Any, Callable

__all__ = ["TIMER_RESOLUTION", "best_of_attempts_ratio", "clamp_seconds", "safe_rate"]

#: smallest measurable perf_counter interval; timing shorter than this
#: reads as 0.0, so throughput math clamps to it instead of reporting
#: a rate of zero for work that completed between two clock ticks.
TIMER_RESOLUTION = time.get_clock_info("perf_counter").resolution or 1e-9


def clamp_seconds(seconds: float) -> float:
    """``seconds``, floored at the perf_counter tick.

    Use on any elapsed interval that feeds a division: a sub-tick
    measurement is "faster than the clock can see", not infinitely
    fast.
    """
    return seconds if seconds > TIMER_RESOLUTION else TIMER_RESOLUTION


def safe_rate(count: float, seconds: float) -> float:
    """``count / seconds`` with the elapsed time clamped to the tick.

    Zero work is a rate of zero regardless of how little time it took;
    nonzero work over a sub-tick interval is clamped rather than
    reported as infinite or zero.
    """
    if count <= 0:
        return 0.0
    return count / clamp_seconds(seconds)


def best_of_attempts_ratio(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    *,
    rounds: int,
    attempts: int,
    number: int,
    early_stop: float,
) -> float:
    """``baseline`` time over ``candidate`` time, robust to host noise.

    One attempt times each arm ``rounds`` times (``number`` calls per
    timing), alternating which arm goes first every round so drift hits
    both alike, and divides the per-arm minimums.  On a shared box the
    noise between *identical* arms is several percent, and noise only
    ever slows a run, so one attempt under-estimates the true ratio far
    more often than it over-estimates.  The estimator therefore keeps
    the best of up to ``attempts`` independent attempts and stops early
    once one reaches ``early_stop``.  1.0 means the candidate costs
    nothing extra; below 1.0 it is slower.
    """
    arms = (baseline, candidate)
    best_ratio = 0.0
    for _attempt in range(attempts):
        best = [float("inf"), float("inf")]
        for round_index in range(rounds):
            for arm in (0, 1) if round_index % 2 == 0 else (1, 0):
                best[arm] = min(best[arm], timeit.timeit(arms[arm], number=number))
        best_ratio = max(best_ratio, clamp_seconds(best[0]) / clamp_seconds(best[1]))
        if best_ratio >= early_stop:
            break
    return best_ratio
