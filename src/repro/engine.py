"""Batched classification engine with an LRU flow cache.

Every structure in this library answers one query at a time, but real
packet workloads are bursty and flow-heavy: NICs hand the CPU bursts of
packets, and a handful of elephant flows dominate any interval (the
locality that cache-aware forwarding tables and batch classifiers
exploit).  :class:`ClassificationEngine` is the serving layer that
turns the paper's served structure — a retained Palmtrie_k and the
frozen plane compiled from it (§3.6) — into that shape:

* ``lookup_batch`` drains a whole burst through one batched walk;
* an LRU *flow cache* keyed on the binary query short-circuits repeat
  lookups — a hit skips the structure walk entirely, and negative
  results (no matching rule) are cached too;
* ``insert``/``delete`` proxy to the matcher and invalidate exactly the
  cached queries whose verdict could have changed (the ones the
  inserted or deleted ternary key matches) before the next lookup, so
  cached results are always equal to what the matcher would return;
* behind the flow cache, a *decision-region tier* (:class:`RegionCache`)
  answers misses that agree with an earlier walk on every bit that walk
  examined — the frozen plane reports those bits — so scan traffic,
  whose queries are unique but whose verdicts are not, skips most walks;
* each of the two tiers runs only where it pays: one rule
  (:class:`_TierGate`) puts a tier that answers too few of the queries
  reaching it to sleep, and the exact cache may sleep only while an
  awake region tier answers its misses — a sleeping exact cache is
  probed behind that tier, with the misses no region answers;
* hit/miss/eviction counters fold into the shared
  :class:`~repro.core.table.LookupStats`, and per-batch work counts and
  throughput are kept for the benchmark harness and the CLI.

The *update plane* makes policy churn first-class.  The paper's update
cost model (§3.6, §4.4) is that an update goes to the retained
Palmtrie_k and the fast form is recompiled from it; this engine adds
the serving half of that story:

* :meth:`apply_updates` applies many inserts/deletes as one
  transaction — one pass over the source trie and one changed-key set;
  a scalar ``insert``/``delete`` is a one-op transaction;
* that changed-key set drives every derived layer, because a query's
  verdict can change only if a changed key matches it: a targeted
  cache sweep, an in-place insert/delete on the guard's basic-Palmtrie
  reference, and a frozen-plane *overlay* — the plane keeps serving,
  and the misses a changed key matches resolve through the retained
  Palmtrie_k until the overlay has cost as much as one refreeze (ski
  rental) and compacts into a fresh freeze;
* the cache sweep always waits for the next lookup: a transaction
  leaves its changed keys pending and the engine's generation stamp
  stale, and the next lookup sweeps the keys of every transaction
  since in one pass (or clears the cache when that sweep would not
  pay), so N updates between two bursts pay one sweep;
* the matcher carries a monotonic ``generation`` counter bumped on
  content changes; the engine stamps the flow cache and frozen plane
  with the generation they were filled under and re-checks it in O(1)
  at the top of every lookup, so results stay coherent even when a
  caller mutates the matcher directly (``engine.matcher.insert(...)``)
  behind the engine's back (changes the engine cannot see clear the
  whole cache);
* :meth:`replace_matcher` swaps in a rebuilt policy atomically — new
  matcher, fresh plane, cleared cache — while cumulative lookup
  statistics carry over (the apps' ``replace_policy`` paths route
  through it).  Every swap also bumps the engine *epoch*, stamped
  alongside the generation, so a replacement matcher that happens to
  start at the same generation value can never revive stale state
  (``engine.matcher = new`` routes through the same path).

The *resilience plane* (``resilience=True`` or a configured
:class:`~repro.resilience.guard.GuardRail`) turns faults into degraded
service instead of tracebacks: a fault in the frozen plane degrades to
the interpreted Palmtrie_k (with a circuit breaker pacing re-freeze
attempts), a fault there degrades to a reference rung — the paper's
basic Palmtrie (Algorithm 1, :class:`~repro.core.basic.BasicPalmtrie`),
a code path separate from Palmtrie_k and the plane — rebuilt from the
policy's entries, and an optional sampled shadow-verify cross-checks
answers against that reference, quarantining on mismatch.
:meth:`checkpoint` / :meth:`from_checkpoint` round-trip the policy and
its coherence stamps through crash-safe checksummed files
(``docs/resilience.md``).

The *shard pool* (``EngineConfig(shards=N)``) is this engine's miss
resolver, not a second engine: the constructor starts a
:class:`~repro.shard.ShardedEngine` of N worker processes over the
frozen plane, and cache misses go to it where an in-process engine
would walk the plane itself.  The cache, guard, updates, checkpoints
and metrics above exist once, in this process; the cache holds
``cache_size × shards`` rows (one worker-cache budget per shard), and
:meth:`close` (or the context manager) stops the workers.

The apps layer (``Firewall``, ``FlowMonitor``, ``L3Forwarder``,
``StatefulFirewall``) classifies through this engine.
"""

from __future__ import annotations

import inspect
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from .config import DEFAULT_CONFIG, EngineConfig
from .core.frozen import FrozenMatcher
from .core.multibit import MultibitPalmtrie
from .core.table import LookupStats, TernaryEntry
from .core.ternary import TernaryKey
from .obs.metrics import MetricsRegistry, geometric_buckets
from .obs.timing import TIMER_RESOLUTION as _TIMER_TICK

__all__ = ["FlowCache", "RegionCache", "UpdateReport", "ClassificationEngine"]

#: what an engine serves: a Palmtrie_k, or the frozen plane (the
#: Palmtrie+) compiled from one (see :class:`ClassificationEngine`)
ServedMatcher = Union[MultibitPalmtrie, FrozenMatcher]

#: distinguishes "not cached" from a cached no-match (None) result
_MISSING = object()

#: distinct care masks past which changed-key groups stop paying: every
#: row or miss is tested once per group, so beyond this a deferred
#: cache sweep clears the whole cache and the plane's overlay compacts
#: (refreezes) instead of testing ever more groups
_MAX_KEY_GROUPS = 8

#: masks the decision-region tier probes per query, hottest first: on
#: the ledger's scan the hottest four masks answer nearly every region
#: hit (docs/algorithms.md)
_REGION_PROBES = 4

#: a mask is probed only while it can answer at least one in this many
#: of the queries that reach its probe: a walk costs about a dozen
#: probes, so a rarer mask costs more in probes than it saves in walks
_PROBE_PAYOFF = 8

#: walks between re-rankings of the probed masks (a ranking sorts every
#: mask seen, some 50-110 on the ledger's acl mixes)
_RERANK_FILLS = 256

#: The two miss-path tiers' gates (see :class:`_TierGate`): queries per
#: judged window, and the share of a window a tier must answer (one in
#: ``payoff``) to keep serving.
#:
#: The region tier pays when it answers at least as many of the exact
#: misses it probes as it passes on to walks (one in two).  Its window
#: is 256 probed misses: a tier that answers nothing sleeps after 512
#: walks, which kept it awake for 1.0% of ``hot-flows`` bursts and 2.5%
#: of ``rule-churn`` bursts (the ledger's first 65,536 packets, four
#: passes; a 512-miss window kept it awake for 100% and 4.6%).
_REGION_WINDOW = 256
_REGION_PAYOFF = 2
#: The exact cache pays behind an awake region tier when it answers one
#: in four of the packets it probes.  On the ledger's ``scan-miss`` mix
#: (500 acl rules, 4,096-row cache, 64-packet bursts; 2-core x86,
#: Python 3.11, fastest of 7 passes, three runs) its probe and fill
#: cost 500-600 ns per packet, while the distinct queries it answers
#: (9% of packets: zipf flows the region tier mostly walks) cost
#: 2.6-2.8 us each to resolve behind it: break-even at 20-23% hits.  A
#: closed gate sleeps for ``4 × cache_size`` packets, then relearns;
#: while it sleeps the exact probe runs behind the region tier, on the
#: few misses no region answers, so the hot flows a scan carries stay
#: cached instead of being walked every time they recur.
_EXACT_WINDOW = 1024
_EXACT_PAYOFF = 4


def group_keys(keys: Iterable[TernaryKey]) -> dict[int, set[int]]:
    """Fold ternary keys into ``{care: {data, ...}}`` (``care`` is the
    key's cared-for bits, ``~mask``).  A query matches one of the keys
    exactly when ``query & care in datas`` for some group, so a cache
    row or a miss is tested once per distinct mask instead of once per
    key."""
    groups: dict[int, set[int]] = {}
    for key in keys:
        care = ~key.mask & ((1 << key.length) - 1)
        datas = groups.get(care)
        if datas is None:
            groups[care] = {key.data}
        else:
            datas.add(key.data)
    return groups


def _matching(queries: Iterable[int], groups: dict[int, set[int]]) -> list[int]:
    """Those of the distinct ``queries`` that some group of ``groups``
    (:func:`group_keys` form) matches: one comprehension per care mask,
    which beats one ``any()`` generator per query."""
    if len(groups) == 1:
        ((care, datas),) = groups.items()
        return [query for query in queries if query & care in datas]
    hits: set[int] = set()
    for care, datas in groups.items():
        hits.update([query for query in queries if query & care in datas])
    return list(hits)


def _worth_testing(groups: dict[int, set[int]]) -> bool:
    """False when testing rows or misses against ``groups`` does not
    pay: an all-wildcard key (care mask 0) matches everything, and past
    ``_MAX_KEY_GROUPS`` masks the per-query tests add up."""
    return 0 not in groups and len(groups) <= _MAX_KEY_GROUPS


def _reports_masks(plane: Any) -> bool:
    """Whether ``plane.lookup_batch`` takes a ``masks`` list (the frozen
    plane's examined-bit report).  A stand-in whose ``lookup_batch``
    takes only the queries — a subclass, a wrapper, or a test double
    such as the benchmark self-test's lying plane — is served without
    the region tier, through the one-argument call it defines."""
    batch = getattr(plane, "lookup_batch", None)
    if batch is None:
        return False
    try:
        return "masks" in inspect.signature(batch).parameters
    except (TypeError, ValueError):
        return False


def _merge_groups(
    into: dict[int, set[int]], groups: dict[int, set[int]]
) -> dict[int, set[int]]:
    """Union ``groups`` into ``into`` (both in :func:`group_keys` form)."""
    for care, datas in groups.items():
        held = into.get(care)
        if held is None:
            into[care] = set(datas)
        else:
            held |= datas
    return into


class _TierGate:
    """Whether a miss-path tier runs: the one rule of the exact flow
    cache and the decision-region tier.

    The gate judges windows of ``window`` queries that reached its tier
    (:meth:`judge`).  A tier that answered fewer than one in ``payoff``
    of a window costs more in probes and fills than the work it saves,
    so it sleeps — passes up every query — for ``sleep`` queries
    (:meth:`awake`), and then relearns.  The first window after a reset
    (:meth:`reset`, or waking) is not judged: the tier's rows are cold.
    """

    __slots__ = ("window", "payoff", "sleep", "asleep", "_reached", "_answered", "_warm")

    def __init__(self, window: int, payoff: int, sleep: int) -> None:
        self.window = window
        self.payoff = payoff
        self.sleep = sleep
        #: queries left to pass up while the tier sleeps (0: awake)
        self.asleep = 0
        self.reset()

    def reset(self) -> None:
        """Open a fresh window that is not judged (the tier dropped its
        rows); a sleeping tier sleeps on."""
        self._reached = self._answered = 0
        self._warm = False

    def awake(self, queries: int) -> bool:
        """Whether the tier serves a batch of ``queries`` queries; a
        sleeping tier counts them off its sleep instead."""
        if not self.asleep:
            return True
        self.asleep = max(0, self.asleep - queries)
        return False

    def judge(self, reached: int, answered: int) -> bool:
        """Count a batch: ``reached`` queries reached the tier and it
        answered ``answered`` of them.  False when that closed a window
        the tier did not pay for: the tier is asleep from now on."""
        reached += self._reached
        answered += self._answered
        if reached < self.window:
            self._reached = reached
            self._answered = answered
            return True
        self._reached = self._answered = 0
        warm, self._warm = self._warm, True
        if not warm or answered * self.payoff >= reached:
            return True
        self.asleep = self.sleep
        self._warm = False
        return False


class FlowCache:
    """LRU map from binary query to lookup result.

    Values are the winning :class:`TernaryEntry` or None (a cached
    implicit deny).  Capacity 0 disables the cache: every ``get``
    misses and ``put`` is a no-op.
    """

    __slots__ = ("capacity", "_map")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._map: OrderedDict[int, Optional[TernaryEntry]] = OrderedDict()

    def get(self, query: int) -> Any:
        """The cached result, or the module's ``_MISSING`` sentinel."""
        result = self._map.get(query, _MISSING)
        if result is not _MISSING:
            self._map.move_to_end(query)
        return result

    def put(self, query: int, result: Optional[TernaryEntry]) -> int:
        """Store one result; returns the number of evictions (0 or 1)."""
        if self.capacity == 0:
            return 0
        cache = self._map
        if query in cache:
            cache.move_to_end(query)
            cache[query] = result
            return 0
        cache[query] = result
        if len(cache) > self.capacity:
            cache.popitem(last=False)
            return 1
        return 0

    def probe(
        self, queries: Sequence[int], out: list
    ) -> tuple[int, dict[int, list[int]]]:
        """The batch form of :meth:`get`: write every hit into
        ``out[i]`` and return ``(hits, misses)``, where ``misses`` maps
        each distinct missed query to its positions, in first-seen
        order.  Hits are refreshed in query order, exactly as a
        :meth:`get` per query would."""
        cache = self._map
        get = cache.get
        touch = cache.move_to_end
        missing = _MISSING
        misses: dict[int, list[int]] = {}
        hits = 0
        for index, query in enumerate(queries):
            cached = get(query, missing)
            if cached is missing:
                positions = misses.get(query)
                if positions is None:
                    misses[query] = [index]
                else:
                    positions.append(index)
            else:
                touch(query)
                out[index] = cached
                hits += 1
        return hits, misses

    def answer(self, queries: Sequence[int], answers: dict) -> list[int]:
        """The probe behind the region tier: write each of the distinct
        ``queries`` the cache holds into ``answers`` (refreshed, as by
        :meth:`get`) and return the rest, in order."""
        cache = self._map
        get = cache.get
        touch = cache.move_to_end
        missing = _MISSING
        rest = []
        for query in queries:
            cached = get(query, missing)
            if cached is missing:
                rest.append(query)
            else:
                touch(query)
                answers[query] = cached
        return rest

    def fill(
        self, queries: Sequence[int], results: Sequence[Optional[TernaryEntry]]
    ) -> int:
        """The batch form of :meth:`put` for distinct queries the cache
        does not hold (the misses :meth:`probe` just returned): the same
        rows, order and eviction count as one ``put`` per query.
        Returns the number of evictions."""
        if self.capacity == 0:
            return 0
        cache = self._map
        cache.update(zip(queries, results))
        overflow = len(cache) - self.capacity
        if overflow <= 0:
            return 0
        evict = cache.popitem
        for _ in range(overflow):
            evict(last=False)
        return overflow

    def sweep(self, groups: dict[int, set[int]]) -> int:
        """Evict every cached query some changed-key group matches
        (``query & care in datas``; see :func:`group_keys`); returns the
        rows evicted.

        Those are exactly the queries whose result can change when an
        entry with one of the changed keys is inserted or deleted;
        untouched queries keep their (still-correct) cached verdicts.
        Each row is tested once per distinct care mask, so a
        transaction of N updates pays one cache pass instead of N.
        """
        if not groups:
            return 0
        cache = self._map
        stale = _matching(cache, groups)
        for query in stale:
            del cache[query]
        return len(stale)

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        dropped = len(self._map)
        self._map.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, query: int) -> bool:
        return query in self._map


class RegionCache:
    """Decision-region tier: ``{mask: {query & mask: verdict}}``.

    The frozen walk reports, per query, the bits it examined (``mask``);
    every query that agrees with it on those bits takes the same walk to
    the same entry, so one row answers a whole region of queries — the
    megaflow idea of Open vSwitch, applied behind the exact flow cache.

    Rows live only under the probed masks: at most ``_REGION_PROBES``
    of the hottest, each while it can answer at least one in
    ``_PROBE_PAYOFF`` of the queries its probe sees.  A lookup probes
    them hottest first.  A mask's heat counts the walks that reported
    it plus the queries its rows answered, so a mask that holds no rows
    still climbs by its walks.  The ranking is redone when an unprobed
    mask's heat passes the level that would earn it a probe, and every
    ``_RERANK_FILLS`` walks; a mask that drops out of the ranking drops
    its rows.

    Every probe is judged by the tier's :class:`_TierGate` (``gate``):
    a tier that answered fewer of the exact misses it probed than it
    passed on to walks costs more in probes and fills than it saves, so
    it resets and sleeps for ``capacity`` exact misses before it
    relearns.  A fill that takes the tier past ``capacity`` rows resets
    it: a region costs one walk to relearn, and a reset keeps eviction
    deterministic and free of per-row bookkeeping.  Capacity 0 disables
    the tier.
    """

    __slots__ = (
        "capacity", "rows", "hits", "probes", "gate", "_tables", "_heat", "_order",
        "_floor", "_fills", "_projected",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: rows held (regions, over every mask)
        self.rows = 0
        #: queries answered from a region
        self.hits = 0
        #: (mask, query) probes made
        self.probes = 0
        #: whether the tier runs; it sleeps for ``capacity`` exact misses
        self.gate = _TierGate(_REGION_WINDOW, _REGION_PAYOFF, capacity)
        self._reset()

    def _reset(self) -> None:
        #: the probed masks' row tables
        self._tables: dict[int, dict[int, Optional[TernaryEntry]]] = {}
        self._heat: dict[int, int] = {}
        #: ``_tables`` as ``(mask, table)`` pairs, hottest first
        self._order: list[tuple[int, dict[int, Optional[TernaryEntry]]]] = []
        #: the heat past which an unprobed mask would earn a probe
        self._floor = 0
        #: walks since the last ranking
        self._fills = 0
        self.gate.reset()
        #: ``(mask, care)`` -> the changed-key datas projected onto
        #: ``mask & care`` (see :func:`_intersects`); every change to the
        #: groups a fill is tested against passes through :meth:`sweep`
        #: or :meth:`clear`, which drop it
        self._projected: dict[tuple[int, int], set[int]] = {}

    def probe(self, queries: Sequence[int], answers: dict) -> list[int]:
        """Write each query a region answers into ``answers`` and return
        the rest, in order.  When the gate closes on this probe the tier
        resets and sleeps: :meth:`fill` stores nothing until it wakes."""
        rest = list(queries)
        heat = self._heat
        missing = _MISSING
        for mask, table in self._order:
            get = table.get
            left = []
            for query in rest:
                verdict = get(query & mask, missing)
                if verdict is missing:
                    left.append(query)
                else:
                    answers[query] = verdict
            self.probes += len(rest)
            found = len(rest) - len(left)
            if found:
                self.hits += found
                heat[mask] += found
            rest = left
            if not rest:
                break
        if not self.gate.judge(len(queries), len(queries) - len(rest)):
            self.clear()
        return rest

    def fill(
        self,
        queries: Sequence[int],
        masks: Sequence[int],
        verdicts: Sequence[Optional[TernaryEntry]],
        overlay: dict[int, set[int]],
    ) -> None:
        """Count each walked query's mask and store its region under a
        probed mask.  A region that intersects a changed-key group of
        ``overlay`` (the plane is behind on those keys) is not stored:
        some of its queries may have a new verdict."""
        if self.gate.asleep:
            return
        heat = self._heat
        tables = self._tables
        floor = self._floor
        get = heat.get
        rank = not heat
        for mask in masks:
            held = heat[mask] = get(mask, 0) + 1
            if held > floor and mask not in tables:
                rank = True
        if rank:
            # Before storing, so a mask that earns its probe keeps the
            # regions that earned it.
            self._rank()
        projected = self._projected
        rows = self.rows
        for query, mask, verdict in zip(queries, masks, verdicts):
            table = tables.get(mask)
            if table is None:
                continue
            region = query & mask
            if overlay and _intersects(region, mask, overlay, projected):
                continue
            if region not in table:
                rows += 1
            table[region] = verdict
        self.rows = rows
        if rows > self.capacity:
            self.clear()
            return
        self._fills += len(queries)
        if self._fills >= _RERANK_FILLS:
            self._fills = 0
            self._rank()

    def _rank(self) -> None:
        heat = self._heat
        tables = self._tables
        # A query reaches a mask's probe when every hotter mask missed,
        # so a mask pays when its heat is a large enough share of the
        # heat the hotter masks leave over.
        left = sum(heat.values())
        hottest = []
        for mask in sorted(heat, key=heat.__getitem__, reverse=True)[:_REGION_PROBES]:
            share = heat[mask]
            if share * _PROBE_PAYOFF < left:
                break
            hottest.append(mask)
            left -= share
        if len(hottest) < _REGION_PROBES:
            self._floor = left // _PROBE_PAYOFF
        else:
            self._floor = heat[hottest[-1]]
        for mask in [mask for mask in tables if mask not in hottest]:
            self.rows -= len(tables.pop(mask))
        self._order = [(mask, tables.setdefault(mask, {})) for mask in hottest]

    @property
    def asleep(self) -> bool:
        """True while the tier passes up misses — no probes, no fills,
        no rows (see :class:`_TierGate`)."""
        return self.gate.asleep > 0

    def reset_counters(self) -> None:
        """Zero ``hits`` and ``probes`` (the engine's ``reset_stats``)."""
        self.hits = self.probes = 0

    def sweep(self, groups: dict[int, set[int]]) -> int:
        """Drop every region some changed-key group intersects (see
        :func:`_intersects`); returns the rows dropped."""
        self._projected = {}
        dropped = 0
        for mask, table in self._tables.items():
            for care, datas in groups.items():
                shared = mask & care
                projected = {data & shared for data in datas}
                stale = [region for region in table if region & shared in projected]
                for region in stale:
                    del table[region]
                dropped += len(stale)
        self.rows -= dropped
        return dropped

    def clear(self) -> int:
        """Drop every region and mask; returns the rows dropped."""
        dropped = self.rows
        self.rows = 0
        self._reset()
        return dropped

    @property
    def masks(self) -> int:
        """Distinct masks ranked since the last reset."""
        return len(self._heat)


def _intersects(
    region: int,
    mask: int,
    groups: dict[int, set[int]],
    projected: dict[tuple[int, int], set[int]],
) -> bool:
    """Whether region ``(region, mask)`` and some ternary key of
    ``groups`` (:func:`group_keys` form) match a common query: the
    key's data and the region agree on every bit both care about,
    ``region & mask & care == data & mask & care``.  ``projected``
    memoizes each ``(mask, care)`` pair's projected data set."""
    for care, datas in groups.items():
        shared = mask & care
        seen = projected.get((mask, care))
        if seen is None:
            seen = projected[(mask, care)] = {data & shared for data in datas}
        if region & shared in seen:
            return True
    return False


@dataclass(frozen=True)
class UpdateReport:
    """Observability record of one ``apply_updates`` transaction.

    The cache rows a transaction evicts are counted by the next
    lookup's sweep, in the engine's ``cache_rows_invalidated``."""

    #: entries inserted
    inserted: int
    #: delete ops that removed at least one entry
    deleted: int
    #: delete ops whose key matched nothing
    missing_deletes: int
    #: wall-clock seconds spent applying the transaction
    seconds: float
    #: matcher generation after the transaction
    generation: int
    #: one-line fault description when a guarded transaction failed
    #: mid-batch (None on success; only a resilience-enabled engine
    #: absorbs the exception instead of propagating it)
    error: Optional[str] = None

    @property
    def ops(self) -> int:
        return self.inserted + self.deleted + self.missing_deletes


class _EngineInstruments:
    """Metric handles for one engine; exists only while metrics are on.

    The split keeps the disabled hot path at a single attribute-load +
    ``is None`` test (the <2 % budget in docs/observability.md):
    everything costly lives behind this object.  Latency histograms
    are *pushed* — once per batch / update / freeze, never per query —
    while every plain counter the engine already maintains is *pulled*
    into the registry by :meth:`sync` at export time.
    """

    __slots__ = (
        "registry",
        "batch_seconds",
        "batch_size",
        "query_seconds",
        "update_seconds",
        "freeze_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        histogram = registry.histogram
        self.batch_seconds = histogram(
            "engine_batch_seconds",
            "Wall-clock seconds per lookup_batch call.",
        )
        self.batch_size = histogram(
            "engine_batch_size",
            "Queries per lookup_batch call.",
            buckets=geometric_buckets(1, 2.0, 16),
        )
        self.query_seconds = histogram(
            "engine_query_seconds",
            "Per-query latency, batch-amortised (mean over each batch, "
            "weighted by batch size).",
        )
        self.update_seconds = histogram(
            "engine_update_seconds",
            "Wall-clock seconds per apply_updates transaction.",
        )
        self.freeze_seconds = histogram(
            "engine_freeze_seconds",
            "Wall-clock seconds per frozen-plane (re)compile.",
        )

    def sync(self, engine: "ClassificationEngine") -> None:
        """Mirror the engine's plain counters into the registry.

        Runs as a registry collector at export time, so the lookup
        path never touches a metric object for these.
        """
        registry = self.registry
        stats = engine.stats
        counter = registry.counter
        counter(
            "engine_lookups_total", "Queries answered, by cache outcome.",
            labels={"result": "hit"},
        ).set_total(stats.cache_hits)
        counter(
            "engine_lookups_total", "Queries answered, by cache outcome.",
            labels={"result": "miss"},
        ).set_total(stats.cache_misses)
        counter(
            "engine_cache_evictions_total", "Flow-cache rows evicted (LRU + invalidation)."
        ).set_total(stats.cache_evictions)
        counter(
            "engine_cache_bypassed_total",
            "Queries whose exact flow-cache probe moved behind the region "
            "tier while the cache's gate was closed (also counted as hits "
            "or misses in engine_lookups_total).",
        ).set_total(engine.cache_bypassed)
        counter(
            "engine_batches_total", "lookup_batch calls served."
        ).set_total(engine.batches)
        counter(
            "engine_updates_applied_total", "Matcher entries inserted or deleted."
        ).set_total(engine.updates_applied)
        counter(
            "engine_update_batches_total", "apply_updates transactions."
        ).set_total(engine.update_batches)
        counter(
            "engine_cache_invalidated_rows_total",
            "Cache rows dropped because a policy change could re-verdict them.",
        ).set_total(engine.cache_rows_invalidated)
        counter(
            "engine_invalidations_total",
            "Cache invalidations, by strategy: targeted changed-key sweeps "
            "and lazy whole-cache clears.",
            labels={"strategy": "targeted"},
        ).set_total(engine.targeted_invalidations)
        counter(
            "engine_invalidations_total",
            "Cache invalidations, by strategy: targeted changed-key sweeps "
            "and lazy whole-cache clears.",
            labels={"strategy": "lazy"},
        ).set_total(engine.lazy_invalidations)
        counter(
            "engine_policy_swaps_total", "Atomic replace_matcher calls."
        ).set_total(engine.policy_swaps)
        counter(
            "engine_freezes_total", "Frozen-plane compiles."
        ).set_total(engine.freezes)
        registry.gauge(
            "engine_cache_entries", "Flow-cache rows currently held."
        ).set(len(engine.cache))
        registry.gauge(
            "engine_cache_capacity", "Flow-cache capacity (rows)."
        ).set(engine.cache.capacity)
        registry.gauge(
            "engine_generation", "Matcher content generation."
        ).set(engine._matcher.generation)
        registry.gauge(
            "engine_frozen_plane_active", "1 while lookups are served from the frozen plane."
        ).set(1 if engine._plane is not None else 0)
        counter(
            "engine_plane_walks_total",
            "Distinct misses the in-process frozen plane walked.",
        ).set_total(engine.plane_walks)
        regions = engine.regions
        counter(
            "engine_region_hits_total",
            "Exact-cache misses answered by the decision-region tier.",
        ).set_total(regions.hits)
        registry.gauge(
            "engine_region_rows", "Decision regions currently held."
        ).set(regions.rows)
        registry.gauge(
            "engine_region_masks",
            "Distinct examined-bit masks ranked since the region tier's last reset.",
        ).set(regions.masks)
        registry.gauge(
            "engine_plane_overlay_keys",
            "Changed keys the frozen plane is behind by (served through "
            "the retained Palmtrie_k until the next refreeze).",
        ).set(engine.plane_overlay_keys)
        plane = engine._plane
        if plane is not None:
            counter(
                "frozen_batch_node_visits_total",
                "(node, query) pairs processed by frozen-plane batch walks.",
            ).set_total(plane.batch_walk_node_visits)
            counter(
                "frozen_freeze_seconds_total",
                "Seconds spent in the frozen-plane freeze compiler.",
            ).set_total(plane.freeze_seconds_total)
        registry.gauge(
            "engine_epoch", "Policy epoch (bumped on every replace_matcher)."
        ).set(engine.epoch)
        counter(
            "engine_checkpoint_recoveries_total", "Startup recoveries, by path.",
            labels={"path": "restored"},
        ).set_total(engine.checkpoint_restores)
        counter(
            "engine_checkpoint_recoveries_total", "Startup recoveries, by path.",
            labels={"path": "rebuilt"},
        ).set_total(engine.checkpoint_rebuilds)
        if engine._pool is not None:
            engine._pool.collect_metrics(registry)
        guard = engine._guard
        health = engine.health
        for state in ("ok", "degraded", "quarantined"):
            registry.gauge(
                "engine_health", "Engine health, one-hot by state.",
                labels={"state": state},
            ).set(1 if health == state else 0)
        if guard is None:
            return
        breaker = guard.breaker
        for site, count in sorted(guard.faults.items()):
            counter(
                "engine_guard_faults_total", "Faults absorbed by the guard, by site.",
                labels={"site": site},
            ).set_total(count)
        counter(
            "engine_degraded_lookups_total",
            "Misses resolved by the Palmtrie_k rung while the frozen "
            "plane was unavailable.",
        ).set_total(guard.degraded_lookups)
        counter(
            "engine_reference_lookups_total",
            "Misses resolved by the basic-Palmtrie reference rung.",
        ).set_total(guard.reference_lookups)
        counter(
            "engine_reference_rebuilds_total",
            "Basic-Palmtrie reference rebuilds from the matcher's entries.",
        ).set_total(guard.reference_rebuilds)
        counter(
            "engine_reference_rebuild_seconds_total",
            "Seconds spent rebuilding the basic-Palmtrie reference.",
        ).set_total(guard.reference_rebuild_seconds)
        counter(
            "engine_shadow_checks_total", "Answers cross-checked against the reference."
        ).set_total(guard.shadow_checks)
        counter(
            "engine_shadow_mismatches_total",
            "Shadow checks that caught the fast path lying.",
        ).set_total(guard.shadow_mismatches)
        counter(
            "engine_breaker_opens_total", "Circuit-breaker open transitions."
        ).set_total(breaker.opens)
        counter(
            "engine_breaker_probes_total", "Half-open probes admitted."
        ).set_total(breaker.probes)
        counter(
            "engine_breaker_recoveries_total", "Breaker closes after a successful probe."
        ).set_total(breaker.recoveries)
        for state in ("closed", "open", "half-open"):
            registry.gauge(
                "engine_breaker_state", "Breaker state, one-hot.",
                labels={"state": state},
            ).set(1 if breaker.state.value == state else 0)


class ClassificationEngine:
    """Serving layer: flow cache + batched lookups over a Palmtrie_k
    and its frozen plane.

    Construction takes the matcher plus one
    :class:`~repro.config.EngineConfig` holding every serving knob::

        engine = ClassificationEngine(matcher, EngineConfig(cache_size=1024))

    With ``config.shards > 0`` the engine always serves from the
    frozen plane and resolves its cache misses in a pool of that many
    worker processes (``engine.pool``, a
    :class:`~repro.shard.ShardedEngine`); its cache then holds
    ``cache_size × shards`` rows and a guard rail is always attached,
    since a dead worker's misses degrade to the parent's plane.  Call
    :meth:`close` (or use the engine as a context manager) to stop the
    workers.

    ``cache_size`` is the LRU capacity in distinct binary queries
    (0 disables caching; batching still applies).  The engine holds one
    form: the retained Palmtrie_k (the paper's §3.6 source trie) and a
    frozen plane compiled from it.  ``matcher`` is that Palmtrie_k (a
    :class:`~repro.core.multibit.MultibitPalmtrie`, what
    :func:`~repro.core.table.build_matcher` builds) or a
    :class:`~repro.core.frozen.FrozenMatcher` (restored from a
    checkpoint or a ``.plmf`` file), which is installed as the plane;
    its Palmtrie_k is rebuilt from its entries on the first update, and
    only then.  Anything else is a :class:`TypeError`.

    The engine compiles the Palmtrie_k into its frozen
    struct-of-arrays plane (:func:`repro.core.freeze`) when the policy
    is installed (construction or :meth:`replace_matcher`), so the first
    burst does not pay the compile, and serves lookups from the plane;
    after an update compacts the overlay, the next miss refreezes.  The
    Palmtrie_k itself answers only the misses the plane's update overlay
    matches and, under a guard, as the middle rung while a freeze fails
    or the breaker is open.
    ``insert``/``delete`` go to the Palmtrie_k; the plane keeps serving
    behind an overlay of the changed keys until the overlay has cost one
    refreeze, so updates stay cheap and bursts stay fast.

    Every update evicts exactly the cached rows its changed keys match,
    at the next lookup: that lookup notices the matcher's
    ``generation`` moved and sweeps the keys of every update since in
    one pass.  The same generation check also catches *direct* matcher
    mutations (``engine.matcher.insert(...)``), whose keys the engine
    does not know: the whole cache is cleared and the plane re-frozen,
    so stale cached verdicts or a stale frozen plane are never served.
    """

    def __init__(
        self,
        matcher: ServedMatcher,
        config: Optional[EngineConfig] = None,
    ) -> None:
        config = config if config is not None else DEFAULT_CONFIG
        #: the EngineConfig this engine was constructed from
        self.config = config
        cache_size = config.cache_size
        metrics = config.metrics
        resilience = config.resilience
        self.cache = FlowCache(cache_size * max(1, config.shards))
        #: decision-region tier behind the cache (in-process planes only)
        self.regions = RegionCache(4 * self.cache.capacity)
        #: whether ``lookup_batch`` probes the exact cache ahead of the
        #: region tier; it may close only while the region tier stands
        #: behind the cache, and while it is closed the cache is probed
        #: behind that tier instead
        self._exact_gate = _TierGate(_EXACT_WINDOW, _EXACT_PAYOFF, 4 * self.cache.capacity)
        #: packets whose exact probe moved behind the region tier (the
        #: exact gate was closed)
        self.cache_bypassed = 0
        #: distinct misses the in-process frozen plane walked
        self.plane_walks = 0
        self._install(matcher)
        #: matcher generation the cache contents were filled under
        self._seen_generation = self._matcher.generation
        #: changed-key groups (see group_keys) of the transactions since
        #: the last lookup, swept from the cache at the next one
        self._pending: dict[int, set[int]] = {}
        #: matcher generation the engine has accounted for: the cache
        #: plus the pending groups are coherent with it
        self._pending_generation = self._seen_generation
        #: bumped on every policy swap; stamped alongside the generation
        #: so a replacement matcher with a coincidentally-equal
        #: generation can never revive stale cached state
        self.epoch = 0
        self._guard: Optional[Any] = None
        if resilience or config.shards:
            from .resilience.guard import GuardRail

            self._guard = resilience if isinstance(resilience, GuardRail) else GuardRail()
        #: lazily built basic-Palmtrie reference (the degradation floor)
        self._reference: Optional[Any] = None
        self._reference_stamp: Optional[tuple] = None
        self.checkpoint_restores = 0
        self.checkpoint_rebuilds = 0
        self.last_recovery: Optional[Any] = None
        #: last-known-good checkpoint location/epoch (mark_last_good)
        self.last_good_path: Optional[Any] = config.last_good_path
        self.last_good_epoch: Optional[int] = None
        self._last_good_blob: Optional[bytes] = None
        self.freezes = 0
        self.stats = LookupStats()
        self.batches = 0
        self.batched_queries = 0
        self.elapsed_seconds = 0.0
        self.updates_applied = 0
        self.update_batches = 0
        self.cache_rows_invalidated = 0
        self.targeted_invalidations = 0
        self.lazy_invalidations = 0
        self.policy_swaps = 0
        self.last_update: Optional[UpdateReport] = None
        self.freeze_seconds_total = 0.0
        self._instruments: Optional[_EngineInstruments] = None
        # `metrics is not False/None`, not truthiness: an empty shared
        # MetricsRegistry has len() == 0 and would read as "off".
        if metrics is not None and metrics is not False:
            self.enable_metrics(metrics if isinstance(metrics, MetricsRegistry) else None)
        # Freeze at install, so the first burst does not pay the compile.
        self._frozen_plane()
        self._pool: Optional[Any] = None
        if config.shards:
            from .shard import ShardedEngine

            self._pool = ShardedEngine(self)

    # -- metrics ---------------------------------------------------------

    def enable_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Attach a metrics registry (idempotent); returns it.

        With no argument a fresh per-engine registry is created; pass
        one to share a registry across engines or apps.  Counters the
        engine already keeps are mirrored in at export time by a
        collector, so enabling metrics leaves the scalar ``lookup``
        path untouched and adds one histogram observation per
        ``lookup_batch`` / ``apply_updates`` / freeze.
        """
        if self._instruments is not None:
            return self._instruments.registry
        if registry is None:
            registry = MetricsRegistry()
        self._instruments = _EngineInstruments(registry)
        # The registry holds this bound method weakly, so a shared
        # registry does not keep the engine (and its plane) alive.
        registry.add_collector(self._sync_metrics)
        return registry

    def _sync_metrics(self) -> None:
        """Registry collector: mirror the engine's counters at export."""
        self._instruments.sync(self)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The attached registry, or None while metrics are disabled."""
        instruments = self._instruments
        return None if instruments is None else instruments.registry

    @property
    def name(self) -> str:
        return f"engine({self._matcher.name})"

    @property
    def matcher(self) -> Any:
        """The policy updates go to: the Palmtrie_k.  An installed
        plane's Palmtrie_k is rebuilt from its entries on first access.
        Assigning routes through :meth:`replace_matcher`, so
        ``engine.matcher = rebuilt`` gets the full swap (plane dropped,
        cache cleared, epoch bumped) even when the new matcher starts at
        the same generation value."""
        self._hydrate()
        return self._matcher

    @matcher.setter
    def matcher(self, matcher: ServedMatcher) -> None:
        self.replace_matcher(matcher)

    # -- the served form ---------------------------------------------------

    def _install(self, matcher: Any) -> None:
        """Take ``matcher`` as the served policy (see the class
        docstring); callers re-seed the generation stamps."""
        if isinstance(matcher, FrozenMatcher):
            source, plane = None, matcher
        elif isinstance(matcher, MultibitPalmtrie):
            source, plane = matcher, None
        else:
            raise TypeError(
                "the engine serves a MultibitPalmtrie or a FrozenMatcher, "
                f"got {type(matcher).__name__}"
            )
        #: the policy updates go to (an installed plane until its
        #: Palmtrie_k is rebuilt)
        self._matcher = matcher
        #: the retained Palmtrie_k: the plane is frozen from it, and it
        #: answers the misses the overlay matches and the guard's middle
        #: rung (None while an installed plane has not needed one)
        self._source: Optional[MultibitPalmtrie] = source
        self._plane: Optional[FrozenMatcher] = plane
        #: matcher generation the frozen plane plus its overlay serve
        self._plane_generation = None if plane is None else matcher.generation
        #: True while the plane reports examined-bit masks
        self._plane_masks = plane is not None and _reports_masks(plane)
        #: changed-key groups the frozen plane is behind by; misses they
        #: match resolve through the retained Palmtrie_k
        self._overlay: dict[int, set[int]] = {}
        #: seconds the overlay has cost (group tests plus source
        #: lookups) since the plane was frozen
        self._overlay_seconds = 0.0
        self.regions.clear()

    def _hydrate(self) -> MultibitPalmtrie:
        """The retained Palmtrie_k.  An installed plane's is rebuilt
        from its entries here — on the first update, direct mutation or
        plane fault, and only then — and carries its generation on."""
        source = self._source
        if source is None:
            plane = self._matcher
            start = time.perf_counter()
            source = plane.rebuild_source()
            # A loaded plane carries no freeze time, and the overlay's
            # ski rental pays up to one refreeze: a refreeze walks the
            # trie this rebuild built, so the rebuild's time bounds it.
            plane.last_freeze_seconds = max(
                plane.last_freeze_seconds, time.perf_counter() - start
            )
            source.generation = plane.generation
            self._matcher = self._source = source
        return source

    # -- resilience -------------------------------------------------------

    @property
    def resilience(self) -> Optional[Any]:
        """The attached :class:`~repro.resilience.guard.GuardRail`, or
        None when the engine runs unguarded."""
        return self._guard

    @property
    def pool(self) -> Optional[Any]:
        """The :class:`~repro.shard.ShardedEngine` resolving this
        engine's misses, or None when it serves in-process."""
        return self._pool

    @property
    def health(self) -> str:
        """``ok`` / ``degraded`` / ``quarantined`` (always ``ok`` when
        no guard is attached — an unguarded engine propagates faults
        instead of degrading).  A shard pool with a worker down reads
        ``degraded`` unless the guard already says ``quarantined``."""
        guard = self._guard
        health = "ok" if guard is None else guard.health
        pool = self._pool
        if health == "ok" and pool is not None and pool.shards_alive < self.config.shards:
            return "degraded"
        return health

    def _reference_matcher(self) -> Any:
        """The reference rung: the paper's basic Palmtrie (Algorithm 1),
        rebuilt lazily from the matcher's own entries whenever the
        (epoch, generation) stamp moves past what engine updates patched
        in place (a policy swap, a mid-transaction fault or a direct
        matcher mutation)."""
        matcher = self._matcher
        stamp = (self.epoch, matcher.generation)
        if self._reference is not None and self._reference_stamp == stamp:
            return self._reference
        from .core.basic import BasicPalmtrie

        started = time.perf_counter()
        reference = BasicPalmtrie(matcher.key_length)
        for entry in matcher.entries():
            reference.insert(entry)
        self._reference = reference
        self._reference_stamp = stamp
        guard = self._guard
        if guard is not None:
            guard.reference_rebuilds += 1
            guard.reference_rebuild_seconds += time.perf_counter() - started
        return reference

    # -- the frozen lookup plane ----------------------------------------

    def _lookup_target(self) -> Any:
        """The object cache misses are resolved against: the frozen
        plane — or the shard pool, serving that same plane, when there
        is one.  With a guard attached, a quarantined engine resolves
        against the basic-Palmtrie reference, and an open breaker (which
        skips re-freeze attempts until its backoff elapses) or a failing
        freeze degrades to the Palmtrie_k instead of raising."""
        guard = self._guard
        if guard is not None and guard.quarantined:
            return self._reference_matcher()
        plane = self._frozen_plane()
        if plane is None:
            return self._source
        pool = self._pool
        if pool is None:
            return plane
        pool.serve(plane)
        return pool

    def _frozen_plane(self) -> Optional[FrozenMatcher]:
        """The frozen plane, frozen first if there is none.  None while
        an open breaker skips the freeze or a guarded freeze fails: the
        Palmtrie_k rung serves then."""
        plane = self._plane
        if plane is None:
            guard = self._guard
            if guard is not None and not guard.breaker.allow():
                return None
            plane = self._freeze()
        return plane

    def _freeze(self) -> Optional[FrozenMatcher]:
        """Freeze the Palmtrie_k into the serving plane.  Under a guard
        a failing freeze is recorded and returns None (the caller serves
        the Palmtrie_k rung)."""
        from .core.frozen import freeze

        start = time.perf_counter()
        try:
            plane = freeze(self._source)
        except Exception as exc:
            guard = self._guard
            if guard is None:
                raise
            # The re-freeze itself failed (e.g. a corrupt source):
            # count it against the breaker and serve the Palmtrie_k.
            guard.record_fault(getattr(exc, "site", None) or "refreeze", exc)
            guard.refreeze_faults += 1
            guard.breaker.record_failure()
            return None
        elapsed = time.perf_counter() - start
        self._plane = plane
        self.freezes += 1
        self.freeze_seconds_total += elapsed
        self._plane_generation = self._matcher.generation
        self._plane_masks = _reports_masks(plane)
        self._overlay = {}
        self._overlay_seconds = 0.0
        instruments = self._instruments
        if instruments is not None:
            instruments.freeze_seconds.observe(elapsed)
        return plane

    # -- generation coherence -------------------------------------------

    def _drop_plane(self) -> None:
        """Forget the frozen plane, its overlay and the regions walked
        on it; the next miss refreezes (lazily, through
        :meth:`_lookup_target`)."""
        self._hydrate()  # an installed plane is the policy's only copy
        self._plane = None
        self._overlay = {}
        self._overlay_seconds = 0.0
        self.regions.clear()

    def _clear_cache(self) -> None:
        """Drop every cached row and region (the whole-cache, ``lazy``
        strategy)."""
        dropped = self.cache.clear()
        self.stats.cache_evictions += dropped
        self.cache_rows_invalidated += dropped
        self.lazy_invalidations += 1
        self.regions.clear()
        self._exact_gate.reset()

    def _sweep_cache(self, groups: dict[int, set[int]]) -> None:
        """Evict the rows the changed-key ``groups`` match (the
        ``targeted`` strategy), and the regions they intersect."""
        dropped = self.cache.sweep(groups)
        self.stats.cache_evictions += dropped
        self.cache_rows_invalidated += dropped
        self.targeted_invalidations += 1
        self.regions.sweep(groups)

    def _sync(self) -> None:
        """O(1) staleness check at the top of every lookup path.

        If the matcher's generation moved past the engine's stamp, pay
        the deferred work in one step: sweep the pending changed-key
        groups from the cache when the engine made every change since
        (its own transactions), and otherwise — a caller mutated the
        matcher directly — clear the cache and drop a plane that no
        longer serves the current generation.
        """
        generation = self._matcher.generation
        if generation == self._seen_generation:
            return
        pending, self._pending = self._pending, {}
        if generation == self._pending_generation and _worth_testing(pending):
            self._sweep_cache(pending)
        else:
            # Unknown keys (a direct mutation), or keys not worth
            # testing row by row: clear.
            self._clear_cache()
        if self._plane is not None and self._plane_generation != generation:
            self._drop_plane()
        self._seen_generation = self._pending_generation = generation

    def _before_update(self) -> int:
        """The matcher generation a transaction starts from, once the
        Palmtrie_k it updates exists.  A generation the engine has not
        accounted for means the matcher was mutated directly: sync
        first, so that change takes the clear-and-refreeze path instead
        of hiding behind this transaction's keys."""
        self._hydrate()
        generation = self._matcher.generation
        if generation != self._pending_generation:
            self._sync()
        return generation

    def _note_update(self, ops: Sequence[tuple[str, Any]], before: int) -> None:
        """Bookkeeping after matcher content changed through the engine.

        Every derived layer follows the transaction's changed keys
        instead of rebuilding, since a query's verdict can change only
        if one of them matches it:

        * the basic-Palmtrie reference, when it was current, applies the
          same ops in place;
        * the frozen plane keeps serving, with the keys added to its
          overlay (misses they match resolve through the retained
          Palmtrie_k); an all-wildcard key or an overlay past
          ``_MAX_KEY_GROUPS`` masks drops it for the lazy refreeze;
        * the keys join the pending groups the next lookup's
          :meth:`_sync` sweeps from the cache; the generation stamp
          stays stale until then.
        """
        generation = self._matcher.generation
        groups = group_keys(
            payload.key if kind == "insert" else payload for kind, payload in ops
        )
        reference = self._reference
        if reference is not None and self._reference_stamp == (self.epoch, before):
            for kind, payload in ops:
                if kind == "insert":
                    reference.insert(payload)
                else:
                    reference.delete(payload)
            self._reference_stamp = (self.epoch, generation)
        else:
            self._reference = None  # rebuilt from entries() on next use
        if self._plane is not None:
            self._plane_generation = generation
            if not _worth_testing(_merge_groups(self._overlay, groups)):
                self._drop_plane()  # re-freeze lazily on the next miss
        _merge_groups(self._pending, groups)
        self._pending_generation = generation

    # -- lookups --------------------------------------------------------

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        """One query through the flow cache, then the matcher."""
        self._sync()
        stats = self.stats
        stats.lookups += 1
        guard = self._guard
        cached = self.cache.get(query)
        if cached is not _MISSING:
            stats.cache_hits += 1
            if guard is not None and guard.shadow_roll():
                return self._shadow_fix(query, cached)
            return cached
        stats.cache_misses += 1
        if guard is None:
            target = self._lookup_target()
            if self._overlay:
                result = self._resolve(target, (query,))[0]
            else:
                result = target.lookup(query)
        else:
            result = self._guarded_resolve([query])[0]
            if guard.shadow_roll():
                result = self._shadow_fix(query, result)
        stats.cache_evictions += self.cache.put(query, result)
        return result

    def lookup_value(self, query: int, default: Any = None) -> Any:
        entry = self.lookup(query)
        return default if entry is None else entry.value

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """Resolve a burst: cache first, one batched matcher call for
        the rest.  Results come back in query order.

        While the exact cache's gate is closed (see ``_EXACT_PAYOFF``)
        its probe moves behind the region tier: a burst's distinct
        queries go to the miss path, where the cache is probed only
        with those no region answered and filled only with the verdicts
        the walk and the overlay's Palmtrie_k lookups produce (see
        :meth:`_resolve`).  The burst's packets count as
        ``cache_bypassed``; those the cache answered count as hits and
        the rest as misses."""
        start = time.perf_counter()
        self._sync()
        stats = self.stats
        guard = self._guard
        if guard is not None:
            injector = guard.injector
            if injector is not None:
                # Engine-level chaos sites: poison live cache rows and
                # stall the burst (the frozen_walk site fires inside
                # the plane itself).
                if injector.armed("cache"):
                    injector.poison_cache(self.cache, regions=self.regions)
                if injector.armed("stall"):
                    injector.check("stall")
        n = len(queries)
        stats.lookups += n
        # The exact cache's gate may close only while an awake region
        # tier answers its misses in process: anywhere else a miss
        # costs a full walk, and the cache always pays.  A closed gate
        # moves the exact probe behind the region tier.
        regions = self.regions
        behind = (
            not regions.gate.asleep
            and self._plane is not None
            and self._pool is None
            and self._plane_masks
            and regions.capacity
            and (guard is None or not guard.quarantined)
        )
        gate = self._exact_gate
        if not behind or gate.awake(n):
            results: list[Optional[TernaryEntry]] = [None] * n
            # Cache hits land in results; misses come back deduplicated.
            hits, miss_positions = self.cache.probe(queries, results)
            stats.cache_hits += hits
            stats.cache_misses += n - hits
            if behind:
                gate.judge(n, hits)
            if miss_positions:
                unique = list(miss_positions)
                resolved = self._resolve_misses(unique)
                stats.cache_evictions += self.cache.fill(unique, resolved)
                for positions, result in zip(miss_positions.values(), resolved):
                    for index in positions:
                        results[index] = result
        else:
            self.cache_bypassed += n
            unique = list(dict.fromkeys(queries))
            held: list[int] = []
            results = self._resolve_misses(unique, held) if unique else []
            if len(unique) == n:
                hits = len(held)
            else:
                answers = dict(zip(unique, results))
                results = [answers[query] for query in queries]
                hits = sum(map(queries.count, held))
            stats.cache_hits += hits
            stats.cache_misses += n - hits
        if guard is not None and guard.shadow_sample > 0.0:
            self._shadow_pass(queries, results)
        seconds = time.perf_counter() - start
        self.batches += 1
        self.batched_queries += n
        self.elapsed_seconds += seconds
        instruments = self._instruments
        if instruments is not None and n:
            # One bisect each per batch; the per-query latency series
            # is the batch mean weighted by the batch size.
            instruments.batch_seconds.observe(seconds)
            instruments.batch_size.observe(n)
            instruments.query_seconds.observe(seconds / n, n)
        return results

    # -- miss resolution --------------------------------------------------

    def _resolve_misses(
        self, unique: Sequence[int], held: Optional[list[int]] = None
    ) -> list[Optional[TernaryEntry]]:
        """The verdicts of a burst's distinct exact-cache misses, or,
        with ``held``, of a closed-gate burst's distinct queries (see
        :meth:`_resolve`)."""
        if self._guard is None:
            return self._resolve(self._lookup_target(), unique, held)
        return self._guarded_resolve(unique, held)

    def _resolve(
        self, target: Any, unique: Sequence[int], held: Optional[list[int]] = None
    ) -> list[Optional[TernaryEntry]]:
        """Resolve distinct misses against ``target`` — the one miss
        path of the scalar lookup, the batch lookup and the guard's
        frozen rung.

        When ``target`` is the in-process frozen plane, the region tier
        answers first; the plane walks the rest and reports the bits
        each walk examined, and the tier keeps those regions.  While the
        plane is behind a changed-key overlay, the misses an overlay
        group matches resolve through the retained Palmtrie_k the plane
        was compiled from (so they come back as the same entry objects)
        and are not kept as regions; every other verdict is the same
        under the old and the new rules, and ``target`` — the plane, or
        the shard pool serving it — answers it.

        With ``held`` (a burst whose exact gate is closed), the exact
        cache is probed behind the region tier: the misses no region
        answered look it up before the overlay split, the queries it
        answers are appended to ``held``, and the walk's and the
        overlay's verdicts fill it.  What a region answered never fills
        it: on a scan those are one-off queries that would evict the
        hot flows."""
        walking = target is self._plane
        regions = self.regions
        if not (
            walking and self._plane_masks and regions.capacity and regions.gate.awake(len(unique))
        ):
            regions = None
        overlay = self._overlay
        if regions is None and not overlay:
            if walking:
                self.plane_walks += len(unique)
            return target.lookup_batch(unique)
        answers: dict[int, Optional[TernaryEntry]] = {}
        rest = unique if regions is None else regions.probe(unique, answers)
        cached: dict[int, Optional[TernaryEntry]] = {}
        if held is not None and rest:
            rest = self.cache.answer(rest, cached)
            answers.update(cached)
        behind: list[int] = []
        if overlay:
            clock = time.perf_counter
            start = clock()
            behind = _matching(rest, overlay)
            if behind:
                fresh = set(behind)
                rest = [query for query in rest if query not in fresh]
                lookup = self._source.lookup
                answers.update([(query, lookup(query)) for query in behind])
            # Ski rental: keep paying the overlay until it has cost as
            # much as one refreeze, then compact (the next miss refreezes).
            self._overlay_seconds += clock() - start
        verdicts: list[Optional[TernaryEntry]] = []
        if rest:
            if walking:
                self.plane_walks += len(rest)
            if regions is None:
                verdicts = target.lookup_batch(rest)
            else:
                masks: list[int] = []
                verdicts = target.lookup_batch(rest, masks=masks)
                # An empty plane reports no masks.
                if len(masks) == len(rest):
                    regions.fill(rest, masks, verdicts, overlay)
        if held is not None:
            held.extend(cached)
            if rest:
                self.stats.cache_evictions += self.cache.fill(rest, verdicts)
            if behind:
                self.stats.cache_evictions += self.cache.fill(
                    behind, [answers[query] for query in behind]
                )
        if overlay and self._overlay_seconds >= self._plane.last_freeze_seconds:
            self._drop_plane()
        if not answers:
            return verdicts  # every miss was walked, in order
        answers.update(zip(rest, verdicts))
        return [answers[query] for query in unique]

    # -- guarded resolution (the degradation ladder) ---------------------

    def _guarded_resolve(
        self, unique: Sequence[int], held: Optional[list[int]] = None
    ) -> list[Optional[TernaryEntry]]:
        """Resolve misses down the ladder: frozen plane → Palmtrie_k →
        basic-Palmtrie reference.  Each rung's fault is recorded
        on the guard and service continues one rung down; only a fault
        on the reference itself propagates.  ``held`` reaches the plane
        rung only (see :meth:`_resolve`): the lower rungs answer every
        query of ``unique`` and fill no cache row."""
        guard = self._guard
        n = len(unique)
        if guard.quarantined:
            guard.reference_lookups += n
            guard.last_plane = "reference"
            guard.serving_fallback = True
            return self._reference_matcher().lookup_batch(unique)
        target = self._lookup_target()
        if self._plane is not None:  # target is the plane, or the pool serving it
            try:
                resolved = self._resolve(target, unique, held)
            except Exception as exc:
                guard.record_fault(getattr(exc, "site", None) or "frozen_walk", exc)
                guard.breaker.record_failure()
                # Drop the faulty plane; the breaker paces re-freezes.
                self._drop_plane()
            else:
                guard.breaker.record_success()
                guard.last_plane = "frozen"
                guard.serving_fallback = False
                return resolved
        try:
            resolved = self._source.lookup_batch(unique)
        except Exception as exc:
            guard.record_fault(getattr(exc, "site", None) or "matcher", exc)
        else:
            guard.degraded_lookups += n
            guard.last_plane = "matcher"
            guard.serving_fallback = True
            return resolved
        guard.reference_lookups += n
        guard.last_plane = "reference"
        guard.serving_fallback = True
        return self._reference_matcher().lookup_batch(unique)

    def _shadow_fix(self, query: int, result: Optional[TernaryEntry]) -> Optional[TernaryEntry]:
        """Cross-check one served answer against the reference; on
        disagreement serve the truth, repair the cache row, and
        quarantine (a lying fast path cannot be trusted twice)."""
        guard = self._guard
        guard.shadow_checks += 1
        expected = self._reference_matcher().lookup(query)
        if guard.answers_agree(result, expected):
            return result
        guard.shadow_mismatches += 1
        guard.quarantine(
            f"query {query:#x}: served "
            f"{'no match' if result is None else f'priority {result.priority}'}, "
            f"reference says "
            f"{'no match' if expected is None else f'priority {expected.priority}'}"
        )
        self.cache.put(query, expected)
        # The region that served the lie may answer a whole range of
        # queries; nothing walked before the quarantine is trusted.
        self.regions.clear()
        return expected

    def _shadow_pass(
        self, queries: Sequence[int], results: list[Optional[TernaryEntry]]
    ) -> None:
        """Sampled shadow verification over a whole batch — cache hits
        included, because a poisoned cache row only ever surfaces as a
        hit.  Mismatching positions are corrected in place."""
        guard = self._guard
        checked: dict[int, Optional[TernaryEntry]] = {}
        for index in guard.shadow_positions(len(queries)):
            query = queries[index]
            if query in checked:
                # Same query sampled twice in one burst: reuse the
                # verified answer (fixes every position of a repaired
                # row, not just the first).
                guard.shadow_checks += 1
                results[index] = checked[query]
                continue
            fixed = self._shadow_fix(query, results[index])
            checked[query] = fixed
            results[index] = fixed

    # -- updates (cache-invalidating proxies) ---------------------------

    def insert(self, entry: TernaryEntry) -> None:
        """Insert through to the matcher: a one-op :meth:`apply_updates`
        transaction."""
        self.apply_updates((("insert", entry),))

    def delete(self, key: TernaryKey) -> bool:
        """Delete through to the matcher (a one-op transaction); True
        when an entry was removed."""
        return self.apply_updates((("delete", key),)).deleted > 0

    @staticmethod
    def _normalize_op(op: Any) -> tuple[str, Any]:
        """Coerce one update op to ``("insert", entry)`` / ``("delete", key)``.

        Accepted shapes: a bare :class:`TernaryEntry` (insert), a bare
        :class:`TernaryKey` (delete), or an explicit ``(kind, payload)``
        pair — where a delete payload may be an entry (its key is used).
        """
        if isinstance(op, TernaryEntry):
            return ("insert", op)
        if isinstance(op, TernaryKey):
            return ("delete", op)
        try:
            kind, payload = op
        except (TypeError, ValueError):
            raise TypeError(f"not an update op: {op!r}") from None
        if kind == "insert":
            if not isinstance(payload, TernaryEntry):
                raise TypeError(f"insert payload must be a TernaryEntry, got {payload!r}")
            return ("insert", payload)
        if kind == "delete":
            if isinstance(payload, TernaryEntry):
                payload = payload.key
            if not isinstance(payload, TernaryKey):
                raise TypeError(f"delete payload must be a TernaryKey, got {payload!r}")
            return ("delete", payload)
        raise ValueError(f"unknown update op kind {kind!r}")

    def apply_updates(self, ops: Iterable[Any]) -> UpdateReport:
        """Apply many inserts/deletes as one transaction.

        Where N one-op transactions pay N bookkeeping passes, this
        applies the whole batch with one pass — through the matcher's
        ``bulk_update`` — and one changed-key set, which drives the
        reference's in-place update and the frozen plane's overlay, and
        joins the keys the next lookup sweeps from the cache (see
        :meth:`_note_update`).

        ``ops`` accepts ``("insert", entry)`` / ``("delete", key)``
        pairs, bare entries (inserts), and bare keys (deletes).
        """
        start = time.perf_counter()
        normalized = [self._normalize_op(op) for op in ops]
        before = self._before_update()
        matcher = self._matcher
        guard = self._guard
        ops_in: Iterable[tuple[str, Any]] = normalized
        if guard is not None and guard.injector is not None and guard.injector.armed("update"):
            ops_in = self._ops_with_faults(normalized, guard.injector)
        error: Optional[str] = None
        try:
            inserted, deleted, missing = matcher.bulk_update(ops_in)
        except Exception as exc:
            if guard is None:
                raise
            # Mid-transaction fault: a prefix of the ops may have
            # applied (the Palmtrie_k bumps its generation once per op),
            # and the engine cannot tell which.  Record the fault and
            # force every derived layer to rebuild from actual content.
            guard.record_fault(getattr(exc, "site", None) or "update", exc)
            error = f"{type(exc).__name__}: {exc}"
            self._recover_from_update_fault(matcher)
            inserted = deleted = missing = 0
        if inserted or deleted:
            self.updates_applied += inserted + deleted
            # A missed delete cannot have changed any verdict, but
            # bulk_update does not say which deletes missed; sweeping
            # its key anyway is harmless (over-eviction, never stale).
            self._note_update(normalized, before)
        self.update_batches += 1
        report = UpdateReport(
            inserted=inserted,
            deleted=deleted,
            missing_deletes=missing,
            seconds=time.perf_counter() - start,
            generation=matcher.generation,
            error=error,
        )
        self.last_update = report
        instruments = self._instruments
        if instruments is not None:
            instruments.update_seconds.observe(report.seconds)
        return report

    @staticmethod
    def _ops_with_faults(
        normalized: Sequence[tuple[str, Any]], injector: Any
    ) -> Iterable[tuple[str, Any]]:
        """Thread the update fault site through the op stream, so an
        armed injector raises *mid-transaction* — inside the matcher's
        own ``bulk_update`` loop, after some ops have applied."""
        for op in normalized:
            injector.check("update")
            yield op

    def _recover_from_update_fault(self, matcher: Any) -> None:
        # The transaction may have applied a prefix of its ops before
        # raising; move the generation so the frozen plane, the flow
        # cache and the reference all rebuild from what the Palmtrie_k
        # actually holds now.
        matcher.generation += 1
        self._drop_plane()
        self._plane_generation = None
        self._reference = None
        self._clear_cache()
        self._pending = {}
        self._seen_generation = self._pending_generation = matcher.generation

    def replace_matcher(self, matcher: ServedMatcher) -> None:
        """Swap in a rebuilt policy atomically.

        The new matcher replaces the old one in one step — the new
        policy frozen, cache cleared, generation stamps re-seeded, epoch
        bumped — while the engine's cumulative lookup statistics and
        batch history carry over, so a policy swap does not erase the
        serving record the way constructing a fresh engine would.
        (``engine.matcher = new`` routes here too, so even a direct
        assignment whose matcher starts at the same generation value
        can never serve the old plane or cache.)  A guard's quarantine
        and breaker describe the *old* policy, so they reset.  A frozen
        plane is installed as the plane (see the class docstring).

        When the old policy had a live basic-Palmtrie reference, the new
        one is built here, from the new matcher's entries (an installed
        plane's Palmtrie_k stays unbuilt), so the first burst after the
        swap does not pay that rebuild.
        """
        live = self._reference is not None
        self._install(matcher)
        self.epoch += 1
        self._reference = None
        self._reference_stamp = None
        self._seen_generation = self._pending_generation = matcher.generation
        self._pending = {}
        dropped = self.cache.clear()
        self.stats.cache_evictions += dropped
        self.cache_rows_invalidated += dropped
        self.policy_swaps += 1
        guard = self._guard
        if guard is not None:
            guard.reset()
        self._frozen_plane()
        if live:
            self._reference_matcher()

    # -- crash-safe checkpoints ------------------------------------------

    def current_plane(self) -> FrozenMatcher:
        """The frozen plane with every update folded in: what a
        checkpoint writes and what a tenant's memory quota measures.  A
        pending overlay is compacted first, so that freeze also serves.
        When a guarded freeze fails, this freezes once more outside the
        guard, so a persistent fault reaches the caller."""
        self._sync()
        if self._overlay:
            self._drop_plane()
        plane = self._plane
        if plane is None:
            plane = self._freeze()
        if plane is None:
            from .core.frozen import freeze

            plane = freeze(self._source)
        return plane

    def checkpoint(self, path: Any) -> int:
        """Write the current policy + coherence stamps (engine epoch,
        matcher generation) to ``path`` atomically; returns the bytes
        written.  See :mod:`repro.resilience.checkpoint`."""
        from .resilience.checkpoint import write_checkpoint

        return write_checkpoint(
            path, self.current_plane(), epoch=self.epoch, generation=self._matcher.generation
        )

    @classmethod
    def from_checkpoint(
        cls, path: Any, rebuild: Any, **kwargs: Any
    ) -> "ClassificationEngine":
        """Startup recovery: an engine from a checkpoint, or from the
        ``rebuild`` callable (compile from ACL source) when the
        checkpoint is missing or fails validation.  Which path was
        taken lands in ``checkpoint_restores`` / ``checkpoint_rebuilds``
        and ``last_recovery`` (and the metrics mirror)."""
        from .resilience.checkpoint import recover

        recovery = recover(path, rebuild)
        engine = cls(recovery.matcher, **kwargs)
        engine.epoch = recovery.epoch
        if recovery.restored:
            engine.checkpoint_restores += 1
        else:
            engine.checkpoint_rebuilds += 1
        engine.last_recovery = recovery
        return engine

    def mark_last_good(self, path: Any = None) -> int:
        """Checkpoint the current policy as the engine's known-good
        restore point (the control plane's pre-rollout stamp).

        ``path`` defaults to ``config.last_good_path``; the engine
        remembers where it wrote (``last_good_path``) and at which
        epoch (``last_good_epoch``) so :meth:`restore_last_good` and a
        post-crash supervisor can find it.  With no path configured at
        all, the checkpoint is held in memory instead — same bytes,
        same restore path, just not crash-durable.  Returns the bytes
        written.
        """
        from .resilience.checkpoint import serialize_checkpoint

        target = path if path is not None else self.config.last_good_path
        if target is None:
            self._last_good_blob = serialize_checkpoint(
                self.current_plane(), epoch=self.epoch, generation=self._matcher.generation
            )
            self.last_good_epoch = self.epoch
            return len(self._last_good_blob)
        written = self.checkpoint(target)
        self.last_good_path = target
        self.last_good_epoch = self.epoch
        return written

    def restore_last_good(self, path: Any = None) -> None:
        """Atomically swap back to the last-known-good checkpoint.

        The undo of an over-quota tenant update: the checkpointed
        matcher replaces the live one through :meth:`replace_matcher`
        (epoch bump, cache drop, guard reset), and
        ``checkpoint_restores`` counts the recovery.  Raises
        ``FormatError``/``OSError`` if the checkpoint is unreadable —
        rollback must never silently serve the wrong policy.
        """
        from .resilience.checkpoint import deserialize_checkpoint, read_checkpoint

        target = (
            path
            if path is not None
            else (self.last_good_path or self.config.last_good_path)
        )
        if target is None:
            blob = self._last_good_blob
            if blob is None:
                raise ValueError(
                    "restore_last_good: no last-good checkpoint has been marked"
                )
            snapshot = deserialize_checkpoint(blob)
        else:
            snapshot = read_checkpoint(target)
        self.replace_matcher(snapshot.matcher)
        self.checkpoint_restores += 1

    def refresh(self) -> None:
        """Eagerly pay the deferred update work.

        A transaction leaves its cache sweep to the next lookup and the
        frozen plane serving behind a changed-key overlay; call this to
        settle both now (e.g. before a latency-sensitive burst): syncs
        the generation stamp and compacts the overlay — a fresh freeze.
        """
        self._sync()
        if self._overlay:
            self._drop_plane()
        self._lookup_target()

    def invalidate_all(self) -> int:
        """Drop the whole cache and the region tier, for a caller that
        wants the next burst to start cold (a policy swap clears them
        itself, in :meth:`replace_matcher`); returns the cache rows
        dropped."""
        self.regions.clear()
        dropped = self.cache.clear()
        self.stats.cache_evictions += dropped
        return dropped

    def close(self) -> None:
        """Stop the shard pool's workers; the engine keeps serving
        in-process afterwards.  A no-op without a pool, and idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ClassificationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        return self.stats.cache_hit_ratio

    @property
    def plane_overlay_keys(self) -> int:
        """Changed keys the serving frozen plane is behind by (0 when
        it is current, or when no plane serves)."""
        return sum(len(datas) for datas in self._overlay.values())

    def queries_per_second(self) -> float:
        """Sustained rate over every ``lookup_batch`` call so far
        (scalar ``lookup`` calls are not timed)."""
        if not self.batched_queries:
            return 0.0
        # All-sub-tick batches accumulate 0.0 seconds; clamp so the
        # rate stays finite (see _TIMER_TICK).
        return self.batched_queries / max(self.elapsed_seconds, _TIMER_TICK)

    def latency_summary(self) -> Optional[dict[str, dict[str, float]]]:
        """p50/p90/p99/p999 of the batch, per-query and update latency
        histograms; None while metrics are disabled."""
        instruments = self._instruments
        if instruments is None:
            return None
        return {
            "batch_seconds": instruments.batch_seconds.quantiles(),
            "query_seconds": instruments.query_seconds.quantiles(),
            "update_seconds": instruments.update_seconds.quantiles(),
        }

    def report(self) -> dict[str, Any]:
        """Engine counters in one dict (CLI / harness consumption)."""
        stats = self.stats
        summary: dict[str, Any] = {
            "matcher": self._matcher.name,
            "lookups": stats.lookups,
            "cache_size": self.cache.capacity,
            "cache_entries": len(self.cache),
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_evictions": stats.cache_evictions,
            "cache_hit_ratio": stats.cache_hit_ratio,
            "cache_bypassed": self.cache_bypassed,
            "batches": self.batches,
            "queries_per_second": self.queries_per_second(),
            "frozen_plane_active": self._plane is not None,
            "freezes": self.freezes,
            "updates_applied": self.updates_applied,
            "update_batches": self.update_batches,
            "cache_rows_invalidated": self.cache_rows_invalidated,
            "targeted_invalidations": self.targeted_invalidations,
            "lazy_invalidations": self.lazy_invalidations,
            "policy_swaps": self.policy_swaps,
            "generation": self._matcher.generation,
            "plane_generation": self._plane_generation,
            "plane_overlay_keys": self.plane_overlay_keys,
            "plane_walks": self.plane_walks,
            "region_hits": self.regions.hits,
            "region_rows": self.regions.rows,
            "region_masks": self.regions.masks,
            "epoch": self.epoch,
            "freeze_seconds_total": self.freeze_seconds_total,
            "metrics_enabled": self._instruments is not None,
            "health": self.health,
            "checkpoint_restores": self.checkpoint_restores,
            "checkpoint_rebuilds": self.checkpoint_rebuilds,
        }
        guard = self._guard
        if guard is not None:
            summary["resilience"] = guard.report()
        if self._pool is not None:
            summary["shards"] = self._pool.report()
        latency = self.latency_summary()
        if latency is not None:
            summary["latency"] = latency
        # A weak reference (repro.stream.pipeline), dead once the
        # pipeline is dropped.
        pipeline_ref = getattr(self, "stream_pipeline", None)
        pipeline = pipeline_ref() if pipeline_ref is not None else None
        if pipeline is not None:
            summary["stream"] = pipeline.report()
        return summary

    def reset_stats(self) -> None:
        self.stats.reset()
        self.batches = 0
        self.batched_queries = 0
        self.elapsed_seconds = 0.0
        self.updates_applied = 0
        self.update_batches = 0
        self.cache_rows_invalidated = 0
        self.targeted_invalidations = 0
        self.lazy_invalidations = 0
        self.policy_swaps = 0
        self.last_update = None
        self.plane_walks = 0
        self.cache_bypassed = 0
        self.regions.reset_counters()

    def __len__(self) -> int:
        return len(self._matcher)
