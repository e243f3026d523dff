"""Experiment drivers: one function per paper table/figure.

Each function regenerates the rows/series of one evaluation artifact
from the paper (see DESIGN.md §5 for the index) at the active
:class:`~repro.bench.scale.Scale`, returning a rendered
:class:`~repro.bench.report.Table`.  The ``benchmarks/`` suite and the
``palmtrie-repro`` CLI are thin wrappers over these.

Measured lookup rates are pure-Python wall clock; where the paper's
result depends on cache behaviour (Fig. 10, Table 4) the tables also
show modeled Mlps from :mod:`repro.bench.costmodel` and per-lookup
node visits, which carry the algorithmic comparison.

The Palmtrie+_k columns (``plus6``, ``plus8``) walk the frozen plane
``FrozenMatcher.build(..., stride=k)``: it visits exactly the nodes
Algorithm 3 visits, and its modeled C bytes come from
:func:`~repro.bench.memory.palmtrie_plus_bytes`.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Optional, Sequence

from ..acl.compiler import CompiledAcl
from ..baselines.dpdk_acl import BuildExplosionError, DpdkStyleAcl
from ..baselines.efficuts import EffiCutsClassifier
from ..baselines.sorted_list import SortedListMatcher
from ..core.basic import BasicPalmtrie
from ..core.frozen import FrozenMatcher
from ..core.multibit import MultibitPalmtrie
from ..core.table import TernaryEntry, TernaryMatcher
from ..core.ternary import TernaryKey
from ..workloads.campus import campus_acl
from ..workloads.classbench import PROFILES, classbench_acl
from ..workloads.traffic import pareto_trace, reverse_byte_scan, uniform_traffic
from .costmodel import modeled_mlps
from .harness import measure_build, measure_lookup_rate
from .memory import modeled_bytes, palmtrie_plus_bytes
from .report import Table, format_rate, format_seconds
from .scale import Scale, current_scale

__all__ = [
    "fig07_optimizations",
    "fig08_stride",
    "fig09_memory",
    "fig10_lookup",
    "fig11_build",
    "table3_complexity",
    "table4_classbench_lookup",
    "table5_classbench_build",
    "ipv6_keylength",
    "ALL_EXPERIMENTS",
    "run_experiment",
]

KEY_LENGTH = 128

_campus_cache: dict[int, CompiledAcl] = {}
_classbench_cache: dict[tuple[str, int], CompiledAcl] = {}


def _campus(q: int) -> CompiledAcl:
    if q not in _campus_cache:
        _campus_cache[q] = campus_acl(q)
    return _campus_cache[q]


def _classbench(profile: str, size: int) -> CompiledAcl:
    key = (profile, size)
    if key not in _classbench_cache:
        _classbench_cache[key] = classbench_acl(profile, size)
    return _classbench_cache[key]


def _rate_cell(matcher: TernaryMatcher, queries: Sequence[int], scale: Scale) -> str:
    m = measure_lookup_rate(matcher, queries, scale.min_duration, scale.samples)
    return format_rate(m.lookups_per_second)


# ----------------------------------------------------------------------
# Figure 7: effect of the practical optimizations
# ----------------------------------------------------------------------

def fig07_optimizations(scale: Optional[Scale] = None) -> Table:
    """Basic Palmtrie vs Palmtrie_1 vs Palmtrie+_8, with and without
    low-priority subtree skipping, uniform traffic (paper Fig. 7)."""
    scale = scale or current_scale()
    table = Table(
        "Figure 7: lookup rate, uniform traffic (campus ACLs)",
        ["dataset", "entries", "basic", "palmtrie1 w/o skip", "plus8 w/o skip", "palmtrie1", "plus8"],
    )
    for q in scale.campus_qs:
        acl = _campus(q)
        queries = uniform_traffic(acl.entries, scale.query_count)
        variants: list[tuple[str, TernaryMatcher]] = [
            ("basic", BasicPalmtrie.build(acl.entries, KEY_LENGTH)),
            ("p1ns", MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=1, subtree_skipping=False)),
            ("p8ns", FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=8, subtree_skipping=False)),
            ("p1", MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=1)),
            ("p8", FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=8)),
        ]
        table.add_row(
            f"D_{q}",
            len(acl.entries),
            *(_rate_cell(m, queries, scale) for _name, m in variants),
        )
    return table


# ----------------------------------------------------------------------
# Figure 8: stride sweep
# ----------------------------------------------------------------------

def fig08_stride(scale: Optional[Scale] = None, strides: Sequence[int] = range(1, 9)) -> Table:
    """Palmtrie_k lookup rate for k = 1..8, uniform traffic (Fig. 8)."""
    scale = scale or current_scale()
    table = Table(
        "Figure 8: Palmtrie_k lookup rate by stride, uniform traffic",
        ["dataset", "entries"] + [f"k={k}" for k in strides],
    )
    for q in scale.campus_qs:
        acl = _campus(q)
        queries = uniform_traffic(acl.entries, scale.query_count)
        cells = []
        for k in strides:
            matcher = MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=k)
            cells.append(_rate_cell(matcher, queries, scale))
        table.add_row(f"D_{q}", len(acl.entries), *cells)
    return table


# ----------------------------------------------------------------------
# Figure 9: memory utilization
# ----------------------------------------------------------------------

def fig09_memory(scale: Optional[Scale] = None) -> Table:
    """Modeled memory of Palmtrie_1/6/8 and Palmtrie+_6/8 (Fig. 9)."""
    from .chart import render_series

    scale = scale or current_scale()
    names = ["palmtrie1", "palmtrie6", "palmtrie8", "plus6", "plus8"]
    table = Table(
        "Figure 9: memory utilization (modeled C layout, MiB)",
        ["dataset", "entries"] + names,
    )
    chart: dict[str, list[Optional[float]]] = {name: [] for name in names}
    labels = []
    for q in scale.campus_qs:
        acl = _campus(q)
        builders: list[TernaryMatcher] = [
            MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=1),
            MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=6),
            MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8),
            FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=6),
            FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=8),
        ]
        labels.append(f"D_{q} ({len(acl.entries)} entries)")
        megabytes = [modeled_bytes(m) / 2**20 for m in builders]
        for name, value in zip(names, megabytes):
            chart[name].append(value)
        table.add_row(f"D_{q}", len(acl.entries), *(f"{mb:.3f}" for mb in megabytes))
    rendered = table.render() + "\n\n" + render_series(
        "Figure 9: memory series (log-scale view)", labels, chart, unit=" MiB"
    )
    table.render = lambda: rendered  # type: ignore[method-assign]
    return table


# ----------------------------------------------------------------------
# Figure 10: lookup rate vs baselines, two traffic patterns
# ----------------------------------------------------------------------

def _fig10_row(
    label: str,
    entry_count: int,
    matchers: list[tuple[str, Optional[TernaryMatcher]]],
    queries: list[int],
    scale: Scale,
    table_measured: Table,
    table_modeled: Table,
    chart: dict[str, list[Optional[float]]],
) -> None:
    measured = []
    modeled = []
    for name, matcher in matchers:
        if matcher is None:
            measured.append("N/A")
            modeled.append("N/A")
            chart.setdefault(name, []).append(None)
            continue
        measurement = measure_lookup_rate(matcher, queries, scale.min_duration, scale.samples)
        measured.append(format_rate(measurement.lookups_per_second))
        modeled.append(f"{modeled_mlps(matcher, queries):.1f}")
        chart.setdefault(name, []).append(measurement.lookups_per_second / 1e3)
    table_measured.add_row(label, entry_count, *measured)
    table_modeled.add_row(label, entry_count, *modeled)


def fig10_lookup(scale: Optional[Scale] = None) -> Table:
    """Sorted list / DPDK-style / Palmtrie variants on uniform and
    reverse-byte scan traffic (Fig. 10).  Emits the measured Python
    rates and the cache-model Mlps (the paper's cache-bound regime)."""
    from .chart import render_series

    scale = scale or current_scale()
    columns = ["sorted", "dpdk-acl", "palmtrie6", "palmtrie8", "plus6", "plus8"]
    sections: list[str] = []
    for pattern in ("uniform", "scan"):
        measured = Table(
            f"Figure 10 ({pattern}): measured lookup rate",
            ["dataset", "entries"] + columns,
        )
        modeled = Table(
            f"Figure 10 ({pattern}): modeled Mlps (cache cost model)",
            ["dataset", "entries"] + columns,
        )
        chart: dict[str, list[Optional[float]]] = {}
        labels = []
        for q in scale.campus_qs:
            acl = _campus(q)
            if pattern == "uniform":
                queries = uniform_traffic(acl.entries, scale.query_count)
            else:
                queries = reverse_byte_scan(scale.query_count)
            matchers: list[tuple[str, Optional[TernaryMatcher]]] = [
                ("sorted", SortedListMatcher.build(acl.entries, KEY_LENGTH)),
                ("dpdk-acl", _try_dpdk(acl, q in scale.campus_qs_slow)),
                ("palmtrie6", MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=6)),
                ("palmtrie8", MultibitPalmtrie.build(acl.entries, KEY_LENGTH, stride=8)),
                ("plus6", FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=6)),
                ("plus8", FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=8)),
            ]
            labels.append(f"D_{q} ({len(acl.entries)} entries)")
            _fig10_row(
                f"D_{q}", len(acl.entries), matchers, queries, scale, measured, modeled, chart
            )
        sections.append(measured.render())
        sections.append(modeled.render())
        sections.append(
            render_series(
                f"Figure 10 ({pattern}): measured series (paper's log-scale view)",
                labels,
                chart,
                unit=" klps",
            )
        )
    combined = Table("Figure 10", [])
    combined.render = lambda: "\n\n".join(sections)  # type: ignore[method-assign]
    return combined


#: state budget for the DPDK-style builder in benchmarks; exceeding it is
#: reported as N/A, like the paper's unbuildable configurations.
DPDK_STATE_LIMIT = 100_000


def _try_dpdk(acl: CompiledAcl, allowed: bool) -> Optional[DpdkStyleAcl]:
    if not allowed:
        return None
    try:
        return DpdkStyleAcl.build(acl.entries, KEY_LENGTH, state_limit=DPDK_STATE_LIMIT)
    except BuildExplosionError:
        return None


# ----------------------------------------------------------------------
# Figure 11: build time
# ----------------------------------------------------------------------

def fig11_build(scale: Optional[Scale] = None) -> Table:
    """Build time of each structure on the campus ACLs (Fig. 11).
    Palmtrie+ compile-only time (freezing the built Palmtrie_8) is
    parenthesized like the paper."""
    from .chart import render_series

    scale = scale or current_scale()
    table = Table(
        "Figure 11: build time (campus ACLs)",
        ["dataset", "entries", "dpdk-acl", "basic", "palmtrie6", "palmtrie8", "plus8 (compile)"],
    )
    chart: dict[str, list[Optional[float]]] = {
        name: [] for name in ("dpdk-acl", "basic", "palmtrie8", "plus8")
    }
    labels = []
    for q in scale.campus_qs:
        acl = _campus(q)
        entries = list(acl.entries)
        dpdk_seconds: Optional[float] = None
        if q in scale.campus_qs_slow:
            try:
                dpdk = measure_build("dpdk", lambda: DpdkStyleAcl.build(entries, KEY_LENGTH, state_limit=DPDK_STATE_LIMIT))
                dpdk_seconds = dpdk.seconds
                dpdk_cell = format_seconds(dpdk.seconds)
            except BuildExplosionError:
                dpdk_cell = "N/A (explosion)"
        else:
            dpdk_cell = "N/A (skipped)"
        basic = measure_build("basic", lambda: BasicPalmtrie.build(entries, KEY_LENGTH))
        p6 = measure_build("p6", lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=6))
        p8 = measure_build("p8", lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=8))
        source = p8.result
        assert isinstance(source, MultibitPalmtrie)
        compile_time = measure_build("compile", lambda: FrozenMatcher.from_matcher(source))
        plus_cell = (
            f"{format_seconds(p8.seconds + compile_time.seconds)}"
            f" ({format_seconds(compile_time.seconds)})"
        )
        labels.append(f"D_{q} ({len(entries)} entries)")
        chart["dpdk-acl"].append(dpdk_seconds)
        chart["basic"].append(basic.seconds)
        chart["palmtrie8"].append(p8.seconds)
        chart["plus8"].append(p8.seconds + compile_time.seconds)
        table.add_row(
            f"D_{q}",
            len(entries),
            dpdk_cell,
            format_seconds(basic.seconds),
            format_seconds(p6.seconds),
            format_seconds(p8.seconds),
            plus_cell,
        )
    rendered = table.render() + "\n\n" + render_series(
        "Figure 11: build-time series (log-scale view)", labels, chart, unit=" s"
    )
    table.render = lambda: rendered  # type: ignore[method-assign]
    return table


# ----------------------------------------------------------------------
# Table 3: empirical lookup complexity
# ----------------------------------------------------------------------

def table3_complexity(
    scale: Optional[Scale] = None,
    sizes: Sequence[int] = (64, 256, 1024, 4096),
    key_length: int = 24,
    seed: int = 7,
) -> Table:
    """Empirical check of Table 3: basic Palmtrie lookup work should
    scale ~ n**log3(2) (~n^0.63) on dense ternary tables while the
    sorted list scales ~ n."""
    scale = scale or current_scale()
    rng = random.Random(seed)
    table = Table(
        "Table 3 (empirical): per-lookup work vs table size",
        ["entries", "sorted-list comparisons", "palmtrie visits", "sorted exp", "palmtrie exp"],
    )
    prev: Optional[tuple[int, float, float]] = None
    for n in sizes:
        entries = []
        for i in range(n):
            digits = "".join(rng.choice("01*") for _ in range(key_length))
            entries.append(TernaryEntry(TernaryKey.from_string(digits), i, rng.randrange(1 << 30)))
        oracle = SortedListMatcher.build(entries, key_length)
        palmtrie = BasicPalmtrie.build(entries, key_length)
        queries = [rng.getrandbits(key_length) for _ in range(scale.query_count)]
        oracle.stats.reset()
        palmtrie.stats.reset()
        for query in queries:
            oracle.profile_lookup(query)
            palmtrie.profile_lookup(query)
        s = oracle.stats.per_lookup()["key_comparisons"]
        p = palmtrie.stats.per_lookup()["node_visits"]
        if prev is None:
            s_exp = p_exp = "-"
        else:
            n0, s0, p0 = prev
            s_exp = f"{math.log(s / s0) / math.log(n / n0):.2f}"
            p_exp = f"{math.log(p / p0) / math.log(n / n0):.2f}"
        table.add_row(n, f"{s:.1f}", f"{p:.1f}", s_exp, p_exp)
        prev = (n, s, p)
    return table


# ----------------------------------------------------------------------
# Tables 4 and 5: ClassBench
# ----------------------------------------------------------------------

def _classbench_datasets(scale: Scale) -> list[tuple[str, str, int]]:
    names = []
    for profile in PROFILES:
        for size in scale.classbench_sizes:
            label = f"{profile.upper()}{size // 1000}K" if size >= 1000 else f"{profile.upper()}{size}"
            names.append((label, profile, size))
    return names


def table4_classbench_lookup(scale: Optional[Scale] = None) -> Table:
    """EffiCuts vs DPDK-style vs Palmtrie+_8 on ClassBench-like sets
    (Table 4): measured rate, modeled Mlps, and per-lookup visits."""
    scale = scale or current_scale()
    table = Table(
        "Table 4: ClassBench lookup performance",
        [
            "dataset", "rules",
            "efficuts", "dpdk-acl", "plus8",
            "efficuts mdl", "dpdk mdl", "plus8 mdl",
        ],
    )
    for label, profile, size in _classbench_datasets(scale):
        acl = _classbench(profile, size)
        queries = pareto_trace(acl.entries, scale.query_count)
        slow_ok = size in scale.classbench_sizes_slow
        matchers: list[Optional[TernaryMatcher]] = [
            EffiCutsClassifier.build(acl.entries, KEY_LENGTH) if slow_ok else None,
            _try_dpdk(acl, slow_ok),
            FrozenMatcher.build(acl.entries, KEY_LENGTH, stride=8),
        ]
        measured = []
        modeled = []
        for matcher in matchers:
            if matcher is None:
                measured.append("N/A")
                modeled.append("N/A")
            else:
                measured.append(_rate_cell(matcher, queries, scale))
                modeled.append(f"{modeled_mlps(matcher, queries):.2f}")
        table.add_row(label, size, *measured, *modeled)
    return table


def table5_classbench_build(scale: Optional[Scale] = None) -> Table:
    """Build times on ClassBench-like sets (Table 5); the Palmtrie+
    compile part (freezing the built Palmtrie_8) is parenthesized like
    the paper."""
    scale = scale or current_scale()
    table = Table(
        "Table 5: ClassBench build time",
        ["dataset", "rules", "efficuts", "dpdk-acl", "plus8 (compile)"],
    )
    for label, profile, size in _classbench_datasets(scale):
        acl = _classbench(profile, size)
        entries = list(acl.entries)
        slow_ok = size in scale.classbench_sizes_slow
        if slow_ok:
            efficuts = measure_build("efficuts", lambda: EffiCutsClassifier.build(entries, KEY_LENGTH))
            efficuts_cell = format_seconds(efficuts.seconds)
            try:
                dpdk = measure_build("dpdk", lambda: DpdkStyleAcl.build(entries, KEY_LENGTH, state_limit=DPDK_STATE_LIMIT))
                dpdk_cell = format_seconds(dpdk.seconds)
            except BuildExplosionError:
                dpdk_cell = "N/A (explosion)"
        else:
            efficuts_cell = dpdk_cell = "N/A (skipped)"
        insert = measure_build("p8", lambda: MultibitPalmtrie.build(entries, KEY_LENGTH, stride=8))
        source = insert.result
        assert isinstance(source, MultibitPalmtrie)
        compile_part = measure_build("compile", lambda: FrozenMatcher.from_matcher(source))
        table.add_row(
            label,
            size,
            efficuts_cell,
            dpdk_cell,
            f"{format_seconds(insert.seconds + compile_part.seconds)}"
            f" ({format_seconds(compile_part.seconds)})",
        )
    return table


# ----------------------------------------------------------------------
# §5: IPv6 / key-length ablation
# ----------------------------------------------------------------------

def ipv6_keylength(scale: Optional[Scale] = None) -> Table:
    """§5 discussion: effect of growing L from 128 to 512 bits on
    Palmtrie+_8 memory and lookup rate (paper reports +66.7 % memory,
    5.48-30.1 % slowdown)."""
    from ..acl.compiler import compile_acl
    from ..acl.layout import LAYOUT_V6
    from ..workloads.classbench import classbench_rules, PROFILES as _P

    scale = scale or current_scale()
    table = Table(
        "Section 5: key length 128 vs 512 (Palmtrie+_8)",
        ["dataset", "rules", "mem128 MiB", "mem512 MiB", "mem +%", "rate128", "rate512", "slowdown %"],
    )
    size = scale.classbench_sizes[min(1, len(scale.classbench_sizes) - 1)]
    for profile in _P:
        rules = classbench_rules(_P[profile], size)
        acl128 = compile_acl(rules)
        acl512 = compile_acl(rules, layout=LAYOUT_V6)
        m128 = FrozenMatcher.build(acl128.entries, 128, stride=8)
        m512 = FrozenMatcher.build(acl512.entries, 512, stride=8)
        q128 = pareto_trace(acl128.entries, scale.query_count)
        q512 = pareto_trace(acl512.entries, scale.query_count, seed=2020)
        r128 = measure_lookup_rate(m128, q128, scale.min_duration, scale.samples)
        r512 = measure_lookup_rate(m512, q512, scale.min_duration, scale.samples)
        mem128 = palmtrie_plus_bytes(m128)
        mem512 = palmtrie_plus_bytes(m512)
        slowdown = 100.0 * (1 - r512.lookups_per_second / r128.lookups_per_second)
        table.add_row(
            f"{profile.upper()}{size}",
            size,
            f"{mem128 / 2**20:.3f}",
            f"{mem512 / 2**20:.3f}",
            f"+{100.0 * (mem512 / mem128 - 1):.1f}",
            format_rate(r128.lookups_per_second),
            format_rate(r512.lookups_per_second),
            f"{slowdown:.1f}",
        )
    return table


ALL_EXPERIMENTS: dict[str, Callable[[Optional[Scale]], Table]] = {
    "fig7": fig07_optimizations,
    "fig8": fig08_stride,
    "fig9": fig09_memory,
    "fig10": fig10_lookup,
    "fig11": fig11_build,
    "table3": table3_complexity,
    "table4": table4_classbench_lookup,
    "table5": table5_classbench_build,
    "ipv6": ipv6_keylength,
}


def run_experiment(name: str, scale: Optional[Scale] = None) -> Table:
    """Run one experiment by its DESIGN.md id (e.g. ``fig10``)."""
    try:
        fn = ALL_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(ALL_EXPERIMENTS)}") from None
    start = time.perf_counter()
    table = fn(scale)
    elapsed = time.perf_counter() - start
    rendered = table.render() + f"\n[{name} regenerated in {elapsed:.1f} s]"
    table.render = lambda: rendered  # type: ignore[method-assign]
    return table
