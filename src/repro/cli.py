"""Command-line interface: ``palmtrie-repro`` / ``python -m repro``.

Subcommands:

``experiment <id>``
    Regenerate a paper table or figure (fig7, fig8, fig9, fig10, fig11,
    table3, table4, table5, ipv6) at the current REPRO_SCALE.

``all``
    Run every experiment and save reports under ``results/``.

``match``
    Compile an ACL file and look up a packet five-tuple against it.

``generate``
    Write a synthetic dataset (campus D_q or a ClassBench-like set) to
    an ACL file, optionally with a matching binary traffic trace.

``compile``
    Compile an ACL file into a frozen lookup plane (.plmf).

``analyze``
    Lint an ACL file: shadowed rules, conflicts, redundancy.

``replay``
    Replay a binary trace or pcap file through an ACL (or a compiled
    ``.plmf`` policy) and report verdicts and the sustained
    lookup rate; ``--metrics-out`` writes a JSON metrics snapshot of
    the run; ``--shards N`` resolves the cache misses in N worker
    processes, each sent the plane's PLMF image; ``--stream`` serves
    through the bounded-queue pipeline (``--policy``/``--max-inflight``), and
    ``--scenario NAME`` replays a registered attack scenario with its
    rule churn from a seed.

``scenarios``
    List the registered traffic scenarios (`replay --scenario`).

``metrics``
    Replay a trace with metrics enabled and dump (or serve, one-shot)
    the Prometheus text exposition or the JSON snapshot.

``health``
    Replay a trace through a guarded engine (the resilience plane) and
    report health, the serving plane, breaker state, fault counters and
    shadow-verification stats; exit code 0 ok / 1 degraded / 2
    quarantined.  ``--checkpoint`` also validates a policy checkpoint.

``serve``
    Stand up the multi-tenant control plane from a YAML/JSON manifest
    (``--tenants manifest.yaml``), replay seeded per-tenant traffic
    through it, and report per-tenant health, quota counters and
    rollout state; ``--checkpoint-dir``/``--recover`` boot each tenant
    from its last-good checkpoint, crash-coherently.

``rollout``
    Stage a new policy for one tenant as a canary
    (``--tenant NAME --rules new.acl --canary-pct 10``), drive traffic
    through the observation window, and report the verdict; exit code
    0 promoted / 1 rolled back.

``tenants``
    Show the status table of every tenant in a manifest: health,
    rollout state, quota counters.

``diff``
    Compare two ACL files: added/removed/moved rules plus a sampled
    semantic-equivalence verdict.

``datasets``
    Show the sizes of the campus/ClassBench datasets at each scale.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .acl.compiler import compile_acl
from .acl.ip import parse_ipv4
from .acl.parser import parse_acl
from .acl.rule import Action
from .bench.experiments import ALL_EXPERIMENTS, run_experiment
from .bench.report import save_report
from .bench.scale import SCALES, current_scale
from .config import DEFAULT_CONFIG
from .core.table import build_matcher
from .packet.headers import PacketHeader

__all__ = ["main"]


def _cmd_experiment(args: argparse.Namespace) -> int:
    table = run_experiment(args.id)
    text = table.render()
    print(text)
    if args.save:
        path = save_report(args.id, text)
        print(f"saved: {path}", file=sys.stderr)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for name in ALL_EXPERIMENTS:
        print(f"== {name} ==", file=sys.stderr)
        table = run_experiment(name)
        text = table.render()
        print(text)
        print()
        path = save_report(name, text)
        print(f"saved: {path}", file=sys.stderr)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    with open(args.acl) as handle:
        rules = parse_acl(handle.read())
    compiled = compile_acl(rules)
    matcher = build_matcher(DEFAULT_CONFIG, compiled.entries, compiled.layout.length)
    header = PacketHeader(
        src_ip=parse_ipv4(args.src),
        dst_ip=parse_ipv4(args.dst),
        proto=args.proto,
        src_port=args.sport,
        dst_port=args.dport,
        tcp_flags=args.flags,
    )
    entry = matcher.lookup(header.to_query(compiled.layout))
    if entry is None:
        print("no match -> implicit deny")
        return 1
    rule = compiled.rules[entry.value]
    print(f"matched rule {entry.value + 1}: {rule.to_line()}")
    return 0 if rule.action is Action.PERMIT else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads.campus import campus_rules
    from .workloads.classbench import PROFILES, classbench_rules
    from .workloads.io import save_acl, save_trace
    from .workloads.traffic import reverse_byte_scan, uniform_traffic

    if args.kind == "campus":
        rules = campus_rules(args.q)
        comment = f"campus network dataset D_{args.q} ({len(rules)} rules)"
    else:
        if args.seed_file:
            from .workloads.classbench import load_profile

            profile = load_profile(args.seed_file)
        else:
            profile = PROFILES[args.profile]
        rules = classbench_rules(profile, args.size, seed=args.seed)
        comment = f"classbench-like {profile.name} set ({len(rules)} rules, seed {args.seed})"
    save_acl(rules, args.output, comment=comment)
    print(f"wrote {len(rules)} rules to {args.output}")
    if args.trace:
        compiled = compile_acl(rules)
        if args.traffic == "scan":
            queries = reverse_byte_scan(args.trace_count, seed=args.seed)
        else:
            queries = uniform_traffic(compiled.entries, args.trace_count, seed=args.seed)
        written = save_trace(queries, compiled.layout.length, args.trace)
        print(f"wrote {len(queries)} queries ({written} bytes) to {args.trace}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .core.frozen import FrozenMatcher
    from .core.serialize import save_frozen

    if _engine_config(stride=args.stride) is None:
        return 2
    rules = _load_rules(args.acl)
    if rules is None:
        return 2
    compiled = compile_acl(rules)
    entries = list(compiled.entries)
    key_length = compiled.layout.length
    note = ""
    if args.compress:
        from .acl.compress import compress_entries, compression_ratio

        squeezed = compress_entries(entries)
        note = f", compressed {len(entries)} -> {len(squeezed)} entries " \
               f"(-{100 * compression_ratio(entries, squeezed):.0f} %)"
        entries = squeezed

    plane = FrozenMatcher.build(entries, key_length, stride=args.stride)
    written = save_frozen(plane, args.output)
    print(
        f"compiled {len(rules)} rules ({len(entries)} entries) into frozen plane "
        f"{args.output}: {written} bytes, stride {args.stride}{note}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    if not _is_policy(args.policy):
        if not _refused_foreign(args.policy):
            print(f"error: {args.policy}: not a compiled policy file", file=sys.stderr)
        return 2
    plane = _load_binary_policy(args.policy)
    if plane is None:
        return 2
    internals, leaves = plane.node_count()
    print(f"{args.policy}: frozen plane")
    print(f"  key length: {plane.key_length} bits")
    print(f"  entries:    {len(plane)}")
    print(f"  memory:     {plane.memory_bytes()} bytes")
    print(f"  nodes:      {internals} internal, {leaves} leaves")
    print(f"  stride:     {plane.stride} (uniform)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .acl.analyzer import find_conflicts, find_shadowed
    from .workloads.io import load_acl

    rules = load_acl(args.acl)
    shadowed = find_shadowed(rules)
    conflicts = find_conflicts(rules)
    correlations = [f for f in conflicts if f.kind == "correlation"]
    generalizations = [f for f in conflicts if f.kind == "generalization"]
    for finding in shadowed:
        kind = "redundant" if finding.redundant else "SHADOWED (action differs!)"
        print(
            f"rule {finding.shadowed + 1} is {kind}, covered by rule {finding.by + 1}:"
        )
        print(f"    {rules[finding.shadowed].to_line()}")
        print(f"    covered by: {rules[finding.by].to_line()}")
    for finding in correlations:
        print(
            f"rules {finding.winner + 1} and {finding.loser + 1} partially overlap "
            f"with different actions (order-sensitive):"
        )
        print(f"    {rules[finding.winner].to_line()}")
        print(f"    {rules[finding.loser].to_line()}")
    if generalizations and args.verbose:
        for finding in generalizations:
            print(
                f"rule {finding.loser + 1} generalizes rule {finding.winner + 1} "
                f"(specific-exception idiom)"
            )
    print(
        f"{len(rules)} rules: {len(shadowed)} shadowed, "
        f"{len(correlations)} correlations, "
        f"{len(generalizations)} generalizations (benign idiom"
        f"{'' if args.verbose else '; --verbose to list'})"
    )
    return 1 if shadowed or correlations else 0


def _read_queries(input_path: str, layout, expected_length: int) -> Optional[list[int]]:
    """Queries from a ``.trace`` or ``.pcap`` file, or None (with the
    reason on stderr) when the input cannot be replayed.  ``layout``
    maps decoded pcap headers to queries (None when replaying a binary
    policy whose key length matches no known layout — traces still
    work); ``expected_length`` is the policy's key length in bits."""
    from .workloads.io import load_trace

    if input_path.endswith(".pcap"):
        if layout is None:
            print(
                f"error: cannot decode pcap packets into {expected_length}-bit "
                "keys (unknown layout); replay a .trace instead",
                file=sys.stderr,
            )
            return None
        from .packet.codec import PacketDecodeError, decode_packet
        from .packet.pcap import read_pcap

        queries = []
        errors = 0
        for packet in read_pcap(input_path):
            try:
                queries.append(decode_packet(packet.data).to_query(layout))
            except PacketDecodeError:
                errors += 1
        if errors:
            print(f"skipped {errors} undecodable packets", file=sys.stderr)
    else:
        queries, key_length = load_trace(input_path)
        if key_length != expected_length:
            print(
                f"error: trace keys are {key_length} bits, policy keys are "
                f"{expected_length}",
                file=sys.stderr,
            )
            return None
    if not queries:
        print("no packets to replay", file=sys.stderr)
        return None
    return queries


#: the compiled-policy magic (``PLMF``, see repro.core.serialize)
_POLICY_MAGIC = b"PLMF"
#: every compiled artifact of this project starts with these bytes; one
#: that is not a PLMF plane (e.g. a table in the retired Palmtrie+
#: format) is refused with a re-compile hint
_COMPILED_PREFIX = b"PLM"


def _read_magic(path: str) -> Optional[bytes]:
    """The first four bytes of ``path``, or None when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read(4)
    except OSError:
        return None


def _is_policy(path: str) -> bool:
    """True when ``path`` holds a compiled ``.plmf`` policy."""
    return _read_magic(path) == _POLICY_MAGIC


def _refused_foreign(path: str) -> bool:
    """True (with a one-line error and re-compile hint on stderr) when
    ``path`` is a compiled file in a format other than PLMF."""
    magic = _read_magic(path)
    if magic is None or magic == _POLICY_MAGIC or not magic.startswith(_COMPILED_PREFIX):
        return False
    print(
        f"error: {path}: compiled format {magic.decode('latin-1')!r} is not served "
        "(only .plmf planes are); re-compile its ACL with "
        "`palmtrie-repro compile <acl> -o <file>.plmf`",
        file=sys.stderr,
    )
    return True


def _load_binary_policy(path: str):
    """A frozen plane from a compiled ``.plmf`` file, or None with a
    one-line error + re-compile hint on stderr (never a traceback) —
    corrupt and truncated planes must fail closed at the CLI edge."""
    from .core.serialize import FormatError, load_frozen

    try:
        return load_frozen(path)
    except FormatError as exc:
        print(f"error: {path}: corrupt frozen plane: {exc}", file=sys.stderr)
        print(
            "hint: the file is corrupt or truncated; re-compile it with "
            "`palmtrie-repro compile <acl> -o <file>`",
            file=sys.stderr,
        )
        return None
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _load_rules(path: str):
    """ACL rules from a text file, or None with a one-line error on
    stderr when the file is binary (a compiled table does not parse as
    ACL text and must not produce a UnicodeDecodeError traceback)."""
    from .workloads.io import load_acl

    if _is_policy(path):
        print(f"error: {path} is a compiled frozen plane, not ACL text", file=sys.stderr)
        return None
    if _refused_foreign(path):
        return None
    try:
        return load_acl(path)
    except UnicodeDecodeError:
        print(f"error: {path}: not an ACL text file (binary data)", file=sys.stderr)
        return None
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _layout_for(key_length: int):
    """The packet layout matching a binary policy's key length, or None."""
    from .acl.layout import LAYOUT_V4, LAYOUT_V6

    for layout in (LAYOUT_V4, LAYOUT_V6):
        if layout.length == key_length:
            return layout
    return None


def _engine_config(**fields):
    """The :class:`~repro.config.EngineConfig` a command's flags ask
    for, or None once its validation error is printed as one line."""
    from .config import EngineConfig

    try:
        return EngineConfig(**fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_replay(args: argparse.Namespace) -> int:
    from .engine import ClassificationEngine

    config = _engine_config(
        stride=args.stride,
        cache_size=args.cache_size,
        metrics=bool(args.metrics_out),
        shards=args.shards,
    )
    if config is None:
        return 2
    if args.max_inflight < 1:
        print("error: --max-inflight must be >= 1", file=sys.stderr)
        return 2
    if args.scenario is not None:
        # A named scenario brings its own rules and traffic; the
        # positional acl/input are not needed (and not consulted).
        if args.acl is not None or args.input is not None:
            print(
                "error: --scenario generates its own rules and traffic; "
                "drop the acl/input arguments",
                file=sys.stderr,
            )
            return 2
        return _run_scenario_replay(args, config)
    if args.acl is None or args.input is None:
        print(
            "error: replay needs an acl and an input file (or --scenario NAME)",
            file=sys.stderr,
        )
        return 2
    if _is_policy(args.acl):
        # A compiled .plmf policy: replay it directly (corrupt files
        # exit with a one-line FormatError + re-compile hint).
        matcher = _load_binary_policy(args.acl)
        if matcher is None:
            return 2
        compiled = None
        layout = _layout_for(matcher.key_length)
        key_length = matcher.key_length
    else:
        rules = _load_rules(args.acl)
        if rules is None:
            return 2
        compiled = compile_acl(rules)
        matcher = build_matcher(config, compiled.entries, compiled.layout.length)
        layout = compiled.layout
        key_length = compiled.layout.length
    engine = ClassificationEngine(matcher, config)
    try:
        return _run_replay(args, engine, compiled, layout, key_length)
    finally:
        engine.close()


def _count_stream_verdicts(verdicts, compiled) -> dict[str, int]:
    """Verdict breakdown of a streamed run.  Dropped packets got no
    answer at all; shed packets were answered with the fail-closed
    implicit deny without consulting the matcher."""
    from .stream import DROPPED

    if compiled is not None:
        counts = {"permit": 0, "deny": 0, "implicit-deny": 0, "dropped": 0}
    else:
        counts = {"match": 0, "implicit-deny": 0, "dropped": 0}
    for entry in verdicts:
        if entry is DROPPED:
            counts["dropped"] += 1
        elif entry is None or entry.value == -1 or (
            compiled is not None and not 0 <= entry.value < len(compiled.rules)
        ):
            # canary rules (value -1) and scenario churn entries carry
            # no rule row; both fail closed
            counts["implicit-deny"] += 1
        elif compiled is None:
            counts["match"] += 1
        else:
            counts[compiled.rules[entry.value].action.value] += 1
    return counts


def _print_stream_summary(args, engine, report, counts) -> None:
    from .obs.timing import safe_rate

    total = report.offered
    print(
        f"streamed {total} packets through {engine.name} in {report.seconds:.2f} s "
        f"({safe_rate(report.served, report.seconds):,.0f} served/s, "
        f"policy {report.policy}, max_inflight {args.max_inflight})"
    )
    for verdict, count in counts.items():
        print(f"  {verdict:14} {count:8}  ({100 * count / total:.1f} %)")
    print(
        f"  backpressure   {report.admitted} admitted, {report.dropped} dropped "
        f"({100 * report.drop_rate:.1f} %), {report.shed} shed "
        f"({100 * report.shed_rate:.1f} %), {report.blocked_events} blocked events, "
        f"backlog peak {report.max_backlog}"
    )
    if report.churn_transactions:
        print(f"  churn          {report.churn_transactions} update transactions")
    latency = report.latency
    if latency is not None:
        print(
            f"  latency        p50 {latency['p50'] * 1e6:,.0f} us, "
            f"p99 {latency['p99'] * 1e6:,.0f} us, "
            f"p999 {latency['p999'] * 1e6:,.0f} us (admission to verdict)"
        )
    engine_report = engine.report()
    print(
        f"  flow cache     {engine_report['cache_entries']}/{engine_report['cache_size']} "
        f"entries, {100 * engine_report['cache_hit_ratio']:.1f} % hits"
    )
    if args.metrics_out:
        from .obs.export import write_snapshot

        registry = engine.metrics
        if registry is not None:
            write_snapshot(registry, args.metrics_out)
            print(f"  metrics        snapshot written to {args.metrics_out}")


def _run_scenario_replay(args, config) -> int:
    from .engine import ClassificationEngine
    from .stream import ScenarioSource, StreamPipeline
    from .workloads.scenarios import churn_applier, get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = ScenarioSource(scenario, seed=args.seed, packets=args.packets)
    compiled_scenario = source.compiled
    matcher = build_matcher(
        config, compiled_scenario.entries, compiled_scenario.layout.length
    )
    engine = ClassificationEngine(matcher, config)
    try:
        pipeline = StreamPipeline(
            engine,
            policy=args.policy,
            max_inflight=args.max_inflight,
            batch_max=max(1, args.batch_size),
            service_quantum=scenario.service_quantum if args.policy != "block" else None,
        )
        print(
            f"scenario {scenario.name} (seed {args.seed}): {scenario.summary}"
        )
        report = pipeline.run(
            source,
            collect_verdicts=True,
            on_burst=churn_applier(source, engine),
        )
        counts = _count_stream_verdicts(report.verdicts, compiled_scenario.acl)
        _print_stream_summary(args, engine, report, counts)
    finally:
        engine.close()
    return 0


def _run_replay(args, engine, compiled, layout, key_length) -> int:
    import time

    from .obs.timing import safe_rate

    queries = _read_queries(args.input, layout, key_length)
    if queries is None:
        return 2
    if args.update_rate < 0:
        print("error: --update-rate must be >= 0", file=sys.stderr)
        return 2
    # Churn workload: at R updates/packet, each batch carries one
    # update transaction that inserts fresh canary rules (exact-match
    # keys taken from the trace, priority below every real rule so
    # verdicts are unchanged) and deletes the previous batch's.  This
    # exercises the transactional update plane under replay load.
    from .core.table import TernaryEntry
    from .core.ternary import TernaryKey

    canary_cursor = 0
    previous_canaries: list[TernaryKey] = []
    churn_budget = 0.0

    def _churn(batch_queries: list) -> None:
        nonlocal canary_cursor, previous_canaries, churn_budget
        churn_budget += len(batch_queries) * args.update_rate
        pending = int(churn_budget)
        if pending <= 0:
            return
        churn_budget -= pending
        canaries = []
        for _ in range(pending):
            key = TernaryKey.exact(queries[canary_cursor % len(queries)], key_length)
            canary_cursor += 1
            canaries.append(key)
        ops: list = [
            ("insert", TernaryEntry(key=key, value=-1, priority=-1)) for key in canaries
        ]
        ops.extend(("delete", key) for key in previous_canaries)
        engine.apply_updates(ops)
        previous_canaries = canaries

    if args.stream:
        from .stream import StreamPipeline, TraceSource

        batch = max(1, args.batch_size)
        source = TraceSource(queries, key_length, burst_size=batch)
        pipeline = StreamPipeline(
            engine,
            policy=args.policy,
            max_inflight=args.max_inflight,
            batch_max=batch,
        )

        def on_burst(index: int):
            _churn(queries[index * batch : (index + 1) * batch])
            return True

        report = pipeline.run(
            source,
            collect_verdicts=True,
            on_burst=on_burst if args.update_rate else None,
        )
        counts = _count_stream_verdicts(report.verdicts, compiled)
        _print_stream_summary(args, engine, report, counts)
        return 0

    # With a compiled ACL, entry values map to rules and their actions;
    # a binary policy carries values but no rule table, so verdicts
    # collapse to matched / implicit-deny.
    if compiled is not None:
        verdicts = {"permit": 0, "deny": 0, "implicit-deny": 0}
    else:
        verdicts = {"match": 0, "implicit-deny": 0}
    batch = max(1, args.batch_size)
    start = time.perf_counter()
    for offset in range(0, len(queries), batch):
        burst = queries[offset : offset + batch]
        if args.update_rate:
            _churn(burst)
        for entry in engine.lookup_batch(burst):
            if entry is None or entry.value == -1:
                # Canary rules (value -1) permit nothing; count their
                # hits with the implicit denies.
                verdicts["implicit-deny"] += 1
            elif compiled is None:
                verdicts["match"] += 1
            else:
                verdicts[compiled.rules[entry.value].action.value] += 1
    elapsed = time.perf_counter() - start
    total = len(queries)
    print(f"replayed {total} packets through {engine.name} in {elapsed:.2f} s "
          f"({safe_rate(total, elapsed):,.0f} lookups/s)")
    for verdict, count in verdicts.items():
        print(f"  {verdict:14} {count:8}  ({100 * count / total:.1f} %)")
    report = engine.report()
    print(
        f"  flow cache     {report['cache_entries']}/{report['cache_size']} entries, "
        f"{100 * report['cache_hit_ratio']:.1f} % hits, "
        f"{report['cache_evictions']} evictions "
        f"(batch size {batch})"
    )
    if args.shards:
        shards = report["shards"]
        print(
            f"  shards         {shards['alive']}/{shards['count']} alive, "
            f"plane stamp {shards['stamp']} ({shards['plane_bytes']}-byte image), "
            f"{shards['worker_deaths']} deaths / {shards['respawns']} respawns, "
            f"{shards['local_fallback_lookups']} local-fallback lookups"
        )
        for worker in shards["workers"]:
            print(
                f"    shard {worker['shard']:3}  pid {worker['pid']}  "
                f"{worker['lookups']:8} lookups, "
                f"{worker['loads']} plane loads"
            )
    if args.update_rate:
        print(
            f"  updates        {report['updates_applied']} applied in "
            f"{report['update_batches']} transactions "
            f"({report['cache_rows_invalidated']} cache rows invalidated, "
            f"{report['targeted_invalidations']} targeted / "
            f"{report['lazy_invalidations']} lazy clears, "
            f"generation {report['generation']}, "
            f"{report['freezes']} freezes, "
            f"plane {report['plane_overlay_keys']} keys behind)"
        )
    state = "active" if report["frozen_plane_active"] else "unavailable"
    print(f"  frozen plane   {state} ({report['freezes']} freezes)")
    if args.metrics_out:
        from .obs.export import write_snapshot

        registry = engine.metrics
        assert registry is not None
        write_snapshot(registry, args.metrics_out)
        latency = report.get("latency", {})
        p99 = latency.get("batch_seconds", {}).get("p99")
        note = "" if p99 is None or p99 != p99 else f" (batch p99 {p99 * 1e6:,.0f} us)"
        print(f"  metrics        snapshot written to {args.metrics_out}{note}")
    return 0


def _serve_once(text: str, port: int) -> int:
    """Serve ``text`` for exactly one HTTP request, then exit.

    The one-shot shape keeps the CLI a batch tool: point a scraper (or
    ``curl``) at it once to validate an exporter pipeline, no daemon to
    clean up afterwards.  Port 0 picks a free port.
    """
    import http.server

    body = text.encode("utf-8")

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self) -> None:
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_args: object) -> None:
            pass

    with http.server.HTTPServer(("127.0.0.1", port), Handler) as server:
        bound = server.server_address[1]
        print(
            f"serving one scrape at http://127.0.0.1:{bound}/metrics",
            file=sys.stderr,
        )
        server.handle_request()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .engine import ClassificationEngine
    from .obs.export import render_prometheus, snapshot

    config = _engine_config(stride=args.stride, cache_size=args.cache_size, metrics=True)
    if config is None:
        return 2
    rules = _load_rules(args.acl)
    if rules is None:
        return 2
    compiled = compile_acl(rules)
    matcher = build_matcher(config, compiled.entries, compiled.layout.length)
    engine = ClassificationEngine(matcher, config)
    queries = _read_queries(args.input, compiled.layout, compiled.layout.length)
    if queries is None:
        return 2
    batch = max(1, args.batch_size)
    for offset in range(0, len(queries), batch):
        engine.lookup_batch(queries[offset : offset + batch])
    registry = engine.metrics
    assert registry is not None
    if args.format == "json":
        text = json.dumps(snapshot(registry), indent=2, sort_keys=True) + "\n"
    else:
        text = render_prometheus(registry)
    if args.serve is not None:
        return _serve_once(text, args.serve)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote metrics to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Replay traffic through a guarded engine and report its health.

    Exit code is the health verdict: 0 ok, 1 degraded, 2 quarantined
    (or an invalid checkpoint) — scriptable as a readiness probe.
    """
    from .engine import ClassificationEngine
    from .resilience.guard import GuardRail

    config = _engine_config(stride=args.stride, cache_size=args.cache_size, shards=args.shards)
    if config is None:
        return 2
    if not 0.0 <= args.shadow_sample <= 1.0:
        print("error: --shadow-sample must be in [0, 1]", file=sys.stderr)
        return 2
    checkpoint_invalid = False
    if args.checkpoint:
        from .core.serialize import FormatError
        from .resilience.checkpoint import read_checkpoint

        try:
            snapshot = read_checkpoint(args.checkpoint)
        except (FormatError, OSError) as exc:
            print(
                f"checkpoint     {args.checkpoint}: INVALID "
                f"({type(exc).__name__}: {exc})"
            )
            checkpoint_invalid = True
        else:
            print(
                f"checkpoint     {args.checkpoint}: valid "
                f"(epoch {snapshot.epoch}, generation {snapshot.generation}, "
                f"{len(snapshot.matcher)} entries)"
            )
    if _is_policy(args.acl):
        matcher = _load_binary_policy(args.acl)
        if matcher is None:
            return 2
        layout = _layout_for(matcher.key_length)
        key_length = matcher.key_length
    else:
        rules = _load_rules(args.acl)
        if rules is None:
            return 2
        compiled = compile_acl(rules)
        matcher = build_matcher(config, compiled.entries, compiled.layout.length)
        layout = compiled.layout
        key_length = compiled.layout.length
    guard = GuardRail(shadow_sample=args.shadow_sample)
    engine = ClassificationEngine(matcher, config.replace(resilience=guard))
    try:
        queries = _read_queries(args.input, layout, key_length)
        if queries is None:
            return 2
        batch = max(1, args.batch_size)
        for offset in range(0, len(queries), batch):
            engine.lookup_batch(queries[offset : offset + batch])
        shard_summary = engine.report().get("shards") if args.shards else None
        health = engine.health
    finally:
        engine.close()
    report = guard.report()
    breaker = report["breaker"]
    print(f"health         {health}")
    print(f"serving plane  {report['last_plane'] or 'none'}")
    if shard_summary is not None:
        print(
            f"shards         {shard_summary['alive']}/{shard_summary['count']} alive "
            f"({shard_summary['worker_deaths']} deaths, "
            f"{shard_summary['respawns']} respawns, "
            f"{shard_summary['local_fallback_lookups']} local-fallback lookups)"
        )
    print(
        f"breaker        {breaker['state']} "
        f"({breaker['opens']} opens, {breaker['probes']} probes, "
        f"{breaker['recoveries']} recoveries, "
        f"backoff {breaker['backoff_seconds']:.2g} s)"
    )
    faults = report["faults"]
    listed = ", ".join(f"{site}={n}" for site, n in sorted(faults.items())) or "none"
    print(f"faults         {listed}")
    print(
        f"degraded       {report['degraded_lookups']} lookups below the "
        f"frozen plane, {report['reference_lookups']} on the reference tier"
    )
    if args.shadow_sample > 0.0:
        print(
            f"shadow verify  {report['shadow_checks']} checks, "
            f"{report['shadow_mismatches']} mismatches "
            f"(sample {args.shadow_sample:g})"
        )
    if report["quarantined"]:
        print(f"quarantine     {report['last_fault']}")
    code = {"ok": 0, "degraded": 1, "quarantined": 2}[health]
    return max(code, 2 if checkpoint_invalid else 0)


def _cmd_diff(args: argparse.Namespace) -> int:
    from .acl.diff import diff_acls
    from .workloads.io import load_acl

    old = load_acl(args.old)
    new = load_acl(args.new)
    diff = diff_acls(old, new, samples=args.samples)
    for position, rule in diff.removed:
        print(f"- [{position + 1}] {rule.to_line()}")
    for position, rule in diff.added:
        print(f"+ [{position + 1}] {rule.to_line()}")
    for old_position, new_position, rule in diff.moved:
        print(f"~ [{old_position + 1} -> {new_position + 1}] {rule.to_line()}")
    print(f"{args.old} -> {args.new}: {diff.summary()}")
    if diff.counterexample is not None:
        from .packet.headers import PacketHeader

        header = PacketHeader.from_query(diff.counterexample)
        print(f"counterexample packet: {header}")
    return 0 if diff.semantically_equivalent else 1


def _tenant_router(args: argparse.Namespace, recover: bool = False, metrics=None):
    """Build the router an args namespace describes, or None + stderr."""
    from .tenant import TenantRouter

    try:
        return TenantRouter.from_manifest(
            args.tenants,
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
            recover=recover,
            metrics=metrics,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _tenant_traffic(tenant, packets: int, seed: int) -> list[int]:
    """Seeded zipf traffic over the tenant's own policy."""
    from .workloads.traffic import zipf_trace

    return zipf_trace(tenant.compiled.entries, packets, flows=128, seed=seed)


def _print_tenant_status(router) -> None:
    rows = router.status()
    header = f"{'tenant':<16} {'health':<12} {'rollout':<12} {'lookups':>9} {'rate-denied':>12} {'mem-bytes':>10} {'promotes':>9} {'rollbacks':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['tenant']:<16} {row['health']:<12} {row['rollout']:<12} "
            f"{row['lookups']:>9} {row['rate_denied']:>12} {row['memory_bytes']:>10} "
            f"{row['promotes']:>9} {row['rollbacks']:>10}"
        )


def _cmd_tenant_serve(args: argparse.Namespace) -> int:
    registry = None
    if args.metrics_out:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    router = _tenant_router(args, recover=args.recover, metrics=registry)
    if router is None:
        return 2
    try:
        for name in router.names():
            tenant = router[name]
            queries = _tenant_traffic(tenant, args.packets, args.seed)
            for offset in range(0, len(queries), 64):
                router.lookup_batch(name, queries[offset : offset + 64])
        _print_tenant_status(router)
        if registry is not None:
            from .obs import write_snapshot

            write_snapshot(registry, args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
        unhealthy = [n for n in router.names() if router[n].health != "ok"]
        return 1 if unhealthy else 0
    finally:
        router.close()


def _cmd_tenant_rollout(args: argparse.Namespace) -> int:
    rules = _load_rules(args.rules)
    if rules is None:
        return 2
    router = _tenant_router(args)
    if router is None:
        return 2
    try:
        try:
            tenant = router[args.tenant]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        from .acl.compiler import compile_acl
        from .tenant import QuotaExceeded

        try:
            tenant.stage_rollout(
                compile_acl(rules), canary_pct=args.canary_pct, seed=args.seed
            )
        except QuotaExceeded as exc:
            print(f"error: rollout denied by quota: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        queries = _tenant_traffic(tenant, args.packets, args.seed)
        for offset in range(0, len(queries), 64):
            router.lookup_batch(args.tenant, queries[offset : offset + 64])
            if tenant.rollout.state != "canary":
                break
        report = tenant.rollout.report()
        verdict = report["last_verdict"]
        print(f"tenant {args.tenant}: rollout {report['state']}")
        if verdict is not None:
            for key, value in sorted(verdict.items()):
                print(f"  {key}: {value}")
        if report["state"] == "canary":
            print(
                f"  (observation window still open after {args.packets} packets; "
                "raise --packets or lower the guard windows)"
            )
        return 0 if report["state"] == "promoted" else 1
    finally:
        router.close()


def _cmd_tenants_status(args: argparse.Namespace) -> int:
    router = _tenant_router(args, recover=args.recover)
    if router is None:
        return 2
    try:
        _print_tenant_status(router)
        return 0
    finally:
        router.close()


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from .workloads.scenarios import all_scenarios

    scenarios = all_scenarios()
    width = max(len(s.name) for s in scenarios)
    for scenario in scenarios:
        traits = []
        if scenario.attack:
            traits.append("attack")
        if scenario.churn is not None:
            traits.append("churn")
        suffix = f"  [{', '.join(traits)}]" if traits else ""
        print(f"{scenario.name:{width}}  {scenario.summary}{suffix}")
    print(
        f"\n{len(scenarios)} scenarios; replay one with "
        "`palmtrie-repro replay --scenario NAME [--seed N --packets N]`"
    )
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .workloads.campus import ENTRIES_PER_PREFIX, RULES_PER_PREFIX

    scale = current_scale()
    print(f"active scale: {scale.name} (REPRO_SCALE; presets: {', '.join(SCALES)})")
    print("campus datasets:")
    for q in scale.campus_qs:
        print(f"  D_{q}: {RULES_PER_PREFIX << q} rules, {ENTRIES_PER_PREFIX << q} ternary entries")
    print(f"classbench sizes: {', '.join(str(s) for s in scale.classbench_sizes)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmtrie-repro",
        description="Palmtrie (CoNEXT 2020) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate one paper table/figure")
    p_exp.add_argument("id", choices=sorted(ALL_EXPERIMENTS))
    p_exp.add_argument("--save", action="store_true", help="also write results/<id>.txt")
    p_exp.set_defaults(func=_cmd_experiment)

    p_all = sub.add_parser("all", help="run every experiment, saving reports")
    p_all.set_defaults(func=_cmd_all)

    p_match = sub.add_parser("match", help="match one packet against an ACL file")
    p_match.add_argument("acl", help="path to an ACL in the Table 2 dialect")
    p_match.add_argument("--src", required=True, help="source IPv4 address")
    p_match.add_argument("--dst", required=True, help="destination IPv4 address")
    p_match.add_argument("--proto", type=int, default=6)
    p_match.add_argument("--sport", type=int, default=0)
    p_match.add_argument("--dport", type=int, default=0)
    p_match.add_argument("--flags", type=lambda t: int(t, 0), default=0, help="TCP flags byte")
    p_match.set_defaults(func=_cmd_match)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_campus = gen_sub.add_parser("campus", help="campus D_q dataset")
    p_campus.add_argument("--q", type=int, default=4, help="split exponent (17*2^q rules)")
    p_cb = gen_sub.add_parser("classbench", help="ClassBench-like dataset")
    p_cb.add_argument("--profile", choices=("acl", "fw", "ipc"), default="acl")
    p_cb.add_argument("--seed-file", help="load a custom seed profile instead of --profile")
    p_cb.add_argument("--size", type=int, default=1000)
    for sub_parser in (p_campus, p_cb):
        sub_parser.add_argument("-o", "--output", required=True, help="ACL file to write")
        sub_parser.add_argument("--seed", type=int, default=2020)
        sub_parser.add_argument("--trace", help="also write a binary trace here")
        sub_parser.add_argument("--trace-count", type=int, default=10_000)
        sub_parser.add_argument(
            "--traffic", choices=("uniform", "scan"), default="uniform",
            help="trace pattern (scan = reverse-byte order scanning)",
        )
        sub_parser.set_defaults(func=_cmd_generate)

    p_compile = sub.add_parser("compile", help="compile an ACL into a frozen lookup plane")
    p_compile.add_argument("acl", help="ACL file in the Table 2 dialect")
    p_compile.add_argument("-o", "--output", required=True, help=".plmf file to write")
    p_compile.add_argument("--stride", type=int, default=8)
    p_compile.add_argument(
        "--compress", action="store_true",
        help="adjacency-merge equivalent entries before compiling",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_inspect = sub.add_parser(
        "inspect",
        help="describe a compiled .plmf policy: geometry, nodes",
    )
    p_inspect.add_argument("policy", help="a compiled .plmf file")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_analyze = sub.add_parser("analyze", help="lint an ACL: shadowing, conflicts")
    p_analyze.add_argument("acl", help="ACL file in the Table 2 dialect")
    p_analyze.add_argument("-v", "--verbose", action="store_true", help="also list generalizations")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_replay = sub.add_parser("replay", help="replay a .trace or .pcap through an ACL")
    p_replay.add_argument(
        "acl", nargs="?", default=None,
        help="ACL file in the Table 2 dialect (omit with --scenario)",
    )
    p_replay.add_argument(
        "input", nargs="?", default=None,
        help="a .trace (palmtrie-repro generate) or .pcap file (omit with --scenario)",
    )
    p_replay.add_argument("--stride", type=int, default=8)
    p_replay.add_argument(
        "--batch-size", type=int, default=32,
        help="packets per lookup_batch burst (1 = scalar path)",
    )
    p_replay.add_argument(
        "--cache-size", type=int, default=4096,
        help="flow cache capacity (0 disables the cache)",
    )
    p_replay.add_argument(
        "--shards", type=int, default=0,
        help="worker processes of the sharded data plane (0 = in-process): "
             "each worker decodes the policy's PLMF image and the "
             "flow cache's misses are split across the workers",
    )
    p_replay.add_argument(
        "--update-rate", type=float, default=0.0,
        help="policy updates per replayed packet (e.g. 0.01 = 1%% churn): "
             "each batch applies one transactional update of low-priority "
             "canary rules, exercising the update plane under load",
    )
    p_replay.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a JSON metrics snapshot of the run to PATH "
             "(enables the engine's metrics registry)",
    )
    p_replay.add_argument(
        "--stream", action="store_true",
        help="serve through the bounded-queue StreamPipeline (burst "
             "admission, backpressure, per-flow latency histograms) "
             "instead of flat batch replay",
    )
    p_replay.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="replay a named scenario from the registry instead of an "
             "acl/input pair (implies --stream; `palmtrie-repro scenarios` "
             "lists the names)",
    )
    p_replay.add_argument(
        "--policy", choices=("block", "drop", "shed"), default="block",
        help="what an arrival that finds the queue full gets: block "
             "(backpressure, nothing lost), drop (tail drop), or shed "
             "(immediate fail-closed deny)",
    )
    p_replay.add_argument(
        "--max-inflight", type=int, default=1024,
        help="streaming admission-queue capacity in packets",
    )
    p_replay.add_argument(
        "--seed", type=int, default=2020,
        help="scenario replay seed (same seed => identical packets and churn)",
    )
    p_replay.add_argument(
        "--packets", type=int, default=10_000,
        help="packets to synthesize when replaying --scenario",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_scen = sub.add_parser(
        "scenarios",
        help="list the registered traffic scenarios (replay --scenario NAME)",
    )
    p_scen.set_defaults(func=_cmd_scenarios)

    p_metrics = sub.add_parser(
        "metrics",
        help="replay a trace with metrics on; dump or serve the exposition",
    )
    p_metrics.add_argument("acl", help="ACL file in the Table 2 dialect")
    p_metrics.add_argument("input", help="a .trace (palmtrie-repro generate) or .pcap file")
    p_metrics.add_argument("--stride", type=int, default=8)
    p_metrics.add_argument(
        "--batch-size", type=int, default=32,
        help="packets per lookup_batch burst (1 = scalar path)",
    )
    p_metrics.add_argument(
        "--cache-size", type=int, default=4096,
        help="flow cache capacity (0 disables the cache)",
    )
    p_metrics.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="text exposition format 0.0.4, or the JSON snapshot schema",
    )
    p_metrics.add_argument(
        "-o", "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    p_metrics.add_argument(
        "--serve", type=int, metavar="PORT", default=None,
        help="serve the exposition over HTTP for exactly one scrape, "
             "then exit (0 picks a free port)",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_health = sub.add_parser(
        "health",
        help="replay through a guarded engine and report resilience health",
    )
    p_health.add_argument("acl", help="uncompiled ACL text, or a compiled .plmf policy")
    p_health.add_argument("input", help="a .trace (palmtrie-repro generate) or .pcap file")
    p_health.add_argument("--stride", type=int, default=8)
    p_health.add_argument(
        "--batch-size", type=int, default=32,
        help="packets per lookup_batch burst (1 = scalar path)",
    )
    p_health.add_argument(
        "--cache-size", type=int, default=4096,
        help="flow cache capacity (0 disables the cache)",
    )
    p_health.add_argument(
        "--shards", type=int, default=0,
        help="also run the replay through N shard workers and fold their "
             "liveness into the health verdict (0 = in-process)",
    )
    p_health.add_argument(
        "--shadow-sample", type=float, default=0.01,
        help="fraction of answers cross-checked against the guard's reference "
             "rung, the paper's basic Palmtrie (0 disables shadow verification, "
             "1 checks every answer)",
    )
    p_health.add_argument(
        "--checkpoint", metavar="PATH",
        help="also validate a policy checkpoint written by "
             "ClassificationEngine.checkpoint (invalid => exit 2)",
    )
    p_health.set_defaults(func=_cmd_health)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant control plane from a manifest"
    )
    p_serve.add_argument("--tenants", required=True, metavar="MANIFEST",
                         help="YAML/JSON tenant manifest (docs/deployment.md)")
    p_serve.add_argument("--packets", type=int, default=2_000,
                         help="seeded packets replayed per tenant (default 2000)")
    p_serve.add_argument("--seed", type=int, default=2020)
    p_serve.add_argument("--checkpoint-dir", default=None,
                         help="directory for last-good checkpoints + rollout state")
    p_serve.add_argument("--recover", action="store_true",
                         help="boot tenants from their last-good checkpoints")
    p_serve.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write a JSON metrics snapshot of the run")
    p_serve.set_defaults(func=_cmd_tenant_serve)

    p_rollout = sub.add_parser(
        "rollout", help="canary a new policy for one tenant, promote or roll back"
    )
    p_rollout.add_argument("--tenants", required=True, metavar="MANIFEST")
    p_rollout.add_argument("--tenant", required=True, help="tenant name to roll out")
    p_rollout.add_argument("--rules", required=True, help="ACL file with the new policy")
    p_rollout.add_argument("--canary-pct", type=float, default=None,
                           help="flow slice percentage (default: manifest canary_pct)")
    p_rollout.add_argument("--packets", type=int, default=20_000,
                           help="traffic budget for the observation window")
    p_rollout.add_argument("--seed", type=int, default=2020)
    p_rollout.add_argument("--checkpoint-dir", default=None)
    p_rollout.set_defaults(func=_cmd_tenant_rollout)

    p_tenants = sub.add_parser(
        "tenants", help="show the status of every tenant in a manifest"
    )
    p_tenants.add_argument("--tenants", required=True, metavar="MANIFEST")
    p_tenants.add_argument("--checkpoint-dir", default=None)
    p_tenants.add_argument("--recover", action="store_true")
    p_tenants.set_defaults(func=_cmd_tenants_status)

    p_diff = sub.add_parser("diff", help="compare two ACL files")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument("--samples", type=int, default=1500,
                        help="queries for the semantic equivalence check")
    p_diff.set_defaults(func=_cmd_diff)

    p_data = sub.add_parser("datasets", help="show dataset sizes at the active scale")
    p_data.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
