"""The observability plane (repro.obs) and its CI trajectory gate.

Covers the zero-dependency metric primitives (log-bucketed histograms,
wrapping counters, the registry), the Prometheus text exposition and
JSON snapshot formats, the end-to-end CLI wiring (``replay
--metrics-out`` and the ``metrics`` subcommand), and the
``benchmarks/run_smokes.py`` perf-trajectory gate.
"""

import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy
import pytest

from repro.obs import (
    COUNTER_WIDTH,
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    geometric_buckets,
    render_prometheus,
    snapshot,
    validate_snapshot,
    write_snapshot,
)
from repro.obs.timing import best_of_attempts_ratio

# ----------------------------------------------------------------------
# Bucket geometry
# ----------------------------------------------------------------------


class TestGeometricBuckets:
    def test_factor_two_ladder(self):
        bounds = geometric_buckets(1e-6, 2.0, 24)
        assert len(bounds) == 24
        assert bounds[0] == pytest.approx(1e-6)
        for lower, upper in zip(bounds, bounds[1:]):
            assert upper == pytest.approx(2.0 * lower)

    def test_default_latency_ladder_spans_us_to_seconds(self):
        # 1 us ... 2^23 us ~ 8.4 s: covers every latency this repo times.
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 8.0

    @pytest.mark.parametrize(
        "start, factor, count",
        [(0.0, 2.0, 4), (-1.0, 2.0, 4), (1.0, 1.0, 4), (1.0, 0.5, 4), (1.0, 2.0, 0)],
    )
    def test_invalid_geometry_rejected(self, start, factor, count):
        with pytest.raises(ValueError):
            geometric_buckets(start, factor, count)


# ----------------------------------------------------------------------
# Histogram: observation, boundaries, quantile math
# ----------------------------------------------------------------------


class TestHistogram:
    def test_boundary_values_land_in_lower_bucket(self):
        # bisect_left: a value exactly on a bound belongs to that bound's
        # bucket (le semantics, matching the cumulative exposition).
        h = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        assert h.bucket_counts == [1, 1, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", "", buckets=(1.0, 2.0))
        h.observe(1000.0)
        assert h.bucket_counts == [0, 0, 1]
        cumulative = h.cumulative()
        assert cumulative[-1] == (math.inf, 1)

    def test_weighted_observe(self):
        h = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5, count=10)
        assert h.count == 10
        assert h.sum == pytest.approx(15.0)

    def test_observe_many_equals_one_observe_each(self):
        values = [0.5, 1.0, 1.5, 3.0, 9.0, 2.0]
        counts = [3, 1, 0, 7, 2, 4]
        one = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        for value, count in zip(values, counts):
            one.observe(value, count)
        bulk = Histogram("h", "", buckets=(1.0, 2.0, 4.0))
        bulk.observe_many(values, counts)
        assert bulk.bucket_counts == one.bucket_counts == [4, 4, 7, 2]
        assert bulk.count == one.count == 17
        assert bulk.sum == pytest.approx(one.sum)

    def test_quantiles_against_numpy(self):
        rng = numpy.random.default_rng(7)
        values = rng.lognormal(mean=-8.0, sigma=1.5, size=5000)
        h = Histogram("h", "", buckets=geometric_buckets(1e-6, 2.0, 30))
        for value in values:
            h.observe(float(value))
        for q in (0.50, 0.90, 0.99):
            exact = float(numpy.percentile(values, q * 100))
            approx = h.quantile(q)
            # log-bucketed resolution: the estimate lives in the right
            # factor-2 bucket, so it is within 2x of the exact quantile.
            assert exact / 2.0 <= approx <= exact * 2.0, (q, exact, approx)

    def test_quantile_of_empty_histogram_is_nan(self):
        h = Histogram("h", "", buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))

    def test_quantile_all_overflow_clamps_to_top_bound(self):
        h = Histogram("h", "", buckets=(1.0, 2.0))
        h.observe(99.0, count=5)
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_quantile_names(self):
        h = Histogram("h", "", buckets=(1.0,))
        h.observe(0.5)
        assert set(h.quantiles()) == {"p50", "p90", "p99", "p999"}

    def test_reset(self):
        h = Histogram("h", "", buckets=(1.0, 2.0))
        h.observe(1.5)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert h.bucket_counts == [0, 0, 0]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=(2.0, 1.0))


# ----------------------------------------------------------------------
# Counter semantics
# ----------------------------------------------------------------------


class TestCounter:
    def test_negative_increment_rejected(self):
        c = Counter("c", "")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_overflow_wraps_at_2_64(self):
        c = Counter("c", "")
        c.inc((1 << COUNTER_WIDTH) - 1)
        c.inc(3)
        assert c.value == 2  # wrapped, like a hardware counter

    def test_reset(self):
        c = Counter("c", "")
        c.inc(41)
        c.reset()
        assert c.value == 0

    def test_set_total_for_mirrored_counters(self):
        c = Counter("c", "")
        c.set_total(1234)
        c.set_total(1240)
        assert c.value == 1240


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_same_name_same_labels_is_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "", labels={"result": "hit"})
        b = registry.counter("hits_total", "", labels={"result": "hit"})
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", "")
        with pytest.raises(ValueError):
            registry.gauge("thing", "")

    def test_collectors_run_once_per_collect(self):
        registry = MetricsRegistry()
        calls = []
        registry.add_collector(lambda: calls.append(1))
        registry.add_collector(lambda: calls.append(1))
        registry.collect()
        assert len(calls) == 2

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "")


# ----------------------------------------------------------------------
# Prometheus exposition (golden)
# ----------------------------------------------------------------------


class TestPrometheusExposition:
    def test_golden_output(self):
        registry = MetricsRegistry(namespace="testns")
        registry.counter("lookups_total", "Lookups.", labels={"result": "hit"}).inc(3)
        registry.counter("lookups_total", "Lookups.", labels={"result": "miss"}).inc(1)
        registry.gauge("cache_entries", "Rows cached.").set(42)
        h = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(0.5, count=2)
        h.observe(99.0)
        expected = "\n".join(
            [
                "# HELP testns_cache_entries Rows cached.",
                "# TYPE testns_cache_entries gauge",
                "testns_cache_entries 42",
                "# HELP testns_latency_seconds Latency.",
                "# TYPE testns_latency_seconds histogram",
                'testns_latency_seconds_bucket{le="0.1"} 1',
                'testns_latency_seconds_bucket{le="1"} 3',
                'testns_latency_seconds_bucket{le="10"} 3',
                'testns_latency_seconds_bucket{le="+Inf"} 4',
                "testns_latency_seconds_sum 100.05",
                "testns_latency_seconds_count 4",
                "# HELP testns_lookups_total Lookups.",
                "# TYPE testns_lookups_total counter",
                'testns_lookups_total{result="hit"} 3',
                'testns_lookups_total{result="miss"} 1',
                "",
            ]
        )
        assert render_prometheus(registry) == expected

    def test_label_escaping(self):
        registry = MetricsRegistry(namespace="t")
        registry.counter("c_total", "", labels={"path": 'a"b\\c\nd'}).inc(1)
        text = render_prometheus(registry)
        assert '{path="a\\"b\\\\c\\nd"}' in text


# ----------------------------------------------------------------------
# JSON snapshot + structural validation
# ----------------------------------------------------------------------


class TestSnapshot:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Hits.").inc(5)
        registry.histogram("lat_seconds", "", buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_roundtrip_validates(self, tmp_path):
        registry = self._registry()
        path = tmp_path / "snap.json"
        write_snapshot(registry, path)
        document = json.loads(path.read_text())
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert validate_snapshot(document) == []

    def test_tampered_snapshot_detected(self):
        document = snapshot(self._registry())
        for entry in document["metrics"]:
            if entry["type"] == "histogram":
                # non-cumulative bucket counts must be flagged
                entry["buckets"][0]["count"] = 10**6
        assert validate_snapshot(document) != []

    def test_wrong_schema_detected(self):
        document = snapshot(self._registry())
        document["schema"] = "something/else/v9"
        problems = validate_snapshot(document)
        assert any("schema" in problem for problem in problems)


# ----------------------------------------------------------------------
# End-to-end: engine + CLI wiring
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_enabled_engine_exports_core_metrics(self):
        from repro.acl.parser import parse_acl
        from repro.acl.compiler import compile_acl
        from repro.core.multibit import MultibitPalmtrie
        from repro.engine import ClassificationEngine
        from repro.workloads.traffic import uniform_traffic

        acl = compile_acl(
            parse_acl(
                "permit ip 192.0.2.0/24 0.0.0.0/0\n"
                "deny ip 0.0.0.0/0 192.0.2.0/24\n"
            )
        )
        from repro.config import EngineConfig

        engine = ClassificationEngine(
            MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=8),
            EngineConfig(metrics=True),
        )
        queries = uniform_traffic(acl.entries, 64)
        engine.lookup_batch(queries)
        engine.lookup_batch(queries)  # second pass hits the cache
        registry = engine.metrics
        names = {metric.name for metric in registry.collect()}
        assert {
            "engine_lookups_total",
            "engine_batches_total",
            "engine_batch_seconds",
            "engine_cache_entries",
        } <= names
        report = engine.report()
        assert report["metrics_enabled"] is True
        assert "latency" in report

    def test_disabled_engine_stays_uninstrumented(self):
        from repro.acl.parser import parse_acl
        from repro.acl.compiler import compile_acl
        from repro.core.multibit import MultibitPalmtrie
        from repro.engine import ClassificationEngine

        acl = compile_acl(parse_acl("permit ip 0.0.0.0/0 0.0.0.0/0\n"))
        engine = ClassificationEngine(
            MultibitPalmtrie.build(acl.entries, acl.layout.length, stride=8)
        )
        assert engine.metrics is None
        assert engine.report()["metrics_enabled"] is False

    def test_shared_registry_does_not_keep_engines_alive(self):
        """The engine's and the stream pipeline's collectors hold their
        owners weakly: with the cyclic collector off, dropping a closed
        engine (and a pipeline over it) frees both, plane included, and
        the shared registry still exports."""
        import gc
        import weakref

        from repro import EngineConfig, serve
        from repro.obs import MetricsRegistry
        from repro.stream import StreamPipeline

        registry = MetricsRegistry()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            engine = serve(
                "permit ip 192.0.2.0/24 0.0.0.0/0\ndeny ip 0.0.0.0/0 0.0.0.0/0\n",
                EngineConfig(cache_size=16, metrics=registry),
            )
            pipeline = StreamPipeline(engine, metrics=registry)
            engine.lookup_batch([1, 2, 3])
            engine.close()
            refs = [weakref.ref(engine), weakref.ref(engine.current_plane()), weakref.ref(pipeline)]
            del engine, pipeline
            assert [ref() for ref in refs] == [None, None, None]
            exposition = render_prometheus(registry)
            assert "engine_batch_seconds" in exposition
            assert "stream_latency_seconds" in exposition
        finally:
            if enabled:
                gc.enable()

    def test_shared_registry_drops_collectors_of_dropped_engines(self):
        """Engines that come and go on one registry leave no collector
        behind: after an export, the registry is back to its old count."""
        from repro import EngineConfig, serve
        from repro.obs import MetricsRegistry
        from repro.stream import StreamPipeline

        registry = MetricsRegistry()
        registry.add_collector(lambda: None)
        before = len(registry._collectors)
        for _ in range(3):
            engine = serve(
                "permit ip 192.0.2.0/24 0.0.0.0/0\n", EngineConfig(metrics=registry)
            )
            pipeline = StreamPipeline(engine, metrics=registry)
            engine.lookup_batch([1, 2, 3])
            render_prometheus(registry)
            assert len(registry._collectors) == before + 2
            engine.close()
            del engine, pipeline
        render_prometheus(registry)
        assert len(registry._collectors) == before
        assert "engine_batch_seconds" in render_prometheus(registry)

    @pytest.mark.parametrize(
        "owner", ["firewall", "flow-monitor", "stateful-firewall", "l3-forwarder", "tenant-router"]
    )
    def test_shared_registry_does_not_keep_apps_alive(self, owner):
        """An app registers its own bound-method collector; the registry
        holds it weakly, so a dropped app (with its engine and plane) is
        freed, and the next collect drops every collector it left."""
        import gc
        import weakref

        from repro import EngineConfig
        from repro.tenant import TenantRouter, TenantSpec
        from repro.acl.compiler import compile_acl
        from repro.acl.parser import parse_acl
        from repro.apps import Firewall, FlowMonitor, L3Forwarder, StatefulFirewall

        text = "permit ip 192.0.2.0/24 0.0.0.0/0\ndeny ip 0.0.0.0/0 0.0.0.0/0\n"
        registry = MetricsRegistry()
        config = EngineConfig(metrics=registry)
        acl = compile_acl(parse_acl(text))
        build = {
            "firewall": lambda: Firewall(acl, config),
            "flow-monitor": lambda: FlowMonitor(acl.entries, acl.layout.length, config=config),
            "stateful-firewall": lambda: StatefulFirewall(acl, config=config),
            "l3-forwarder": lambda: L3Forwarder(acl, [(0, 0, 1)], config=config),
            "tenant-router": lambda: TenantRouter(
                [TenantSpec(name="t", acl=text)], metrics=registry
            ),
        }
        app = build[owner]()
        registry.collect()
        assert registry._collectors
        ref = weakref.ref(app)
        del app
        gc.collect()
        assert ref() is None
        registry.collect()
        assert registry._collectors == []


class TestCliMetrics:
    @pytest.fixture()
    def dataset(self, tmp_path):
        from repro.cli import main

        acl_path = str(tmp_path / "m.acl")
        trace_path = str(tmp_path / "m.trace")
        assert main([
            "generate", "campus", "--q", "0", "-o", acl_path,
            "--trace", trace_path, "--trace-count", "80",
        ]) == 0
        return acl_path, trace_path

    def test_replay_metrics_out_writes_valid_snapshot(self, dataset, tmp_path, capsys):
        from repro.cli import main

        acl_path, trace_path = dataset
        out = tmp_path / "snapshot.json"
        assert main(["replay", acl_path, trace_path, "--metrics-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert validate_snapshot(document) == []
        names = {metric["name"] for metric in document["metrics"]}
        assert "engine_batch_seconds" in names
        assert "engine_lookups_total" in names
        assert "metrics" in capsys.readouterr().out

    def test_metrics_subcommand_prometheus(self, dataset, capsys):
        from repro.cli import main

        acl_path, trace_path = dataset
        assert main(["metrics", acl_path, trace_path]) == 0
        text = capsys.readouterr().out
        assert "# TYPE palmtrie_engine_batch_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_metrics_subcommand_json(self, dataset, capsys):
        from repro.cli import main

        acl_path, trace_path = dataset
        assert main(["metrics", acl_path, trace_path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_snapshot(document) == []


# ----------------------------------------------------------------------
# The shared A/B timing estimator
# ----------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestBestOfAttemptsRatio:
    def _counting(self, seconds: float):
        calls = []

        def arm():
            calls.append(1)
            _spin(seconds)

        return arm, calls

    def test_early_stop_cuts_attempts(self):
        knobs = dict(rounds=3, attempts=4, number=2)
        base, base_calls = self._counting(0.0)
        cand, cand_calls = self._counting(0.0)
        # A ratio of at least 0 always clears a zero bar: one attempt.
        best_of_attempts_ratio(base, cand, early_stop=0.0, **knobs)
        assert len(base_calls) == len(cand_calls) == 3 * 2
        base, base_calls = self._counting(0.0)
        cand, cand_calls = self._counting(0.0)
        # An unreachable bar runs every attempt.
        best_of_attempts_ratio(base, cand, early_stop=float("inf"), **knobs)
        assert len(base_calls) == len(cand_calls) == 4 * 3 * 2

    def test_twice_as_slow_arm_reads_below_one(self):
        base, _ = self._counting(0.001)
        cand, _ = self._counting(0.002)
        ratio = best_of_attempts_ratio(
            base, cand, rounds=3, attempts=2, number=1, early_stop=0.98
        )
        assert 0.0 < ratio < 1.0


# ----------------------------------------------------------------------
# The perf-trajectory gate (benchmarks/run_smokes.py)
# ----------------------------------------------------------------------


def _load_run_smokes():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "run_smokes.py"
    spec = importlib.util.spec_from_file_location("run_smokes_under_test", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


class TestTrajectoryGate:
    BASELINE = {"frozen_batch_speedup": 4.0, "engine_cache_speedup": 8.0}

    def test_within_tolerance_passes(self):
        run_smokes = _load_run_smokes()
        fresh = {"frozen_batch_speedup": 3.5, "engine_cache_speedup": 8.5}
        assert run_smokes.check_trajectory(fresh, self.BASELINE, 0.20) == []

    def test_25_percent_degradation_fails(self):
        run_smokes = _load_run_smokes()
        fresh = {
            "frozen_batch_speedup": 4.0 * 0.75,  # 25% below baseline
            "engine_cache_speedup": 8.0,
        }
        failures = run_smokes.check_trajectory(fresh, self.BASELINE, 0.20)
        assert len(failures) == 1
        assert "frozen_batch_speedup" in failures[0]

    def test_missing_metric_fails(self):
        run_smokes = _load_run_smokes()
        failures = run_smokes.check_trajectory(
            {"frozen_batch_speedup": 4.0}, self.BASELINE, 0.20
        )
        assert any("engine_cache_speedup" in failure for failure in failures)

    def test_bad_tolerance_rejected(self):
        run_smokes = _load_run_smokes()
        with pytest.raises(ValueError):
            run_smokes.check_trajectory({}, {}, 1.5)

    def test_committed_baseline_is_well_formed(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_baseline.json"
        document = json.loads(path.read_text())
        metrics = document["metrics"]
        assert metrics, "baseline must gate at least one metric"
        for name, value in metrics.items():
            assert isinstance(value, (int, float)) and value > 0, name
        # every smoke headline ratio is gated
        assert {
            "engine_cache_speedup",
            "frozen_batch_speedup",
            "frozen_burst_speedup",
            "guard_shadow_overhead_ratio",
            "metrics_overhead_ratio",
            "stream_pipeline_ratio",
            "update_batch_speedup",
        } <= set(metrics)

    def test_trajectory_document_shape(self):
        run_smokes = _load_run_smokes()
        trajectory = run_smokes.build_trajectory({"a_ratio": 2.0, "b_ratio": 3.0})
        assert trajectory["schema"] == run_smokes.TRAJECTORY_SCHEMA
        assert len(trajectory["records"]) == 2
        for record in trajectory["records"]:
            assert set(record) == {"metric", "value", "commit", "timestamp"}
            assert record["commit"] == trajectory["commit"]
        assert run_smokes.trajectory_metrics(trajectory) == {"a_ratio": 2.0, "b_ratio": 3.0}
