"""Unit tests for the measurement harness (repro.bench)."""

import pytest

from helpers import table1_entries
from repro.baselines.sorted_list import SortedListMatcher
from repro.bench.costmodel import CacheModel, modeled_mlps
from repro.bench.harness import measure_build, measure_lookup_rate
from repro.bench.memory import palmtrie_plus_bytes
from repro.bench.report import Table, format_rate, format_seconds, save_report
from repro.bench.scale import SCALES, current_scale
from repro.core.frozen import FrozenMatcher


class TestHarness:
    @pytest.fixture()
    def matcher(self):
        return SortedListMatcher.build(table1_entries(), 8)

    def test_measure_lookup_rate(self, matcher):
        result = measure_lookup_rate(matcher, list(range(256)), min_duration=0.01, samples=2)
        assert result.lookups_per_second > 0
        assert result.matcher == "sorted-list"
        assert len(result.samples) == 2
        assert result.node_visits_per_lookup > 0
        assert result.mega_lookups_per_second == result.lookups_per_second / 1e6

    def test_measure_empty_queries_rejected(self, matcher):
        with pytest.raises(ValueError, match="empty"):
            measure_lookup_rate(matcher, [])

    def test_measure_build(self):
        result = measure_build("x", lambda: sum(range(1000)))
        assert result.seconds >= 0
        assert result.result == sum(range(1000))
        assert result.label == "x"

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_measure_build_times_with_the_collector_off(self, was_enabled):
        """The timed call runs with the cyclic collector off, and the
        collector's prior state comes back, also when the build raises."""
        import gc

        def boom():
            raise RuntimeError("build failed")

        prior = gc.isenabled()
        try:
            (gc.enable if was_enabled else gc.disable)()
            seen = measure_build("x", gc.isenabled).result
            assert seen is False
            assert gc.isenabled() is was_enabled
            with pytest.raises(RuntimeError, match="build failed"):
                measure_build("x", boom)
            assert gc.isenabled() is was_enabled
        finally:
            (gc.enable if prior else gc.disable)()


class TestCostModel:
    def test_latency_monotonic_in_footprint(self):
        model = CacheModel()
        sizes = [1024, 64 * 1024, 1024 * 1024, 64 * 1024 * 1024]
        latencies = [model.latency(s) for s in sizes]
        assert latencies == sorted(latencies)
        assert latencies[0] == model.l1_cycles
        assert latencies[-1] < model.dram_cycles

    def test_tiny_structure_is_l1(self):
        assert CacheModel().latency(0) == CacheModel().l1_cycles

    def test_modeled_mlps_positive_and_size_sensitive(self):
        small = SortedListMatcher.build(table1_entries(), 8)
        queries = list(range(64))
        mlps = modeled_mlps(small, queries)
        assert mlps > 0

    def test_modeled_mlps_models_a_plane_as_palmtrie_plus(self):
        """A frozen plane's footprint is Figure 6's C layout of the
        Palmtrie+ it compiles, not its true ``memory_bytes()``."""
        plane = FrozenMatcher.build(table1_entries(), 8)
        queries = list(range(64))
        model = CacheModel(l1_bytes=64, l2_bytes=128, l3_bytes=256)
        plane.stats.reset()
        for query in queries:
            plane.profile_lookup(query)
        touches = max(plane.stats.per_lookup()["node_visits"], 1.0)
        latency = model.latency(palmtrie_plus_bytes(plane))
        assert latency != model.latency(plane.memory_bytes())
        expected = model.clock_ghz * 1e3 / (touches * (latency + model.work_cycles))
        assert modeled_mlps(plane, queries, model) == expected

    def test_modeled_empty_queries_rejected(self):
        matcher = SortedListMatcher.build(table1_entries(), 8)
        with pytest.raises(ValueError, match="empty"):
            modeled_mlps(matcher, [])


class TestReport:
    def test_format_rate(self):
        assert format_rate(2_500_000) == "2.50 Mlps"
        assert format_rate(12_345) == "12.3 klps"

    def test_format_seconds(self):
        assert format_seconds(120) == "120 s"
        assert format_seconds(1.5) == "1.50 s"
        assert format_seconds(0.0123) == "12.30 ms"
        assert format_seconds(5e-6) == "5 us"

    def test_table_rendering(self):
        table = Table("Demo", ["a", "bb"])
        table.add_row(1, "x")
        text = table.render()
        assert "Demo" in text and "bb" in text and "x" in text

    def test_table_cell_count_check(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError, match="expected 2 cells"):
            table.add_row(1)

    def test_save_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        path = save_report("demo", "hello")
        assert path.endswith("demo.txt")
        assert (tmp_path / "demo.txt").read_text() == "hello\n"


class TestScale:
    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_env_selects_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert current_scale().name == "medium"

    def test_unknown_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="not a preset"):
            current_scale()

    def test_paper_preset_matches_paper_sizes(self):
        paper = SCALES["paper"]
        assert max(paper.campus_qs) == 16
        assert 500_000 in paper.classbench_sizes
        assert paper.samples == 30


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        from repro.bench.experiments import ALL_EXPERIMENTS

        assert set(ALL_EXPERIMENTS) == {
            "fig7", "fig8", "fig9", "fig10", "fig11",
            "table3", "table4", "table5", "ipv6",
        }

    def test_unknown_experiment(self):
        from repro.bench.experiments import run_experiment

        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_table3_runs_quickly(self):
        from repro.bench.experiments import table3_complexity
        from repro.bench.scale import SCALES

        table = table3_complexity(SCALES["small"], sizes=(32, 128))
        text = table.render()
        assert "Table 3" in text
