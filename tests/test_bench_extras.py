"""Unit tests for memory accounting and chart rendering (repro.bench)."""

import pytest

from helpers import random_entries, table1_entries
from repro.bench.chart import render_series
from repro.bench.memory import deep_sizeof, memory_comparison
from repro.core.multibit import MultibitPalmtrie
from repro.core.frozen import FrozenMatcher


class TestDeepSizeof:
    def test_scalar(self):
        assert deep_sizeof(42) > 0

    def test_counts_container_contents(self):
        assert deep_sizeof([1, 2, 3]) > deep_sizeof([])

    def test_shared_objects_counted_once(self):
        shared = [0] * 100
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_cycles_terminate(self):
        a: list = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects_walked(self):
        trie = MultibitPalmtrie.build(table1_entries(), 8, stride=3)
        empty = MultibitPalmtrie(8, stride=3)
        assert deep_sizeof(trie) > deep_sizeof(empty)

    def test_grows_with_entries(self):
        small = FrozenMatcher.build(random_entries(20, 16, seed=1), 16, stride=4)
        large = FrozenMatcher.build(random_entries(400, 16, seed=2), 16, stride=4)
        assert deep_sizeof(large) > 3 * deep_sizeof(small)

    def test_memory_comparison_keys(self):
        matcher = FrozenMatcher.build(table1_entries(), 8, stride=3)
        report = memory_comparison(matcher)
        assert report["modeled_c_bytes"] > 0
        assert report["python_bytes"] > report["modeled_c_bytes"]  # CPython overhead


class TestRenderSeries:
    def test_basic_rendering(self):
        text = render_series(
            "Fig X",
            ["D_0", "D_2"],
            {"sorted": [800.0, 200.0], "plus8": [250.0, 240.0]},
            unit=" klps",
        )
        assert "Fig X" in text
        assert "D_0:" in text and "D_2:" in text
        assert "800 klps" in text
        assert "#" in text
        assert "log scale" in text

    def test_none_renders_na(self):
        text = render_series("t", ["a"], {"s": [None]})
        assert "(no data)" in text  # all-None series has no scale
        text = render_series("t", ["a", "b"], {"s": [None, 5.0]})
        assert "N/A" in text

    def test_log_scale_compresses(self):
        text_log = render_series("t", ["x"], {"a": [1.0], "b": [1000.0]}, log=True)
        text_lin = render_series("t", ["x"], {"a": [1.0], "b": [1000.0]}, log=False)

        def bar_length(text, name):
            for line in text.splitlines():
                if line.strip().startswith(name):
                    return line.count("#")
            raise AssertionError(name)

        assert bar_length(text_lin, "a") == 1
        assert bar_length(text_log, "a") >= 1
        assert bar_length(text_log, "b") > bar_length(text_log, "a")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values for"):
            render_series("t", ["a", "b"], {"s": [1.0]})

    def test_zero_value_minimal_bar(self):
        text = render_series("t", ["a"], {"s": [0.0], "u": [10.0]})
        assert "|" in text
