"""Benchmark harness: measurement, cost model, scaling presets, reports."""

from .chart import render_series
from .costmodel import CacheModel, DEFAULT_MODEL, modeled_mlps
from .experiments import ALL_EXPERIMENTS, run_experiment
from .harness import (
    BuildMeasurement,
    EngineMeasurement,
    LookupMeasurement,
    measure_build,
    measure_engine_rate,
    measure_lookup_rate,
)
from .memory import deep_sizeof, memory_comparison, modeled_bytes, palmtrie_plus_bytes
from .report import Table, format_rate, format_seconds, save_report
from .scale import SCALES, Scale, current_scale

__all__ = [
    "ALL_EXPERIMENTS",
    "BuildMeasurement",
    "CacheModel",
    "DEFAULT_MODEL",
    "EngineMeasurement",
    "LookupMeasurement",
    "SCALES",
    "Scale",
    "Table",
    "current_scale",
    "deep_sizeof",
    "format_rate",
    "format_seconds",
    "measure_build",
    "measure_engine_rate",
    "measure_lookup_rate",
    "memory_comparison",
    "modeled_bytes",
    "modeled_mlps",
    "palmtrie_plus_bytes",
    "render_series",
    "run_experiment",
    "save_report",
]
