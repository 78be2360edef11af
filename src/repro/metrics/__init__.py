"""Metrics: per-operation reports, typed registry, catalog, summaries.

Three layers, lowest first:

- :mod:`repro.metrics.stats` — exact percentile summaries over raw samples;
- :mod:`repro.metrics.registry` — typed counters/gauges/histograms with
  label support, fixed-bucket percentile estimation, and a lossless state
  codec (``state`` / ``from_state``) that a trace's closing record carries;
  every runtime metric name is validated against
  :data:`repro.metrics.catalog.METRIC_CATALOG` (see
  ``docs/metrics-reference.md``);
- :mod:`repro.metrics.collector` — the per-scheme :class:`LatencyCollector`
  that turns :class:`OpReport` streams into the registry's instruments.
"""

from repro.metrics.catalog import METRIC_CATALOG, MetricSpec, catalog_markdown_table
from repro.metrics.collector import LatencyCollector, OpReport
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    UnknownMetricError,
)
from repro.metrics.stats import LatencySummary, summarize

__all__ = [
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyCollector",
    "LatencySummary",
    "MetricSpec",
    "MetricsRegistry",
    "OpReport",
    "UnknownMetricError",
    "catalog_markdown_table",
    "summarize",
]
