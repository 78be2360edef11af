"""Observability for the simulated cloud-of-clouds: tracing, reports, SLOs.

``repro.obs`` is the *consumer* side of the instrumentation stack:

- :mod:`repro.obs.trace` — span tracer on the sim clock (no-op by default),
  JSON-lines export, flame summaries;
- :mod:`repro.obs.report` — per-scheme run reports (latency percentiles by
  op, degraded split, time breakdown, resilience counters, per-provider
  timeline), renderable from a live scheme or replayed from a trace file;
- :mod:`repro.obs.timeseries` — cadence-driven registry snapshots into a
  bounded ring buffer, JSON-lines export/import symmetric to the trace
  format (the live feed behind ``repro watch``);
- :mod:`repro.obs.slo` — sliding-window SLO tracking: read/write
  availability, degraded-read fraction, error-budget burn, and per-provider
  empirical MTBF/MTTR from breaker edges vs the injected ground truth;
- :mod:`repro.obs.dashboard` — stdlib ANSI terminal dashboard over a live
  sampler or a saved time-series file;
- :mod:`repro.obs.attribution` — critical-path analyzer decomposing each
  op's wall-clock into a fixed phase taxonomy with machine-checked exact
  coverage, plus the per-provider load observatory and latency-bucket
  exemplar store (the engine behind ``repro explain``).

The *producer* side — metric instruments and the catalog that documents
them — lives in :mod:`repro.metrics` so the collector can depend on it
without an import cycle.  See ``docs/observability.md`` and ``docs/slo.md``
for the prose guides.
"""

from repro.obs.attribution import (
    COVERAGE_TOLERANCE,
    PHASES,
    AttributionReport,
    CoverageError,
    ExemplarStore,
    OpAttribution,
    ProviderLoadObservatory,
    attribute_trace,
    attributions_to_jsonl,
    parse_attribution_jsonl,
    read_attribution_jsonl,
    render_attribution,
)
from repro.obs.trace import (
    NOOP_TRACER,
    NoopTracer,
    RecordingTracer,
    SpanRecord,
    flame_summary,
    parse_jsonl,
    read_jsonl,
    span_tree,
)
from repro.obs.report import RunReport, run_fault_storm_report
from repro.obs.slo import (
    IntervalLedger,
    ProviderSlo,
    SloTracker,
    TenantRollup,
)
from repro.obs.timeseries import MetricTimeSeries, TimeSeriesSampler

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "RecordingTracer",
    "SpanRecord",
    "flame_summary",
    "parse_jsonl",
    "read_jsonl",
    "span_tree",
    "COVERAGE_TOLERANCE",
    "PHASES",
    "AttributionReport",
    "CoverageError",
    "ExemplarStore",
    "OpAttribution",
    "ProviderLoadObservatory",
    "attribute_trace",
    "attributions_to_jsonl",
    "parse_attribution_jsonl",
    "read_attribution_jsonl",
    "render_attribution",
    "RunReport",
    "run_fault_storm_report",
    "MetricTimeSeries",
    "TimeSeriesSampler",
    "SloTracker",
    "TenantRollup",
    "IntervalLedger",
    "ProviderSlo",
]
