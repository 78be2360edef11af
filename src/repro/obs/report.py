"""Run reports: one renderable summary of everything a run emitted.

A :class:`RunReport` condenses a scheme run into the tables the paper's
evaluation reasons about — latency percentiles by operation, the
normal-vs-degraded split, the RTT-wait/transfer time breakdown, resilience
counters, and per-provider traffic — plus, when tracing was on, a
per-provider activity timeline and a flame summary of where simulated time
went.

Two constructors, one renderer:

- :meth:`RunReport.from_scheme` reads a live scheme (its collector,
  registry, and tracer);
- :meth:`RunReport.from_trace` replays a JSON-lines trace: metric events
  rebuild the registry, root ``op.*`` spans rebuild the
  :class:`~repro.metrics.collector.OpReport` stream.

Because the registry mirrors *every* mutation into the trace and JSON
round-trips floats exactly, the two paths produce byte-identical reports
for the same run — the round-trip guarantee the test suite enforces.

The ``repro report`` CLI subcommand wraps :func:`run_fault_storm_report`
(a traced HyRD run under the canonical fault storm) and can re-render any
saved trace with ``--from-trace``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.metrics.collector import OpReport
from repro.metrics.registry import Histogram, MetricsRegistry
from repro.obs.trace import RecordingTracer, flame_summary

__all__ = ["RunReport", "run_fault_storm_report", "render_table", "format_cell"]

_TIMELINE_BINS = 10


# Fixed-width ASCII tables for every renderer in the repo (re-exported as
# ``repro.analysis.tables``).  They live here, not in ``repro.analysis``,
# because that package's init imports the scheme layer, which imports
# ``repro.obs``.
def format_cell(value: object, floatfmt: str = ".3f") -> str:
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    floatfmt: str = ".3f",
) -> str:
    """Render a fixed-width table with a separator under the header."""
    cells = [[format_cell(v, floatfmt) for v in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[c])), *(len(r[c]) for r in cells)) if cells else len(str(headers[c]))
        for c in range(len(headers))
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class RunReport:
    """Everything needed to render one run's summary.

    ``records`` is the raw trace (list of record dicts) when tracing was on,
    else ``None`` — the timeline and flame sections only render with it.
    """

    scheme: str
    seed: int | None
    reports: list[OpReport]
    registry: MetricsRegistry
    records: list[dict[str, Any]] | None = field(default=None, repr=False)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_scheme(cls, scheme) -> "RunReport":
        """Snapshot a live scheme (any :class:`repro.schemes.base.Scheme`)."""
        records = list(scheme.tracer.records) if scheme.tracer.enabled else None
        return cls(
            scheme=scheme.name,
            seed=scheme.seed,
            reports=list(scheme.collector.reports),
            registry=scheme.registry,
            records=records,
        )

    @classmethod
    def from_trace(cls, records: list[dict[str, Any]]) -> "RunReport":
        """Rebuild a report from trace records (see :func:`repro.obs.read_jsonl`).

        Metric events replay into a fresh registry; root ``op.*`` spans (the
        ones :meth:`Scheme._op` closes, carrying the full OpReport as
        attributes) rebuild the report stream in completion order.
        """
        meta: dict[str, Any] = {}
        registry = MetricsRegistry()
        reports: list[OpReport] = []
        for r in records:
            t = r.get("t")
            if t == "meta":
                meta.update(r["attrs"])
            elif t == "metric":
                registry.apply_event(
                    r["kind"], r["name"], dict(r["labels"]), r["value"]
                )
            elif t == "span" and r["end"] < r["start"]:
                raise ValueError(
                    f"span {r['id']} ({r['name']!r}) ends before it starts: "
                    f"start={r['start']}, end={r['end']} — clock misuse or a "
                    "corrupted trace"
                )
            elif (
                t == "span"
                and r["parent"] is None
                and r["name"].startswith("op.")
                and r["name"] != "op.error"
            ):
                reports.append(OpReport.from_span_attrs(r["attrs"]))
        return cls(
            scheme=str(meta.get("scheme", "?")),
            seed=meta.get("seed"),
            reports=reports,
            registry=registry,
            records=list(records),
        )

    # ----------------------------------------------------------------- render
    def render(self) -> str:
        """The full human-readable report."""
        parts = [self._header()]
        for section in (
            self._latency_section(),
            self._degraded_section(),
            self._time_breakdown_section(),
            self._attribution_section(),
            self._resilience_section(),
            self._provider_section(),
            self._timeline_section(),
            self._flame_section(),
        ):
            if section:
                parts.append(section)
        return "\n\n".join(parts)

    def _header(self) -> str:
        busy = sum(r.elapsed for r in self.reports)
        return (
            f"Run report — scheme={self.scheme} seed={self.seed} "
            f"ops={len(self.reports)} op_time={busy:.3f}s"
        )

    def _op_histograms(self) -> dict[str, Histogram]:
        out: dict[str, Histogram] = {}
        for m in self.registry.all_metrics():
            if isinstance(m, Histogram) and m.name == "op_latency_seconds":
                out[dict(m.labels).get("op", "")] = m
        return out

    def _latency_section(self) -> str:
        hists = self._op_histograms()
        if not hists:
            return ""
        rows = []
        for op in sorted(hists):
            s = hists[op].summary()
            rows.append(
                [op, int(s["count"]), s["mean"], s["p50"], s["p95"], s["p99"], s["max"]]
            )
        return render_table(
            ["Op", "Count", "Mean", "p50", "p95", "p99", "Max"],
            rows,
            title="Latency by op (s; p50/p95/p99 are bucket estimates)",
            floatfmt=".4f",
        )

    def _degraded_section(self) -> str:
        split = self.registry.breakdown("ops_total", "op", "degraded")
        if not split:
            return ""
        ops = sorted({op for op, _ in split})
        rows = []
        for op in ops:
            normal = split.get((op, "false"), 0)
            degraded = split.get((op, "true"), 0)
            total = normal + degraded
            rows.append([op, normal, degraded, degraded / total if total else 0.0])
        total_norm = sum(r[1] for r in rows)
        total_deg = sum(r[2] for r in rows)
        grand = total_norm + total_deg
        rows.append(
            ["(all)", total_norm, total_deg, total_deg / grand if grand else 0.0]
        )
        return render_table(
            ["Op", "Normal", "Degraded", "Degraded frac"],
            rows,
            title="Degraded split (ops that took a reconstruction/fallback path)",
            floatfmt=".3f",
        )

    def _time_breakdown_section(self) -> str:
        if not self.reports:
            return ""
        rtt = sum(r.rtt_wait for r in self.reports)
        transfer = sum(r.transfer_time for r in self.reports)
        total = sum(r.elapsed for r in self.reports)
        return render_table(
            ["RTT wait", "Transfer", "Total"],
            [[rtt, transfer, total]],
            title="Time breakdown (critical-path seconds, summed over ops)",
            floatfmt=".3f",
        )

    def _attribution_section(self) -> str:
        """Phase shares from the critical-path analyzer (traced runs only).

        The one-line summary version of ``repro explain``: each op's window
        decomposed into the fixed phase taxonomy, summed over the run.
        """
        if not self.records:
            return ""
        from repro.obs.attribution import PHASES, attribute_trace

        attr = attribute_trace(self.records)
        if not attr.ops:
            return ""
        totals = attr.totals()
        shares = attr.shares()
        rows = [
            [p, totals[p], f"{shares[p]:.1%}"]
            for p in PHASES
            if totals[p] > 0.0
        ]
        return render_table(
            ["Phase", "Seconds", "Share"],
            rows,
            title="Critical-path attribution (phases tile each op's wall-clock; "
            "see `repro explain`)",
            floatfmt=".3f",
        )

    def _resilience_section(self) -> str:
        counters = self.registry.counters()
        if not counters:
            return ""
        rows = [[name, value] for name, value in sorted(counters.items())]
        return render_table(
            ["Counter", "Value"], rows, title="Resilience counters"
        )

    def _provider_section(self) -> str:
        requests = self.registry.sum_by_label("provider_requests_total", "provider")
        if not requests:
            return ""
        errors = self.registry.sum_by_label("provider_errors_total", "provider")
        up = self.registry.sum_by_label("provider_bytes_up_total", "provider")
        down = self.registry.sum_by_label("provider_bytes_down_total", "provider")
        logged = self.registry.sum_by_label("write_log_entries_total", "provider")
        healed = self.registry.sum_by_label("heal_replayed_total", "provider")
        rows = [
            [
                name,
                requests.get(name, 0),
                errors.get(name, 0),
                up.get(name, 0),
                down.get(name, 0),
                logged.get(name, 0),
                healed.get(name, 0),
            ]
            for name in sorted(requests)
        ]
        return render_table(
            ["Provider", "Requests", "Errors", "Bytes up", "Bytes down",
             "Logged", "Healed"],
            rows,
            title="Per-provider traffic",
        )

    def _timeline_section(self) -> str:
        if not self.records:
            return ""
        spans = [
            r
            for r in self.records
            if r.get("t") == "span" and r["name"] == "request"
        ]
        if not spans:
            return ""
        t0 = min(r["start"] for r in spans)
        t1 = max(r["end"] for r in spans)
        width = max(t1 - t0, 1e-9)
        bins: dict[str, list[int]] = {}
        for r in spans:
            provider = r["attrs"].get("provider", "?")
            idx = min(
                int((r["start"] - t0) / width * _TIMELINE_BINS), _TIMELINE_BINS - 1
            )
            bins.setdefault(provider, [0] * _TIMELINE_BINS)[idx] += 1
        rows = [[name] + counts for name, counts in sorted(bins.items())]
        headers = ["Provider"] + [f"b{i}" for i in range(_TIMELINE_BINS)]
        return render_table(
            headers,
            rows,
            title=(
                f"Request timeline (requests started per bin; "
                f"sim t={t0:.1f}s..{t1:.1f}s, {_TIMELINE_BINS} bins)"
            ),
        )

    def _flame_section(self) -> str:
        if not self.records:
            return ""
        return "Flame summary (simulated seconds by span path)\n" + flame_summary(
            self.records
        )


def run_fault_storm_report(
    seed: int = 0, trace: bool = True, slo=None, sampler=None, observatory=None
) -> tuple[RunReport, "RecordingTracer | None"]:
    """Run HyRD through the canonical fault storm with tracing on.

    The same run as ``benchmarks/test_fault_storm.py``: a PostMark
    workload rides out a brownout, a transient-error burst, and a flapping
    provider, healing between operations.  Returns ``(report, tracer)`` —
    the tracer (or ``None`` when ``trace=False``) holds the JSON-lines
    exportable trace for ``repro report --trace-out``.

    ``slo`` optionally attaches an :class:`~repro.obs.slo.SloTracker` (it is
    fed the fleet's ground-truth fault schedule and published at end of run);
    ``sampler`` optionally attaches a
    :class:`~repro.obs.timeseries.TimeSeriesSampler` polled between ops —
    the live feed behind ``repro watch``; ``observatory`` optionally attaches
    a :class:`~repro.obs.attribution.ProviderLoadObservatory` (per-provider
    load gauges + exemplar linking, the live feed behind ``repro explain``).
    All default to None and, like the tracer, never perturb the simulated
    timings.

    Deterministic: the same seed reproduces the identical report and trace.
    """
    # Imports are local so repro.obs stays importable from the scheme layer
    # (schemes.base -> obs.trace) without a circular module chain.
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.core.resilience import ResilienceConfig
    from repro.faults import make_fault_storm
    from repro.schemes import HyrdScheme
    from repro.sim.clock import SimClock
    from repro.sim.rng import make_rng
    from repro.workloads.filesizes import LogUniformFileSizes
    from repro.workloads.postmark import PostMarkConfig, generate_postmark
    from repro.workloads.trace import TraceReplayer

    kb, mb = 1024, 1024 * 1024
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    config = HyRDConfig(
        size_threshold=256 * kb, resilience=ResilienceConfig(hedge_reads=True)
    )
    tracer = RecordingTracer(clock) if trace else None
    # Build against a healthy fleet, then land the storm mid-deployment —
    # otherwise the construction-time probes would classify the faulted
    # providers straight out of placement (see benchmarks/test_fault_storm.py).
    scheme = HyrdScheme(list(fleet.values()), clock, config=config, tracer=tracer)
    make_fault_storm(t0=15.0, duration=36000.0, seed=seed).apply(fleet)
    if slo is not None:
        scheme.attach_slo(slo)
    if observatory is not None:
        scheme.attach_observatory(observatory)
    if sampler is not None:
        sampler.slo = slo if sampler.slo is None else sampler.slo
        sampler.bind(scheme.registry, clock, meta={"scheme": scheme.name, "seed": seed})
    # Same workload as the benchmark: long enough to span the flapping
    # provider's downtime *and* its return, so the trace shows the breaker
    # trip, fast-fail and recover.
    ops = generate_postmark(
        PostMarkConfig(
            file_pool=15,
            transactions=120,
            sizes=LogUniformFileSizes(lo=64 * kb, hi=8 * mb),
        ),
        make_rng(seed, "fault-storm"),
    )
    TraceReplayer(seed=seed).run(scheme, ops, heal_between=True, sampler=sampler)
    if slo is not None:
        slo.ingest_ground_truth(fleet.values(), 0.0, clock.now)
        slo.publish(clock.now)
    if sampler is not None:
        sampler.finish()
    return RunReport.from_scheme(scheme), tracer
