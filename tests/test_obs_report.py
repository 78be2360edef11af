"""Integration tests for run reports and the trace round-trip guarantee."""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import FaultProfile, OutageWindow
from repro.obs import RecordingTracer, RunReport, parse_jsonl
from repro.schemes import HyrdScheme
from repro.sim.clock import SimClock
from tests.conftest import instrument_facts

KB = 1024


@pytest.fixture(scope="module")
def traced_run():
    """A small traced HyRD run with an outage mid-way: puts, degraded
    reads, updates, a heal — enough to light up every report section."""
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    scheme = HyrdScheme(list(fleet.values()), clock, tracer=tracer)
    payloads = {}
    for i in range(4):
        payloads[f"/d/f{i}"] = bytes([i]) * ((8 if i % 2 else 600) * KB)
        scheme.put(f"/d/f{i}", payloads[f"/d/f{i}"])
    fleet["azure"].faults.add(OutageWindow(clock.now, clock.now + 7200.0))
    for path, payload in payloads.items():
        data, _ = scheme.get(path)
        assert data == payload
    scheme.update("/d/f1", 0, b"v2" * (4 * KB))
    fleet["azure"].faults = FaultProfile().bind("azure")  # the provider returns
    scheme.heal_returned()
    return scheme, tracer


class TestFromScheme:
    def test_report_snapshot(self, traced_run):
        scheme, tracer = traced_run
        report = RunReport.from_scheme(scheme)
        assert report.scheme == scheme.name
        assert report.seed == scheme.seed
        assert len(report.reports) == len(scheme.collector.reports)
        assert report.records is not None
        assert len(report.records) == len(tracer.records)

    def test_untraced_scheme_has_no_records(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = HyrdScheme(list(fleet.values()), clock)
        scheme.put("/x", b"a" * KB)
        report = RunReport.from_scheme(scheme)
        assert report.records is None
        rendered = report.render()
        # Metric-backed sections render without a trace...
        assert "Latency by op" in rendered
        assert "Per-provider traffic" in rendered
        # ...trace-backed sections do not.
        assert "Request timeline" not in rendered
        assert "Flame summary" not in rendered

    def test_sections_present(self, traced_run):
        scheme, _ = traced_run
        rendered = RunReport.from_scheme(scheme).render()
        for needle in (
            "Run report — scheme=hyrd",
            "Latency by op",
            "p50",
            "Degraded split",
            "Time breakdown",
            "Resilience counters",
            "Per-provider traffic",
            "Request timeline",
            "Flame summary",
        ):
            assert needle in rendered
        # The outage actually produced degraded ops and provider errors.
        assert any(r.degraded for r in scheme.collector.reports)
        assert scheme.registry.sum_by_label(
            "provider_errors_total", "provider"
        ).get("azure", 0) > 0


class TestTraceRoundTrip:
    def test_replayed_report_is_byte_identical(self, traced_run):
        scheme, tracer = traced_run
        live = RunReport.from_scheme(scheme).render()
        records = parse_jsonl(tracer.to_jsonl().splitlines())
        assert RunReport.from_trace(records).render() == live

    def test_replay_rebuilds_reports_and_registry(self, traced_run):
        scheme, tracer = traced_run
        records = parse_jsonl(tracer.to_jsonl().splitlines())
        replayed = RunReport.from_trace(records)
        assert replayed.scheme == scheme.name
        assert replayed.seed == scheme.seed
        assert replayed.reports == scheme.collector.reports
        assert instrument_facts(replayed.registry) == instrument_facts(scheme.registry)
        assert sum(r["t"] == "registry" for r in records) == 1
        assert records[-1]["t"] == "registry"

    def test_tenant_round_trips_and_is_absent_when_unset(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock)
        scheme = HyrdScheme(list(fleet.values()), clock, tracer=tracer)
        scheme.put("/d/free", b"f" * KB)
        with scheme.tenant_context("t1"):
            scheme.put("/d/t1", b"t" * (600 * KB))
            scheme.get("/d/t1")
        scheme.get("/d/free")
        records = parse_jsonl(tracer.to_jsonl().splitlines())
        assert RunReport.from_trace(records).reports == scheme.collector.reports
        roots = [r for r in records if r["t"] == "span" and r["parent"] is None]
        tenants = [r["attrs"].get("tenant", "-") for r in roots]
        assert tenants == ["-", "t1", "t1", "-"]

    def test_replay_from_live_records_too(self, traced_run):
        # from_trace accepts the unserialised export as well.
        scheme, tracer = traced_run
        live = RunReport.from_scheme(scheme).render()
        assert RunReport.from_trace(tracer.export_records()).render() == live

    def test_spans_without_a_registry_record_raise(self, traced_run):
        _, tracer = traced_run
        assert all(r["t"] != "registry" for r in tracer.records)
        with pytest.raises(ValueError, match="no registry record"):
            RunReport.from_trace(tracer.records)


class TestCli:
    def test_report_command_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.jsonl"
        assert main(["report", "--trace-out", str(trace_path)]) == 0
        live = capsys.readouterr().out
        assert "Run report — scheme=hyrd" in live
        assert trace_path.exists()

        assert main(["report", "--from-trace", str(trace_path)]) == 0
        assert capsys.readouterr().out == live
