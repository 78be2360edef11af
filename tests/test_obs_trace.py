"""Unit tests for the span tracer: recording, export, and the no-op path."""

import pytest

import repro.obs.trace as trace_mod
from repro.metrics.registry import MetricsRegistry
from repro.obs.trace import (
    NOOP_TRACER,
    RecordingTracer,
    SpanRecord,
    flame_summary,
    parse_jsonl,
    read_jsonl,
)


class FakeClock:
    """Minimal stand-in for SimClock: just a settable ``now``."""

    def __init__(self):
        self.now = 0.0


class TestRecordingTracer:
    def test_span_records_on_close_with_clock_times(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock)
        with tracer.span("op.put", path="/a") as sp:
            clock.now = 2.5
            sp.set(outcome="ok")
        [rec] = tracer.records
        assert rec == {
            "t": "span", "id": 1, "parent": None, "name": "op.put",
            "start": 0.0, "end": 2.5, "attrs": {"path": "/a", "outcome": "ok"},
        }

    def test_nesting_sets_parent_ids(self):
        tracer = RecordingTracer(FakeClock())
        with tracer.span("op.get"):
            with tracer.span("request"):
                pass
            with tracer.span("codec.decode"):
                pass
        names = {r["name"]: r for r in tracer.records}
        root = names["op.get"]
        assert root["parent"] is None
        assert names["request"]["parent"] == root["id"]
        assert names["codec.decode"]["parent"] == root["id"]
        # Children close first, so they precede the root in the record list.
        assert [r["name"] for r in tracer.records][-1] == "op.get"

    def test_add_backfills_explicit_times_under_open_span(self):
        tracer = RecordingTracer(FakeClock())
        with tracer.span("op.put") as sp:
            tracer.add("request", 1.0, 3.0, provider="azure")
        req = next(r for r in tracer.records if r["name"] == "request")
        assert (req["start"], req["end"]) == (1.0, 3.0)
        assert req["parent"] == sp.span_id

    def test_event_and_meta(self):
        clock = FakeClock()
        clock.now = 7.0
        tracer = RecordingTracer(clock)
        tracer.meta(scheme="hyrd", seed=3)
        tracer.event("hedge.fired", primary="aliyun")
        assert tracer.records[0] == {"t": "meta", "attrs": {"scheme": "hyrd", "seed": 3}}
        assert tracer.records[1] == {
            "t": "event", "name": "hedge.fired", "time": 7.0, "span": None,
            "attrs": {"primary": "aliyun"},
        }
        with tracer.span("op.get") as sp:
            tracer.event("hedge.win", provider="azure")
        inside = next(r for r in tracer.records if r.get("name") == "hedge.win")
        assert inside["span"] == sp.span_id

    def test_spans_reconstruct_records(self):
        tracer = RecordingTracer(FakeClock())
        with tracer.span("op.get", path="/x"):
            pass
        [span] = tracer.spans()
        assert isinstance(span, SpanRecord)
        assert span.name == "op.get"
        assert span.duration == 0.0
        assert span.attrs == {"path": "/x"}

    def test_never_advances_the_clock(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock)
        with tracer.span("op.stat"):
            tracer.event("e")
        assert clock.now == 0.0


class TestJsonlRoundTrip:
    def _tracer(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock)
        tracer.meta(scheme="hyrd", seed=0)
        with tracer.span("op.put", path="/a"):
            clock.now = 0.1234567890123  # exercise float round-tripping
            tracer.add("request", 0.0, 0.1234567890123, provider="azure")
        return tracer

    def test_parse_inverts_to_jsonl(self):
        tracer = self._tracer()
        parsed = parse_jsonl(tracer.to_jsonl().splitlines())
        assert parsed == tracer.records

    def test_export_closes_with_one_registry_snapshot(self):
        tracer = self._tracer()
        assert tracer.export_records() == tracer.records  # no registry handed over
        tracer.registry = MetricsRegistry()
        tracer.registry.counter("retries").inc(3)
        *rest, last = parse_jsonl(tracer.to_jsonl().splitlines())
        assert rest == tracer.records  # in-memory records stay spans/events/meta
        assert last == {"t": "registry", **tracer.registry.state()}
        assert MetricsRegistry.from_state(last).counter_value("retries") == 3

    def test_floats_survive_exactly(self):
        tracer = self._tracer()
        parsed = parse_jsonl(tracer.to_jsonl().splitlines())
        req = next(r for r in parsed if r.get("name") == "request")
        assert req["end"] == 0.1234567890123

    def test_write_and_read_file(self, tmp_path):
        tracer = self._tracer()
        path = tmp_path / "run.jsonl"
        tracer.write_jsonl(path)
        assert read_jsonl(path) == parse_jsonl(tracer.to_jsonl().splitlines())

    def test_blank_lines_skipped(self):
        assert parse_jsonl(["", '{"t":"meta","attrs":{}}', "  "]) == [
            {"t": "meta", "attrs": {}}
        ]


class TestFlameSummary:
    def test_empty(self):
        assert flame_summary([]) == "(no spans recorded)"

    def test_groups_by_path_and_indents(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock)
        for _ in range(2):
            with tracer.span("op.get"):
                tracer.add("request", clock.now, clock.now + 1.0)
                clock.now += 2.0
        text = flame_summary(tracer.records)
        lines = text.splitlines()
        assert lines[1].startswith("op.get")
        assert "      2" in lines[1]  # two op.get calls aggregated
        assert lines[2].startswith("  request")

    def test_max_depth_prunes(self):
        tracer = RecordingTracer(FakeClock())
        with tracer.span("alpha"):
            with tracer.span("beta"):
                with tracer.span("gamma"):
                    pass
        text = flame_summary(tracer.records, max_depth=2)
        assert "beta" in text and "gamma" not in text


class TestNoopTracer:
    def test_interface_is_inert(self):
        assert NOOP_TRACER.enabled is False
        span = NOOP_TRACER.span("anything", key="value")
        with span as s:
            s.set(more="attrs")
        # One shared null span serves every call site.
        assert NOOP_TRACER.span("other") is span
        NOOP_TRACER.add("x", 0.0, 1.0)
        NOOP_TRACER.event("x")
        NOOP_TRACER.meta(scheme="hyrd")

    def test_noop_run_allocates_no_span_records(self, monkeypatch):
        """A full scheme run with the default tracer must never construct a
        SpanRecord: make construction raise and run a put/get round trip."""

        class Boom(SpanRecord):
            def __init__(self, *a, **k):
                raise AssertionError("SpanRecord allocated in no-op mode")

        monkeypatch.setattr(trace_mod, "SpanRecord", Boom)

        from repro.cloud.provider import make_table2_cloud_of_clouds
        from repro.schemes import HyrdScheme
        from repro.sim.clock import SimClock

        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = HyrdScheme(list(fleet.values()), clock)  # default NOOP_TRACER
        assert scheme.tracer is NOOP_TRACER
        payload = bytes(range(256)) * 64
        scheme.put("/t/file", payload)
        data, report = scheme.get("/t/file")
        assert data == payload
        assert report.elapsed > 0

    def test_recording_tracer_does_allocate(self, monkeypatch):
        """Sanity check for the test above: the patched class *does* fire
        when a recording tracer is used."""

        class Boom(SpanRecord):
            def __init__(self, *a, **k):
                raise AssertionError("allocated")

        monkeypatch.setattr(trace_mod, "SpanRecord", Boom)
        tracer = RecordingTracer(FakeClock())
        with pytest.raises(AssertionError, match="allocated"):
            tracer.span("op.get")
