"""Unit tests for the typed metrics registry and its catalog."""

import pytest

from repro.metrics.catalog import METRIC_CATALOG, MetricSpec, catalog_markdown_table
from repro.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS,
    HeldInstruments,
    Histogram,
    MetricsRegistry,
    UnknownMetricError,
)


class TestCounter:
    def test_inc_accumulates(self):
        r = MetricsRegistry()
        r.counter("retries").inc()
        r.counter("retries").inc(3)
        assert r.counter_value("retries") == 4

    def test_negative_inc_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("retries").inc(-1)

    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        a = r.counter("provider_requests_total", provider="azure", op="get")
        b = r.counter("provider_requests_total", op="get", provider="azure")
        assert a is b  # label order must not matter
        assert len(r) == 1

    def test_unread_counter_is_zero(self):
        assert MetricsRegistry().counter_value("retries") == 0


class TestHandleMemo:
    """A repeated *(name, labels as passed)* is answered from a first-level
    memo; it must never answer differently from the canonical key."""

    def test_repeats_in_either_label_order_are_one_instrument(self):
        r = MetricsRegistry(strict=False)
        first = r.counter("x", a="1", b="2")
        assert r.counter("x", b="2", a="1") is first
        assert r.counter("x", b="2", a="1") is first  # memoised under both orders
        assert r.counter("x", a="1", b="2") is first
        assert r.counter("x", a="1", b="3") is not first
        assert len(r) == 2

    @pytest.mark.parametrize("first_seen", [1, True, 1.0, "1"])
    def test_non_str_label_values_never_alias(self, first_seen):
        # 1 == True == 1.0 hash alike, but their canonical labels are "1",
        # "True" and "1.0": whichever is seen first, each keeps its own.
        r = MetricsRegistry(strict=False)
        r.counter("x", a=first_seen).inc()
        for _ in range(2):
            assert r.counter("x", a=1) is r.counter("x", a="1")
            assert r.counter("x", a=True) is r.counter("x", a="True")
            assert r.counter("x", a=1.0) is r.counter("x", a="1.0")
        assert len(r) == 3
        assert r.counter_value("x", a=str(first_seen)) == 1

    def test_strict_check_still_runs_on_first_use(self):
        r = MetricsRegistry()
        r.counter("provider_requests_total", provider="azure", op="get").inc()
        for _ in range(2):  # a refused lookup memoises nothing
            with pytest.raises(UnknownMetricError):
                r.counter("provider_requests_total", provider="azure")
            with pytest.raises(UnknownMetricError):
                r.counter("no_such_metric", provider="azure", op="get")
        assert len(r) == 1


class TestHeldInstruments:
    def test_keys_resolve_through_the_catalog_once(self):
        r = MetricsRegistry()
        held = HeldInstruments(r)
        ops = held["ops_total", "false", "get"]  # labels in catalog order
        assert ops is r.counter("ops_total", op="get", degraded="false")
        assert held["ops_total", "false", "get"] is ops
        assert held["admission_queued"] is r.gauge("admission_queued")
        wait = held["sched_queue_wait_seconds", "azure"]
        assert wait is r.histogram("sched_queue_wait_seconds", provider="azure")
        assert len(held) == 3 and len(r) == 3

    def test_unknown_or_mislabelled_keys_raise_and_hold_nothing(self):
        held = HeldInstruments(MetricsRegistry(strict=False))
        with pytest.raises(UnknownMetricError):
            held["no_such_metric"]
        with pytest.raises(UnknownMetricError):
            HeldInstruments(MetricsRegistry())["ops_total", "get"]
        assert len(held) == 0


class TestGauge:
    def test_last_write_wins(self):
        r = MetricsRegistry()
        g = r.gauge("write_log_pending", provider="azure")
        g.set(3)
        g.set(1)
        assert g.value == 1.0


class TestHistogram:
    def test_empty(self):
        r = MetricsRegistry()
        h = r.histogram("op_latency_seconds", op="get")
        s = h.summary()
        assert s == {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                     "p99": 0.0, "max": 0.0}

    def test_single_sample_is_exact(self):
        r = MetricsRegistry()
        h = r.histogram("op_latency_seconds", op="get")
        h.observe(0.173)
        s = h.summary()
        assert s["count"] == 1.0
        # Clamping to the observed range makes one sample exact at every q.
        assert s["p50"] == s["p95"] == s["p99"] == s["max"] == 0.173

    def test_ties_report_the_tied_value(self):
        r = MetricsRegistry()
        h = r.histogram("op_latency_seconds", op="get")
        for _ in range(10):
            h.observe(0.4)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["p99"] == 0.4
        assert s["mean"] == pytest.approx(0.4)

    def test_percentiles_are_monotone(self):
        r = MetricsRegistry()
        h = r.histogram("op_latency_seconds", op="get")
        for v in (0.01, 0.02, 0.2, 0.4, 0.9, 3.0, 7.5):
            h.observe(v)
        assert h.percentile(50) <= h.percentile(95) <= h.percentile(99) <= h.max

    def test_overflow_bucket(self):
        r = MetricsRegistry()
        h = r.histogram("op_latency_seconds", op="get")
        h.observe(DEFAULT_LATENCY_BUCKETS[-1] * 10)
        assert h.counts[-1] == 1
        assert h.percentile(99) == h.max

    def test_negative_sample_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.histogram("op_latency_seconds", op="get").observe(-0.1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", (), None, bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", (), None, bounds=())

    def test_bad_percentile_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.histogram("op_latency_seconds", op="get").percentile(101)


class TestStrictCatalog:
    def test_unknown_name_raises(self):
        with pytest.raises(UnknownMetricError):
            MetricsRegistry().counter("not_a_real_metric")

    def test_wrong_type_raises(self):
        with pytest.raises(UnknownMetricError):
            MetricsRegistry().gauge("retries")  # declared as a counter

    def test_wrong_labels_raise(self):
        with pytest.raises(UnknownMetricError):
            MetricsRegistry().counter("retries", provider="azure")

    def test_non_strict_allows_anything(self):
        r = MetricsRegistry(strict=False)
        r.counter("ad_hoc", anything="goes").inc()
        assert r.counter_value("ad_hoc", anything="goes") == 1

    def test_every_spec_is_well_formed(self):
        for spec in METRIC_CATALOG.values():
            assert isinstance(spec, MetricSpec)
            assert spec.type in ("counter", "gauge", "histogram")
            assert spec.labels == tuple(sorted(spec.labels))
            assert spec.description

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MetricSpec(name="x", type="timer", description="d")
        with pytest.raises(ValueError):
            MetricSpec(name="x", type="counter", description="d",
                       labels=("z", "a"))

    def test_markdown_table_covers_the_catalog(self):
        table = catalog_markdown_table()
        for name in METRIC_CATALOG:
            assert f"`{name}`" in table


class TestQueries:
    @pytest.fixture
    def registry(self):
        r = MetricsRegistry()
        r.counter("retries").inc(2)
        r.counter("hedged_reads").inc()
        for provider, op, n in (("azure", "get", 3), ("azure", "put", 2),
                                ("aliyun", "get", 5)):
            r.counter("provider_requests_total", provider=provider, op=op).inc(n)
        r.counter("ops_total", op="get", degraded="true").inc(1)
        r.counter("ops_total", op="get", degraded="false").inc(4)
        return r

    def test_unlabeled_counters(self, registry):
        assert registry.counters() == {"hedged_reads": 1, "retries": 2}

    def test_counters_by_name(self, registry):
        by_label = registry.counters("provider_requests_total")
        assert by_label[(("op", "get"), ("provider", "azure"))] == 3

    def test_sum_by_label(self, registry):
        assert registry.sum_by_label("provider_requests_total", "provider") == {
            "azure": 5, "aliyun": 5,
        }
        assert registry.sum_by_label("provider_requests_total", "op") == {
            "get": 8, "put": 2,
        }

    def test_breakdown(self, registry):
        split = registry.breakdown("ops_total", "op", "degraded")
        assert split[("get", "true")] == 1
        assert split[("get", "false")] == 4

    def test_emitted_names(self, registry):
        assert "retries" in registry.emitted_names()
        assert "provider_requests_total" in registry.emitted_names()

    def test_all_metrics_sorted(self, registry):
        names = [m.name for m in registry.all_metrics()]
        assert names == sorted(names)


class _SpyTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def metric(self, kind, name, labels, value):
        self.events.append((kind, name, labels, value))


class TestMirrorAndReplay:
    def test_every_mutation_is_mirrored(self):
        spy = _SpyTracer()
        r = MetricsRegistry(tracer=spy)
        r.counter("retries").inc(2)
        r.gauge("write_log_pending", provider="azure").set(3)
        r.histogram("op_latency_seconds", op="get").observe(0.5)
        assert spy.events == [
            ("counter", "retries", (), 2),
            ("gauge", "write_log_pending", (("provider", "azure"),), 3.0),
            ("histogram", "op_latency_seconds", (("op", "get"),), 0.5),
        ]

    def test_disabled_tracer_is_not_called(self):
        spy = _SpyTracer()
        spy.enabled = False
        r = MetricsRegistry(tracer=spy)
        r.counter("retries").inc()
        assert spy.events == []

    def test_replay_reproduces_state(self):
        spy = _SpyTracer()
        live = MetricsRegistry(tracer=spy)
        live.counter("retries").inc(2)
        live.counter("provider_requests_total", provider="azure", op="get").inc(7)
        live.gauge("write_log_pending", provider="azure").set(1)
        h = live.histogram("op_latency_seconds", op="get")
        for v in (0.1, 0.3, 2.0):
            h.observe(v)

        replayed = MetricsRegistry()
        for kind, name, labels, value in spy.events:
            replayed.apply_event(kind, name, dict(labels), value)

        assert replayed.counters() == live.counters()
        assert replayed.counter_value(
            "provider_requests_total", provider="azure", op="get") == 7
        assert replayed.gauge("write_log_pending", provider="azure").value == 1.0
        assert (replayed.histogram("op_latency_seconds", op="get").summary()
                == h.summary())

    def test_unknown_event_kind_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().apply_event("timer", "retries", {}, 1)
