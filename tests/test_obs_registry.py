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
from repro.obs.trace import format_jsonl, parse_jsonl
from tests.conftest import instrument_facts


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
            Histogram("x", (), bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", (), bounds=())

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


class TestStateRoundTrip:
    """``state()`` is lossless: through the trace's JSON-lines codec and
    ``from_state`` every instrument comes back equal, in creation order."""

    @staticmethod
    def _round_trip(registry):
        line = format_jsonl([{"t": "registry", **registry.state()}])
        [record] = parse_jsonl([line])
        return line, MetricsRegistry.from_state(record)

    def test_every_kind_round_trips_in_creation_order(self):
        live = MetricsRegistry()
        live.counter("retries").inc(2)
        live.gauge("write_log_pending", provider="azure").set(3)
        h = live.histogram("hedge_wasted_seconds", bounds=(0.5, 2.0, 8.0), provider="azure")
        for v in (0.1, 0.7, 3.0, 100.0):
            h.observe(v)
        live.counter("provider_requests_total", provider="azure", op="get")  # never mutated
        live.histogram("op_latency_seconds", op="put")  # empty
        line, replayed = self._round_trip(live)
        assert instrument_facts(replayed) == instrument_facts(live)
        assert [m.name for m in replayed._metrics.values()] == [
            "retries", "write_log_pending", "hedge_wasted_seconds",
            "provider_requests_total", "op_latency_seconds",
        ]
        wasted = replayed.histogram("hedge_wasted_seconds", provider="azure")
        assert wasted.bounds == (0.5, 2.0, 8.0) and wasted.counts == [1, 1, 1, 1]
        assert replayed.strict

    def test_empty_histogram_is_standard_json(self):
        live = MetricsRegistry()
        live.histogram("op_latency_seconds", op="get")
        line, replayed = self._round_trip(live)
        assert "Infinity" not in line
        h = replayed.histogram("op_latency_seconds", op="get")
        assert (h.count, h.min, h.max) == (0, float("inf"), float("-inf"))
        assert instrument_facts(replayed) == instrument_facts(live)

    def test_non_strict_registry_stays_non_strict(self):
        live = MetricsRegistry(strict=False)
        live.counter("ad_hoc", kind="x").inc()
        _, replayed = self._round_trip(live)
        assert not replayed.strict
        assert instrument_facts(replayed) == instrument_facts(live)

    def test_unknown_instrument_kind_raises(self):
        state = {"strict": True, "metrics": [
            {"kind": "timer", "name": "retries", "labels": [], "value": 1}
        ]}
        with pytest.raises(ValueError):
            MetricsRegistry.from_state(state)
