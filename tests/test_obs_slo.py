"""SLO tracker: ledgers, windowed availability, and fault-schedule agreement."""

import json
from types import SimpleNamespace

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import FaultProfile, FlappingOutage
from repro.metrics.registry import MetricsRegistry
from repro.obs.slo import IntervalLedger, SloConfig, SloTracker, op_class
from repro.sim.clock import SimClock


def ok_op(op, t, degraded=False):
    return SimpleNamespace(op=op, degraded=degraded), t


class TestOpClass:
    def test_read_write_partition(self):
        # keyed by the kind an op *reports* ("list"), not the method name
        assert {op_class(o) for o in ("get", "stat", "list")} == {"read"}
        assert {op_class(o) for o in ("put", "update", "remove")} == {"write"}

    def test_repair_traffic_excluded(self):
        assert op_class("heal") is None
        assert op_class("recover_namespace") is None

    def test_listdir_success_and_failure_share_one_kind(self):
        """A good and a failing ``listdir`` are two read samples, one failed
        (the success used to report ``list``, which no class claimed, while
        the failure was booked under the method name)."""
        from repro.schemes import SingleCloudScheme

        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = SingleCloudScheme(fleet["aliyun"], clock)
        slo = SloTracker()
        scheme.attach_slo(slo)
        scheme.listdir("/d")
        with pytest.raises(ValueError):
            scheme.listdir("/d/..")
        reads = slo.window_ops(clock.now, "read")
        assert [ok for _t, _cls, ok, _deg in reads] == [True, False]
        assert slo.availability("read", clock.now) == 0.5


class TestSloConfig:
    def test_defaults(self):
        cfg = SloConfig()
        assert cfg.target("read") == 0.999
        assert cfg.target("write") == 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            SloConfig(window=0.0)
        with pytest.raises(ValueError):
            SloConfig(read_target=1.0)
        with pytest.raises(ValueError):
            SloConfig(write_target=0.0)
        with pytest.raises(KeyError):
            SloConfig().target("heal")


class TestIntervalLedger:
    def test_edges_build_intervals(self):
        led = IntervalLedger()
        led.mark_down(10.0)
        assert led.down_since == 10.0
        led.mark_up(25.0)
        assert led.intervals == [(10.0, 25.0)]
        assert led.down_since is None

    def test_repeated_edges_are_idempotent(self):
        led = IntervalLedger()
        led.mark_up(1.0)  # up while up: ignored
        led.mark_down(5.0)
        led.mark_down(7.0)  # down while down: first edge wins
        led.mark_up(9.0)
        assert led.intervals == [(5.0, 9.0)]

    def test_zero_length_blip_dropped(self):
        led = IntervalLedger()
        led.mark_down(5.0)
        led.mark_up(5.0)
        assert led.intervals == []

    def test_up_before_down_rejected(self):
        led = IntervalLedger()
        led.mark_down(10.0)
        with pytest.raises(ValueError, match="precedes"):
            led.mark_up(9.0)

    def test_add_window_rejects_disorder(self):
        led = IntervalLedger()
        led.add_window(10.0, 20.0)
        with pytest.raises(ValueError):
            led.add_window(15.0, 30.0)  # overlap
        with pytest.raises(ValueError):
            led.add_window(40.0, 40.0)  # empty

    def test_downtime_includes_open_tail(self):
        led = IntervalLedger()
        led.add_window(0.0, 10.0)
        led.mark_down(50.0)
        assert led.downtime(60.0) == 20.0

    def test_mttr_mean_of_closed_intervals(self):
        led = IntervalLedger()
        assert led.mttr() is None
        led.add_window(0.0, 10.0)
        led.add_window(100.0, 130.0)
        assert led.mttr() == 20.0

    def test_mtbf_needs_two_failures(self):
        led = IntervalLedger()
        led.add_window(0.0, 10.0)
        assert led.mtbf() is None
        led.add_window(70.0, 90.0)
        assert led.mtbf() == 60.0  # gap 10 -> 70

    def test_mtbf_counts_open_interval_start(self):
        led = IntervalLedger()
        led.add_window(0.0, 10.0)
        led.mark_down(40.0)  # second failure, still ongoing
        assert led.mtbf() == 30.0


class TestSlidingWindow:
    def make(self, window=100.0):
        return SloTracker(SloConfig(window=window, read_target=0.9, write_target=0.9))

    def test_availability_none_without_traffic(self):
        slo = self.make()
        assert slo.availability("read", 50.0) is None
        assert slo.error_budget_burn("read", 50.0) is None
        assert slo.degraded_read_fraction(50.0) is None

    def test_availability_and_burn(self):
        slo = self.make()
        for t in range(8):
            slo.record_op(*ok_op("get", float(t)))
        slo.record_failure("get", 8.0)
        slo.record_failure("get", 9.0)
        assert slo.availability("read", 10.0) == 0.8
        # unavailability 0.2 against a 0.1 budget: burning double speed
        assert slo.error_budget_burn("read", 10.0) == pytest.approx(2.0)

    def test_classes_are_independent(self):
        slo = self.make()
        slo.record_op(*ok_op("get", 1.0))
        slo.record_failure("put", 2.0)
        assert slo.availability("read", 3.0) == 1.0
        assert slo.availability("write", 3.0) == 0.0

    def test_window_eviction(self):
        slo = self.make(window=100.0)
        slo.record_failure("get", 0.0)
        for t in (50.0, 120.0):
            slo.record_op(*ok_op("get", t))
        # the t=0 failure has aged out of [20, 120]
        assert slo.availability("read", 120.0) == 1.0
        assert len(slo.window_ops(120.0)) == 2

    def test_degraded_read_fraction(self):
        slo = self.make()
        slo.record_op(*ok_op("get", 1.0))
        slo.record_op(*ok_op("get", 2.0, degraded=True))
        slo.record_failure("get", 3.0)  # failures are not "degraded reads"
        assert slo.degraded_read_fraction(4.0) == 0.5

    def test_repair_ops_do_not_count(self):
        slo = self.make()
        slo.record_op(*ok_op("heal", 1.0))
        slo.record_failure("heal", 2.0)
        assert slo.availability("read", 3.0) is None
        assert slo.availability("write", 3.0) is None

    def test_breaker_transitions_feed_observed_ledger(self):
        slo = self.make()
        slo.on_breaker_transition("azure", "open", 10.0)
        slo.on_breaker_transition("azure", "half_open", 15.0)  # not an edge
        slo.on_breaker_transition("azure", "closed", 20.0)
        assert slo.provider("azure").observed.intervals == [(10.0, 20.0)]

    def test_publish_sets_gauges_and_summary_is_json_safe(self):
        slo = self.make()
        reg = MetricsRegistry()
        slo.bind(reg, SimpleNamespace(now=10.0))
        slo.record_op(*ok_op("get", 1.0))
        slo.record_failure("put", 2.0)
        slo.on_breaker_transition("azure", "open", 3.0)
        slo.publish(10.0)
        assert reg.gauge("slo_read_availability").value == 1.0
        assert reg.gauge("slo_write_availability").value == 0.0
        assert reg.gauge("slo_window_ops", op_class="read").value == 1
        assert (
            reg.gauge(
                "slo_provider_downtime_seconds", provider="azure", feed="observed"
            ).value
            == 7.0
        )
        summary = slo.summary(10.0)
        json.dumps(summary)  # must serialize without help
        assert summary["read"]["availability"] == 1.0
        assert summary["providers"]["azure"]["observed"]["downtime"] == 7.0

    def test_publish_requires_bind(self):
        with pytest.raises(RuntimeError, match="not bound"):
            self.make().publish(1.0)


class TestScheduledGroundTruth:
    """ISSUE satellite: observed MTBF/MTTR from a scripted faults profile must
    match the profile's scheduled windows *exactly* (via the ground-truth
    feed — the breaker feed necessarily lags and gets tolerance instead)."""

    def test_flapper_schedule_matches_exactly(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        azure = fleet["azure"]
        azure.faults = FaultProfile(
            [FlappingOutage(100.0, 580.0, period=120.0, downtime=40.0)]
        ).bind("azure")

        assert azure.faults.downtime_windows(0.0, 600.0) == [
            (100.0, 140.0),
            (220.0, 260.0),
            (340.0, 380.0),
            (460.0, 500.0),
        ]

        slo = SloTracker()
        slo.ingest_ground_truth([azure], 0.0, 600.0)
        ledger = slo.provider("azure").scheduled
        assert len(ledger) == 4
        assert ledger.mttr() == 40.0  # exactly the scripted downtime
        assert ledger.mtbf() == 80.0  # exactly period - downtime
        assert ledger.downtime(600.0) == 160.0

    def test_schedule_clips_to_queried_range(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        azure = fleet["azure"]
        azure.faults = FaultProfile(
            [FlappingOutage(100.0, 580.0, period=120.0, downtime=40.0)]
        ).bind("azure")
        assert azure.faults.downtime_windows(120.0, 240.0) == [
            (120.0, 140.0),
            (220.0, 240.0),
        ]

    def test_is_out_agrees_with_windows(self):
        flapper = FlappingOutage(100.0, 580.0, period=120.0, downtime=40.0)
        windows = flapper.downtime_windows(0.0, 600.0)
        for t in range(0, 600):
            in_window = any(a <= t < b for a, b in windows)
            assert flapper.is_out(float(t)) == in_window, t


class TestStormIntegration:
    """End-to-end through the canonical fault-storm run."""

    @pytest.fixture(scope="class")
    def storm(self):
        from repro.obs import TimeSeriesSampler, run_fault_storm_report

        slo = SloTracker()
        sampler = TimeSeriesSampler(cadence=30.0, slo=slo)
        report, _ = run_fault_storm_report(
            seed=0, trace=False, slo=slo, sampler=sampler
        )
        return report, slo, sampler

    def test_user_facing_traffic_was_recorded(self, storm):
        report, slo, _ = storm
        now = slo.clock.now
        assert slo.availability("read", now) is not None
        assert slo.availability("write", now) is not None

    def test_observed_downtime_within_scheduled(self, storm):
        """The breaker view trips after the true outage begins and re-closes
        after it ends, so observed downtime approximates — and never wildly
        exceeds — the injected schedule."""
        _, slo, _ = storm
        now = slo.clock.now
        sched = slo.provider("rackspace").scheduled
        obs = slo.provider("rackspace").observed
        assert sched.downtime(now) > 0.0  # the storm's flapper really fired
        assert len(obs) >= 1  # and the breaker saw it
        for a, b in obs.intervals:
            # every observed interval overlaps some true outage window
            assert any(a < wb and b > wa for wa, wb in sched.intervals), (
                (a, b),
                sched.intervals,
            )

    def test_observed_mttr_close_to_scheduled(self, storm):
        _, slo, _ = storm
        sched = slo.provider("rackspace").scheduled
        obs = slo.provider("rackspace").observed
        assert sched.mttr() == 40.0  # ground truth is exact
        assert obs.mttr() == pytest.approx(40.0, rel=0.25)

    def test_slo_gauges_reached_the_time_series(self, storm):
        _, _, sampler = storm
        ids = sampler.ts.series_ids()
        assert "slo_read_availability" in ids
        assert "slo_write_availability" in ids
        assert any(i.startswith("slo_provider_downtime_seconds") for i in ids)
