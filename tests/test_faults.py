"""Unit tests for the scripted fault-injection layer (repro.faults)."""

import math

import pytest

from repro.cloud.latency import LatencyModel
from repro.cloud.pricing import PRICE_PLANS
from repro.cloud.provider import SimulatedProvider, make_table2_cloud_of_clouds
from repro.faults import (
    FaultProfile,
    FaultScenario,
    FlappingOutage,
    LatencyBrownout,
    OutageWindow,
    SilentCorruption,
    TransientErrorBurst,
    inject_bit_rot,
    make_fault_storm,
)
from repro.sim.clock import SimClock


def _provider(clock, faults=None, name="p1"):
    return SimulatedProvider(
        name=name,
        clock=clock,
        latency=LatencyModel(rtt=0.05, upload_bw=5e6, download_bw=5e6),
        pricing=PRICE_PLANS["aliyun"],
        faults=faults,
    )


class TestEffectWindows:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            TransientErrorBurst(-1.0, 10.0, rate=0.1)
        with pytest.raises(ValueError):
            TransientErrorBurst(5.0, 5.0, rate=0.1)
        with pytest.raises(ValueError):
            TransientErrorBurst(0.0, 10.0, rate=1.0)

    def test_burst_active_only_inside_window(self):
        burst = TransientErrorBurst(10.0, 20.0, rate=0.5)
        assert burst.extra_fault_rate(9.9) == 0.0
        assert burst.extra_fault_rate(10.0) == 0.5
        assert burst.extra_fault_rate(19.9) == 0.5
        assert burst.extra_fault_rate(20.0) == 0.0

    def test_throttling_is_a_burst(self):
        # the storm's throttling is a second transient-error burst
        profile = make_fault_storm(t0=0.0, duration=5.0).profiles["azure"]
        assert [type(e) for e in profile.effects] == [TransientErrorBurst] * 2
        assert [e.rate for e in profile.effects] == [0.35, 0.15]
        assert profile.extra_fault_rate(1.0) == pytest.approx(1.0 - 0.65 * 0.85)

    def test_brownout_validation_and_factors(self):
        with pytest.raises(ValueError):
            LatencyBrownout(0.0, 1.0, rtt_factor=0.5)
        with pytest.raises(ValueError):
            LatencyBrownout(0.0, 1.0, bw_factor=0.0)
        b = LatencyBrownout(0.0, 10.0, rtt_factor=4.0, bw_factor=0.25)
        assert b.latency_factors(5.0) == (4.0, 0.25)
        assert b.latency_factors(10.0) == (1.0, 1.0)

    def test_flapping_duty_cycle(self):
        f = FlappingOutage(100.0, 400.0, period=60.0, downtime=20.0)
        assert not f.is_out(99.0)  # before the window
        assert f.is_out(100.0)  # first downtime
        assert f.is_out(119.9)
        assert not f.is_out(120.0)  # up for the rest of the cycle
        assert f.is_out(160.0)  # next cycle's downtime
        assert not f.is_out(400.0)  # window over

    def test_flapping_validation(self):
        with pytest.raises(ValueError):
            FlappingOutage(0.0, 10.0, period=0.0, downtime=1.0)
        with pytest.raises(ValueError):
            FlappingOutage(0.0, 10.0, period=10.0, downtime=10.0)


class TestFaultProfile:
    def test_rates_compose_independently(self):
        profile = FaultProfile(
            [
                TransientErrorBurst(0.0, 10.0, rate=0.5),
                TransientErrorBurst(0.0, 10.0, rate=0.5),
            ]
        )
        assert profile.extra_fault_rate(5.0) == pytest.approx(0.75)
        assert profile.extra_fault_rate(15.0) == 0.0

    def test_latency_factors_compound(self):
        profile = FaultProfile(
            [
                LatencyBrownout(0.0, 10.0, rtt_factor=2.0, bw_factor=0.5),
                LatencyBrownout(0.0, 10.0, rtt_factor=3.0, bw_factor=0.5),
            ]
        )
        assert profile.latency_factors(5.0) == (6.0, 0.25)

    def test_is_out_any_effect(self):
        profile = FaultProfile(
            [FlappingOutage(0.0, 100.0, period=50.0, downtime=10.0)]
        )
        assert profile.is_out(5.0)
        assert not profile.is_out(20.0)

    def test_empty_profile_is_falsy(self):
        assert not FaultProfile()
        assert FaultProfile([TransientErrorBurst(0.0, 1.0, rate=0.1)])

    def test_corruption_flips_exactly_one_byte(self):
        profile = FaultProfile(
            [SilentCorruption(0.0, 10.0, rate=1.0)], seed=3
        ).bind("p1")
        data = bytes(range(256))
        corrupted = profile.maybe_corrupt(data, 5.0)
        assert corrupted != data
        assert len(corrupted) == len(data)
        diffs = [i for i in range(len(data)) if corrupted[i] != data[i]]
        assert len(diffs) == 1

    def test_corruption_outside_window_is_identity(self):
        profile = FaultProfile(
            [SilentCorruption(0.0, 10.0, rate=1.0)], seed=3
        ).bind("p1")
        data = b"hello"
        assert profile.maybe_corrupt(data, 20.0) == data

    def test_corruption_deterministic_per_seed(self):
        data = bytes(64)
        outs = []
        for _ in range(2):
            profile = FaultProfile(
                [SilentCorruption(0.0, 10.0, rate=1.0)], seed=9
            ).bind("p1")
            outs.append(profile.maybe_corrupt(data, 1.0))
        assert outs[0] == outs[1]

    def test_one_byte_flip_is_pinned_per_seed(self):
        """Served corruption and persistent bit rot flip bytes with one
        helper; the positions and masks for these seeds are fixed."""
        profile = FaultProfile([SilentCorruption(0.0, 10.0, rate=1.0)], seed=3).bind("p1")
        data = bytes(range(256))
        flips = []
        for _ in range(2):
            out = profile.maybe_corrupt(data, 5.0)
            flips.append([(i, out[i]) for i in range(256) if out[i] != data[i]])
        assert flips == [[(211, 103)], [(246, 2)]]

        provider = _provider(SimClock(), name="azure")
        provider.create("c")
        for key in ("a", "b", "c"):
            provider.put("c", key, bytes(100))
        inject_bit_rot(provider, "c", ["a", "b", "c"], seed=7)
        rotted = [bytes(provider.store.get("c", key).data) for key in ("a", "b", "c")]
        assert [[(i, b) for i, b in enumerate(r) if b] for r in rotted] == [
            [(60, 15)],
            [(44, 119)],
            [(34, 8)],
        ]

    def test_bind_gives_independent_streams_per_provider(self):
        data = bytes(4096)
        a = FaultProfile([SilentCorruption(0.0, 10.0, rate=1.0)], seed=9).bind("a")
        b = FaultProfile([SilentCorruption(0.0, 10.0, rate=1.0)], seed=9).bind("b")
        assert a.maybe_corrupt(data, 1.0) != b.maybe_corrupt(data, 1.0)


class TestProviderIntegration:
    def test_flapping_outage_gates_availability(self):
        clock = SimClock()
        provider = _provider(
            clock,
            faults=FaultProfile(
                [FlappingOutage(0.0, 300.0, period=60.0, downtime=20.0)]
            ),
        )
        assert not provider.is_available()
        clock.advance(25.0)
        assert provider.is_available()

    def test_burst_layers_onto_base_fault_rate(self):
        # a constant base rate is a burst over all of sim time
        clock = SimClock()
        provider = _provider(
            clock,
            faults=FaultProfile(
                [
                    TransientErrorBurst(0.0, math.inf, rate=0.2),
                    TransientErrorBurst(0.0, 100.0, rate=0.5),
                ]
            ),
        )
        assert provider.faults.extra_fault_rate(50.0) == pytest.approx(0.6)
        assert provider.faults.extra_fault_rate(150.0) == pytest.approx(0.2)

    def test_brownout_degrades_effective_latency(self):
        clock = SimClock()
        provider = _provider(
            clock,
            faults=FaultProfile(
                [LatencyBrownout(0.0, 100.0, rtt_factor=4.0, bw_factor=0.5)]
            ),
        )
        lat = provider.effective_latency()
        assert lat.rtt == pytest.approx(provider.latency.rtt * 4.0)
        assert lat.download_bw == pytest.approx(provider.latency.download_bw * 0.5)
        clock.advance(200.0)
        assert provider.effective_latency() is provider.latency

    def test_silent_corruption_garbles_get_not_store(self):
        clock = SimClock()
        provider = _provider(
            clock,
            faults=FaultProfile([SilentCorruption(0.0, 100.0, rate=1.0)], seed=1),
        )
        provider.create("c", exist_ok=True)
        provider.put("c", "k", b"payload-bytes")
        got = provider.get("c", "k")
        assert got != b"payload-bytes"  # returned copy corrupted
        assert provider.store.get("c", "k").data == b"payload-bytes"  # at rest intact


class TestScenario:
    def test_apply_and_clear(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        storm = make_fault_storm(t0=0.0, duration=600.0, seed=4)
        storm.apply(fleet)
        assert fleet["aliyun"].faults  # brownout
        assert fleet["azure"].faults  # burst + throttle
        assert not fleet["rackspace"].is_available()  # flapper starts down
        storm.clear(fleet)
        assert not fleet["aliyun"].faults
        assert fleet["aliyun"].faults.provider_name == "aliyun"
        assert fleet["rackspace"].is_available()

    def test_apply_unknown_provider_raises(self):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scenario = FaultScenario(
            "bad", {"nonesuch": FaultProfile([TransientErrorBurst(0.0, 1.0, rate=0.1)])}
        )
        with pytest.raises(KeyError):
            scenario.apply(fleet)

    def test_storm_with_corruption_provider(self):
        storm = make_fault_storm(corruption_provider="amazon_s3")
        assert "amazon_s3" in storm.profiles
        assert storm.profiles["amazon_s3"].corruption_rate(1.0) == pytest.approx(0.2)


class TestDowntimeWindows:
    """``downtime_windows`` is the SLO tracker's ground truth: the union of
    every down-taking effect's sub-intervals, clipped and coalesced."""

    def test_partition_is_down_for_its_whole_window(self):
        # a network partition is an outage window
        cut = OutageWindow(10.0, 50.0)
        assert cut.is_out(10.0) and cut.is_out(49.9)
        assert not cut.is_out(9.9) and not cut.is_out(50.0)
        assert cut.downtime_windows(0.0, 100.0) == [(10.0, 50.0)]
        assert cut.downtime_windows(20.0, 30.0) == [(20.0, 30.0)]  # clipped
        assert cut.downtime_windows(60.0, 100.0) == []

    def test_non_down_effects_contribute_nothing(self):
        burst = TransientErrorBurst(0.0, 100.0, rate=0.5)
        brownout = LatencyBrownout(0.0, 100.0, rtt_factor=4.0)
        profile = FaultProfile([burst, brownout])
        assert burst.downtime_windows(0.0, 100.0) == []
        assert profile.downtime_windows(0.0, 100.0) == []

    def test_overlapping_flap_and_partition_merge(self):
        # flap down-phases: [0,5) [20,25) [40,45) [60,65) [80,85)
        flap = FlappingOutage(0.0, 100.0, period=20.0, downtime=5.0)
        cut = OutageWindow(22.0, 62.0)
        profile = FaultProfile([flap, cut])
        # the partition swallows three flap phases and glues onto a fourth
        assert profile.downtime_windows(0.0, 100.0) == [
            (0.0, 5.0),
            (20.0, 65.0),
            (80.0, 85.0),
        ]
        # consistency: every merged instant reports is_out
        for t in (0.0, 4.9, 20.0, 23.0, 50.0, 61.9, 64.9, 80.0):
            assert profile.is_out(t)
        for t in (5.0, 19.9, 65.0, 79.9, 85.0):
            assert not profile.is_out(t)

    def test_partition_reaches_provider_scheduled_downtime(self):
        clock = SimClock()
        provider = _provider(clock, faults=FaultProfile([OutageWindow(5.0, 15.0)]))
        assert provider.faults.downtime_windows(0.0, 100.0) == [(5.0, 15.0)]
        clock.advance(6.0)
        assert not provider.is_available()
        clock.advance(10.0)
        assert provider.is_available()
