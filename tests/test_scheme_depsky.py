"""Unit tests for the DepSky-style quorum baseline."""

import pytest

from repro.faults import OutageWindow
from repro.schemes import DepSkyScheme
from repro.schemes.base import DataUnavailable


@pytest.fixture
def depsky(providers, clock):
    return DepSkyScheme(list(providers.values()), clock)


class TestQuorum:
    def test_needs_2f_plus_1(self, providers, clock):
        with pytest.raises(ValueError):
            DepSkyScheme([providers["aliyun"], providers["azure"]], clock, f=1)

    def test_write_quorum_size(self, depsky):
        assert depsky.write_quorum == 3

    def test_replicas_on_all_providers(self, depsky, providers, payload):
        data = payload(1000)
        depsky.put("/d/a", data)
        for name in providers:
            assert providers[name].store.get(depsky.container, "/d/a#v1").data == data

    def test_space_overhead_is_n(self, depsky, payload):
        depsky.put("/d/a", payload(40_000))
        assert depsky.space_overhead() == pytest.approx(4.0, abs=0.1)

    def test_write_acks_at_quorum_not_slowest(self, payload):
        """The write returns at the (n-f)-th upload: making the straggler
        pathologically slow must not change the write latency."""
        import dataclasses

        from repro.cloud.latency import ClientLink
        from repro.cloud.provider import make_table2_cloud_of_clouds
        from repro.sim.clock import SimClock

        def put_elapsed(strangle: bool) -> float:
            clock = SimClock()
            fleet = make_table2_cloud_of_clouds(clock)
            if strangle:
                fleet["rackspace"].latency = dataclasses.replace(
                    fleet["rackspace"].latency, upload_bw=0.05e6
                )
            scheme = DepSkyScheme(
                list(fleet.values()), clock, link=ClientLink(uplink=40e6)
            )
            return scheme.put("/d/a", payload(2_000_000)).elapsed

        fast, strangled = put_elapsed(False), put_elapsed(True)
        # 2 MB at 0.05 MB/s would be 40 s; the quorum write must not see it.
        assert strangled < fast * 1.5
        assert strangled < 10.0


class TestReads:
    def test_read_verifies_f_probes(self, depsky, payload):
        depsky.put("/d/a", payload(100))
        _, report = depsky.get("/d/a")
        assert len(report.providers) == 2  # 1 data fetch + f=1 head probe

    def test_read_survives_outage(self, depsky, providers, clock, payload):
        data = payload(100)
        depsky.put("/d/a", data)
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, report = depsky.get("/d/a")
        assert got == data
        assert report.degraded

    def test_read_survives_f_plus_more_outages(self, depsky, providers, clock, payload):
        data = payload(100)
        depsky.put("/d/a", data)
        for name in ("aliyun", "azure", "amazon_s3"):
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = depsky.get("/d/a")
        assert got == data  # last replica still serves

    def test_total_outage_raises(self, depsky, providers, clock, payload):
        depsky.put("/d/a", payload(100))
        for name in providers:
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        with pytest.raises(DataUnavailable):
            depsky.get("/d/a")


class TestDegradedWrites:
    def test_write_below_quorum_marks_degraded(self, depsky, providers, clock, payload):
        for name in ("aliyun", "azure"):
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 3600))
        report = depsky.put("/d/a", payload(100))
        assert report.degraded  # only 2 < quorum 3 acks
        assert len(depsky.pending_log("aliyun")) > 0

    def test_outage_put_acks_at_third_success_and_logs_the_fourth(self, payload):
        """Failures do not count toward the quorum: with one cloud out the
        write waits for all three survivors — straggler included — and the
        missed copy is write-logged; the recorded digests verify reads."""
        import dataclasses
        import hashlib

        from repro.cloud.latency import ClientLink
        from repro.cloud.provider import make_table2_cloud_of_clouds
        from repro.faults.ledger import inject_bit_rot
        from repro.sim.clock import SimClock

        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        fleet["rackspace"].latency = dataclasses.replace(
            fleet["rackspace"].latency, upload_bw=0.05e6
        )
        scheme = DepSkyScheme(list(fleet.values()), clock, link=ClientLink(uplink=40e6))
        fleet["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        data = payload(2_000_000)
        report = scheme.put("/d/a", data)
        assert not report.degraded  # 3 successes meet the quorum of 3
        assert report.elapsed > 30.0  # ~2 MB at 0.05 MB/s: the 3rd success
        assert scheme.pending_log("aliyun").has_pending(scheme.container, "/d/a#v1")
        entry = scheme.namespace.get("/d/a")
        assert entry.providers == tuple(scheme.replicas)
        assert entry.digests == (hashlib.sha256(data).hexdigest(),) * 4
        # The fastest reachable replica rots: its digest rejects it.
        first = scheme._rank_providers(
            [p for p in scheme.replicas if p != "aliyun"], len(data), "down"
        )[0]
        inject_bit_rot(fleet[first], scheme.container, ["/d/a#v1"])
        got, read = scheme.get("/d/a")
        assert got == data
        assert read.degraded
