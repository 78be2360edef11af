"""Unit tests for the single-cloud baseline."""

import pytest

from repro.faults import OutageWindow
from repro.schemes import SingleCloudScheme
from repro.schemes.base import DataUnavailable


class TestSingleCloud:
    def test_name_includes_provider(self, providers, clock):
        s = SingleCloudScheme(providers["azure"], clock)
        assert s.name == "single-azure"
        assert s.provider_names == ["azure"]

    def test_data_lands_only_on_primary(self, providers, clock, payload):
        s = SingleCloudScheme(providers["aliyun"], clock)
        s.put("/d/a", payload(100))
        assert providers["aliyun"].store.total_bytes() > 0
        assert providers["azure"].store.total_bytes() == 0

    def test_roundtrip(self, providers, clock, payload):
        s = SingleCloudScheme(providers["rackspace"], clock)
        data = payload(4321)
        s.put("/d/a", data)
        got, _ = s.get("/d/a")
        assert got == data

    def test_outage_means_unavailable(self, providers, clock, payload):
        s = SingleCloudScheme(providers["amazon_s3"], clock)
        s.put("/d/a", payload(10))
        providers["amazon_s3"].faults.add(OutageWindow(clock.now, clock.now + 60))
        with pytest.raises(DataUnavailable):
            s.get("/d/a")

    def test_write_during_outage_is_logged_and_healed(
        self, providers, clock, payload
    ):
        s = SingleCloudScheme(providers["amazon_s3"], clock)
        window = OutageWindow(clock.now, clock.now + 60)
        providers["amazon_s3"].faults.add(window)
        data = payload(10)
        s.put("/d/a", data)
        assert len(s.pending_log("amazon_s3")) > 0
        clock.advance_to(window.end)
        s.heal_returned()
        got, _ = s.get("/d/a")
        assert got == data

    def test_latency_reflects_provider_speed(self, providers, clock, payload):
        fast = SingleCloudScheme(providers["aliyun"], clock)
        slow = SingleCloudScheme(providers["rackspace"], clock)
        data = payload(1_000_000)
        fast_report = fast.put("/d/a", data)
        slow_report = slow.put("/d/a", data)
        assert fast_report.elapsed < slow_report.elapsed
