"""Unit tests for the DuraCloud baseline (sequential 2x replication)."""

import pytest

from repro.faults import OutageWindow
from repro.schemes import DuraCloudScheme


@pytest.fixture
def dc(providers, clock):
    return DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)


class TestPlacement:
    def test_requires_enough_providers(self, providers, clock):
        with pytest.raises(ValueError):
            DuraCloudScheme([providers["aliyun"]], clock)
        with pytest.raises(ValueError):
            DuraCloudScheme(list(providers.values()), clock, replication_level=1)

    def test_both_replicas_written(self, dc, providers, payload):
        data = payload(1000)
        dc.put("/d/a", data)
        for name in ("amazon_s3", "azure"):
            store = providers[name].store
            assert store.get(dc.container, "/d/a#v1").data == data

    def test_space_overhead_is_2x(self, dc, payload):
        dc.put("/d/a", payload(50_000))
        assert dc.space_overhead() == pytest.approx(2.0, abs=0.05)

    def test_replication_level_configurable(self, providers, clock, payload):
        dc3 = DuraCloudScheme(list(providers.values()), clock, replication_level=3)
        dc3.put("/d/a", payload(60_000))
        assert dc3.space_overhead() == pytest.approx(3.0, abs=0.1)


class TestSequentialWrites:
    def test_write_costs_sum_of_transfers(self, dc, providers, clock, payload):
        """Sequential sync: the write takes longer than either single upload."""
        data = payload(2_000_000)
        report = dc.put("/d/a", data)
        single_amazon = 2_000_000 / providers["amazon_s3"].latency.upload_bw
        single_azure = 2_000_000 / providers["azure"].latency.upload_bw
        assert report.elapsed > max(single_amazon, single_azure)
        assert report.elapsed > single_amazon + single_azure * 0.8

    def test_outage_skips_sync_step(self, dc, providers, clock, payload):
        """The paper's effect: writes get faster when one provider is out."""
        data = payload(2_000_000)
        normal = dc.put("/d/a", data)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        during = dc.put("/d/b", data)
        assert during.elapsed < normal.elapsed


class TestReads:
    def test_reads_prefer_faster_replica(self, dc, providers, payload):
        dc.put("/d/a", payload(1000))
        _, report = dc.get("/d/a")
        assert report.providers == ("azure",)  # azure is the faster of the two

    def test_read_falls_back_during_outage(self, dc, providers, clock, payload):
        data = payload(1000)
        dc.put("/d/a", data)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        got, report = dc.get("/d/a")
        assert got == data
        assert report.degraded
        assert "amazon_s3" in report.providers


class TestSynchronization:
    def test_copies_resynchronized_after_outage(self, dc, providers, clock, payload):
        v1 = payload(500)
        v2 = payload(700)
        dc.put("/d/a", v1)
        window = OutageWindow(clock.now, clock.now + 3600)
        providers["azure"].faults.add(window)
        dc.put("/d/a", v2)  # azure misses this
        clock.advance_to(window.end)
        dc.heal_returned()
        assert providers["azure"].store.get(dc.container, "/d/a#v2").data == v2
        # The stale v1 object was deleted during the consistency update.
        assert not providers["azure"].store.has(dc.container, "/d/a#v1")
