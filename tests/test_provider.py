"""Unit tests for the simulated provider (5-op surface, metering, outages)."""

import pytest

from repro.cloud.errors import NoSuchObject, ProviderUnavailable
from repro.cloud.latency import LatencyModel
from repro.cloud.pricing import PRICE_PLANS
from repro.cloud.provider import (
    TABLE2_LATENCY,
    SimulatedProvider,
    make_table2_cloud_of_clouds,
)
from repro.faults import FaultProfile, OutageWindow
from repro.metrics.registry import MetricsRegistry


@pytest.fixture
def provider(clock):
    return SimulatedProvider(
        name="p",
        clock=clock,
        latency=LatencyModel(rtt=0.1, upload_bw=1e6, download_bw=1e6),
        pricing=PRICE_PLANS["amazon_s3"],
        faults=FaultProfile([OutageWindow(100.0, 200.0)]),
    )


class TestFiveOps:
    def test_create_put_get_list_remove(self, provider):
        provider.create("c")
        provider.put("c", "k", b"data")
        assert provider.get("c", "k") == b"data"
        assert provider.list("c") == ["k"]
        provider.remove("c", "k")
        with pytest.raises(NoSuchObject):
            provider.get("c", "k")

    def test_head(self, provider):
        provider.create("c")
        provider.put("c", "k", b"data")
        obj = provider.head("c", "k")
        assert obj.version == 1
        # Head is metered as a zero-byte tier-2 transaction.
        assert provider.meter.month_usage(0).bytes_out == 0


class TestOutageBehaviour:
    def test_available_flag(self, provider, clock):
        assert provider.is_available()
        clock.advance_to(150.0)
        assert not provider.is_available()
        clock.advance_to(250.0)
        assert provider.is_available()

    def test_all_ops_blocked_during_outage(self, provider, clock):
        provider.create("c")
        provider.put("c", "k", b"x")
        clock.advance_to(150.0)
        for fn in (
            lambda: provider.create("c2"),
            lambda: provider.list("c"),
            lambda: provider.get("c", "k"),
            lambda: provider.put("c", "k", b"y"),
            lambda: provider.remove("c", "k"),
            lambda: provider.head("c", "k"),
        ):
            with pytest.raises(ProviderUnavailable):
                fn()
        # Data survives the outage untouched.
        clock.advance_to(250.0)
        assert provider.get("c", "k") == b"x"


class TestMetering:
    def test_put_meters_bytes_and_storage(self, provider, clock):
        provider.create("c")
        provider.put("c", "k", b"12345")
        assert provider.meter.month_usage(0).bytes_in == 5
        assert provider.meter.stored_bytes == 5
        provider.remove("c", "k")
        assert provider.meter.stored_bytes == 0

    def test_get_meters_bytes_out(self, provider):
        provider.create("c")
        provider.put("c", "k", b"12345")
        provider.get("c", "k")
        assert provider.meter.month_usage(0).bytes_out == 5


class TestTable2Fleet:
    def test_four_providers(self, clock):
        fleet = make_table2_cloud_of_clouds(clock)
        assert set(fleet) == {"amazon_s3", "azure", "aliyun", "rackspace"}
        for name, p in fleet.items():
            assert p.latency is TABLE2_LATENCY[name]
            assert p.pricing is PRICE_PLANS[name]

    def test_outage_injection(self, clock):
        fleet = make_table2_cloud_of_clouds(
            clock, faults={"azure": FaultProfile([OutageWindow(0.0)])}
        )
        assert not fleet["azure"].is_available()
        assert fleet["aliyun"].is_available()

    def test_latency_ordering_matches_fig5(self):
        # Aliyun fastest, then Azure, Amazon, Rackspace (Figure 5).
        rtts = {n: m.rtt for n, m in TABLE2_LATENCY.items()}
        assert rtts["aliyun"] < rtts["azure"] < rtts["amazon_s3"] < rtts["rackspace"]
        bws = {n: m.download_bw for n, m in TABLE2_LATENCY.items()}
        assert bws["aliyun"] > bws["azure"] > bws["amazon_s3"] > bws["rackspace"]


class TestRequestCounters:
    def test_swapping_the_registry_counts_into_the_new_one(self, provider):
        """A fleet shared by two schemes reports into whichever registry
        attached last — from the very next request."""
        first, second = MetricsRegistry(), MetricsRegistry()
        provider.create("c")
        provider.metrics = first
        provider.put("c", "k", b"data")
        provider.put("c", "k", b"data")
        provider.metrics = second
        provider.put("c", "k", b"12345")
        provider.metrics = first
        provider.get("c", "k")
        assert first.counter_value("provider_requests_total", provider="p", op="put") == 2
        assert second.counter_value("provider_requests_total", provider="p", op="put") == 1
        assert first.counter_value("provider_requests_total", provider="p", op="get") == 1
        assert first.counter_value("provider_bytes_up_total", provider="p") == 8
        assert second.counter_value("provider_bytes_up_total", provider="p") == 5
