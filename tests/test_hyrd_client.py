"""Unit + behaviour tests for the HyRD client itself."""

import pytest

from repro.core.config import MB, HyRDConfig
from repro.core.hyrd import HyRDClient
from repro.faults import OutageWindow


@pytest.fixture
def hyrd(providers, clock):
    return HyRDClient(list(providers.values()), clock)


def test_hyrd_scheme_is_the_client():
    from repro.schemes import HyrdScheme

    assert HyrdScheme is HyRDClient


class TestHybridPlacement:
    def test_small_files_replicated_on_perf_providers(self, hyrd, payload):
        hyrd.put("/d/small.txt", payload(4096))
        entry = hyrd.namespace.get("/d/small.txt")
        assert entry.codec == "replication"
        assert entry.klass == "small"
        assert set(entry.providers) == {"aliyun", "azure"}

    def test_large_files_striped_on_cost_providers(self, hyrd, payload):
        hyrd.put("/d/big.bin", payload(3 * MB))
        entry = hyrd.namespace.get("/d/big.bin")
        assert entry.codec == "raid5"
        assert entry.klass == "large"
        assert set(entry.providers) == {"rackspace", "aliyun", "amazon_s3"}

    def test_threshold_is_configurable(self, providers, clock, payload):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(size_threshold=1024)
        )
        hyrd.put("/d/f", payload(2048))
        assert hyrd.namespace.get("/d/f").codec == "raid5"

    def test_metadata_replicated_on_perf_providers(self, hyrd, providers, payload):
        hyrd.put("/d/a", payload(100))
        for name in ("aliyun", "azure"):
            assert providers[name].store.has(hyrd.container, "__meta__/d")
        for name in ("amazon_s3", "rackspace"):
            assert not providers[name].store.has(hyrd.container, "__meta__/d")

    def test_space_overhead_between_racs_and_duracloud(self, hyrd, payload):
        hyrd.put("/d/big", payload(6 * MB))
        hyrd.put("/d/small", payload(64 * 1024))
        overhead = hyrd.space_overhead()
        assert 1.3 < overhead < 1.7  # mostly RAID5(2+1) = 1.5 on large bytes

    def test_roundtrips(self, hyrd, payload):
        small, large = payload(10_000), payload(2 * MB)
        hyrd.put("/d/s", small)
        hyrd.put("/d/l", large)
        assert hyrd.get("/d/s")[0] == small
        assert hyrd.get("/d/l")[0] == large


class TestReclassification:
    def test_small_growing_past_threshold_migrates(self, hyrd, payload):
        hyrd.put("/d/f", payload(900 * 1024))
        assert hyrd.namespace.get("/d/f").codec == "replication"
        hyrd.update("/d/f", 900 * 1024, payload(200 * 1024))
        entry = hyrd.namespace.get("/d/f")
        assert entry.codec == "raid5"
        got, _ = hyrd.get("/d/f")
        assert len(got) == 1100 * 1024

    def test_shrinking_overwrite_migrates_back(self, hyrd, payload):
        hyrd.put("/d/f", payload(2 * MB))
        hyrd.put("/d/f", payload(1000))
        assert hyrd.namespace.get("/d/f").codec == "replication"

    def test_old_fragments_garbage_collected_on_migration(
        self, hyrd, providers, payload
    ):
        hyrd.put("/d/f", payload(2 * MB))
        hyrd.put("/d/f", payload(1000))
        # rackspace held a stripe fragment of v1; it must be gone.
        keys = providers["rackspace"].store.list(hyrd.container)
        assert not any(k.startswith("/d/f#") for k in keys)


class TestUpdates:
    def test_small_update_is_cheap_reput(self, hyrd, payload):
        hyrd.put("/d/s", payload(8192))
        report = hyrd.update("/d/s", 100, b"x" * 100)
        # 2 replica puts + 2 old-version removes + 2 metadata puts; crucially
        # NO reads (the erasure-code write-amplification does not apply).
        assert report.cloud_ops == 6
        assert report.bytes_down == 0

    def test_large_inplace_update_is_rmw(self, hyrd, payload):
        data = payload(3 * MB)
        hyrd.put("/d/l", data)
        report = hyrd.update("/d/l", 100, b"y" * 100)
        # RAID5(2+1): 1 data read + 1 parity read + 2 writes + 2 meta puts.
        assert report.cloud_ops == 6
        assert report.bytes_down > 0  # the RMW reads
        got, _ = hyrd.get("/d/l")
        assert got[100:200] == b"y" * 100

    def test_fmsr_stripe_update_is_a_reput(self, providers, clock, payload):
        """FMSR is non-systematic: every fragment mixes all native chunks, so
        patching "the touched data fragment plus parity" in place would leave
        the untouched fragment encoding the old object."""
        hyrd = HyRDClient(
            list(providers.values()),
            clock,
            config=HyRDConfig(erasure_codec="fmsr", size_threshold=1024),
        )
        data = payload(16 * 1024)
        hyrd.put("/d/f", data)
        hyrd.update("/d/f", 0, b"PATCH")
        got, _ = hyrd.get("/d/f")
        assert got == b"PATCH" + data[5:]
        assert hyrd.namespace.get("/d/f").version == 2
        assert hyrd.verify_object("/d/f").ok


class TestOutageBehaviour:
    def test_small_read_unaffected_by_replica_outage(
        self, hyrd, providers, clock, payload
    ):
        data = payload(4096)
        hyrd.put("/d/s", data)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        got, report = hyrd.get("/d/s")
        assert got == data
        # aliyun replica serves; no degradation flag since aliyun was the
        # preferred replica anyway.
        assert report.providers == ("aliyun",)

    def test_small_read_degraded_when_fast_replica_out(
        self, hyrd, providers, clock, payload
    ):
        data = payload(4096)
        hyrd.put("/d/s", data)
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        got, report = hyrd.get("/d/s")
        assert got == data
        assert report.degraded
        assert report.providers == ("azure",)

    def test_large_degraded_read_reconstructs(self, hyrd, providers, clock, payload):
        data = payload(4 * MB)
        hyrd.put("/d/l", data)
        providers["rackspace"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        got, report = hyrd.get("/d/l")
        assert got == data
        assert report.degraded

    def test_consistency_update_after_outage(self, hyrd, providers, clock, payload):
        window = OutageWindow(clock.now, clock.now + 3600)
        providers["azure"].faults.add(window)
        data = payload(4096)
        hyrd.put("/d/s", data)
        assert len(hyrd.pending_log("azure")) > 0
        clock.advance_to(window.end)
        hyrd.heal_returned()
        assert len(hyrd.pending_log("azure")) == 0
        assert providers["azure"].store.get(hyrd.container, "/d/s#v1").data == data


class TestHotPromotion:
    def test_promotion_after_threshold_reads(self, providers, clock, payload):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=3)
        )
        data = payload(3 * MB)
        hyrd.put("/d/l", data)
        for _ in range(3):
            got, _ = hyrd.get("/d/l")
            assert got == data
        assert "/d/l" in hyrd.hot_copies()
        provider, version = hyrd.hot_copies()["/d/l"]
        assert provider == "aliyun"
        # The hot copy object physically exists.
        assert providers["aliyun"].store.has(hyrd.container, f"/d/l#hot.v{version}")

    def test_promotion_disabled_by_default_threshold_zero(
        self, providers, clock, payload
    ):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=0)
        )
        hyrd.put("/d/l", payload(2 * MB))
        for _ in range(10):
            hyrd.get("/d/l")
        assert hyrd.hot_copies() == {}

    def test_promotion_reports_separately(self, providers, clock, payload):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        hyrd.put("/d/l", payload(2 * MB))
        hyrd.get("/d/l")
        ops = [r.op for r in hyrd.collector.reports]
        assert "promote" in ops

    def test_hot_copy_invalidated_on_overwrite(self, providers, clock, payload):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        hyrd.put("/d/l", payload(2 * MB))
        hyrd.get("/d/l")
        assert hyrd.hot_copies()
        hyrd.put("/d/l", payload(2 * MB))
        assert hyrd.hot_copies() == {}

    def test_hot_copy_served_and_correct(self, providers, clock, payload):
        hyrd = HyRDClient(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        data = payload(2 * MB)
        hyrd.put("/d/l", data)
        hyrd.get("/d/l")  # triggers promotion
        got, report = hyrd.get("/d/l")  # may serve from the hot copy
        assert got == data

    def test_only_a_get_decides_a_promotion(self, hyrd, payload):
        """A migrate's read reaching the threshold used to leave a promotion
        pending; the next get of any path uploaded those bytes as the hot
        copy, stale by then after an in-place update, and served them."""
        data = payload(2 * MB)
        hyrd.put("/a", data)
        hyrd.put("/b", payload(4096))
        for _ in range(3):
            hyrd.get("/a")
        hyrd.migrate_object("/a")
        hyrd.update("/a", 0, b"X" * 16)
        hyrd.get("/b")
        assert hyrd.hot_copies() == {}
        assert hyrd.get("/a")[0] == b"X" * 16 + data[16:]


class TestMonitorIntegration:
    def test_monitor_sees_all_classes(self, hyrd, payload):
        from repro.core.monitor import FileClass

        hyrd.put("/d/s", payload(100))
        hyrd.put("/d/l", payload(2 * MB))
        counts = hyrd.monitor.stats.counts
        assert counts[FileClass.SMALL] == 1
        assert counts[FileClass.LARGE] == 1
        assert counts[FileClass.METADATA] >= 2  # write-throughs
