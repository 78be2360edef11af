"""Unit tests for the NCCloud baseline (FMSR regenerating codes)."""

import pytest

from repro.faults import OutageWindow
from repro.schemes import DataUnavailable, NCCloudScheme


@pytest.fixture
def nc(providers, clock):
    return NCCloudScheme(list(providers.values()), clock)


class TestPlacement:
    def test_parameters(self, nc):
        assert nc.n == 4
        assert nc.k == 2

    def test_roundtrip(self, nc, payload):
        data = payload(8192)
        nc.put("/d/a", data)
        got, _ = nc.get("/d/a")
        assert got == data

    def test_space_overhead_is_2x(self, nc, payload):
        nc.put("/d/a", payload(40_000))
        # FMSR(4,2): n/k = 2.0 overhead.
        assert nc.space_overhead() == pytest.approx(2.0, abs=0.1)

    def test_per_object_codecs_differ(self, nc, payload):
        import numpy as np

        nc.put("/d/a", payload(100))
        nc.put("/d/b", payload(100))
        assert not np.array_equal(nc._codecs["/d/a"].ecm, nc._codecs["/d/b"].ecm)

    def test_degraded_read(self, nc, providers, clock, payload):
        data = payload(4096)
        nc.put("/d/a", data)
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = nc.get("/d/a")
        assert got == data

    def test_update_is_full_reencode(self, nc, payload):
        data = payload(4096)
        nc.put("/d/a", data)
        v1 = nc.namespace.get("/d/a").version
        nc.update("/d/a", 10, b"XY")
        entry = nc.namespace.get("/d/a")
        assert entry.version == v1 + 1
        got, _ = nc.get("/d/a")
        assert got[10:12] == b"XY"

    def test_remove_drops_codec(self, nc, payload):
        nc.put("/d/a", payload(100))
        nc.remove("/d/a")
        assert "/d/a" not in nc._codecs


class TestFunctionalRepair:
    def test_repair_traffic_is_three_quarters(self, nc, payload):
        for i in range(3):
            nc.put(f"/d/obj{i}", payload(8000))
        stats = nc.repair_provider("rackspace")
        assert stats["objects"] == 3
        ratio = stats["bytes_downloaded"] / stats["conventional_bytes"]
        assert ratio == pytest.approx(0.75, abs=0.01)

    def test_data_readable_after_repair(self, nc, providers, clock, payload):
        data = payload(8000)
        nc.put("/d/a", data)
        nc.repair_provider("aliyun")
        got, _ = nc.get("/d/a")
        assert got == data

    def test_repair_then_outage_of_another_provider(
        self, nc, providers, clock, payload
    ):
        data = payload(8000)
        nc.put("/d/a", data)
        nc.repair_provider("azure")
        providers["amazon_s3"].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = nc.get("/d/a")
        assert got == data  # repaired fragment participates in the decode

    def test_repair_to_replacement_provider(self, providers, clock, payload):
        nc = NCCloudScheme(
            [providers[n] for n in ("amazon_s3", "azure", "aliyun")], clock
        )
        data = payload(6000)
        nc.put("/d/a", data)
        stats = nc.repair_provider("azure", replacement="amazon_s3")
        assert stats["objects"] == 1
        entry = nc.namespace.get("/d/a")
        assert "azure" not in entry.providers

    def test_repair_unknown_provider_rejected(self, nc):
        with pytest.raises(ValueError):
            nc.repair_provider("nonexistent")


class TestRepairTakesOnlyVerifiedHelpers:
    """A regenerating code promises a decodable result only when the nodes
    it combines are intact: ``repair_provider`` verifies its survivors and
    never writes a fragment derived from bytes it could not check."""

    @staticmethod
    def _survivor(nc, path, failed):
        entry = nc.namespace.get(path)
        prov, idx = next(p for p in entry.placements if p[0] != failed)
        return prov, nc._fragment_key(path, idx, entry.version)

    def test_tampered_survivor_is_not_baked_in(self, nc, providers, payload):
        import numpy as np

        data = payload(1 << 20)
        nc.put("/d/a", data)
        failed = nc.namespace.get("/d/a").placements[0][0]
        prov, key = self._survivor(nc, "/d/a", failed)
        store = providers[prov].store
        rotten = np.frombuffer(store.get(nc.container, key).data, dtype=np.uint8) ^ 0xFF
        store.tamper(nc.container, key, rotten.tobytes())

        stats = nc.repair_provider(failed)

        got, report = nc.get("/d/a")
        assert got == data
        # the damage left is exactly the tampered survivor, and a scrub sees it
        audit = nc.verify_object("/d/a")
        assert [(f.provider, f.kind) for f in audit.findings] == [(prov, "corrupt")]
        # n-2 intact helpers: the conventional repair from k whole fragments
        assert stats["bytes_downloaded"] == stats["conventional_bytes"]
        assert [r.degraded for r in nc.collector.reports if r.op == "repair"] == [True]

    def test_survivor_only_in_the_write_log_serves_as_helper(
        self, nc, providers, clock, payload
    ):
        data = payload(40_000)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 600))
        nc.put("/d/a", data)  # azure's fragment lands in its write log
        assert len(nc.pending_log("azure")) > 0

        stats = nc.repair_provider("rackspace")

        # the logged fragment never left the client: functional repair, with
        # only the two stored survivors' chunks crossing the wire
        chunk = nc._codec_for(nc.namespace.get("/d/a")).fragment_size(40_000) // 2
        assert stats["bytes_downloaded"] == 2 * chunk
        clock.advance(700)
        nc.heal_returned()
        assert nc.get("/d/a")[0] == data
        assert nc.verify_object("/d/a").ok

    def test_missing_survivor_falls_back_then_refuses_below_k(self, nc, providers, payload):
        data = payload(40_000)
        nc.put("/d/a", data)
        prov, key = self._survivor(nc, "/d/a", "rackspace")
        providers[prov].store.remove(nc.container, key)

        nc.repair_provider("rackspace")  # k = 2 survivors left: conventional
        assert nc.get("/d/a")[0] == data

        # take a second survivor: one intact helper < k, nothing may be written
        prov2, key2 = next(
            (p, nc._fragment_key("/d/a", i, 1))
            for p, i in nc.namespace.get("/d/a").placements
            if p not in ("rackspace", prov)
        )
        providers[prov2].store.remove(nc.container, key2)
        before = providers["rackspace"].store.get(
            nc.container, nc._fragment_key("/d/a", 3, 1)
        ).data
        with pytest.raises(DataUnavailable, match="intact"):
            nc.repair_provider("rackspace")
        after = providers["rackspace"].store.get(
            nc.container, nc._fragment_key("/d/a", 3, 1)
        ).data
        assert after is before
        # and the failed repair left the scheme usable
        nc.put("/d/b", data)
        assert nc.get("/d/b")[0] == data
