"""Unit + integration tests for the dedup layer over real schemes."""

import pytest

from repro.dedup.chunking import ContentDefinedChunker
from repro.dedup.layer import DedupLayer
from repro.schemes import HyrdScheme, SingleCloudScheme

KB = 1024


@pytest.fixture
def layer(providers, clock):
    scheme = SingleCloudScheme(providers["aliyun"], clock)
    return DedupLayer(scheme, ContentDefinedChunker(avg_size=4 * KB))


class TestRoundTrip:
    def test_put_get(self, layer, payload):
        data = payload(100 * KB)
        layer.put("/backup/a.img", data)
        assert layer.get("/backup/a.img") == data

    def test_small_file(self, layer):
        layer.put("/f", b"x")
        assert layer.get("/f") == b"x"

    def test_empty_file(self, layer):
        layer.put("/empty", b"")
        assert layer.get("/empty") == b""

    def test_update_roundtrip(self, layer, payload):
        data = payload(50 * KB)
        layer.put("/f", data)
        layer.update("/f", 10 * KB, b"PATCHED!")
        got = layer.get("/f")
        assert got[10 * KB : 10 * KB + 8] == b"PATCHED!"
        assert len(got) == 50 * KB

    def test_paths_listing(self, layer, payload):
        layer.put("/b/x", payload(KB))
        layer.put("/a/y", payload(KB))
        assert layer.paths() == ["/a/y", "/b/x"]


class TestDeduplication:
    def test_identical_file_costs_no_transfer(self, layer, payload):
        data = payload(200 * KB)
        layer.put("/v1", data)
        before = layer.stats.transferred_bytes
        layer.put("/v2", data)
        assert layer.stats.transferred_bytes == before  # zero new chunk bytes
        assert layer.dedup_ratio() == pytest.approx(2.0, rel=0.01)

    def test_mostly_identical_backup_saves_traffic(self, layer, payload):
        data = bytearray(payload(400 * KB))
        layer.put("/mon", bytes(data))
        data[100:200] = b"\x99" * 100  # tiny edit
        before = layer.stats.transferred_bytes
        layer.put("/tue", bytes(data))
        delta = layer.stats.transferred_bytes - before
        assert delta < 100 * KB  # far less than the 400 KB logical write
        assert layer.get("/tue") == bytes(data)

    def test_stats_consistency(self, layer, payload):
        data = payload(100 * KB)
        layer.put("/a", data)
        layer.put("/b", data)
        s = layer.stats
        assert s.logical_bytes == 200 * KB
        assert s.chunks_seen == 2 * s.chunks_uploaded
        assert s.chunks_deduped == s.chunks_uploaded
        assert 0.45 < s.traffic_saved_fraction <= 0.55

    def test_overwrite_releases_old_chunks(self, layer, payload):
        layer.put("/f", payload(50 * KB))
        layer.put("/f", payload(50 * KB))  # different content
        # Old unique chunks were garbage collected from the index.
        assert layer.index.logical_bytes() == pytest.approx(50 * KB, rel=0.02)


class TestGarbageCollection:
    def test_remove_drops_unreferenced_chunks(self, layer, providers, payload):
        data = payload(60 * KB)
        layer.put("/only", data)
        stored_before = providers["aliyun"].store.total_bytes()
        layer.remove("/only")
        assert providers["aliyun"].store.total_bytes() < stored_before * 0.2
        with pytest.raises(FileNotFoundError):
            layer.get("/only")

    def test_shared_chunks_survive_removal(self, layer, payload):
        data = payload(80 * KB)
        layer.put("/a", data)
        layer.put("/b", data)
        layer.remove("/a")
        assert layer.get("/b") == data

    def test_remove_unknown(self, layer):
        with pytest.raises(FileNotFoundError):
            layer.remove("/nope")


class TestOverHyrd:
    def test_dedup_over_hyrd_with_outage(self, providers, clock, payload):
        """The layer inherits HyRD's availability: chunk reads survive an
        outage through the underlying degraded paths."""
        from repro.faults import OutageWindow

        hyrd = HyrdScheme(list(providers.values()), clock)
        layer = DedupLayer(hyrd, ContentDefinedChunker(avg_size=8 * KB))
        data = payload(120 * KB)
        layer.put("/doc", data)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        assert layer.get("/doc") == data

    def test_chunks_ride_hyrd_placement(self, providers, clock, payload):
        hyrd = HyrdScheme(list(providers.values()), clock)
        layer = DedupLayer(hyrd, ContentDefinedChunker(avg_size=8 * KB))
        layer.put("/doc", payload(64 * KB))
        # 8 KB chunks are small-class objects: replicated on perf providers.
        chunk_paths = [p for p in hyrd.namespace.paths() if p.startswith("/.dedup")]
        assert chunk_paths
        for path in chunk_paths:
            assert hyrd.namespace.get(path).codec == "replication"
