"""Tests for DepSky-CA (confidentiality + erasure-coded availability)."""

import pytest

from repro.core.resilience import BREAKER_FAILURE_THRESHOLD
from repro.faults import OutageWindow
from repro.schemes import DepSkyCAScheme
from repro.schemes.base import DataUnavailable

KB, MB = 1024, 1024 * 1024


@pytest.fixture
def ca(providers, clock):
    return DepSkyCAScheme(list(providers.values()), clock)


class TestRoundTrip:
    def test_put_get(self, ca, payload):
        data = payload(100 * KB)
        ca.put("/sec/doc", data)
        got, _ = ca.get("/sec/doc")
        assert got == data

    def test_update(self, ca, payload):
        data = payload(64 * KB)
        ca.put("/sec/doc", data)
        ca.update("/sec/doc", 100, b"REDACTED")
        got, _ = ca.get("/sec/doc")
        assert got[100:108] == b"REDACTED"
        assert got[:100] == data[:100]

    def test_remove(self, ca, payload):
        ca.put("/sec/doc", payload(KB))
        ca.remove("/sec/doc")
        with pytest.raises(FileNotFoundError):
            ca.get("/sec/doc")

    def test_empty_file(self, ca):
        ca.put("/sec/empty", b"")
        got, _ = ca.get("/sec/empty")
        assert got == b""


class TestAvailability:
    def test_tolerates_f_outages(self, ca, providers, clock, payload):
        data = payload(80 * KB)
        ca.put("/sec/doc", data)
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, report = ca.get("/sec/doc")
        assert got == data

    def test_tolerates_two_outages_with_rs22(self, providers, clock, payload):
        """n=4, f=1 gives RS(2,2): in fact two losses are survivable for
        reads (any 2 of 4 bundles), even beyond the quorum guarantee."""
        ca = DepSkyCAScheme(list(providers.values()), clock)
        data = payload(40 * KB)
        ca.put("/sec/doc", data)
        for name in ("aliyun", "azure"):
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = ca.get("/sec/doc")
        assert got == data

    def test_three_outages_fail(self, ca, providers, clock, payload):
        ca.put("/sec/doc", payload(KB))
        for name in ("aliyun", "azure", "amazon_s3"):
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        with pytest.raises(DataUnavailable):
            ca.get("/sec/doc")

    def test_write_during_outage_heals(self, ca, providers, clock, payload):
        window = OutageWindow(clock.now, clock.now + 3600)
        providers["azure"].faults.add(window)
        data = payload(50 * KB)
        ca.put("/sec/doc", data)
        clock.advance_to(window.end)
        ca.heal_returned()
        assert len(ca.pending_log("azure")) == 0
        got, report = ca.get("/sec/doc")
        assert got == data


class TestSharedDataPath:
    """DepSky-CA reads and writes through the base class's striped path."""

    def test_open_breaker_is_routed_around_not_fast_failed(self, ca, clock, payload):
        data = payload(80 * KB)
        ca.put("/sec/doc", data)
        entry = ca.namespace.get("/sec/doc")
        by_index = {idx: prov for prov, idx in entry.placements}
        fastest = by_index[ca._rank_providers_by_index(by_index, entry.size, ca.codec)[0]]
        breaker = ca._breakers[fastest]
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(clock.now)
        assert not breaker.would_allow(clock.now)
        fast_fails = ca.collector.counter("breaker_fast_fail")
        got, report = ca.get("/sec/doc")
        assert got == data
        assert report.cloud_ops == ca.codec.k == 2
        assert fastest not in report.providers
        assert report.degraded
        assert ca.collector.counter("breaker_fast_fail") == fast_fails

    def test_codec_counters_see_the_put_and_a_cold_degraded_get(
        self, ca, providers, clock, payload
    ):
        data = payload(48 * KB)
        ca.put("/sec/doc", data)
        encoded = ca.registry.counters("codec_encode_bytes_total")
        assert sum(encoded.values()) == len(data)
        assert all(dict(labels)["codec"] == "BundleCode" for labels in encoded)
        # The writer's own reads hit its payload cache; a second client has
        # nothing but the bundles, which must therefore describe themselves.
        reader = DepSkyCAScheme(list(providers.values()), clock, seed=7)
        reader.recover_namespace()
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, report = reader.get("/sec/doc")
        assert got == data
        assert report.degraded
        decoded = reader.registry.counters("codec_decode_bytes_total")
        assert sum(decoded.values()) == len(data)

    def test_update_reputs_a_fresh_sharing(self, ca, payload):
        """Non-systematic: a same-size update never patches bundles in place."""
        ca.put("/sec/doc", payload(16 * KB))
        ca.update("/sec/doc", 10, b"patch")
        assert ca.namespace.get("/sec/doc").version == 2


class TestConfidentiality:
    def test_no_provider_stores_plaintext(self, ca, providers, payload):
        data = payload(60 * KB)
        ca.put("/sec/doc", data)
        for name in providers:
            blob = ca.provider_view(name, "/sec/doc")
            assert data not in blob
            # Not even a sizeable plaintext window leaks into the bundle.
            assert data[:256] not in blob

    def test_single_provider_cannot_reconstruct(self, ca, providers, payload):
        """One bundle = one RS fragment of ciphertext + one key share below
        the threshold; neither is usable alone."""
        data = payload(32 * KB)
        ca.put("/sec/doc", data)
        blob = ca.provider_view("aliyun", "/sec/doc")
        fragment, share, _idx = ca.codec.unbundle(blob)
        assert fragment != data
        assert len(share) == 16  # a share of the key, not the key space

    def test_space_overhead_is_two(self, ca, payload):
        ca.put("/sec/doc", payload(200 * KB))
        # RS(2,2) on the ciphertext: 2x, far below DepSky-A's 4x.
        assert ca.space_overhead() == pytest.approx(2.0, abs=0.1)

    def test_fresh_key_per_version(self, ca, payload):
        data = payload(4 * KB)
        ca.put("/sec/doc", data)
        v1_blob = ca.provider_view("aliyun", "/sec/doc")
        ca.put("/sec/doc", data)  # same plaintext, new version
        v2_blob = ca.provider_view("aliyun", "/sec/doc")
        assert v1_blob != v2_blob  # new key -> new ciphertext


class TestQuorum:
    def test_write_quorum(self, ca):
        assert ca.write_quorum == 3

    def test_needs_enough_providers(self, providers, clock):
        with pytest.raises(ValueError):
            DepSkyCAScheme([providers["aliyun"], providers["azure"]], clock)
