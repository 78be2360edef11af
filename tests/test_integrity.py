"""Tests for the HAIL-style fragment-integrity layer (paper citation [8]).

Every write records per-fragment SHA-256 digests in the file's metadata;
every read verifies what the providers return.  A corrupt fragment is
treated exactly like an erased one: replicated schemes fall through to the
next copy, erasure-coded schemes reconstruct around it.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import HyRDConfig
from repro.faults import OutageWindow
from repro.schemes import (
    DepSkyCAScheme,
    DepSkyScheme,
    DuraCloudScheme,
    HyrdScheme,
    NCCloudScheme,
    RacsScheme,
)
from repro.schemes.base import DataUnavailable

KB, MB = 1024, 1024 * 1024


def _corrupt(provider, container, key):
    """Flip the stored object's bytes behind everyone's back."""
    obj = provider.store.get(container, key)
    garbled = bytes(b ^ 0xFF for b in obj.data)
    provider.store.put(container, key, garbled, 0.0)


class TestDigestsRecorded:
    def test_every_scheme_records_digests(self, providers, clock, payload):
        schemes = [
            DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock),
            RacsScheme(list(providers.values()), clock),
        ]
        for scheme in schemes:
            scheme.put("/d/f", payload(9 * KB))
            entry = scheme.namespace.get("/d/f")
            assert len(entry.digests) == len(entry.placements)
            assert all(len(d) == 64 for d in entry.digests)

    def test_rmw_refreshes_digests(self, providers, clock, payload):
        racs = RacsScheme(list(providers.values()), clock)
        racs.put("/d/f", payload(9 * KB))
        before = racs.namespace.get("/d/f").digests
        racs.update("/d/f", 0, b"XX")
        after = racs.namespace.get("/d/f").digests
        assert before != after
        got, _ = racs.get("/d/f")  # digests verify post-update
        assert got[:2] == b"XX"


class TestReplicatedCorruptionRecovery:
    def test_duracloud_serves_from_intact_replica(self, providers, clock, payload):
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        data = payload(20 * KB)
        dc.put("/d/f", data)
        # Azure (the preferred read source) silently corrupts the object.
        _corrupt(providers["azure"], dc.container, "/d/f#v1")
        got, report = dc.get("/d/f")
        assert got == data
        assert report.degraded
        assert "amazon_s3" in report.providers

    def test_all_replicas_corrupt_raises(self, providers, clock, payload):
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        dc.put("/d/f", payload(KB))
        for name in ("amazon_s3", "azure"):
            _corrupt(providers[name], dc.container, "/d/f#v1")
        with pytest.raises(DataUnavailable, match="no intact replica"):
            dc.get("/d/f")


class TestStripedCorruptionRecovery:
    def test_racs_reconstructs_around_corrupt_fragment(
        self, providers, clock, payload
    ):
        racs = RacsScheme(list(providers.values()), clock)
        data = payload(30 * KB)
        racs.put("/d/f", data)
        entry = racs.namespace.get("/d/f")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(providers[victim], racs.container, racs._fragment_key("/d/f", 0, 1))
        got, report = racs.get("/d/f")
        assert got == data
        assert report.degraded

    def test_hyrd_large_file_corruption(self, providers, clock, payload):
        hyrd = HyrdScheme(list(providers.values()), clock)
        data = payload(3 * MB)
        hyrd.put("/d/big", data)
        entry = hyrd.namespace.get("/d/big")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(
            providers[victim], hyrd.container, hyrd._fragment_key("/d/big", 0, 1)
        )
        got, report = hyrd.get("/d/big")
        assert got == data
        assert report.degraded

    def test_hyrd_small_file_corruption(self, providers, clock, payload):
        hyrd = HyrdScheme(list(providers.values()), clock)
        data = payload(6 * KB)
        hyrd.put("/d/s", data)
        _corrupt(providers["aliyun"], hyrd.container, "/d/s#v1")
        got, report = hyrd.get("/d/s")
        assert got == data
        # The corrupt Aliyun fetch is still a charged request; the intact
        # Azure replica ultimately serves.
        assert "azure" in report.providers
        assert report.degraded

    def test_corruption_beyond_tolerance_raises(self, providers, clock, payload):
        racs = RacsScheme(list(providers.values()), clock)
        racs.put("/d/f", payload(30 * KB))
        entry = racs.namespace.get("/d/f")
        for idx in (0, 1):  # two corrupt fragments > RAID5 tolerance
            victim = [p for p, i in entry.placements if i == idx][0]
            _corrupt(
                providers[victim], racs.container, racs._fragment_key("/d/f", idx, 1)
            )
        with pytest.raises(DataUnavailable):
            racs.get("/d/f")


class TestQuorumAndConfidentialSchemes:
    def test_depsky_verifies_replicas(self, providers, clock, payload):
        ds = DepSkyScheme(list(providers.values()), clock)
        data = payload(10 * KB)
        ds.put("/d/f", data)
        _corrupt(providers["aliyun"], ds.container, "/d/f#v1")
        got, report = ds.get("/d/f")
        assert got == data
        assert report.degraded

    def test_depsky_ca_rejects_corrupt_bundle(self, providers, clock, payload):
        ca = DepSkyCAScheme(list(providers.values()), clock)
        data = payload(40 * KB)
        ca.put("/d/f", data)
        entry = ca.namespace.get("/d/f")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(providers[victim], ca.container, ca._fragment_key("/d/f", 0, 1))
        got, _ = ca.get("/d/f")
        assert got == data

    def test_hot_copy_corruption_falls_back_to_stripe(
        self, providers, clock, payload
    ):
        from repro.core.config import HyRDConfig

        hyrd = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        data = payload(2 * MB)
        hyrd.put("/d/big", data)
        hyrd.get("/d/big")  # triggers promotion
        provider, key, _ = hyrd.namespace.get("/d/big").hot
        _corrupt(providers[provider], hyrd.container, key)
        got, _ = hyrd.get("/d/big")
        assert got == data  # verified stripe wins over the corrupt hot copy


def _tamper(scheme, providers, entry, slot):
    """Bit-rot ``entry``'s placement ``slot`` behind the provider's back."""
    prov, idx = entry.placements[slot]
    key = scheme._placement_storage_key(entry, idx)
    store = providers[prov].store
    stored = np.frombuffer(store.get(scheme.container, key).data, dtype=np.uint8)
    store.tamper(scheme.container, key, (stored ^ 0xFF).tobytes())


#: name -> (scheme factory, object size): every data path ``update`` composes
#: new content through — RMW on RAID5 and RS stripes, re-put of an FMSR
#: stripe, of a replicated file and of DepSky-CA bundles
_UPDATE_PATHS = {
    "hyrd-raid5": (lambda fleet, clock: HyrdScheme(fleet, clock), 1280 * KB),
    "hyrd-rs": (
        lambda fleet, clock: HyrdScheme(
            fleet, clock, config=HyRDConfig(erasure_codec="rs")
        ),
        1280 * KB,
    ),
    "nccloud": (lambda fleet, clock: NCCloudScheme(fleet, clock), 300 * KB),
    "replicated": (lambda fleet, clock: HyrdScheme(fleet, clock), 64 * KB),
    "depsky-ca": (lambda fleet, clock: DepSkyCAScheme(fleet, clock), 300 * KB),
}


@pytest.fixture(params=sorted(_UPDATE_PATHS))
def stored_object(request, providers, clock, payload):
    """(scheme, entry, data) of one freshly put object per update path."""
    build, size = _UPDATE_PATHS[request.param]
    scheme = build(list(providers.values()), clock)
    data = payload(size)
    scheme.put("/d/f", data)
    return scheme, scheme.namespace.get("/d/f"), data


class TestUpdateComposesFromVerifiedContent:
    """``update`` builds the next version from what the client holds; a
    stored object that fails its write-time digest is not part of that."""

    @pytest.mark.parametrize("slot", [0, -1])
    def test_update_after_silent_corruption_keeps_acked_bytes(
        self, stored_object, providers, slot
    ):
        scheme, entry, data = stored_object
        _tamper(scheme, providers, entry, slot)
        assert scheme.get("/d/f")[0] == data  # the read path routes around it
        patch = bytes(range(256)) * 16
        offset = len(data) // 2
        scheme.update("/d/f", offset, patch)
        expected = data[:offset] + patch + data[offset + len(patch) :]
        assert scheme.get("/d/f")[0] == expected
        # whatever damage is left is visible to a scrub and repairable
        scheme.repair_object("/d/f")
        assert scheme.verify_object("/d/f").ok
        assert scheme.get("/d/f")[0] == expected

    def test_update_past_the_end_zero_fills(self, stored_object):
        scheme, _entry, data = stored_object
        scheme.update("/d/f", len(data) + 100, b"tail")
        assert scheme.get("/d/f")[0] == data + bytes(100) + b"tail"

    def test_too_few_intact_fragments_refuses_the_update(
        self, providers, clock, payload
    ):
        racs = RacsScheme(list(providers.values()), clock)
        racs.put("/d/f", payload(30 * KB))
        entry = racs.namespace.get("/d/f")
        for slot in (0, 1):  # two corrupt fragments > RAID5 tolerance
            _tamper(racs, providers, entry, slot)
        with pytest.raises(DataUnavailable, match="intact"):
            racs.update("/d/f", 0, b"XX")
        assert racs.namespace.get("/d/f") == entry


@pytest.fixture(params=["raid5", "rs", "fmsr"])
def coded_scheme(request, providers, clock):
    fleet = list(providers.values())
    if request.param == "fmsr":
        return NCCloudScheme(fleet, clock)
    config = HyRDConfig(erasure_codec=request.param, size_threshold=4 * KB)
    return HyrdScheme(fleet, clock, config=config)


class TestPeekSkipsDecodeOnlyWhenProvablyIntact:
    """``_peek_content`` returns the recorded payload when every held
    fragment is the object encoded at write time, and decodes otherwise."""

    @staticmethod
    def _count_decodes(monkeypatch, codec):
        calls = []
        real = type(codec).decode

        def counting(self, fragments, size):
            calls.append(sorted(fragments))
            return real(self, fragments, size)

        monkeypatch.setattr(type(codec), "decode", counting)
        return calls

    def test_intact_object_is_not_decoded(
        self, coded_scheme, payload, monkeypatch
    ):
        data = payload(200 * KB)
        coded_scheme.put("/d/f", data)
        entry = coded_scheme.namespace.get("/d/f")
        calls = self._count_decodes(monkeypatch, coded_scheme._codec_for(entry))
        assert coded_scheme._peek_content(entry) == data
        assert calls == []

    def test_replaced_fragment_forces_a_verified_decode(
        self, coded_scheme, providers, payload, monkeypatch
    ):
        data = payload(200 * KB)
        coded_scheme.put("/d/f", data)
        entry = coded_scheme.namespace.get("/d/f")
        _tamper(coded_scheme, providers, entry, 0)
        calls = self._count_decodes(monkeypatch, coded_scheme._codec_for(entry))
        assert coded_scheme._peek_content(entry) == data
        tampered = entry.placements[0][1]
        assert len(calls) == 1 and tampered not in calls[0]

    def test_fragment_logged_during_an_outage_is_still_the_encoded_object(
        self, coded_scheme, providers, clock, payload, monkeypatch
    ):
        """The write log keeps the fragment it was handed, so a held logged
        fragment is the encoded object and the recorded payload is served."""
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        data = payload(200 * KB)
        coded_scheme.put("/d/f", data)
        assert coded_scheme.pending_log("aliyun")
        entry = coded_scheme.namespace.get("/d/f")
        calls = self._count_decodes(monkeypatch, coded_scheme._codec_for(entry))
        assert coded_scheme._peek_content(entry) == data
        assert calls == []


class TestLegacyEntriesWithoutDigests:
    def test_digestless_entries_skip_verification(self, providers, clock, payload):
        """Entries written before the integrity layer (digests=()) still read."""
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        data = payload(KB)
        dc.put("/d/f", data)
        entry = dc.namespace.get("/d/f")
        dc.namespace.upsert(dataclasses.replace(entry, digests=()))
        got, _ = dc.get("/d/f")
        assert got == data
