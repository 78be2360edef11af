"""Unit tests for the RACS baseline (RAID5 striping)."""

import pytest

from repro.faults import OutageWindow
from repro.schemes import RacsScheme


@pytest.fixture
def racs(providers, clock):
    return RacsScheme(list(providers.values()), clock)


class TestPlacement:
    def test_needs_three_providers(self, providers, clock):
        with pytest.raises(ValueError):
            RacsScheme([providers["aliyun"], providers["azure"]], clock)

    def test_codec_is_raid5_k_nminus1(self, racs):
        assert racs.codec.k == 3
        assert racs.codec.n == 4

    def test_one_fragment_per_provider(self, racs, providers, payload):
        racs.put("/d/a", payload(3000))
        for name in providers:
            store = providers[name].store
            frags = [
                k
                for k in store.list(racs.container)
                if k.startswith("/d/a#") and not k.startswith("__meta__")
            ]
            assert len(frags) == 1

    def test_everything_striped_even_tiny_files(self, racs, providers, payload):
        racs.put("/d/tiny", payload(10))
        entry = racs.namespace.get("/d/tiny")
        assert entry.codec == "raid5"
        assert len(entry.placements) == 4


class TestSmallUpdatePenalty:
    def test_in_place_update_is_4_accesses(self, racs, payload):
        """The paper's headline: 2 reads + 2 writes for a small update."""
        racs.put("/d/a", payload(9000))
        report = racs.update("/d/a", 100, b"X" * 50)
        # 2 reads (affected data fragment + parity) + 2 writes (same) +
        # the metadata-group restripe.
        data_ops = report.cloud_ops - 4  # meta stripe = 4 fragment puts
        assert data_ops == 4

    def test_update_spanning_fragments_touches_more(self, racs, payload):
        racs.put("/d/a", payload(9000))  # fragments of 3000
        report = racs.update("/d/a", 2990, b"Y" * 100)  # spans fragments 0-1
        data_ops = report.cloud_ops - 4
        assert data_ops == 6  # 3 reads + 3 writes

    def test_update_correctness(self, racs, payload):
        data = payload(9000)
        racs.put("/d/a", data)
        racs.update("/d/a", 2990, b"Y" * 100)
        got, _ = racs.get("/d/a")
        assert got[2990:3090] == b"Y" * 100
        assert got[:2990] == data[:2990]
        assert got[3090:] == data[3090:]

    def test_growing_update_restripes(self, racs, payload):
        racs.put("/d/a", payload(1000))
        v1 = racs.namespace.get("/d/a").version
        racs.update("/d/a", 900, b"Z" * 500)
        entry = racs.namespace.get("/d/a")
        assert entry.size == 1400
        assert entry.version == v1 + 1  # full restripe = new version


class TestDegradedReads:
    def test_reconstruction_via_parity(self, racs, providers, clock, payload):
        data = payload(12_000)
        racs.put("/d/a", data)
        # Knock out a provider holding a *data* fragment.
        entry = racs.namespace.get("/d/a")
        data_provider = [p for p, i in entry.placements if i == 0][0]
        providers[data_provider].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, report = racs.get("/d/a")
        assert got == data
        assert report.degraded
        # Reconstruction pulled the parity fragment's provider in.
        parity_provider = [p for p, i in entry.placements if i == 3][0]
        assert parity_provider in report.providers

    def test_parity_loss_is_invisible(self, racs, providers, clock, payload):
        data = payload(12_000)
        racs.put("/d/a", data)
        entry = racs.namespace.get("/d/a")
        parity_provider = [p for p, i in entry.placements if i == 3][0]
        providers[parity_provider].faults.add(OutageWindow(clock.now, clock.now + 60))
        got, report = racs.get("/d/a")
        assert got == data
        assert not report.degraded  # systematic read never needed the parity


class TestMetadataStriping:
    def test_metadata_groups_striped(self, racs, providers, payload):
        racs.put("/docs/a", payload(100))
        counts = sum(
            1
            for name in providers
            for key in providers[name].store.list(racs.container)
            if key.startswith("__meta__/docs.")
        )
        assert counts == 4  # one metadata fragment per provider
