"""Tests for client-restart namespace recovery from cloud metadata groups.

The persisted per-directory metadata is load-bearing: a brand-new client
instance pointed at the same providers rebuilds the full namespace and
serves every file a previous client stored.
"""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.fs.metadata import group_key
from repro.schemes import (
    DuraCloudScheme,
    HyrdScheme,
    NCCloudScheme,
    RacsScheme,
    SingleCloudScheme,
    build_scheme,
)
from repro.sim.clock import SimClock

KB, MB = 1024, 1024 * 1024


def _populate(scheme, payload):
    contents = {
        "/docs/a.txt": payload(6 * KB),
        "/docs/b.txt": payload(12 * KB),
        "/media/v.bin": payload(2 * MB),
    }
    for path, data in contents.items():
        scheme.put(path, data)
    return contents


class TestRecoveryPerScheme:
    def test_hyrd_second_client_serves_everything(self, providers, clock, payload):
        first = HyrdScheme(list(providers.values()), clock)
        contents = _populate(first, payload)

        second = HyrdScheme(list(providers.values()), clock)
        assert len(second.namespace) == 0
        report = second.recover_namespace()
        assert report.op == "recover"
        assert report.cloud_ops > 0  # recovery is charged traffic
        assert set(second.namespace.paths()) == set(contents)
        for path, data in contents.items():
            got, _ = second.get(path)
            assert got == data

    def test_recovered_entries_carry_full_metadata(self, providers, clock, payload):
        first = HyrdScheme(list(providers.values()), clock)
        _populate(first, payload)
        second = HyrdScheme(list(providers.values()), clock)
        second.recover_namespace()
        large = second.namespace.get("/media/v.bin")
        assert large.codec == "raid5"
        assert large.digests  # integrity digests survive the round trip
        assert set(large.providers) == {"rackspace", "aliyun", "amazon_s3"}

    def test_racs_striped_metadata_recovery(self, providers, clock, payload):
        first = RacsScheme(list(providers.values()), clock)
        contents = _populate(first, payload)
        second = RacsScheme(list(providers.values()), clock)
        second.recover_namespace()
        for path, data in contents.items():
            got, _ = second.get(path)
            assert got == data

    def test_racs_recovery_during_outage(self, providers, clock, payload):
        """Striped metadata groups reconstruct through parity like any data."""
        first = RacsScheme(list(providers.values()), clock)
        contents = _populate(first, payload)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        second = RacsScheme(list(providers.values()), clock)
        second.recover_namespace()
        assert set(second.namespace.paths()) == set(contents)

    def test_duracloud_recovery(self, providers, clock, payload):
        first = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        contents = _populate(first, payload)
        second = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        second.recover_namespace()
        for path, data in contents.items():
            got, _ = second.get(path)
            assert got == data

    def test_single_cloud_recovery(self, providers, clock, payload):
        first = SingleCloudScheme(providers["aliyun"], clock)
        contents = _populate(first, payload)
        second = SingleCloudScheme(providers["aliyun"], clock)
        second.recover_namespace()
        assert set(second.namespace.paths()) == set(contents)

    def test_nccloud_codec_rederivation(self, providers, clock, payload):
        first = NCCloudScheme(list(providers.values()), clock)
        contents = _populate(first, payload)
        second = NCCloudScheme(list(providers.values()), clock)
        second.recover_namespace()
        for path, data in contents.items():
            got, _ = second.get(path)
            assert got == data


class TestHigherLayerRecovery:
    def test_depsky_ca_recovery(self, providers, clock, payload):
        """Confidential bundles recover too: keys come out of the shares."""
        from repro.schemes import DepSkyCAScheme

        first = DepSkyCAScheme(list(providers.values()), clock)
        contents = _populate(first, payload)
        second = DepSkyCAScheme(list(providers.values()), clock)
        second.recover_namespace()
        for path, data in contents.items():
            got, _ = second.get(path)
            assert got == data

    def test_dedup_layer_recovery(self, providers, clock, payload):
        """A rebuilt dedup layer restores recipes, refcounts and GC safety."""
        from repro.dedup import ContentDefinedChunker, DedupLayer

        shared = payload(60 * KB)
        first = DedupLayer(
            HyrdScheme(list(providers.values()), clock),
            ContentDefinedChunker(avg_size=8 * KB),
        )
        first.put("/b/mon.img", shared)
        first.put("/b/tue.img", shared)  # fully deduplicated second backup

        second = DedupLayer(
            HyrdScheme(list(providers.values()), clock),
            ContentDefinedChunker(avg_size=8 * KB),
        )
        recovered = second.recover()
        assert recovered == 2
        assert second.get("/b/mon.img") == shared
        assert second.dedup_ratio() == pytest.approx(2.0, rel=0.01)
        # Refcounts recovered correctly: removing one backup must not
        # garbage-collect chunks the other still references.
        second.remove("/b/mon.img")
        assert second.get("/b/tue.img") == shared


class TestRecoverySemantics:
    def test_empty_fleet_recovers_empty(self, providers, clock):
        scheme = HyrdScheme(list(providers.values()), clock)
        scheme.recover_namespace()
        assert scheme.namespace.paths() == []

    def test_recovery_reflects_removals(self, providers, clock, payload):
        first = HyrdScheme(list(providers.values()), clock)
        _populate(first, payload)
        first.remove("/docs/a.txt")
        second = HyrdScheme(list(providers.values()), clock)
        second.recover_namespace()
        assert "/docs/a.txt" not in second.namespace
        assert "/docs/b.txt" in second.namespace

    def test_recovery_is_idempotent(self, providers, clock, payload):
        first = HyrdScheme(list(providers.values()), clock)
        contents = _populate(first, payload)
        second = HyrdScheme(list(providers.values()), clock)
        second.recover_namespace()
        second.recover_namespace()
        assert set(second.namespace.paths()) == set(contents)

    def test_recovery_total_failure_raises(self, providers, clock, payload):
        from repro.schemes.base import DataUnavailable

        first = HyrdScheme(list(providers.values()), clock)
        _populate(first, payload)
        second = HyrdScheme(list(providers.values()), clock)
        for name in providers:
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        with pytest.raises(DataUnavailable):
            second.recover_namespace()

    @pytest.mark.parametrize("stored", [b"{}", b"[1]", b"[{}]", b"null"])
    def test_wrong_shape_group_falls_back_to_journaled_copy(
        self, providers, clock, payload, stored
    ):
        """A torn group can decode into bytes that are valid JSON and still
        not a metadata group.  That must surface as the typed failure the
        journal fallback catches — not escape untyped, and not (``{}``) be
        accepted as "this directory is empty"."""
        first = HyrdScheme(list(providers.values()), clock)
        journal = first.attach_journal()
        contents = _populate(first, payload)
        # Two replica puts, then the client dies between the two replica
        # puts of /docs's group: the intent stays pending, redo image inside.
        contents["/docs/c.txt"] = payload(3 * KB)
        first.install_crash_schedule(CrashSchedule([4]))
        with pytest.raises(ClientCrash):
            first.put("/docs/c.txt", contents["/docs/c.txt"])
        (intent,) = journal.pending()
        assert set(intent.meta_blobs) == {"/docs"}
        for name in first._meta_write_targets():
            providers[name].store.tamper(first.container, group_key("/docs"), stored)

        second = HyrdScheme(list(providers.values()), clock)
        second.attach_journal(journal)
        second.recover_namespace()
        assert set(second.namespace.paths()) == set(contents)
        for path, data in contents.items():
            assert second.get(path)[0] == data


_FLEET = ("amazon_s3", "azure", "aliyun", "rackspace")
#: providers holding a copy (a replica, or RACS's fragment .i on the i-th)
#: of every metadata group
_GROUP_COPIES = {
    "hyrd": ("azure", "aliyun"),
    "duracloud": ("amazon_s3", "azure"),
    "depsky": _FLEET,
    "depsky-ca": _FLEET,
    "nccloud": _FLEET,
    "racs": _FLEET,
}


@pytest.mark.parametrize(
    "name,holder",
    [(name, holder) for name, holders in _GROUP_COPIES.items() for holder in holders],
)
def test_one_undecodable_group_copy_leaves_the_others_to_serve(name, holder):
    """A truncated replica (or fragment) of a metadata group is skipped like
    an unreachable one: another replica — or another k-subset, through
    RAID5 parity — rebuilds the namespace."""
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    first = build_scheme(name, fleet, clock)
    contents = {f"/d/f{i}": bytes([i + 1]) * 5000 for i in range(3)}
    for path, data in contents.items():
        first.put(path, data)
    store = fleet[holder].store
    (key,) = [k for k in store.list(first.container) if k.startswith(group_key("/d"))]
    blob = bytes(store.get(first.container, key).data)
    store.tamper(first.container, key, blob[: len(blob) // 2])

    second = build_scheme(name, fleet, clock)
    second.recover_namespace()
    assert set(second.namespace.paths()) == set(contents)
    for path, data in contents.items():
        assert second.get(path)[0] == data
