"""The large-file path hashes each stored byte once and decodes nothing it
already holds.

HyRD RAID5-stripes large files and promotes hot ones to a full copy on a
performance provider (§III, Fig. 2).  Promotion uploads bytes the client
has just read off a verified stripe, so it hashes nothing; a hot read is
checked against the promoted object itself.  A systematic stripe's data
fragments are views of its payload, so the payload cache keeps every such
stripe for free until its key dies, and an intact read of it never
decodes.  The same holds for a stripe written or updated while a provider
is out: the write log keeps the encoded fragments themselves, and an
in-place update re-records what it rewrote.  The assertions are counts,
not clocks.
"""

import numpy as np
import pytest

from repro.core.config import MB, HyRDConfig
from repro.erasure.fmsr import FMSRCode
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.faults import OutageWindow
from repro.schemes import HyrdScheme, NCCloudScheme
from repro.schemes.base import Scheme, _PayloadCache

KB = 1024


@pytest.fixture
def digests(monkeypatch):
    """Count of ``Scheme._digest`` calls (every SHA-256 a scheme takes)."""
    calls = [0]
    real = Scheme._digest

    def counting(data):
        calls[0] += 1
        return real(data)

    monkeypatch.setattr(Scheme, "_digest", staticmethod(counting))
    return calls


@pytest.fixture
def decodes(monkeypatch):
    """Count of ``decode`` calls on the RAID5, RS and FMSR codecs."""
    calls = [0]
    for codec in (Raid5Code, ReedSolomonCode, FMSRCode):
        real = codec.decode

        def counting(self, fragments, size, real=real):
            calls[0] += 1
            return real(self, fragments, size)

        monkeypatch.setattr(codec, "decode", counting)
    return calls


def _flipped(obj) -> bytes:
    damaged = bytearray(obj)
    damaged[len(damaged) // 2] ^= 0x01
    return bytes(damaged)


def _promoted(providers, clock, data):
    hyrd = HyrdScheme(
        list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
    )
    hyrd.put("/d/big", data)
    hyrd.get("/d/big")  # the first read promotes
    return hyrd


class TestPromotion:
    def test_promoting_hashes_nothing(self, providers, clock, payload, digests):
        hyrd = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        hyrd.put("/d/big", payload(2 * MB))
        promote = hyrd._promote
        during = []

        def watched(path, data):
            before = digests[0]
            report = promote(path, data)
            during.append(digests[0] - before)
            return report

        hyrd._promote = watched
        hyrd.get("/d/big")
        assert during == [0]
        assert "/d/big" in hyrd.hot_copies()

    def test_hot_read_returns_the_promoted_object(self, providers, clock, payload):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, _version = hyrd.hot_copies()["/d/big"]
        got, report = hyrd.get("/d/big")
        assert report.providers == (provider,)
        assert got is hyrd._hot["/d/big"][2]
        assert got == data

    @pytest.mark.parametrize(
        "damage", [_flipped, lambda obj: bytes(obj[:-1])], ids=["flipped", "truncated"]
    )
    def test_damaged_hot_copy_falls_back_to_the_stripe(
        self, providers, clock, payload, damage
    ):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, version = hyrd.hot_copies()["/d/big"]
        store, key = providers[provider].store, hyrd._hot_key("/d/big", version)
        store.tamper(hyrd.container, key, damage(store.get(hyrd.container, key).data))
        got, report = hyrd.get("/d/big")
        assert got == data
        stripe = set(hyrd.namespace.get("/d/big").providers)
        assert set(report.providers) - {provider} <= stripe
        assert len(report.providers) > 1  # hot copy tried, stripe served

    def test_a_fresh_object_with_the_same_bytes_is_accepted(
        self, providers, clock, payload
    ):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, version = hyrd.hot_copies()["/d/big"]
        key = hyrd._hot_key("/d/big", version)
        providers[provider].store.tamper(hyrd.container, key, bytearray(data))
        got, report = hyrd.get("/d/big")
        assert report.providers == (provider,)
        assert got is not hyrd._hot["/d/big"][2]
        assert got == data


def _live_only(scheme):
    """No payload-cache entry survives for a dead key: every entry names a
    current version, and its ids are the objects the stores hold now."""
    cache = scheme._payload_cache
    live = {}
    for path in scheme.namespace.paths():
        entry = scheme.namespace.get(path)
        live[scheme._version_key(path, entry.version)] = entry
    assert set(cache._entries) <= set(live)
    for key in list(cache._entries):
        held = {idx: data for idx, data, _ in scheme._held_placements(live[key])}
        assert cache.lookup(key, held) is not None


class TestPayloadCache:
    @pytest.mark.parametrize("codec", ["raid5", "rs"])
    def test_systematic_stripes_cost_nothing_and_never_decode(
        self, providers, clock, payload, decodes, codec
    ):
        budget = 2 * MB
        hyrd = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(erasure_codec=codec)
        )
        hyrd._payload_cache = _PayloadCache(budget)
        files = {f"/d/f{i}": payload(2 * MB) for i in range(4)}  # 4x the budget
        for path, data in files.items():
            hyrd.put(path, data)
        assert hyrd._payload_cache._bytes == 0
        for path, data in files.items():
            key = hyrd._version_key(path, 1)
            assert hyrd._payload_cache.lookup(key, {}) is data
            got, report = hyrd.get(path)
            assert got is data and not report.degraded
        assert decodes[0] == 0

    def test_fmsr_entries_still_evict_at_the_budget(
        self, providers, clock, payload, decodes
    ):
        nc = NCCloudScheme(list(providers.values()), clock)
        nc._payload_cache = cache = _PayloadCache(100 * KB)
        files = {f"/d/f{i}": payload(40 * KB) for i in range(4)}
        for path, data in files.items():
            nc.put(path, data)
        assert cache._bytes == 80 * KB
        kept = [p for p in files if cache.lookup(nc._version_key(p, 1), {}) is not None]
        assert kept == ["/d/f2", "/d/f3"]
        for path, data in files.items():
            assert nc.get(path)[0] == data
        assert decodes[0] == 2  # the two evicted stripes

    def test_update_remove_repair_and_migrate_leave_no_dead_entry(
        self, providers, clock, payload
    ):
        hyrd = HyrdScheme(list(providers.values()), clock)
        for i in range(4):
            hyrd.put(f"/d/f{i}", payload(3 * MB))
        _live_only(hyrd)
        hyrd.update("/d/f0", 100, b"patch")  # RMW of one data fragment
        _live_only(hyrd)
        hyrd.update("/d/f1", MB, payload(2 * MB))  # RMW of every fragment
        _live_only(hyrd)
        hyrd.update("/d/f2", 3 * MB - 1, b"grow")  # size change: a re-put
        _live_only(hyrd)
        hyrd.remove("/d/f3")
        _live_only(hyrd)
        entry = hyrd.namespace.get("/d/f1")
        prov, idx = entry.placements[0]
        key = hyrd._placement_storage_key(entry, idx)
        store = providers[prov].store
        stored = np.frombuffer(store.get(hyrd.container, key).data, dtype=np.uint8)
        store.tamper(hyrd.container, key, (stored ^ 0xFF).tobytes())
        assert hyrd.repair_object("/d/f1").repaired
        _live_only(hyrd)
        hyrd.migrate_object("/d/f2")
        _live_only(hyrd)
        # /d/f0's partial RMW re-recorded its entry; /d/f1's repair dropped
        # its own; /d/f2's is its migrated version
        assert set(hyrd._payload_cache._entries) == {
            hyrd._version_key("/d/f0", 1),
            hyrd._version_key("/d/f2", hyrd.namespace.get("/d/f2").version),
        }

    def test_functional_repair_leaves_no_dead_entry(self, providers, clock, payload):
        nc = NCCloudScheme(list(providers.values()), clock)
        data = payload(40 * KB)
        nc.put("/d/f", data)
        nc.repair_provider("rackspace")
        _live_only(nc)
        assert nc.get("/d/f")[0] == data


@pytest.fixture(params=["raid5", "rs", "fmsr"])
def coded(request, providers, clock):
    """HyRD striping large files with RAID5 or RS, or NCCloud's FMSR; every
    stripe has a fragment on aliyun."""
    fleet = list(providers.values())
    if request.param == "fmsr":
        return NCCloudScheme(fleet, clock)
    return HyrdScheme(fleet, clock, config=HyRDConfig(erasure_codec=request.param))


def _patched(data: bytes, offset: int, patch: bytes) -> bytes:
    return data[:offset] + patch + data[offset + len(patch) :]


def _fragments_written_by_an_update(scheme, path) -> int:
    """A systematic stripe rewrites one data fragment plus every parity
    for a patch inside one fragment; FMSR re-puts every fragment."""
    codec = scheme._codec_for(scheme.namespace.get(path))
    return 1 + codec.n - codec.k if codec.systematic else codec.n


class TestOutageIdentity:
    """A fragment written while its provider is out is logged by identity
    and replayed as that object, so after the consistency update the stripe
    is still the one the client encoded: nothing decodes and nothing is
    hashed a second time."""

    def test_after_the_heal_nothing_decodes_or_rehashes(
        self, coded, providers, clock, payload, decodes, digests
    ):
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        data = payload(2 * MB)
        coded.put("/d/f", data)
        data = _patched(data, 100, b"during")
        coded.update("/d/f", 100, b"during")
        assert coded.pending_log("aliyun")
        clock.advance(61)
        decodes[0] = digests[0] = 0

        coded.heal_returned()
        assert not coded.pending_log("aliyun")
        got, report = coded.get("/d/f")
        assert got == data and not report.degraded
        assert (decodes[0], digests[0]) == (0, 0)

        data = _patched(data, 200, b"after")
        coded.update("/d/f", 200, b"after")
        assert digests[0] == _fragments_written_by_an_update(coded, "/d/f")
        assert coded.get("/d/f")[0] == data
        assert decodes[0] == 0


def _tamper_untouched(hyrd, providers, path):
    """Bit-rot the last data fragment of ``path``'s stripe — one a patch at
    offset 0 does not rewrite; returns its storage key."""
    entry = hyrd.namespace.get(path)
    codec = hyrd._codec_for(entry)
    prov = dict((idx, p) for p, idx in entry.placements)[codec.k - 1]
    key = hyrd._fragment_key(path, codec.k - 1, entry.version)
    store = providers[prov].store
    store.tamper(hyrd.container, key, _flipped(store.get(hyrd.container, key).data))
    return key


class TestRmwReRecord:
    """An in-place update re-records its stripe's payload entry only over
    untouched fragments that are the objects the old entry recorded."""

    @pytest.fixture
    def hyrd(self, providers, clock):
        return HyrdScheme(list(providers.values()), clock)

    def test_untouched_fragment_tampered_before_blocks_the_re_record(
        self, hyrd, providers, payload, decodes
    ):
        data = payload(3 * MB)
        hyrd.put("/d/f", data)
        _tamper_untouched(hyrd, providers, "/d/f")
        hyrd.update("/d/f", 0, b"patch")
        assert hyrd._version_key("/d/f", 1) not in hyrd._payload_cache._entries
        decodes[0] = 0
        got, report = hyrd.get("/d/f")
        assert got == _patched(data, 0, b"patch") and report.degraded
        assert decodes[0] == 1

    def test_untouched_fragment_tampered_after_is_rejected_by_its_digest(
        self, hyrd, providers, payload, decodes
    ):
        data = payload(3 * MB)
        hyrd.put("/d/f", data)
        hyrd.update("/d/f", 0, b"patch")
        assert hyrd._version_key("/d/f", 1) in hyrd._payload_cache._entries
        key = _tamper_untouched(hyrd, providers, "/d/f")
        verdicts = []
        verify = hyrd._verify_digest

        def watched(k, obj, expected):
            ok = verify(k, obj, expected)
            verdicts.append((k, ok))
            return ok

        hyrd._verify_digest = watched
        got, report = hyrd.get("/d/f")
        assert got == _patched(data, 0, b"patch") and report.degraded
        assert (key, False) in verdicts
