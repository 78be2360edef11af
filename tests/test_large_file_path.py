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
in-place update re-records what it rewrote, re-hashing only the 64 KiB
digest leaves its patch changed.  The assertions are counts, not clocks.
"""

import threading

import numpy as np
import pytest

from repro.core.config import MB, HyRDConfig
from repro.erasure.fmsr import FMSRCode
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.faults import OutageWindow
from repro.schemes import HyrdScheme, NCCloudScheme, RacsScheme
from repro.schemes.base import Scheme, _PayloadCache
from tests.conftest import DIGEST_LEAF as LEAF

KB = 1024


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
    def test_promoting_hashes_nothing(self, providers, clock, payload, hashed):
        hyrd = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        hyrd.put("/d/big", payload(2 * MB))
        promote = hyrd._promote
        during = []

        def watched(path, data):
            before = hashed[0]
            report = promote(path, data)
            during.append(hashed[0] - before)
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
        assert got is hyrd.namespace.get("/d/big").hot.data
        assert got == data

    def test_a_hot_read_hashes_nothing(self, providers, clock, payload, hashed):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, _key, promoted = hyrd.namespace.get("/d/big").hot
        before = hashed[0]
        got, report = hyrd.get("/d/big")
        assert hashed[0] - before == 0
        assert report.providers == (provider,) and got is promoted

    @pytest.mark.parametrize(
        "damage", [_flipped, lambda obj: bytes(obj[:-1])], ids=["flipped", "truncated"]
    )
    def test_damaged_hot_copy_falls_back_to_the_stripe(
        self, providers, clock, payload, damage
    ):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, key, _ = hyrd.namespace.get("/d/big").hot
        store = providers[provider].store
        store.tamper(hyrd.container, key, damage(store.get(hyrd.container, key).data))
        got, report = hyrd.get("/d/big")
        assert got == data
        stripe = set(hyrd.namespace.get("/d/big").providers)
        assert set(report.providers) - {provider} <= stripe
        assert len(report.providers) > 1  # hot copy tried, stripe served
        assert not report.degraded

    def test_a_fresh_object_with_the_same_bytes_is_accepted(
        self, providers, clock, payload
    ):
        data = payload(2 * MB)
        hyrd = _promoted(providers, clock, data)
        provider, key, promoted = hyrd.namespace.get("/d/big").hot
        providers[provider].store.tamper(hyrd.container, key, bytearray(data))
        got, report = hyrd.get("/d/big")
        assert report.providers == (provider,)
        assert got is not promoted
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


def _bytes_hashed_by_an_update(scheme, path) -> int:
    """A systematic stripe rewrites one data fragment plus every parity
    for a patch inside one leaf, and re-hashes that leaf of each; FMSR
    re-puts, and hashes, every fragment."""
    codec = scheme._codec_for(scheme.namespace.get(path))
    frag_len = codec.fragment_size(scheme.namespace.get(path).size)
    if codec.systematic:
        return (1 + codec.n - codec.k) * min(LEAF, frag_len)
    return codec.n * frag_len


class TestOutageIdentity:
    """A fragment written while its provider is out is logged by identity
    and replayed as that object, so after the consistency update the stripe
    is still the one the client encoded: nothing decodes and nothing is
    hashed a second time, and the next update re-hashes only the leaves
    it changes."""

    def test_after_the_heal_nothing_decodes_or_rehashes(
        self, coded, providers, clock, payload, decodes, hashed
    ):
        providers["aliyun"].faults.add(OutageWindow(clock.now, clock.now + 60))
        data = payload(2 * MB)
        coded.put("/d/f", data)
        data = _patched(data, 100, b"during")
        coded.update("/d/f", 100, b"during")
        assert coded.pending_log("aliyun")
        clock.advance(61)
        decodes[0] = hashed[0] = 0

        coded.heal_returned()
        assert not coded.pending_log("aliyun")
        got, report = coded.get("/d/f")
        assert got == data and not report.degraded
        assert (decodes[0], hashed[0]) == (0, 0)

        data = _patched(data, 200, b"after")
        coded.update("/d/f", 200, b"after")
        assert hashed[0] == _bytes_hashed_by_an_update(coded, "/d/f")
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


@pytest.fixture(params=["hyrd-raid5", "hyrd-rs", "racs"])
def rmw(request, providers, clock):
    """A scheme that stripes a 3 MiB file systematically and patches it in
    place: HyRD with RAID5 or RS, or RACS."""
    fleet = list(providers.values())
    if request.param == "racs":
        return RacsScheme(fleet, clock)
    return HyrdScheme(fleet, clock, config=HyRDConfig(erasure_codec=request.param[5:]))


@pytest.fixture
def work(monkeypatch):
    """Counts of whole-object work: ``encode_views`` and ``decode`` calls on
    the RAID5 and RS codecs over a payload of 1 MiB or more (RACS stripes
    its metadata groups too, and those are far smaller),
    ``Scheme._peek_content`` calls, the bytes every ``Scheme._digest``
    call hashes, and the calls made off the caller's thread."""
    counts = {"encode_views": 0, "decode": 0, "_peek_content": 0, "hashed": 0, "pooled": 0}

    def counting(owner, name, size):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[name] += size(*args) >= MB
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for codec in (Raid5Code, ReedSolomonCode):
        counting(codec, "encode_views", lambda _codec, data: len(data))
        counting(codec, "decode", lambda _codec, _fragments, size: size)
    counting(Scheme, "_peek_content", lambda _scheme, entry: MB)
    digest = Scheme._digest
    caller = threading.get_ident()

    def hashing(data):
        counts["hashed"] += len(data)
        counts["pooled"] += threading.get_ident() != caller
        return digest(data)

    monkeypatch.setattr(Scheme, "_digest", staticmethod(hashing))
    return counts


def _stored_stripe(scheme, path) -> list[bytes]:
    """What each placement of ``path`` holds now, pending write-log
    payloads included, in fragment order."""
    entry = scheme.namespace.get(path)
    held = {idx: bytes(data) for idx, data, _ in scheme._held_placements(entry)}
    return [held[i] for i in range(len(held))]


class TestDeltaRmw:
    """A small in-place update touches the stripe's fragments, not the
    object: it copies and patches the data fragment it overlaps, folds the
    delta into each parity, re-hashes on the caller only the digest leaves
    that changed, and stores what a full re-encode would."""

    PATCH = bytes(range(256)) * 16  # 4 KiB

    def test_a_small_update_does_no_whole_object_work(self, rmw, payload, work):
        data = payload(3 * MB)
        rmw.put("/d/f", data)
        codec = rmw._codec_for(rmw.namespace.get("/d/f"))
        for name in work:
            work[name] = 0
        rmw.update("/d/f", MB + 100, self.PATCH)
        touched = 1 + codec.n - codec.k
        hashed = work.pop("hashed")
        assert work == {"encode_views": 0, "decode": 0, "_peek_content": 0, "pooled": 0}
        assert 0 < hashed <= touched * 2 * LEAF  # at most 2 leaves per touched fragment
        new = _patched(data, MB + 100, self.PATCH)
        assert _stored_stripe(rmw, "/d/f") == codec.encode(new)
        assert rmw.get("/d/f")[0] == new

    @pytest.mark.parametrize("index", ["data", "parity"])
    def test_a_touched_provider_out_logs_what_a_re_encode_would_store(
        self, rmw, providers, clock, payload, index
    ):
        data = payload(3 * MB)
        rmw.put("/d/f", data)
        entry = rmw.namespace.get("/d/f")
        codec = rmw._codec_for(entry)
        idx = 0 if index == "data" else codec.k
        out = dict((i, p) for p, i in entry.placements)[idx]
        providers[out].faults.add(OutageWindow(clock.now, clock.now + 60))
        rmw.update("/d/f", 100, self.PATCH)
        assert rmw.pending_log(out)
        new = _patched(data, 100, self.PATCH)
        assert _stored_stripe(rmw, "/d/f") == codec.encode(new)
        clock.advance(61)
        rmw.heal_returned()
        assert rmw.get("/d/f")[0] == new

    @pytest.mark.parametrize("index", ["data", "parity"])
    def test_a_bit_rotted_touched_fragment_is_rebuilt_not_folded_in(
        self, rmw, providers, payload, index
    ):
        data = payload(3 * MB)
        rmw.put("/d/f", data)
        entry = rmw.namespace.get("/d/f")
        codec = rmw._codec_for(entry)
        idx = 0 if index == "data" else codec.n - 1
        prov = dict((i, p) for p, i in entry.placements)[idx]
        key = rmw._fragment_key("/d/f", idx, entry.version)
        store = providers[prov].store
        store.tamper(rmw.container, key, _flipped(store.get(rmw.container, key).data))
        rmw.update("/d/f", 100, self.PATCH)
        new = _patched(data, 100, self.PATCH)
        assert _stored_stripe(rmw, "/d/f") == codec.encode(new)
        assert rmw.get("/d/f")[0] == new

    def test_the_journal_redo_payload_is_the_composed_object(self, rmw, payload):
        data = payload(3 * MB)
        rmw.put("/d/f", data)
        journal = rmw.attach_journal()
        begun = []
        begin = journal.begin

        def recording(**intent):
            begun.append(intent)
            return begin(**intent)

        journal.begin = recording
        rmw.update("/d/f", MB - 100, self.PATCH)  # across a fragment boundary
        new = _patched(data, MB - 100, self.PATCH)
        updates = [i for i in begun if i["kind"] == "update"]
        assert len(updates) == 1 and updates[0]["payload"] == new
        assert rmw.get("/d/f")[0] == new
