"""Unit tests for directory metadata groups and the client cache."""

import json

import pytest

from repro.cloud import make_table2_cloud_of_clouds
from repro.fs import metadata
from repro.fs.metadata import (
    MetadataStore,
    decode_group,
    encode_group,
    group_directory,
    group_key,
    is_group_key,
)
from repro.fs.namespace import FileEntry, Namespace
from repro.schemes import HyrdScheme
from repro.sim import SimClock


def _entry(path, **kw):
    defaults = dict(
        size=10,
        version=2,
        codec="raid5",
        codec_params=(("k", 3),),
        placements=(("aliyun", 0), ("azure", 1)),
        klass="small",
        created=1.5,
        modified=2.5,
        access_count=7,
    )
    defaults.update(kw)
    return FileEntry(path=path, **defaults)


def _item() -> dict:
    (item,) = json.loads(encode_group([_entry("/d/a")]))
    return item


def _blob_with(**fields) -> bytes:
    """A one-entry group whose entry has ``fields`` overwritten."""
    return json.dumps([{**_item(), **fields}]).encode()


def _blob_without(field: str) -> bytes:
    item = _item()
    del item[field]
    return json.dumps([item]).encode()


class TestSerialization:
    def test_roundtrip_preserves_all_fields(self):
        entries = [_entry("/d/a"), _entry("/d/b", size=99, codec="replication")]
        decoded = decode_group(encode_group(entries))
        assert decoded == sorted(entries, key=lambda e: e.path)

    def test_deterministic_encoding(self):
        entries = [_entry("/d/b"), _entry("/d/a")]
        assert encode_group(entries) == encode_group(list(reversed(entries)))

    def test_empty_group(self):
        assert decode_group(encode_group([])) == []

    def test_corrupt_blob_rejected(self):
        with pytest.raises(ValueError):
            decode_group(b"\xff\xfe not json")

    @pytest.mark.parametrize(
        "blob",
        [
            pytest.param(b"[1, 2", id="torn-json"),
            pytest.param(b"null", id="null"),
            pytest.param(b"{}", id="object-is-not-an-empty-group"),
            pytest.param(b'"[]"', id="string"),
            pytest.param(b"[1]", id="item-is-a-number"),
            pytest.param(b"[[]]", id="item-is-a-list"),
            pytest.param(b"[{}]", id="item-has-no-fields"),
            pytest.param(_blob_with(path=7), id="path-not-str"),
            pytest.param(_blob_with(size="10"), id="size-not-int"),
            pytest.param(_blob_with(size=-1), id="size-negative"),
            pytest.param(_blob_with(version=0), id="version-zero"),
            pytest.param(_blob_with(created=None), id="created-null"),
            pytest.param(_blob_with(access_count=1.5), id="access-count-float"),
            pytest.param(_blob_with(codec_params={"k": 3}), id="codec-params-object"),
            pytest.param(_blob_with(codec_params=[["k", 3, 4]]), id="codec-params-triple"),
            pytest.param(_blob_with(codec_params=["k3"]), id="codec-params-non-pair"),
            pytest.param(_blob_with(placements=[[0, "aliyun"]]), id="placement-swapped"),
            pytest.param(_blob_with(digests="abc"), id="digests-str"),
            pytest.param(_blob_with(digests=[1]), id="digest-not-str"),
            pytest.param(_blob_without("klass"), id="klass-missing"),
            pytest.param(_blob_without("placements"), id="placements-missing"),
        ],
    )
    def test_malformed_group_rejected(self, blob):
        # recover_namespace falls back to the journaled group on ValueError
        # only: no malformed group may escape as TypeError / KeyError, and
        # none may decode as "this directory is empty".
        with pytest.raises(ValueError, match="corrupt metadata group"):
            decode_group(blob)

    def test_group_without_digests_still_decodes(self):
        # Groups written before fragments carried digests have no such field.
        (entry,) = decode_group(_blob_without("digests"))
        assert entry.digests == ()

    def test_group_key(self):
        assert is_group_key(group_key("/d"))
        assert not is_group_key("/d/file")
        assert group_directory(group_key("/d/e")) == "/d/e"
        assert group_directory(group_key("/")) == "/"


class TestMetadataStore:
    @pytest.fixture
    def store(self):
        ns = Namespace()
        ns.upsert(_entry("/d/a"))
        ns.upsert(_entry("/d/b"))
        ns.upsert(_entry("/e/c"))
        return MetadataStore(ns, cache_capacity=2)

    def test_encode_dir(self, store):
        entries = decode_group(store.encode_dir("/d"))
        assert [e.path for e in entries] == ["/d/a", "/d/b"]

    def test_group_size(self, store):
        assert store.group_size("/d") == len(store.encode_dir("/d"))

    def test_apply_group_merges(self, store):
        blob = encode_group([_entry("/f/new")])
        store.apply_group(blob)
        assert store.namespace.get("/f/new").path == "/f/new"

    def test_cache_miss_then_hit(self, store):
        assert not store.is_cached("/d")
        store.touch("/d")
        assert store.is_cached("/d")
        assert store.hits == 1
        assert store.misses == 1

    def test_lru_eviction(self, store):
        store.touch("/a")
        store.touch("/b")
        store.touch("/c")  # capacity 2: /a evicted
        assert store.cached_dirs() == ["/b", "/c"]
        assert not store.is_cached("/a")

    def test_touch_refreshes_recency(self, store):
        store.touch("/a")
        store.touch("/b")
        store.is_cached("/a")  # refresh
        store.touch("/c")  # /b evicted, not /a
        assert store.is_cached("/a")
        assert not store.is_cached("/b")

    def test_invalidate(self, store):
        store.touch("/d")
        store.invalidate("/d")
        assert not store.is_cached("/d")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MetadataStore(Namespace(), cache_capacity=0)

    def test_dir_of(self, store):
        assert store.dir_of("/x/y/z.txt") == "/x/y"


class TestPublishCost:
    def test_publishing_one_entry_encodes_one_entry(self, monkeypatch):
        """The gate is a count, not a clock: every put re-publishes its
        directory's group, and must JSON-encode only the entries that changed
        since the last publish — one per put, one per get (``touched()`` makes
        a fresh entry) — never the whole directory again (200 * 201 / 2 =
        20 100 entry encodes for these puts alone).  Counted where an entry's
        JSON is written, ``fs.metadata._entry_json``."""
        encoded = 0
        real_entry_json = metadata._entry_json

        def counting_entry_json(entry):
            nonlocal encoded
            encoded += 1
            return real_entry_json(entry)

        monkeypatch.setattr(metadata, "_entry_json", counting_entry_json)
        clock = SimClock()
        scheme = HyrdScheme(list(make_table2_cloud_of_clouds(clock).values()), clock)
        files = 200
        for i in range(files):
            scheme.put(f"/one/f{i:03d}", bytes([i]) * 64)
        assert files <= encoded <= files + 8
        for i in range(files):
            assert scheme.get(f"/one/f{i:03d}")[0] == bytes([i]) * 64
        scheme.put("/one/last", b"x")  # publishes every touched entry
        assert encoded <= 2 * files + 8
        assert len(decode_group(scheme.meta.encode_dir("/one"))) == files + 1
