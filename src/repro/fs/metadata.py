"""Directory-grouped metadata blocks.

Paper §III-C: *"HyRD uses replication to store the file system metadata and
groups the metadata in a directory together to exploit the access locality."*

A *metadata group* is one cloud object per directory containing the
serialised :class:`~repro.fs.namespace.FileEntry` of every file in it.  The
:class:`MetadataStore` owns serialisation plus a bounded LRU cache standing
in for the paper's "metadata blocks loaded into client memory": group reads
that hit the cache are free; misses cost a cloud read in whatever redundancy
scheme the surrounding system uses (that part is the scheme's job —
replication for HyRD/DuraCloud, striping for RACS).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from operator import attrgetter

from repro.fs.namespace import FileEntry, Namespace, dirname, normalize_path

__all__ = ["encode_group", "decode_group", "group_key", "group_directory", "MetadataStore"]

_GROUP_PREFIX = "__meta__"


def group_key(directory: str) -> str:
    """Cloud object key for a directory's metadata group."""
    return f"{_GROUP_PREFIX}{directory}"


def is_group_key(key: str) -> bool:
    return key.startswith(_GROUP_PREFIX)


def group_directory(key: str) -> str:
    """Inverse of :func:`group_key`."""
    return key[len(_GROUP_PREFIX):]


_str = json.encoder.encode_basestring_ascii
_int = int.__repr__
#: what ``json.dumps`` writes for the floats whose ``repr`` is not JSON
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _number(v: float) -> str:
    if isinstance(v, int):
        return _int(v)
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


def _pairs_json(pairs: tuple[tuple[str, int], ...]) -> str:
    return "[" + ",".join([f"[{_str(k)},{_int(v)}]" for k, v in pairs]) + "]"


def _entry_json(e: FileEntry) -> str:
    """``e`` as ``json.dumps(fields, sort_keys=True, separators=(",", ":"))``
    writes it, written directly: keys in sorted order, strings through the
    encoder's own ASCII escaper, numbers as the ``int`` / ``float`` ``repr``
    it uses.  Entry numbers are never ``bool``s (decoding rejects them)."""
    return (
        f'{{"access_count":{_int(e.access_count)},"codec":{_str(e.codec)},'
        f'"codec_params":{_pairs_json(e.codec_params)},"created":{_number(e.created)},'
        f'"digests":[{",".join(map(_str, e.digests))}],"klass":{_str(e.klass)},'
        f'"modified":{_number(e.modified)},"path":{_str(e.path)},'
        f'"placements":{_pairs_json(e.placements)},"size":{_int(e.size)},'
        f'"version":{_int(e.version)}}}'
    )


def _fragment(e: FileEntry) -> str:
    """``e`` as one JSON object, encoded once per entry *object*.

    A :class:`FileEntry` is frozen and every change makes a fresh object, so
    the text memoised on the instance can never go stale: nothing
    invalidates it, and ``replace`` / ``decode_group`` results start without.
    """
    memo = e.__dict__
    fragment = memo.get("_fragment")
    if fragment is None:
        fragment = memo["_fragment"] = _entry_json(e)
    return fragment


def encode_group(entries: list[FileEntry]) -> bytes:
    """Serialise a directory's entries to a compact, deterministic blob:
    the JSON list of their objects, sorted by path."""
    ordered = sorted(entries, key=attrgetter("path"))
    return f"[{','.join(map(_fragment, ordered))}]".encode()


def _field(item: dict, name: str, *kinds: type):
    """``item[name]``, which ``json.loads`` must have made one of ``kinds``."""
    value = item.get(name)
    if type(value) not in kinds:
        raise ValueError(f"{name}={value!r} in entry {item.get('path')!r}")
    return value


def _pairs(item: dict, name: str) -> tuple[tuple[str, int], ...]:
    pairs = _field(item, name, list)
    if any(type(p) is not list or [type(x) for x in p] != [str, int] for p in pairs):
        raise ValueError(f"{name}={pairs!r} in entry {item.get('path')!r}")
    return tuple((k, v) for k, v in pairs)


def _decode_entry(item: object) -> FileEntry:
    if type(item) is not dict:
        raise ValueError(f"entry {item!r} is not an object")
    digests = _field(item, "digests", list) if "digests" in item else []
    if any(type(d) is not str for d in digests):
        raise ValueError(f"digests={digests!r} in entry {item.get('path')!r}")
    return FileEntry(
        path=_field(item, "path", str),
        size=_field(item, "size", int),
        version=_field(item, "version", int),
        codec=_field(item, "codec", str),
        codec_params=_pairs(item, "codec_params"),
        placements=_pairs(item, "placements"),
        klass=_field(item, "klass", str),
        created=_field(item, "created", int, float),
        modified=_field(item, "modified", int, float),
        access_count=_field(item, "access_count", int),
        digests=tuple(digests),
    )


def decode_group(blob: bytes) -> list[FileEntry]:
    """Inverse of :func:`encode_group`; any other bytes raise ``ValueError``."""
    try:
        payload = json.loads(blob.decode())
        if type(payload) is not list:
            raise ValueError(f"{type(payload).__name__}, not a list")
        return [_decode_entry(item) for item in payload]
    except ValueError as exc:  # undecodable bytes and bad JSON are ValueErrors too
        raise ValueError(f"corrupt metadata group: {exc}") from exc


class MetadataStore:
    """Serialisation + client-memory cache for directory metadata groups."""

    def __init__(self, namespace: Namespace, cache_capacity: int = 256) -> None:
        if cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {cache_capacity}")
        self.namespace = namespace
        self.cache_capacity = cache_capacity
        self._cache: OrderedDict[str, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- encoding
    def encode_dir(self, directory: str) -> bytes:
        """Current metadata blob for ``directory``."""
        return encode_group(self.namespace.entries_in(directory))

    def group_size(self, directory: str) -> int:
        return len(self.encode_dir(directory))

    def apply_group(self, blob: bytes) -> list[FileEntry]:
        """Merge a fetched group blob into the namespace (recovery path)."""
        entries = decode_group(blob)
        for e in entries:
            self.namespace.upsert(e)
        return entries

    # ---------------------------------------------------------------- cache
    def is_cached(self, directory: str) -> bool:
        """Whether the directory's metadata sits in client memory."""
        if directory in self._cache:
            self._cache.move_to_end(directory)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def touch(self, directory: str) -> None:
        """Mark a group resident (after a write-through or a fetch)."""
        self._cache[directory] = None
        self._cache.move_to_end(directory)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    def invalidate(self, directory: str) -> None:
        self._cache.pop(directory, None)

    def cached_dirs(self) -> list[str]:
        return list(self._cache)

    # -------------------------------------------------------------- helpers
    def dir_of(self, path: str) -> str:
        return dirname(normalize_path(path))
