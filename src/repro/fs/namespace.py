"""Paths, file entries, and the client-side namespace index.

A :class:`FileEntry` is the unit of file-system metadata the paper talks
about: *"Before accessing a file, its metadata blocks must be loaded into the
client memory."*  It records the file's size and — crucially for a
Cloud-of-Clouds — its *placement*: which redundancy class it was written
with, which codec, and which provider holds which fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["normalize_path", "dirname", "basename", "FileEntry", "Namespace"]


def normalize_path(path: str) -> str:
    """Canonical absolute path: leading '/', no dup/trailing slashes."""
    if not path or path == "/":
        raise ValueError(f"invalid file path: {path!r}")
    if path[0] == "/" and path[-1] != "/" and "//" not in path and "/." not in path:
        # Already canonical (the hot path re-normalises its own output);
        # ``/.`` also sends ``/.hidden`` the long way round, which keeps it.
        return path
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise ValueError(f"invalid file path: {path!r}")
    for p in parts:
        if p in (".", ".."):
            raise ValueError(f"relative segments not allowed: {path!r}")
    return "/" + "/".join(parts)


def dirname(path: str) -> str:
    """Parent directory of a normalized path ('/' for top-level files)."""
    idx = path.rfind("/")
    return path[:idx] if idx > 0 else "/"


def basename(path: str) -> str:
    return path.rsplit("/", 1)[-1]


@dataclass(frozen=True)
class FileEntry:
    """Metadata for one file.

    ``placements`` maps provider name -> fragment index held there; for
    replication every replica shares fragment semantics (index 0..r-1 are
    identical copies), for erasure codes the index selects the stripe
    fragment.  ``codec`` names the registered codec + parameters used, so a
    reader can reconstruct without out-of-band knowledge.
    """

    path: str
    size: int
    version: int = 1
    codec: str = "replication"
    codec_params: tuple[tuple[str, int], ...] = ()
    placements: tuple[tuple[str, int], ...] = ()  # (provider, fragment index)
    klass: str = "small"  # workload class assigned by the monitor
    created: float = 0.0
    modified: float = 0.0
    access_count: int = 0
    #: per-fragment SHA-256 hex digests (index-aligned); empty disables the
    #: HAIL-style integrity verification on reads
    digests: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")

    @property
    def providers(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.placements)

    def fragment_index(self, provider: str) -> int:
        for p, idx in self.placements:
            if p == provider:
                return idx
        raise KeyError(f"{provider!r} holds no fragment of {self.path!r}")

    def bumped(self, size: int, now: float, **changes: object) -> "FileEntry":
        """Next version of this entry after an overwrite/update."""
        return replace(
            self,
            size=size,
            version=self.version + 1,
            modified=now,
            **changes,  # type: ignore[arg-type]
        )

    def touched(self) -> "FileEntry":
        """Same entry with the access counter bumped (read-path bookkeeping)."""
        # Built directly — ``dataclasses.replace`` introspects every field —
        # through the same ``__init__``: same checks, and a fresh object, so
        # nothing memoised on this one is inherited.
        return FileEntry(
            path=self.path,
            size=self.size,
            version=self.version,
            codec=self.codec,
            codec_params=self.codec_params,
            placements=self.placements,
            klass=self.klass,
            created=self.created,
            modified=self.modified,
            access_count=self.access_count + 1,
            digests=self.digests,
        )


class Namespace:
    """The in-client file index: path -> :class:`FileEntry`.

    This is the authoritative copy while the client runs; schemes persist it
    to the clouds as per-directory metadata groups through
    :class:`repro.fs.metadata.MetadataStore`.
    """

    def __init__(self) -> None:
        self._entries: dict[str, FileEntry] = {}
        self._dirs: dict[str, set[str]] = {}

    def __contains__(self, path: str) -> bool:
        return normalize_path(path) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, path: str) -> FileEntry:
        path = normalize_path(path)
        try:
            return self._entries[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def lookup(self, path: str) -> FileEntry | None:
        return self._entries.get(normalize_path(path))

    def upsert(self, entry: FileEntry) -> None:
        path = normalize_path(entry.path)
        self._entries[path] = entry
        self._dirs.setdefault(dirname(path), set()).add(path)

    def remove(self, path: str) -> FileEntry:
        path = normalize_path(path)
        try:
            entry = self._entries.pop(path)
        except KeyError:
            raise FileNotFoundError(path) from None
        d = dirname(path)
        members = self._dirs.get(d)
        if members is not None:
            members.discard(path)
            if not members:
                del self._dirs[d]
        return entry

    def list_dir(self, directory: str) -> list[str]:
        """Paths of files directly inside ``directory`` (sorted)."""
        if directory != "/":
            directory = normalize_path(directory)
        return sorted(self._dirs.get(directory, ()))

    def directories(self) -> list[str]:
        return sorted(self._dirs)

    def paths(self) -> list[str]:
        return sorted(self._entries)

    def entries_in(self, directory: str) -> list[FileEntry]:
        return [self._entries[p] for p in self.list_dir(directory)]

    def total_bytes(self) -> int:
        return sum(e.size for e in self._entries.values())
