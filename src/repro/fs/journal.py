"""Write-ahead intent journal: crash consistency for mutating scheme ops.

Every mutating operation (put / update / remove / migrate / rewrite-repair)
records a :class:`WriteIntent` *before its first fragment leaves the
client* and commits it after the namespace publish.  The journal models the
client-local durable log a real deployment would fsync: it survives the
process (the chaos engine hands the same object to the replacement client),
and recovery (:meth:`Scheme.recover <repro.schemes.base.Scheme.recover>`)
walks the pending intents to decide, per op, roll **forward** (enough
planned placements landed to make the new version the cheaper truth —
redo from the journaled payload) or roll **back** (restore the previous
entry and garbage-collect whatever fragments the dead client scattered).

Design notes:

- This is a *redo log*: puts and updates journal the full new content.
  That is deliberately in-idiom — the write logs already retain full
  payloads for the consistency update — and it is what makes roll-forward
  exact rather than best-effort.
- Intents carry the *previous* :class:`~repro.fs.namespace.FileEntry`
  (frozen, digests included), so roll-back restores the namespace to the
  byte-exact pre-op entry.
- Pure bookkeeping: no RNG draws, no clock access, no metric emissions of
  its own.  Attaching a journal to a scheme cannot perturb simulated
  timings — the same zero-cost bar the tracer, the SLO tracker and the
  maintenance plane meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.namespace import FileEntry

__all__ = ["WriteIntent", "IntentJournal"]

_KINDS = ("put", "update", "remove")
_STATES = ("pending", "aborted")


@dataclass
class WriteIntent:
    """One journaled mutating operation, recorded before its first put.

    ``sites`` is the planned placement: ``(provider, storage key)`` for
    every object the op intended to write (or, for removes, delete).
    ``min_needed`` is the roll-forward threshold — with at least that many
    planned sites landed, recovery redoes the op; below it, recovery rolls
    back.  In-place read-modify-write updates set it to 0 (the old
    fragments are partially overwritten, so going backward is impossible
    and forward is always correct).
    """

    seq: int
    kind: str
    path: str
    version: int
    codec: str
    min_needed: int
    sites: tuple[tuple[str, str], ...]
    payload: bytes | None
    prev: "FileEntry | None"
    logged_at: float
    state: str = "pending"
    #: redo images of the metadata groups this op re-persists, by directory.
    #: Stashed just before the group write scatters: a crash mid-persist can
    #: leave a *striped* group with mixed-generation fragments that no k-subset
    #: reconstructs, and this journaled image is then the only consistent copy.
    meta_blobs: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind != "remove" and self.payload is None:
            raise ValueError(f"journaled {self.kind} requires a payload")
        if self.min_needed < 0:
            raise ValueError(f"min_needed must be >= 0, got {self.min_needed}")

    @property
    def payload_bytes(self) -> int:
        return 0 if self.payload is None else len(self.payload)

    def describe(self) -> dict:
        """JSON-friendly summary (no payload bytes; reports stay small)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "path": self.path,
            "version": self.version,
            "codec": self.codec,
            "min_needed": self.min_needed,
            "sites": [list(s) for s in self.sites],
            "payload_bytes": self.payload_bytes,
            "state": self.state,
        }


class IntentJournal:
    """Client-local write-ahead log of mutating-op intents.

    Lifecycle per op: :meth:`begin` → (cloud writes, namespace publish) →
    :meth:`commit`.  A cleanly failed op (the scheme raised, the client
    lived) calls :meth:`mark_aborted` instead — the intent stays listed so
    recovery can garbage-collect any fragments that landed before the
    failure.  A *crash* leaves the intent ``pending``, which is precisely
    the evidence recovery consumes.  :meth:`resolve` drops an intent once
    recovery has handled it; a drained journal (``len == 0``) is the
    system-wide invariant the chaos engine checks after every episode.
    """

    def __init__(self) -> None:
        self._intents: dict[int, WriteIntent] = {}
        self._next_seq = 1
        self._payload_bytes = 0
        self.commits_total = 0
        self.begun_total = 0

    # ------------------------------------------------------------ lifecycle
    def begin(
        self,
        *,
        kind: str,
        path: str,
        version: int,
        codec: str,
        min_needed: int,
        sites: tuple[tuple[str, str], ...],
        payload: bytes | None,
        prev: "FileEntry | None",
        logged_at: float,
    ) -> WriteIntent:
        intent = WriteIntent(
            seq=self._next_seq,
            kind=kind,
            path=path,
            version=version,
            codec=codec,
            min_needed=min_needed,
            sites=tuple((str(p), str(k)) for p, k in sites),
            payload=None if payload is None else bytes(payload),
            prev=prev,
            logged_at=logged_at,
        )
        self._next_seq += 1
        self._intents[intent.seq] = intent
        self._payload_bytes += intent.payload_bytes
        self.begun_total += 1
        return intent

    def commit(self, seq: int) -> None:
        """The op published its namespace entry: the intent is fulfilled."""
        intent = self._intents.pop(seq, None)
        if intent is None:
            raise KeyError(f"no journaled intent #{seq}")
        self._payload_bytes -= intent.payload_bytes
        self.commits_total += 1

    def attach_meta(self, seq: int, directory: str, blob: bytes) -> None:
        """Stash the encoded metadata group an op is about to re-persist.

        Called by the scheme immediately before the group write's first
        cloud request; no-op once the intent is resolved.  Pure client-local
        bookkeeping — no wire traffic, no RNG, no clock.
        """
        intent = self._intents.get(seq)
        if intent is not None:
            intent.meta_blobs[directory] = bytes(blob)

    def mark_aborted(self, seq: int) -> None:
        """The op failed cleanly (client alive): keep the intent for GC."""
        intent = self._intents.get(seq)
        if intent is None:
            raise KeyError(f"no journaled intent #{seq}")
        intent.state = "aborted"

    def resolve(self, seq: int) -> None:
        """Recovery handled the intent (rolled forward, back, or GC'd)."""
        intent = self._intents.pop(seq, None)
        if intent is not None:
            self._payload_bytes -= intent.payload_bytes

    # -------------------------------------------------------------- queries
    def pending(self) -> list[WriteIntent]:
        """Unresolved intents (pending and aborted alike), oldest first."""
        return sorted(self._intents.values(), key=lambda i: i.seq)

    def get(self, seq: int) -> WriteIntent | None:
        return self._intents.get(seq)

    def payload_bytes(self) -> int:
        """Journaled redo-payload bytes currently held (O(1))."""
        return self._payload_bytes

    def __len__(self) -> int:
        return len(self._intents)

    def __bool__(self) -> bool:
        return bool(self._intents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntentJournal(pending={len(self._intents)}, "
            f"commits={self.commits_total}, bytes={self._payload_bytes})"
        )
