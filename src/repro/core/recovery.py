"""Outage recovery: write logs and the consistency update.

Paper §III-C, *Recovery from service outage*: an outage is a temporary
unavailability, not data loss.  While a provider is out:

1. reads take the degraded path (replica fallback / erasure reconstruction —
   implemented per scheme);
2. **writes and updates are logged** — the mutations the offline provider
   missed are recorded client-side;
3. when the provider returns, the log is replayed as a *consistency update*;
   recovery completes when the log drains.

The log is *last-wins per key*: replaying only the final state of each object
is sufficient (and is what keeps consistency updates cheap after long
outages with many overwrites).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["LoggedWrite", "WriteLog"]


@dataclass(frozen=True)
class LoggedWrite:
    """One pending mutation for an offline provider."""

    kind: str  # "put" | "remove" | "create"
    container: str
    key: str  # "" for container-level mutations (create)
    data: bytes | memoryview | None  # payload for puts, None otherwise
    logged_at: float

    def __post_init__(self) -> None:
        if self.kind not in ("put", "remove", "create"):
            raise ValueError(
                f"kind must be 'put', 'remove' or 'create', got {self.kind!r}"
            )
        if self.kind == "put" and self.data is None:
            raise ValueError("logged put requires data")
        if self.kind != "put" and self.data is not None:
            raise ValueError(f"logged {self.kind} must not carry data")
        if self.kind == "create" and self.key:
            raise ValueError("logged create is container-level (key must be empty)")


class WriteLog:
    """Pending mutations for one provider, last-wins per (container, key).

    Payload memory is accounted incrementally: :meth:`pending_bytes` is the
    O(1) logical total of retained put payloads.  A ``memory_limit_bytes``
    bounds the *in-memory* share — once retained payloads exceed it, the
    oldest pending puts are spilled (modelled as moving the payload to
    client-local disk: the entry stays replayable, but its bytes count
    against :meth:`spilled_bytes` instead of :meth:`memory_bytes`).  The
    default (``None``) never spills, matching the historical behaviour.
    """

    def __init__(self, memory_limit_bytes: int | None = None) -> None:
        if memory_limit_bytes is not None and memory_limit_bytes < 0:
            raise ValueError(
                f"memory_limit_bytes must be >= 0, got {memory_limit_bytes}"
            )
        self._entries: OrderedDict[tuple[str, str], LoggedWrite] = OrderedDict()
        self.memory_limit_bytes = memory_limit_bytes
        self._pending_bytes = 0
        self._spilled: set[tuple[str, str]] = set()
        self._spilled_bytes = 0
        #: spill actions taken (one per payload moved to disk); monotone
        self.spill_events = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def _drop_accounting(self, k: tuple[str, str]) -> None:
        old = self._entries.pop(k, None)
        if old is not None and old.data is not None:
            self._pending_bytes -= len(old.data)
            if k in self._spilled:
                self._spilled.discard(k)
                self._spilled_bytes -= len(old.data)

    def _maybe_spill(self) -> None:
        if self.memory_limit_bytes is None:
            return
        if self.memory_bytes() <= self.memory_limit_bytes:
            return
        # Oldest-first: the entries most likely to wait longest for replay
        # are the ones worth paying a disk round trip for.
        for k, e in self._entries.items():
            if self.memory_bytes() <= self.memory_limit_bytes:
                break
            if e.data is not None and k not in self._spilled:
                self._spilled.add(k)
                self._spilled_bytes += len(e.data)
                self.spill_events += 1

    def log_put(
        self, container: str, key: str, data: bytes | bytearray | memoryview, now: float
    ) -> None:
        """Record that (container, key) should hold ``data`` after recovery.

        Zero-copy, by the same contract as an object store's put: an
        immutable buffer (``bytes``, or a codec's ``memoryview`` fragment)
        is kept as the very object handed in, so the replayed store holds
        the object the scheme digested and recorded at write time; only a
        ``bytearray``, whose owner may mutate it, is copied.
        """
        if isinstance(data, bytearray):
            data = bytes(data)  # mutable owner: defensive copy
        k = (container, key)
        self._drop_accounting(k)  # move-to-end on overwrite keeps replay ordered
        self._entries[k] = LoggedWrite("put", container, key, data, now)
        self._pending_bytes += len(data)
        self._maybe_spill()

    def log_remove(self, container: str, key: str, now: float) -> None:
        """Record that (container, key) should be absent after recovery."""
        k = (container, key)
        self._drop_accounting(k)
        self._entries[k] = LoggedWrite("remove", container, key, None, now)

    def log_create(self, container: str, now: float) -> None:
        """Record that ``container`` must exist after recovery.

        Used when container initialisation exhausts its retries: without
        this record the failure would be silent and the provider would never
        be healed (its object log can stay empty forever).
        """
        k = (container, "")
        self._drop_accounting(k)
        self._entries[k] = LoggedWrite("create", container, "", None, now)

    def discard(self, container: str, key: str) -> None:
        """Drop a pending entry (e.g. the object was re-placed elsewhere)."""
        self._drop_accounting((container, key))

    def has_pending(self, container: str, key: str) -> bool:
        """True when a logged mutation for (container, key) awaits replay.

        Scrub-driven repair consults this before rewriting a key: replay
        draining and a concurrent repair of the same key would otherwise race
        to double-write (the repair could resurrect a state the log is about
        to overwrite, or vice versa).  Keys with pending logged writes belong
        to the consistency update, not to the repair queue.
        """
        return (container, key) in self._entries

    def pending(self, container: str, key: str) -> LoggedWrite | None:
        """The one logged mutation awaiting replay for (container, key), if
        any — what the provider still owes for that key.  O(1)."""
        return self._entries.get((container, key))

    def drain(self) -> list[LoggedWrite]:
        """Remove and return all pending writes in log order.

        Spilled payloads are reloaded transparently — the entries returned
        always carry their data, whatever tier it waited on.
        """
        entries = list(self._entries.values())
        self._entries.clear()
        self._pending_bytes = 0
        self._spilled.clear()
        self._spilled_bytes = 0
        return entries

    def peek(self) -> list[LoggedWrite]:
        """Pending writes without draining (for inspection/tests)."""
        return list(self._entries.values())

    def pending_bytes(self) -> int:
        """Payload bytes awaiting replay (the consistency-update upload
        cost), across both memory and spill tiers.  O(1)."""
        return self._pending_bytes

    def memory_bytes(self) -> int:
        """Retained payload bytes currently held in client memory.  O(1)."""
        return self._pending_bytes - self._spilled_bytes

    def spilled_bytes(self) -> int:
        """Payload bytes parked on client-local disk by the spill policy."""
        return self._spilled_bytes
