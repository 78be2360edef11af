"""Trace records and the scheme-agnostic replayer.

A trace is a list of :class:`TraceOp`; the :class:`TraceReplayer` executes it
against any :class:`~repro.schemes.base.Scheme`, synthesising payload bytes
deterministically (content identity is still verified end-to-end: reads check
the exact bytes written earlier for that path/version).

Payload synthesis is the replay data plane's hot path, so it is built for
throughput (see ``docs/performance.md``): each path gets one cached
pseudo-random block (one stream derivation per path instead of one per op,
drawn only as far as the path's largest payload reaches), and a payload is
that block tiled to size at memcpy speed with a 16-byte header stamping the
stream kind (put vs update patch), the version/sequence number and the
size — which keeps every (path, version) payload distinct without per-op
RNG work.

Reads are verified against *recipes* — ``(version, size, applied patches)``
per path — with two tiers, cheapest first: written payloads are retained
in a byte-bounded LRU ordered by last write or identity-verified read, and a
zero-copy read that hands back the very object the replayer wrote is equal
*by identity*; otherwise the bytes get a streaming tiled comparison (whole
tiles as 64-bit words) that never materialises the expected bytes — span by
span for a patched file: base-payload spans and patch spans against their
own tiled streams, growth gaps against zeros.  Both are exact-equality
checks — strictly stronger than a digest comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.collector import LatencyCollector
from repro.schemes.base import Scheme
from repro.sim.rng import make_bits, raw_bytes

__all__ = ["TraceOp", "TraceReplayer"]

_KINDS = frozenset({"put", "get", "update", "remove", "stat", "list"})

#: tile size for synthesized payloads; one block is drawn per path and cached
_PAYLOAD_BLOCK = 1 << 16

#: max cached per-path payload blocks (LRU); bounds replay RSS at ~32 MB of
#: block cache even for traces touching many thousands of paths
_MAX_CACHED_BLOCKS = 512

#: header markers namespacing the two payload streams — puts and update
#: patches draw from disjoint content spaces whatever their counters are
_PUT_MARKER = 0x00
_PATCH_MARKER = 0x01

#: byte budget for written payloads retained for identity-verified reads;
#: the least recently written-or-read path goes first, and evicted paths
#: fall back to the streaming tiled comparison.  With zero-copy striping the
#: simulated stores pin these same buffers anyway, so retention mostly costs
#: dict entries, not duplicate payload memory.
_RETAIN_BUDGET = 256 << 20


def _stamped_head(block: bytes, marker: int, counter: int, size: int) -> bytes:
    """A payload's first ``min(size, 16)`` bytes: a stamp of the stream kind,
    the version/sequence number and the size, XORed into the block head so
    the payload stays path-distinct too."""
    stamp = bytes([marker]) + counter.to_bytes(7, "little") + size.to_bytes(8, "little")
    n = min(size, len(stamp))
    mixed = int.from_bytes(stamp[:n], "little") ^ int.from_bytes(block[:n], "little")
    return mixed.to_bytes(n, "little")


def _tiled_equal(arr: np.ndarray, raw: bytes, head: bytes, start: int) -> bool:
    """``arr`` (uint8) equals bytes ``[start, start + arr.size)`` of the
    tiled stream whose first ``len(head)`` bytes are ``head`` and whose byte
    ``p`` otherwise is ``raw[p % _PAYLOAD_BLOCK]`` (``raw`` reaching as far
    as the stream's first tile does).  Partial tiles compare as bytes;
    whole tiles as 64-bit words against the broadcast tile — an eighth of
    the elements, and of the boolean temporary ``==`` builds."""
    if start < len(head):
        n = min(start + arr.size, len(head))
        if arr[: n - start].tobytes() != head[start:n]:
            return False
        arr, start = arr[n - start :], n
    lead = min(-start % _PAYLOAD_BLOCK, arr.size)
    if lead:
        at = start % _PAYLOAD_BLOCK
        if arr[:lead].tobytes() != raw[at : at + lead]:
            return False
        arr = arr[lead:]
    full = arr.size // _PAYLOAD_BLOCK
    if full:
        body = arr[: full * _PAYLOAD_BLOCK].view(np.uint64)
        words = np.frombuffer(raw, dtype=np.uint64)
        if not np.array_equal(
            body.reshape(full, words.size), np.broadcast_to(words, (full, words.size))
        ):
            return False
    rem = arr.size - full * _PAYLOAD_BLOCK
    return not rem or arr[full * _PAYLOAD_BLOCK :].tobytes() == raw[:rem]


@dataclass(frozen=True)
class TraceOp:
    """One file-level operation in a workload trace."""

    kind: str
    path: str
    size: int = 0  # payload size for put / patch size for update
    offset: int = 0  # update offset
    month: int = 0  # accounting month (IA trace); 0 for benchmarks

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trace op kind {self.kind!r}")
        if self.size < 0 or self.offset < 0:
            raise ValueError("size and offset must be >= 0")


@dataclass
class _FileRecipe:
    """How to regenerate a path's expected content without retaining it."""

    version: int  # put version the base payload was drawn with
    base_size: int  # size of that base payload
    size: int  # current logical size after updates
    patches: list[tuple[int, int, int]] = field(default_factory=list)  # (seq, off, len)
    #: once patched, the same content as ``(start, end, patch)`` spans in
    #: offset order: ``patch`` is the ``(seq, off, len)`` that wrote the span
    #: last, or ``None`` for the base payload below ``base_size`` and the
    #: zero-filled growth gap above it
    spans: list[tuple[int, int, tuple[int, int, int] | None]] | None = None

    def apply(self, seq: int, offset: int, length: int) -> None:
        """Record the ``seq``-th update: ``length`` patch bytes at ``offset``,
        growing the file with zeros if it writes past the end."""
        if self.spans is None:
            self.spans = [(0, self.size, None)] if self.size else []
        spans = self.spans
        patch = (seq, offset, length)
        self.patches.append(patch)
        cut = offset + length
        if cut > self.size:
            spans.append((self.size, cut, None))
            self.size = cut
        if not length:
            return
        # spans[i:j] overlap [offset, cut): keep what sticks out either side
        i = bisect_right(spans, offset, key=lambda span: span[0]) - 1
        j = bisect_left(spans, cut, key=lambda span: span[0])
        first, last = spans[i], spans[j - 1]
        spans[i:j] = [
            span
            for span in (
                (first[0], offset, first[2]),
                (offset, cut, patch),
                (cut, last[1], last[2]),
            )
            if span[0] < span[1]
        ]


@dataclass
class TraceReplayer:
    """Drives a scheme with a trace, verifying data integrity as it goes.

    ``verify`` controls whether every ``get`` checks content equality against
    the replayer's own record of what was last written — on by default, which
    turns every experiment into an end-to-end correctness test as well.
    """

    seed: int = 0
    verify: bool = True
    _recipes: dict[str, _FileRecipe] = field(default_factory=dict, repr=False)
    _update_seqs: dict[str, int] = field(default_factory=dict, repr=False)
    _blocks: dict[str, tuple[np.random.PCG64, bytes]] = field(default_factory=dict, repr=False)
    _retained: dict[str, tuple[int, bytes]] = field(default_factory=dict, repr=False)
    _retained_bytes: int = field(default=0, repr=False)

    # ---------------------------------------------------- payload synthesis
    def _path_block(self, path: str, size: int) -> bytes:
        """At least the first ``min(size, _PAYLOAD_BLOCK)`` bytes of the
        path's pseudo-random tile.

        One stream per cached path (one RNG derivation, LRU), extended in
        whole 64-bit words only as far as an op has needed: a 1 KiB file
        never pays for the 64 KiB a large one tiles.  Every prefix is a
        prefix of the one eager draw, so evicting and re-deriving, or
        drawing in any order of sizes, yields the same bytes."""
        cached = self._blocks.pop(path, None)
        if cached is None:
            cached = (make_bits(self.seed, "payload-block", path), b"")
            if len(self._blocks) >= _MAX_CACHED_BLOCKS:
                self._blocks.pop(next(iter(self._blocks)))
        bits, blk = cached
        words = (min(size, _PAYLOAD_BLOCK) + 7) >> 3
        if words > len(blk) >> 3:
            blk += raw_bytes(bits, (words << 3) - len(blk))
            cached = (bits, blk)
        self._blocks[path] = cached  # re-insert = move to MRU position
        return blk

    def _fill(self, path: str, marker: int, counter: int, size: int) -> bytes:
        """Tile the path block to ``size`` and stamp a distinctness header.

        Built as one ``b"".join`` over (stamped head, block tail, repeated
        cached block, remainder) — a single allocation-and-copy pass whose
        sources stay cache-hot and are sliced as views, never copied first."""
        if size == 0:
            return b""
        block = self._path_block(path, size)
        head = _stamped_head(block, marker, counter, size)
        n = len(head)
        view = memoryview(block)
        if size <= _PAYLOAD_BLOCK:
            return b"".join((head, view[n:size]))
        full = size // _PAYLOAD_BLOCK
        rem = size - full * _PAYLOAD_BLOCK
        parts = [head, view[n:]]
        parts.extend([block] * (full - 1))
        if rem:
            parts.append(view[:rem])
        return b"".join(parts)

    def payload(self, path: str, version: int, size: int) -> bytes:
        """Deterministic pseudo-random payload for (path, version)."""
        return self._fill(path, _PUT_MARKER, version, size)

    def patch_payload(self, path: str, seq: int, size: int) -> bytes:
        """Deterministic patch bytes for the path's ``seq``-th update.

        Updates draw from their own marker-namespaced stream, so a patch can
        never collide with any put payload no matter how many versions a
        path accumulates (the old scheme derived patches from
        ``put_version + 1000``, which collided after 999 puts).
        """
        return self._fill(path, _PATCH_MARKER, seq, size)

    # ------------------------------------------------- expected content
    def expected_size(self, path: str) -> int | None:
        """Logical size the replayer believes ``path`` has (None if untracked)."""
        rec = self._recipes.get(path)
        return None if rec is None else rec.size

    def expected_content(self, path: str) -> bytes | None:
        """Regenerate the bytes the replayer expects ``path`` to contain."""
        rec = self._recipes.get(path)
        if rec is None:
            return None
        if not rec.patches:
            return self.payload(path, rec.version, rec.base_size)
        buf = bytearray(rec.size)  # growth gap between base and patch is zeros
        buf[: rec.base_size] = self.payload(path, rec.version, rec.base_size)
        for seq, offset, length in rec.patches:
            buf[offset : offset + length] = self.patch_payload(path, seq, length)
        return bytes(buf)

    def _matches_tiled(self, path: str, marker: int, counter: int, data) -> bool:
        """Compare ``data`` against the tiled synthesis without materializing
        the expectation — streams block-sized equality checks instead."""
        size = len(data)
        if size == 0:
            return True
        raw = self._path_block(path, size)
        head = _stamped_head(raw, marker, counter, size)
        return _tiled_equal(np.frombuffer(data, dtype=np.uint8), raw, head, 0)

    def _retain(self, path: str, version: int, payload: bytes) -> None:
        """Keep the written payload for identity-verified reads (bounded LRU:
        a write or an identity-verified read makes a path most recent)."""
        old = self._retained.pop(path, None)
        if old is not None:
            self._retained_bytes -= len(old[1])
        if len(payload) > _RETAIN_BUDGET:
            return
        self._retained[path] = (version, payload)
        self._retained_bytes += len(payload)
        while self._retained_bytes > _RETAIN_BUDGET:
            _, evicted = self._retained.pop(next(iter(self._retained)))
            self._retained_bytes -= len(evicted)

    def _drop_retained(self, path: str) -> None:
        old = self._retained.pop(path, None)
        if old is not None:
            self._retained_bytes -= len(old[1])

    def _matches_expected(self, path: str, data) -> bool:
        """True when ``data`` equals the recipe's regenerated content."""
        rec = self._recipes.get(path)
        if rec is None:
            return True  # untracked path: nothing to hold it against
        if len(data) != rec.size:
            return False
        if rec.patches:
            # Span by span against the tiled streams the content was built
            # from (one path block; a stamped head per stream), so a patched
            # file is never materialized either.
            arr = np.frombuffer(data, dtype=np.uint8)
            raw = self._path_block(path, rec.size)
            base_head = _stamped_head(raw, _PUT_MARKER, rec.version, rec.base_size)
            for start, end, patch in rec.spans:
                if patch is not None:
                    seq, off, length = patch
                    head = _stamped_head(raw, _PATCH_MARKER, seq, length)
                    if not _tiled_equal(arr[start:end], raw, head, start - off):
                        return False
                    continue
                base = min(end, rec.base_size)
                if start < base and not _tiled_equal(
                    arr[start:base], raw, base_head, start
                ):
                    return False
                if base < end and arr[max(start, base) : end].any():
                    return False
            return True
        kept = self._retained.get(path)
        if kept is not None and kept[0] == rec.version and data is kept[1]:
            # The scheme handed back the very object this replayer wrote
            # (zero-copy read path end to end) — equal by identity.  A path
            # read again is kept longest: retention is least recently read.
            self._retained[path] = self._retained.pop(path)
            return True
        return self._matches_tiled(path, _PUT_MARKER, rec.version, data)

    def run(
        self,
        scheme: Scheme,
        ops: list[TraceOp],
        heal_between: bool = False,
        sampler=None,
    ) -> LatencyCollector:
        """Replay ``ops`` on ``scheme``; returns a collector of its reports.

        ``heal_between`` triggers the consistency update before each op when
        a logged provider has returned (models the background healer running
        continuously instead of at explicit points).

        ``sampler`` is an optional bound
        :class:`~repro.obs.timeseries.TimeSeriesSampler`; it is polled
        between operations (a pure registry read — it cannot change
        timings).
        """
        collector = LatencyCollector()
        versions: dict[str, int] = {}
        for op in ops:
            if heal_between:
                collector.extend(scheme.heal_returned())
            if sampler is not None:
                sampler.poll()
            if op.kind == "put":
                version = versions.get(op.path, 0) + 1
                versions[op.path] = version
                data = self.payload(op.path, version, op.size)
                self._recipes[op.path] = _FileRecipe(
                    version=version, base_size=op.size, size=op.size
                )
                collector.add(scheme.put(op.path, data))
                self._retain(op.path, version, data)
            elif op.kind == "get":
                data, report = scheme.get(op.path)
                collector.add(report)
                if self.verify and not self._matches_expected(op.path, data):
                    raise AssertionError(
                        f"content mismatch on {op.path} "
                        f"(got {len(data)} bytes, "
                        f"expected {self.expected_size(op.path)})"
                    )
            elif op.kind == "update":
                seq = self._update_seqs.get(op.path, 0) + 1
                self._update_seqs[op.path] = seq
                patch = self.patch_payload(op.path, seq, op.size)
                collector.add(scheme.update(op.path, op.offset, patch))
                self._drop_retained(op.path)
                rec = self._recipes.get(op.path)
                if rec is not None:
                    rec.apply(seq, op.offset, op.size)
            elif op.kind == "remove":
                collector.add(scheme.remove(op.path))
                self._recipes.pop(op.path, None)
                self._update_seqs.pop(op.path, None)
                self._drop_retained(op.path)
                versions.pop(op.path, None)
            elif op.kind == "stat":
                _entry, report = scheme.stat(op.path)
                collector.add(report)
            elif op.kind == "list":
                _names, report = scheme.listdir(op.path)
                collector.add(report)
        if sampler is not None:
            sampler.poll()
        return collector
