"""Shard framing: split a byte payload into k equal shards and back.

Codecs operate on an (k, shard_len) uint8 matrix.  The original length is
*not* embedded in the shards — schemes already persist file size in their
metadata (as the paper's prototype does), so framing stays minimal and the
decode path takes the size explicitly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "shard_length",
    "split_shards",
    "split_views",
    "join_shards",
    "join_fragments",
]


def shard_length(size: int, k: int) -> int:
    """Length of each shard for a ``size``-byte payload split k ways.

    Zero-byte payloads still produce zero-length shards (k of them), so that
    empty files round-trip through every codec.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    return -(-size // k)  # ceil division


def split_shards(data: bytes, k: int) -> np.ndarray:
    """Split ``data`` into a (k, L) uint8 matrix, zero-padding the tail."""
    ln = shard_length(len(data), k)
    buf = np.zeros(k * ln, dtype=np.uint8)
    if data:
        buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return buf.reshape(k, ln)


def split_views(data, k: int) -> list[np.ndarray]:
    """Split ``data`` into k shard rows, zero-copy where possible.

    Byte-identical to :func:`split_shards` row-by-row, but every shard that
    needs no zero padding is a *view* into ``data`` (which must therefore be
    an immutable buffer — bytes or a frozen-by-convention memoryview).  Only
    the padded tail shard is copied, and only its pad is zero-filled.  The
    returned views pin ``data`` alive, which is exactly what the zero-copy
    write path wants: stored fragments and their source payload share one
    allocation.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    size = arr.size
    ln = shard_length(size, k)
    if ln == 0:
        return [arr[:0] for _ in range(k)]
    whole = size // ln  # rows that need no padding
    head = arr[: whole * ln].reshape(whole, ln)
    rows = [head[i] for i in range(whole)]
    if whole < k:
        tail = np.empty(ln, dtype=np.uint8)
        rem = size - whole * ln
        tail[:rem] = arr[whole * ln :]
        tail[rem:] = 0
        rows.append(tail)
        rows.extend(np.zeros(ln, dtype=np.uint8) for _ in range(k - whole - 1))
    return rows


def join_fragments(fragments, frag_len: int, size: int) -> bytes:
    """Concatenate ordered data fragments and strip the padding — one copy.

    The systematic-decode fast path: when all k data fragments survive, the
    payload is just their concatenation truncated to ``size``.  ``fragments``
    is an iterable of bytes-like buffers (bytes, memoryview, uint8 ndarray),
    each ``frag_len`` long; the final fragment is sliced so ``b"".join``
    allocates exactly ``size`` bytes instead of join-then-truncate.
    """
    if size == 0:
        return b""
    parts = []
    pos = 0
    for frag in fragments:
        take = min(frag_len, size - pos)
        parts.append(frag if take == frag_len else memoryview(frag)[:take])
        pos += take
        if pos >= size:
            break
    if pos != size:
        raise ValueError(f"declared size {size} exceeds fragment capacity {pos}")
    return b"".join(parts)


def join_shards(shards: np.ndarray, size: int) -> bytes:
    """Inverse of :func:`split_shards`: flatten and strip the padding."""
    shards = np.asarray(shards, dtype=np.uint8)
    if shards.ndim != 2:
        raise ValueError(f"expected a 2-D shard matrix, got shape {shards.shape}")
    flat = shards.reshape(-1)
    if size > flat.shape[0]:
        raise ValueError(
            f"declared size {size} exceeds shard capacity {flat.shape[0]}"
        )
    return flat[:size].tobytes()
