"""Deterministic random-stream management.

All stochastic components (latency jitter, workload generators, outage
schedules) draw from :class:`numpy.random.Generator` streams derived from a
single root seed plus a tuple of string labels.  Two components that derive
their streams with different labels are statistically independent, and the
whole experiment is reproducible from one integer.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_u64(*parts: object) -> int:
    """Hash arbitrary labels to a stable 64-bit integer.

    Python's builtin ``hash`` is salted per process, so it cannot be used for
    reproducible seeding; we use blake2b instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return int.from_bytes(h.digest(), "little")


def make_bits(seed: int, *labels: object) -> np.random.PCG64:
    """The bit generator behind ``make_rng(seed, *labels)``: the one place a
    stream is seeded.

    The entropy is the three 32-bit words ``[seed, label low, label high]``,
    handed over as one ``uint32`` array: the same pool a list of them gives,
    without coercing each word separately."""
    label = stable_u64(*labels)
    words = np.array([seed & 0xFFFFFFFF, label & 0xFFFFFFFF, label >> 32], dtype=np.uint32)
    return np.random.PCG64(np.random.SeedSequence(words))


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent Generator for ``(seed, *labels)``.

    Example::

        rng = make_rng(42, "latency", "aliyun")
    """
    return np.random.Generator(make_bits(seed, *labels))


def raw_bytes(bits: np.random.PCG64, n: int) -> bytes:
    """The next ``n`` bytes of ``bits``, drawn as whole 64-bit words.

    On a *fresh* bit generator — one with no buffered 32-bit half, which is
    any generator nothing but this function has drawn from — this is exactly
    ``np.random.Generator(bits).integers(0, 256, n, dtype=np.uint8).tobytes()``:
    PCG64 serves a full-range uint8 draw from the little-endian bytes of its
    64-bit outputs, and ``random_raw`` hands over those outputs without the
    per-byte loop.  Successive calls continue the stream word by word, so
    drawing a prefix and extending it later gives the bytes one long draw
    would have.

    A generator that has already drawn through ``Generator`` may hold half a
    word that ``integers`` would use first and this function skips, and
    ``integers`` drops the unused bytes of its last 32-bit draw; so the
    payload sites whose generator has drawn before stay on ``integers``:
    ``maintenance/drill.py:87`` (a payload after its size) and
    ``analysis/ablations.py:142/152`` (payload after payload).
    """
    return bits.random_raw((n + 7) >> 3).astype("<u8", copy=False).tobytes()[:n]


def spawn_rngs(seed: int, count: int, *labels: object) -> list[np.random.Generator]:
    """Return ``count`` mutually independent generators under one label set."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [make_rng(seed, *labels, i) for i in range(count)]
