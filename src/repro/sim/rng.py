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


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent Generator for ``(seed, *labels)``.

    Example::

        rng = make_rng(42, "latency", "aliyun")
    """
    label = stable_u64(*labels)
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, label & 0xFFFFFFFF, label >> 32])
    return np.random.default_rng(ss)


def spawn_rngs(seed: int, count: int, *labels: object) -> list[np.random.Generator]:
    """Return ``count`` mutually independent generators under one label set."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [make_rng(seed, *labels, i) for i in range(count)]
