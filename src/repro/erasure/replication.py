"""Replication expressed as an (n, 1) erasure code.

The registry's ``"replication"`` entry, exercised by the codec-level tests
(round-trip, reconstruction, registry lookup).  No scheme routes data
through it: the schemes write replicas as whole-object copies under one
key (``Scheme._write_placement``), with no fragment framing.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.erasure.codec import ErasureCodec

__all__ = ["ReplicationCode"]


class ReplicationCode(ErasureCodec):
    """n identical copies; any single copy reconstructs the payload."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"replica count must be > 0, got {n}")
        self._n = n
        self.parity_rows = np.ones((n - 1, 1), dtype=np.uint8)

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return 1

    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        return [data] * self._n

    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        self._check_enough(fragments)
        idx = min(fragments)
        data = fragments[idx]
        if len(data) != size:
            raise ValueError(
                f"replica {idx} has length {len(data)}, expected {size}"
            )
        return data

    def reconstruct_fragment(
        self, fragments: Mapping[int, bytes], index: int, size: int
    ) -> bytes:
        if not (0 <= index < self._n):
            raise ValueError(f"fragment index {index} out of range [0, {self._n})")
        return self.decode(fragments, size)

    def fragment_size(self, size: int) -> int:
        return size
