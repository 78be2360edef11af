"""RAID5-style single-parity code — the paper's erasure case study.

HyRD and RACS both stripe large files as RAID5 over the four providers
(k = 3 data + 1 XOR parity in the default Cloud-of-Clouds).  A single lost
fragment — one provider outage — is recovered by XOR-ing the survivors.

This is exactly RS(k, 1) mathematically, but implemented directly with XOR
so the hot encode/repair path is one tiled XOR fold
(:func:`repro.erasure.gfkernel.xor_rows`) — no GF tables at all.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.erasure.codec import ErasureCodec
from repro.erasure.gfkernel import xor_rows
from repro.erasure.striping import join_fragments, split_views

__all__ = ["Raid5Code"]


class Raid5Code(ErasureCodec):
    """k data fragments + 1 XOR parity fragment; tolerates one erasure."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        self._k = k
        self.parity_rows = np.ones((1, k), dtype=np.uint8)

    @property
    def n(self) -> int:
        return self._k + 1

    @property
    def k(self) -> int:
        return self._k

    @property
    def parity_index(self) -> int:
        """Fragment index holding the XOR parity (always the last one)."""
        return self._k

    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        """k data fragments plus their XOR parity.  Zero-copy: unpadded data
        fragments are views into ``data`` itself (only the padded tail shard
        and the parity are fresh buffers); parity is a tiled XOR fold
        (:func:`repro.erasure.gfkernel.xor_rows`)."""
        rows = split_views(data, self._k)
        length = rows[0].shape[0] if rows else 0
        parity = xor_rows(rows, length)
        views: list[bytes | memoryview] = [memoryview(r) for r in rows]
        views.append(memoryview(parity))
        return views

    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        self._check_enough(fragments)
        frag_len = self.fragment_size(size)
        for i, frag in fragments.items():
            if len(frag) != frag_len:
                raise ValueError(
                    f"fragment {i} has length {len(frag)}, expected {frag_len}"
                )
        if frag_len == 0:
            return b""
        missing_data = [i for i in range(self._k) if i not in fragments]
        if len(missing_data) > 1:
            raise ValueError(
                f"RAID5 tolerates one erasure; data fragments {missing_data} missing"
            )
        if not missing_data:
            # Systematic fast path: all data fragments survive, the payload
            # is their concatenation — no XOR, no intermediate shard matrix.
            return join_fragments(
                (fragments[i] for i in range(self._k)), frag_len, size
            )
        lost = missing_data[0]
        if self.parity_index not in fragments:
            raise ValueError(
                f"cannot rebuild data fragment {lost}: parity missing too"
            )
        acc = xor_rows(
            [fragments[i] for i in fragments if i != lost], frag_len
        )
        rows = [acc if i == lost else fragments[i] for i in range(self._k)]
        return join_fragments(rows, frag_len, size)

    def reconstruct_fragment(
        self, fragments: Mapping[int, bytes], index: int, size: int
    ) -> bytes:
        """Rebuild any one fragment (data or parity) as the XOR of the other k."""
        if not (0 <= index <= self._k):
            raise ValueError(f"fragment index {index} out of range [0, {self.n})")
        others = [i for i in range(self.n) if i != index]
        missing = [i for i in others if i not in fragments]
        if missing:
            raise ValueError(f"RAID5 repair needs all other fragments; missing {missing}")
        frag_len = self.fragment_size(size)
        if frag_len == 0:
            return b""
        for i in others:
            if len(fragments[i]) != frag_len:
                raise ValueError(
                    f"fragment {i} has length {len(fragments[i])}, expected {frag_len}"
                )
        return xor_rows([fragments[i] for i in others], frag_len).tobytes()
