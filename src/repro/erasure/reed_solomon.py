"""Systematic Reed-Solomon over GF(2^8).

The generator matrix is an (n, k) systematic Vandermonde derivative
(:func:`repro.erasure.galois.systematic_vandermonde`): the first k fragments
are the raw data shards, the remaining m = n - k are parity.  Any k fragments
reconstruct the payload by inverting the corresponding kxk sub-matrix.

Parity generation and degraded decode run through the vectorised kernel in
:mod:`repro.erasure.gfkernel`; output stays bit-identical to the scalar
``gf_matmul`` oracle.  See ``docs/codecs.md`` for the derivation and the
kernel design.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.erasure.codec import ErasureCodec
from repro.erasure.galois import gf_inverse_matrix, systematic_vandermonde
from repro.erasure.gfkernel import gf_matmul_fast, plan_for
from repro.erasure.striping import (
    join_fragments,
    join_shards,
    split_views,
)

__all__ = ["ReedSolomonCode"]

class ReedSolomonCode(ErasureCodec):
    """RS(k, m): k data fragments + m parity fragments, MDS."""

    #: max cached decode matrices; degraded-read sweeps touch arbitrary index
    #: subsets, so the cache is LRU-bounded instead of growing without limit
    _DECODE_CACHE_MAX = 64

    def __init__(self, k: int, m: int) -> None:
        if k <= 0 or m < 0:
            raise ValueError(f"need k > 0 and m >= 0, got k={k}, m={m}")
        if k + m > 255:
            raise ValueError(f"n = k + m must be <= 255 in GF(256), got {k + m}")
        self._k = k
        self._n = k + m
        self._gen = systematic_vandermonde(self._n, self._k)
        #: parity rows of the generator, pre-bound so the hot encode path
        #: multiplies only the m non-identity rows (the top k are systematic)
        self.parity_rows = self._gen[self._k :]
        self.parity_rows.flags.writeable = False
        self._decode_cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    @property
    def generator_matrix(self) -> np.ndarray:
        """A read-only view of the (n, k) generator matrix."""
        g = self._gen.view()
        g.flags.writeable = False
        return g

    def _parity_for(self, rows: Sequence[np.ndarray], length: int) -> np.ndarray:
        """(m, length) parity matrix for k shard rows, via the bound kernel plan.

        The plan is cached on the generator's parity-row bytes
        (:func:`repro.erasure.gfkernel.plan_for`), so a write burst through
        one codec binds the matrix once and re-uses the analysed schedule —
        column folding included — for every stripe.
        """
        if self._n == self._k:
            return np.empty((0, length), dtype=np.uint8)
        return plan_for(self.parity_rows).execute(rows, length)

    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        """k data shards then m parity shards.  Zero-copy: unpadded data
        fragments are views into ``data`` itself
        (:func:`~repro.erasure.striping.split_views`); only padded tail
        shards and the parity rows are fresh buffers."""
        rows = split_views(data, self._k)
        length = rows[0].shape[0] if rows else 0
        parity = self._parity_for(rows, length)
        views: list[bytes | memoryview] = [memoryview(r) for r in rows]
        views.extend(memoryview(parity[j]) for j in range(self._n - self._k))
        return views

    def _decode_matrix(self, indices: tuple[int, ...]) -> np.ndarray:
        """Inverse of the generator rows for ``indices`` (LRU-cached per subset)."""
        cached = self._decode_cache.get(indices)
        if cached is None:
            sub = self._gen[list(indices), :]
            cached = gf_inverse_matrix(sub)
            self._decode_cache[indices] = cached
            if len(self._decode_cache) > self._DECODE_CACHE_MAX:
                self._decode_cache.popitem(last=False)
        else:
            self._decode_cache.move_to_end(indices)
        return cached

    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        self._check_enough(fragments)
        indices = tuple(sorted(fragments))[: self._k]
        frag_len = self.fragment_size(size)
        for i in indices:
            if len(fragments[i]) != frag_len:
                raise ValueError(
                    f"fragment {i} has length {len(fragments[i])}, expected {frag_len}"
                )
        if frag_len == 0:
            return b""
        if indices == tuple(range(self._k)):
            # Systematic fast path: the first k fragments are the data shards.
            return join_fragments((fragments[i] for i in indices), frag_len, size)
        stacked = np.vstack(
            [np.frombuffer(fragments[i], dtype=np.uint8) for i in indices]
        )
        inv = self._decode_matrix(indices)
        shards = gf_matmul_fast(inv, stacked)
        return join_shards(shards, size)

    def reconstruct_fragment(
        self, fragments: Mapping[int, bytes], index: int, size: int
    ) -> bytes:
        """Rebuild fragment ``index`` without re-encoding the whole object."""
        self._check_enough(fragments)
        if not (0 <= index < self._n):
            raise ValueError(f"fragment index {index} out of range [0, {self._n})")
        indices = tuple(sorted(fragments))[: self._k]
        frag_len = self.fragment_size(size)
        if frag_len == 0:
            return b""
        stacked = np.vstack(
            [np.frombuffer(fragments[i], dtype=np.uint8) for i in indices]
        )
        inv = self._decode_matrix(indices)
        # row(index of G) @ inv gives the combination of the available
        # fragments that equals the lost one.
        coeffs = gf_matmul_fast(self._gen[index : index + 1, :], inv)  # (1, k)
        return gf_matmul_fast(coeffs, stacked)[0].tobytes()
