"""Functional minimum-storage regenerating (FMSR) codes, as used by NCCloud.

NCCloud (Hu et al., FAST'12 — baseline [16] in the paper) stores data with an
FMSR(n, k) code: a file is split into ``k*(n-k)`` *native* chunks and encoded
into ``n*(n-k)`` *coded* chunks (random linear combinations over GF(2^8));
node ``i`` stores chunks ``i*(n-k) .. (i+1)*(n-k)-1``.  The code is MDS in
the node sense: any ``k`` nodes' chunks reconstruct the file.

The point of FMSR is cheap *functional* repair: a replacement node downloads
only **one** chunk from each of the ``n-1`` survivors (each survivor sends a
random combination of its own chunks) instead of re-decoding the whole file —
``(n-1)/(k*(n-k))`` of the conventional repair traffic.  The repaired node
stores *different* chunks than the lost one, so the encoding-coefficient
matrix (ECM) evolves; after each candidate repair we re-verify the MDS
property and re-draw coefficients if it would be violated (NCCloud's
two-phase check).

A codec instance is immutable: :meth:`repair` returns the repaired fragment
*plus a new codec* carrying the updated ECM, which callers persist as
per-object metadata exactly like NCCloud does.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

import numpy as np

from repro.erasure.codec import ErasureCodec
from repro.erasure.galois import gf_inverse_matrix, gf_is_invertible, gf_matmul
from repro.erasure.gfkernel import gf_matmul_fast, plan_for
from repro.erasure.striping import join_shards, shard_length, split_views
from repro.sim.rng import make_rng

__all__ = ["FMSRCode"]

_MAX_DRAWS = 200


class FMSRCode(ErasureCodec):
    """FMSR(n, k) with ``n - k = 2`` by default (NCCloud's double-fault setting)."""

    def __init__(
        self,
        n: int = 4,
        k: int | None = None,
        seed: int = 0,
        ecm: np.ndarray | None = None,
    ) -> None:
        if k is None:
            k = n - 2
        if not (0 < k < n):
            raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
        self._n = n
        self._k = k
        self._r = n - k  # chunks per node
        self._native = k * self._r  # native chunks per object
        self._seed = seed
        if ecm is not None:
            ecm = np.asarray(ecm, dtype=np.uint8)
            if ecm.shape != (n * self._r, self._native):
                raise ValueError(
                    f"ECM shape {ecm.shape} != {(n * self._r, self._native)}"
                )
            if not self._is_mds(ecm):
                raise ValueError("supplied ECM violates the MDS property")
            self._ecm = ecm.copy()
        else:
            self._ecm = self._draw_mds_ecm(make_rng(seed, "fmsr-ecm", n, k))

    # ------------------------------------------------------------------ props
    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    @property
    def chunks_per_node(self) -> int:
        return self._r

    @property
    def ecm(self) -> np.ndarray:
        """Read-only view of the (n*(n-k), k*(n-k)) encoding-coefficient matrix."""
        m = self._ecm.view()
        m.flags.writeable = False
        return m

    @property
    def repair_traffic_ratio(self) -> float:
        """Repair download vs conventional decode-based repair (< 1 is the win)."""
        return (self._n - 1) / (self._k * self._r)

    # ------------------------------------------------------------------ MDS
    def _node_rows(self, node: int) -> slice:
        return slice(node * self._r, (node + 1) * self._r)

    def _is_mds(self, ecm: np.ndarray) -> bool:
        """Every k-subset of nodes must yield an invertible square system."""
        return all(
            gf_is_invertible(np.vstack([ecm[self._node_rows(i)] for i in nodes]))
            for nodes in combinations(range(self._n), self._k)
        )

    def _draw_mds_ecm(self, rng: np.random.Generator) -> np.ndarray:
        for _ in range(_MAX_DRAWS):
            ecm = rng.integers(0, 256, size=(self._n * self._r, self._native), dtype=np.uint8)
            if self._is_mds(ecm):
                return ecm
        raise RuntimeError(  # pragma: no cover - probability ~0
            f"failed to draw an MDS ECM for FMSR({self._n},{self._k}) in {_MAX_DRAWS} tries"
        )

    # ------------------------------------------------------------------ codec
    def fragment_size(self, size: int) -> int:
        """Bytes per node fragment: ``(n-k)`` coded chunks of shard length."""
        return self._r * shard_length(size, self._native)

    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        """``n`` node fragments, each the concatenation of its r coded chunks.

        The full (n*r, L) coded-chunk matrix is ``ECM @ native``
        (kernel-backed).  FMSR fragments are linear combinations of every
        native chunk, so — unlike the systematic codes — no fragment can
        alias ``data``; the win is skipping a per-node ``tobytes`` copy.
        Each view is 1-D (``len`` counts bytes) over the node's contiguous
        row block of the freshly encoded matrix.  The native chunks are
        read in place (:func:`split_views`): only the zero-padded tail
        chunk is copied.
        """
        native = split_views(data, self._native)  # k*r rows of L bytes
        coded = plan_for(self._ecm).execute(native, len(native[0]))  # (n*r, L)
        return [
            memoryview(coded[self._node_rows(i)].reshape(-1))
            for i in range(self._n)
        ]

    def _fragment_chunks(self, frag: bytes, chunk_len: int, node: int) -> np.ndarray:
        expected = self._r * chunk_len
        if len(frag) != expected:
            raise ValueError(
                f"node {node} fragment has length {len(frag)}, expected {expected}"
            )
        return np.frombuffer(frag, dtype=np.uint8).reshape(self._r, chunk_len)

    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        self._check_enough(fragments)
        nodes = tuple(sorted(fragments))[: self._k]
        chunk_len = shard_length(size, self._native)
        if chunk_len == 0:
            return b""
        rows = np.vstack([self._ecm[self._node_rows(i)] for i in nodes])
        chunks = np.vstack(
            [self._fragment_chunks(fragments[i], chunk_len, i) for i in nodes]
        )
        inv = gf_inverse_matrix(rows)
        native = gf_matmul_fast(inv, chunks)
        return join_shards(native, size)

    # ------------------------------------------------------------------ repair
    def repair(
        self,
        fragments: Mapping[int, bytes],
        failed: int,
        size: int,
        seed: int | None = None,
    ) -> tuple[bytes, "FMSRCode"]:
        """Functional repair of node ``failed``.

        ``fragments`` must hold all ``n - 1`` survivors.  Returns the new
        fragment for the replacement node and the successor codec whose ECM
        reflects it.  Downloads modelled by callers: one chunk per survivor.
        """
        if not (0 <= failed < self._n):
            raise ValueError(f"failed node {failed} out of range [0, {self._n})")
        survivors = [i for i in range(self._n) if i != failed]
        missing = [i for i in survivors if i not in fragments]
        if missing:
            raise ValueError(f"FMSR repair needs all survivors; missing {missing}")
        chunk_len = shard_length(size, self._native)
        rng = make_rng(self._seed if seed is None else seed, "fmsr-repair", failed)

        sur_chunks = {
            i: self._fragment_chunks(fragments[i], chunk_len, i) for i in survivors
        }
        for _ in range(_MAX_DRAWS):
            # Phase 1: each survivor sends one random combination of its chunks.
            sent_rows = np.zeros((self._n - 1, self._native), dtype=np.uint8)
            sent_chunks = np.zeros((self._n - 1, chunk_len), dtype=np.uint8)
            for j, i in enumerate(survivors):
                alpha = rng.integers(0, 256, size=(1, self._r), dtype=np.uint8)
                sent_rows[j] = gf_matmul(alpha, self._ecm[self._node_rows(i)])[0]
                if chunk_len:
                    sent_chunks[j] = gf_matmul_fast(alpha, sur_chunks[i])[0]
            # Phase 2: the replacement combines them into r new chunks.
            beta = rng.integers(0, 256, size=(self._r, self._n - 1), dtype=np.uint8)
            new_rows = gf_matmul(beta, sent_rows)  # (r, k*r)
            candidate = self._ecm.copy()
            candidate[self._node_rows(failed)] = new_rows
            if not self._is_mds(candidate):
                continue
            new_chunks = (
                gf_matmul_fast(beta, sent_chunks)
                if chunk_len
                else np.zeros((self._r, 0), dtype=np.uint8)
            )
            successor = FMSRCode(self._n, self._k, seed=self._seed, ecm=candidate)
            return new_chunks.tobytes(), successor
        raise RuntimeError(  # pragma: no cover - probability ~0
            f"FMSR repair failed to find MDS-preserving coefficients in {_MAX_DRAWS} tries"
        )
