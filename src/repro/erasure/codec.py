"""Common erasure-codec interface and a small registry.

Every redundancy scheme in the repo (RAID5 for HyRD/RACS, RS for rate
ablations, FMSR for NCCloud, plain replication for DuraCloud/DepSky) is an
:class:`ErasureCodec`: ``encode_views`` produces ``n`` fragments of which any
``k`` reconstruct the payload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping

import numpy as np

from repro.erasure.galois import MUL_TABLE

__all__ = ["ErasureCodec", "register_codec", "get_codec", "available_codecs"]


class ErasureCodec(ABC):
    """An (n, k) erasure code over byte payloads."""

    #: a systematic code's parity rows over GF(2^8), shape ``(n - k, k)``:
    #: fragment ``k + j`` is ``XOR_i parity_rows[j, i] * fragment i``.
    #: :meth:`patch_fragments` folds a write's delta through them; a code
    #: whose fragments are not its data shards leaves it None
    parity_rows: np.ndarray | None = None

    @property
    @abstractmethod
    def n(self) -> int:
        """Total number of fragments produced by :meth:`encode`."""

    @property
    @abstractmethod
    def k(self) -> int:
        """Minimum number of fragments required by :meth:`decode`."""

    @property
    def storage_overhead(self) -> float:
        """Stored-bytes / payload-bytes ratio (1/code-rate), e.g. 1.25 for RAID5 4+1."""
        return self.n / self.k

    @property
    def fault_tolerance(self) -> int:
        """How many simultaneous fragment losses are survivable."""
        return self.n - self.k

    @property
    def systematic(self) -> bool:
        """Whether fragments ``0..k-1`` are the payload's own shards (the
        code has :attr:`parity_rows`).

        A systematic code reads its data fragments first (a plain join, no
        arithmetic) and can be patched in place by rewriting only the shards
        a write touches plus parity (:meth:`patch_fragments`); a
        non-systematic code (FMSR) reads the fastest k fragments and must
        re-encode the whole object.
        """
        return self.parity_rows is not None

    @abstractmethod
    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        """Encode ``data`` into exactly ``n`` fragments (index = position).

        The one encoder of every codec.  A fragment may be a ``memoryview``
        into ``data`` or into an internal encode buffer instead of fresh
        ``bytes``; callers must treat the returned buffers as frozen (the
        simulated stores keep them as-is; see ``docs/performance.md``).
        """

    def patch_fragments(
        self, fragments: Mapping[int, bytes], size: int, offset: int, patch: bytes
    ) -> dict[int, memoryview]:
        """The fragments a same-size write of ``patch`` at ``offset`` into a
        ``size``-byte payload changes, from their current bytes alone.

        ``fragments`` maps every parity index and every data index the
        patch overlaps to that fragment's current bytes (a data index it
        does not overlap may be given too and comes back unchanged).  Each
        comes back as a fresh buffer equal, byte for byte, to the same
        index of ``encode_views`` of the patched payload: a data fragment
        is copied and patched, and parity ``j`` is copied and takes
        ``parity_rows[j, i] * delta`` for each data fragment's delta (a
        plain XOR for coefficient 1, RAID5's only one).  The work is one
        copy per fragment plus GF arithmetic over the patch; the rest of
        the payload is never read.  Raises ``NotImplementedError`` for a
        code without :attr:`parity_rows` (it must re-encode).
        """
        rows = self.parity_rows
        if rows is None:
            raise NotImplementedError(f"{type(self).__name__} cannot patch a stripe in place")
        k, frag_len, end = self.k, self.fragment_size(size), offset + len(patch)
        if offset < 0 or end > size:
            raise ValueError(f"patch [{offset}, {end}) outside a {size}-byte payload")
        overlapped = [i for i in range(k) if i * frag_len < end and offset < (i + 1) * frag_len]
        missing = sorted(set(overlapped).union(range(k, self.n)).difference(fragments))
        if missing:
            raise ValueError(f"patch needs the current fragments {missing}")
        out = {}
        for i, frag in fragments.items():
            if not 0 <= i < self.n:
                raise ValueError(f"fragment index {i} out of range [0, {self.n})")
            cur = np.frombuffer(frag, dtype=np.uint8)
            if cur.size != frag_len:
                raise ValueError(f"fragment {i} has length {cur.size}, expected {frag_len}")
            out[i] = cur.copy()
        new = np.frombuffer(patch, dtype=np.uint8)
        for i in overlapped:
            base = i * frag_len
            s, e = max(offset, base), min(end, base + frag_len)
            data = out[i][s - base : e - base]
            delta = data ^ new[s - offset : e - offset]
            data[:] = new[s - offset : e - offset]
            for j, coeff in enumerate(rows[:, i].tolist()):
                if coeff:
                    parity = out[k + j][s - base : e - base]
                    parity ^= delta if coeff == 1 else MUL_TABLE[coeff].take(delta)
        return {i: memoryview(f) for i, f in out.items()}

    def encode(self, data: bytes) -> list[bytes]:
        """:meth:`encode_views` with every fragment materialised as ``bytes``."""
        return [bytes(f) for f in self.encode_views(data)]

    @abstractmethod
    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        """Reconstruct the original ``size``-byte payload.

        ``fragments`` maps fragment index -> fragment bytes (any bytes-like
        buffer is accepted) and must contain at least ``k`` entries; raises
        ``ValueError`` otherwise.
        """

    def reconstruct_fragment(self, fragments: Mapping[int, bytes], index: int, size: int) -> bytes:
        """Rebuild one lost fragment from survivors.

        The generic implementation decodes then re-encodes; codecs with a
        cheaper repair path (FMSR) override this.
        """
        data = self.decode(fragments, size)
        return self.encode(data)[index]

    def fragment_size(self, size: int) -> int:
        """Bytes stored per fragment for a ``size``-byte payload."""
        from repro.erasure.striping import shard_length

        return shard_length(size, self.k)

    def _check_enough(self, fragments: Mapping[int, bytes]) -> None:
        if len(fragments) < self.k:
            raise ValueError(
                f"{type(self).__name__} needs >= {self.k} fragments, got {len(fragments)}"
            )
        bad = [i for i in fragments if not (0 <= i < self.n)]
        if bad:
            raise ValueError(f"fragment indices out of range [0, {self.n}): {bad}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


_REGISTRY: dict[str, Callable[..., ErasureCodec]] = {}


def register_codec(name: str, factory: Callable[..., ErasureCodec]) -> None:
    """Register a codec factory under ``name`` (lower-case)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"codec {name!r} already registered")
    _REGISTRY[key] = factory


def get_codec(name: str, **kwargs: object) -> ErasureCodec:
    """Instantiate a registered codec, e.g. ``get_codec('raid5', k=3)``."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_codecs() -> list[str]:
    """Names accepted by :func:`get_codec`."""
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    # Imported lazily to avoid circular imports at module load.
    from repro.erasure.fmsr import FMSRCode
    from repro.erasure.raid5 import Raid5Code
    from repro.erasure.reed_solomon import ReedSolomonCode
    from repro.erasure.replication import ReplicationCode

    register_codec("raid5", Raid5Code)
    register_codec("rs", ReedSolomonCode)
    register_codec("fmsr", FMSRCode)
    register_codec("replication", ReplicationCode)


_register_builtins()
