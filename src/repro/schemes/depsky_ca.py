"""DepSky-CA: the confidentiality-adding DepSky variant.

The paper describes DepSky as combining "Byzantine quorum system protocols,
cryptographic secret sharing, replication and the diversity provided by the
use of several cloud providers" — that description is DepSky-CA (the
EuroSys'11 paper's second protocol).  Per object:

1. a fresh 128-bit key encrypts the payload (counter-mode keystream);
2. the ciphertext is erasure-coded RS(f+1, n-f-1): any f+1 clouds rebuild it;
3. the key is Shamir-shared with threshold f+1: any f+1 shares rebuild it,
   f shares reveal *nothing*;
4. cloud ``i`` stores its ciphertext fragment and its key share together.

So storage overhead drops from DepSky-A's n copies to n/(f+1) (2x for
n=4, f=1), availability still tolerates f outages, and no single provider —
nor any coalition of f — can read the data.  Quorum write semantics follow
:class:`~repro.schemes.depsky.DepSkyScheme`.

Steps 1-4 are a codec (:class:`BundleCode`), so the scheme is a placement
rule plus an ack rule and every byte moves through the shared data path.
Metadata (names, sizes, placements) is not confidential in DepSky-CA
either: it is replicated on every cloud, the base default.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

import numpy as np

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.erasure.codec import ErasureCodec
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.fs.namespace import FileEntry
from repro.schemes.base import Placement, Scheme
from repro.security.cipher import keystream_cipher, random_key
from repro.security.secret_sharing import combine_secret, share_secret
from repro.sim.clock import SimClock

__all__ = ["BundleCode", "DepSkyCAScheme"]


class BundleCode(ErasureCodec):
    """Encrypt, RS(f+1, n-f-1)-code and secret-share: any f+1 of the n
    bundles rebuild the payload, f of them reveal nothing.

    Not systematic (no bundle is a payload shard) and not deterministic:
    every ``encode_views`` draws a fresh key and a fresh sharing from ``rng`` —
    the owning scheme's stream, so a run stays a function of its seed.
    Bundles of two encodes therefore never combine; an object is repaired
    by re-encoding it whole (``Scheme.repair_by_rewrite``), never by
    rebuilding one bundle.
    """

    def __init__(self, n: int, f: int, rng: np.random.Generator) -> None:
        self._rs = ReedSolomonCode(k=f + 1, m=n - (f + 1))
        self._rng = rng

    @property
    def n(self) -> int:
        return self._rs.n

    @property
    def k(self) -> int:
        return self._rs.k

    @staticmethod
    def bundle(fragment: bytes, share: bytes, share_index: int) -> bytes:
        """One cloud's object: ciphertext fragment + key share, framed."""
        header = json.dumps(
            {"share_index": share_index, "share_len": len(share)},
            separators=(",", ":"),
        ).encode()
        return len(header).to_bytes(2, "big") + header + share + fragment

    @staticmethod
    def unbundle(blob: bytes) -> tuple[bytes, bytes, int]:
        hlen = int.from_bytes(blob[:2], "big")
        header = json.loads(blob[2 : 2 + hlen].decode())
        share_len = header["share_len"]
        share = blob[2 + hlen : 2 + hlen + share_len]
        fragment = blob[2 + hlen + share_len :]
        return fragment, share, header["share_index"]

    def encode_views(self, data: bytes) -> list[bytes | memoryview]:
        key = random_key(self._rng)
        fragments = self._rs.encode_views(keystream_cipher(key, data))
        shares = share_secret(key, n=self.n, k=self.k, rng=self._rng)
        return [self.bundle(fragments[i], shares[i], i) for i in range(self.n)]

    def decode(self, fragments: Mapping[int, bytes], size: int) -> bytes:
        self._check_enough(fragments)
        parts: dict[int, bytes] = {}
        shares: dict[int, bytes] = {}
        for idx, blob in fragments.items():
            parts[idx], share, share_index = self.unbundle(blob)
            shares[share_index] = share
        key = combine_secret(shares, k=self.k)
        # Ciphertext length equals plaintext length; decode to it exactly.
        return keystream_cipher(key, self._rs.decode(parts, size))


class DepSkyCAScheme(Scheme):
    """Encrypt + secret-share + erasure-code across all providers."""

    name = "depsky-ca"

    # A bundle cannot be rebuilt in isolation (see BundleCode): repair
    # re-puts the whole object instead of patching single placements.
    repair_by_rewrite = True

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        f: int = 1,
        **kwargs: object,
    ) -> None:
        if len(providers) < 2 * f + 1:
            raise ValueError(
                f"DepSky-CA with f={f} needs >= {2 * f + 1} providers, got {len(providers)}"
            )
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.f = f
        self.clouds = list(self.provider_names)
        self.codec = BundleCode(len(self.clouds), f, self.rng)

    @property
    def write_quorum(self) -> int:
        return len(self.clouds) - self.f

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        # Recorded as RS(f+1, n-f-1): bundles live under fragment keys and
        # f+1 of them reconstruct, exactly what the generic audit assumes.
        return Placement(
            providers=tuple(self.clouds),
            klass="confidential",
            codec=self.codec,
            codec_name="rs",
            codec_params=(("k", self.codec.k), ("m", self.codec.n - self.codec.k)),
        )

    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        # The recorded "rs" names the geometry; the objects are bundles.
        return self.codec

    # ------------------------------------------------------- confidentiality
    def provider_view(self, provider: str, path: str) -> bytes:
        """Everything one provider stores for a path (for leakage tests)."""
        entry = self.namespace.get(path)
        idx = entry.fragment_index(provider)
        blob = self.provider(provider).store.get(
            self.container, self._fragment_key(path, idx, entry.version)
        )
        return blob.data
