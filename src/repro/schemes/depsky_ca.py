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
"""

from __future__ import annotations

import json

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.fs.namespace import FileEntry
from repro.schemes.base import CloudOp, DataUnavailable, Placement, Scheme
from repro.security.cipher import keystream_cipher, random_key
from repro.security.secret_sharing import combine_secret, share_secret
from repro.sim.clock import SimClock

__all__ = ["DepSkyCAScheme"]


class DepSkyCAScheme(Scheme):
    """Encrypt + secret-share + erasure-code across all providers."""

    name = "depsky-ca"

    # A bundle cannot be rebuilt in isolation: its key share comes from one
    # specific sharing, and shares from two different sharings of the same
    # key do not combine.  Repair — and a partial update — re-puts the whole
    # object (fresh encrypt + share + encode) instead of patching single
    # placements.
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
        n = len(self.clouds)
        self.codec = ReedSolomonCode(k=f + 1, m=n - (f + 1))

    @property
    def write_quorum(self) -> int:
        return len(self.clouds) - self.f

    # --------------------------------------------------------------- helpers
    def _bundle(self, fragment: bytes, share: bytes, share_index: int) -> bytes:
        """One cloud's object: ciphertext fragment + key share, framed."""
        header = json.dumps(
            {"share_index": share_index, "share_len": len(share)},
            separators=(",", ":"),
        ).encode()
        return len(header).to_bytes(2, "big") + header + share + fragment

    @staticmethod
    def _unbundle(blob: bytes) -> tuple[bytes, bytes, int]:
        hlen = int.from_bytes(blob[:2], "big")
        header = json.loads(blob[2 : 2 + hlen].decode())
        share_len = header["share_len"]
        share = blob[2 + hlen : 2 + hlen + share_len]
        fragment = blob[2 + hlen + share_len :]
        return fragment, share, header["share_index"]

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

    # ------------------------------------------------------ bundle protocol
    def _write_placement(
        self, path: str, data: bytes, placement: Placement, version: int
    ) -> tuple[list[tuple[str, int]], tuple[str, ...]]:
        """Encrypt, share the key, encode, and quorum-write one bundle per
        cloud; the digests are the *bundles'*."""
        clouds = placement.providers
        # f+1 landed bundles reconstruct (fragment + share each), so that is
        # the roll-forward threshold after a crash mid-scatter.
        self._journal_plan(
            version=version,
            codec_name=type(placement.codec).__name__,
            min_needed=self.f + 1,
            sites=tuple(
                (cloud, self._fragment_key(path, i, version))
                for i, cloud in enumerate(clouds)
            ),
        )
        key = random_key(self.rng)
        ciphertext = keystream_cipher(key, data)
        fragments = placement.codec.encode(ciphertext)
        shares = share_secret(key, n=len(clouds), k=self.f + 1, rng=self.rng)

        self._heal_before_touching(set(clouds))
        ops = [
            CloudOp(
                cloud,
                "put",
                self.container,
                self._fragment_key(path, i, version),
                self._bundle(fragments[i], shares[i], i),
            )
            for i, cloud in enumerate(clouds)
        ]
        self._quorum_phase(ops, self.write_quorum)
        return (
            [(cloud, i) for i, cloud in enumerate(clouds)],
            tuple(self._digest(op.data or b"") for op in ops),
        )

    def _read_object(self, entry: FileEntry) -> tuple[bytes, bool]:
        by_index = {idx: prov for prov, idx in entry.placements}
        need = self.codec.k
        order = self._rank_providers_by_index(by_index, entry.size, self.codec)
        usable = [
            i
            for i in order
            if self.provider(by_index[i]).is_available()
            and not self._is_stale(
                by_index[i],
                self.container,
                self._fragment_key(entry.path, i, entry.version),
            )
        ]
        degraded = any(i not in usable for i in order[:need])
        chosen = usable[:need]
        if len(chosen) < need:
            raise DataUnavailable(
                entry.path, f"only {len(chosen)} of {need} bundles reachable"
            )
        ops = [
            CloudOp(
                by_index[i],
                "get",
                self.container,
                self._fragment_key(entry.path, i, entry.version),
            )
            for i in chosen
        ]
        phase = self._run_phase(ops)
        fragments: dict[int, bytes] = {}
        shares: dict[int, bytes] = {}
        for idx, outcome in zip(chosen, phase.outcomes):
            if outcome.ok and outcome.data is not None:
                if (
                    entry.digests
                    and idx < len(entry.digests)
                    and self._digest(outcome.data) != entry.digests[idx]
                ):
                    continue  # corrupt bundle: count as an erasure
                fragment, share, share_index = self._unbundle(outcome.data)
                fragments[idx] = fragment
                shares[share_index] = share
        if len(fragments) < need:
            # Outage races and corrupt bundles land here: top up from the
            # remaining clouds, verifying each bundle.
            for i in usable:
                if len(fragments) >= need:
                    break
                if i in fragments or i in chosen:
                    continue
                retry = self._run_phase(
                    [
                        CloudOp(
                            by_index[i],
                            "get",
                            self.container,
                            self._fragment_key(entry.path, i, entry.version),
                        )
                    ]
                )
                blob = retry.outcomes[0].data
                if retry.outcomes[0].ok and blob is not None:
                    if (
                        entry.digests
                        and i < len(entry.digests)
                        and self._digest(blob) != entry.digests[i]
                    ):
                        continue
                    fragment, share, share_index = self._unbundle(blob)
                    fragments[i] = fragment
                    shares[share_index] = share
            degraded = True
        if len(fragments) < need:
            raise DataUnavailable(entry.path, "lost bundles mid-read")
        key = combine_secret(shares, k=self.f + 1)
        # Ciphertext length equals plaintext length; decode to it exactly.
        ciphertext = self.codec.decode(fragments, entry.size)
        data = keystream_cipher(key, ciphertext)
        if degraded:
            self._mark_degraded()
        return data, degraded

    def _peek_content(self, entry: FileEntry) -> bytes:
        """Client-side composition for updates: decrypt from held bundles
        (logged, or stored and passing their write-time digest)."""
        fragments: dict[int, bytes] = {}
        shares: dict[int, bytes] = {}
        for idx, blob, trusted in self._held_placements(entry):
            if trusted or self._placement_intact(entry, idx, blob):
                fragment, share, share_index = self._unbundle(blob)
                fragments[idx] = fragment
                shares[share_index] = share
        if len(fragments) < self.codec.k:
            raise DataUnavailable(
                entry.path,
                f"only {len(fragments)} of {self.codec.k} required bundles intact",
            )
        ciphertext = self.codec.decode(fragments, entry.size)
        return keystream_cipher(combine_secret(shares, k=self.f + 1), ciphertext)

    # ------------------------------------------------------------- metadata
    def _meta_write_targets(self) -> list[str]:
        # Metadata (names, sizes, placements) is not confidential in
        # DepSky-CA either; replicate it on every cloud for availability.
        return list(self.clouds)

    # ------------------------------------------------------- confidentiality
    def provider_view(self, provider: str, path: str) -> bytes:
        """Everything one provider stores for a path (for leakage tests)."""
        entry = self.namespace.get(path)
        idx = entry.fragment_index(provider)
        blob = self.provider(provider).store.get(
            self.container, self._fragment_key(path, idx, entry.version)
        )
        return blob.data
