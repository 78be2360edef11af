"""NCCloud: FMSR regenerating codes over the Cloud-of-Clouds (baseline [16]).

NCCloud targets the *repair* cost of erasure-coded cloud storage: after a
permanent single-cloud failure, a conventional RS/RAID system downloads k
fragments (the whole object) to rebuild one, while FMSR downloads just one
chunk from each of the n-1 survivors — ``(n-1)/(k*(n-k))`` of the traffic.

Per-object encoding-coefficient matrices are kept client-side (NCCloud
persists them as object metadata); :meth:`repair_provider` performs the
functional repair for every object after a cloud is declared permanently
failed and reports the traffic actually moved, which the repair benchmark
compares against the decode-based repair of RACS.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.erasure.codec import ErasureCodec
from repro.erasure.fmsr import FMSRCode
from repro.fs.namespace import FileEntry
from repro.schemes.base import CloudOp, DataUnavailable, Placement, Scheme
from repro.sim.clock import SimClock
from repro.sim.rng import stable_u64

__all__ = ["NCCloudScheme"]


class NCCloudScheme(Scheme):
    """FMSR(n, n-2): each provider stores n-2 coded chunks per object."""

    name = "nccloud"

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        if len(providers) < 3:
            raise ValueError(f"FMSR needs >= 3 providers, got {len(providers)}")
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.n = len(providers)
        self.k = self.n - 2
        self.stripe_providers = list(self.provider_names)
        self._codecs: dict[str, FMSRCode] = {}

    def _object_codec(self, path: str, version: int) -> FMSRCode:
        """Per-object FMSR instance, deterministically seeded."""
        return FMSRCode(self.n, self.k, seed=stable_u64("nccloud", path, version))

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        version = prev.version + 1 if prev else 1
        codec = self._codecs[path] = self._object_codec(path, version)
        return Placement(
            providers=tuple(self.stripe_providers),
            klass="regenerating",
            codec=codec,
            codec_name="fmsr",
            codec_params=(("n", self.n), ("k", self.k)),
        )

    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        """The object's own codec, not one rebuilt from ``(n, k)`` alone.

        A restarted client re-derives it: encoding matrices are
        deterministic in (path, version).  Limitation (documented): objects
        that went through a *functional repair* carry an evolved ECM this
        cannot reproduce — recovering those requires replaying the repair
        log, which NCCloud proper persists as object metadata.
        """
        codec = self._codecs.get(entry.path)
        if codec is None:
            codec = self._codecs[entry.path] = self._object_codec(
                entry.path, entry.version
            )
        return codec

    def _forget(self, path: str) -> None:
        self._codecs.pop(path, None)

    # ---------------------------------------------------------------- repair
    def repair_provider(self, failed: str, replacement: str | None = None) -> dict[str, int]:
        """Functional repair after a *permanent* failure of ``failed``.

        For every stored object, download one chunk from each survivor,
        linearly combine into fresh chunks, and write them to ``replacement``
        (defaults to the failed provider itself, modelling its re-provisioned
        successor).  Returns traffic accounting::

            {"objects": ..., "bytes_downloaded": ..., "bytes_uploaded": ...,
             "conventional_bytes": ...}

        where ``conventional_bytes`` is what decode-based repair would have
        downloaded (k full fragments per object).
        """
        if failed not in self.stripe_providers:
            raise ValueError(f"{failed!r} is not part of this Cloud-of-Clouds")
        target = replacement or failed
        if target not in self.provider_names:
            raise ValueError(f"replacement {target!r} is not registered")
        stats = {"objects": 0, "bytes_downloaded": 0, "bytes_uploaded": 0, "conventional_bytes": 0}
        for path in self.namespace.paths():
            entry = self.namespace.get(path)
            with self._op("repair", path):
                downloaded, uploaded = self._repair_fragment(entry, failed, target)
            codec = self._codec_for(entry)
            stats["objects"] += 1
            stats["bytes_downloaded"] += downloaded
            stats["bytes_uploaded"] += uploaded
            stats["conventional_bytes"] += codec.fragment_size(entry.size) * codec.k
        return stats

    def _repair_fragment(self, entry: FileEntry, failed: str, target: str) -> tuple[int, int]:
        """Regenerate ``entry``'s fragment on ``failed`` and put it on
        ``target``; returns ``(bytes downloaded, bytes uploaded)``.

        A regenerating code promises a decodable result only when every
        helper it combines is intact, so survivors are taken like
        :meth:`_peek_content` takes them: a pending write-log payload never
        left the client, a stored fragment must pass its write-time digest.
        With all ``n - 1`` the repair is functional (one chunk each); with
        fewer it is the conventional one from ``k`` whole fragments — never
        a fragment derived from unverified bytes.
        """
        path = entry.path
        codec = self._codec_for(entry)
        failed_idx = entry.fragment_index(failed)
        frag_len = codec.fragment_size(entry.size)
        helpers: dict[int, bytes] = {}
        stored: list[int] = []  # helpers that cross the wire, in placement order
        for idx, data, trusted in self._held_placements(entry):
            if idx != failed_idx and (trusted or self._placement_intact(entry, idx, data)):
                helpers[idx] = data
                if not trusted:
                    stored.append(idx)
        if len(helpers) == codec.n - 1:
            # The survivor computes the random combination server-side in
            # NCCloud; our passive providers can't, so we take the fragment
            # and charge only one chunk of it (the bytes that would cross
            # the wire).
            charged = frag_len // max(codec.chunks_per_node, 1)
            new_fragment, self._codecs[path] = codec.repair(helpers, failed_idx, entry.size)
        elif len(helpers) >= codec.k:
            helpers = dict(sorted(helpers.items())[: codec.k])
            stored = [idx for idx in stored if idx in helpers]
            charged = frag_len
            new_fragment = codec.reconstruct_fragment(helpers, failed_idx, entry.size)
            self._mark_degraded()
        else:
            raise DataUnavailable(
                path, f"only {len(helpers)} of {codec.k} required fragments intact"
            )
        by_index = {idx: prov for prov, idx in entry.placements}
        for idx in stored:
            self.provider(by_index[idx]).meter.record_get(charged, self.clock.now)
        self._run_phase(
            [
                CloudOp(
                    target,
                    "put",
                    self.container,
                    self._fragment_key(path, failed_idx, entry.version),
                    new_fragment,
                )
            ]
        )
        # The repaired key now holds a fresh buffer, so the payload entry
        # recorded for this version must go before its ids can be recycled.
        self._payload_cache.discard(self._version_key(path, entry.version))
        # Charge the downloads' wire time in one batch.
        self._settle(
            self.link.elapsed(
                downloads=[
                    self.provider(by_index[idx]).latency.download_spec(charged, self.rng)
                    for idx in stored
                ]
            ),
            (),
        )
        # The repaired fragment may hold *different* bytes: refresh its
        # digest, recorded for the object just stored so its next read
        # hashes nothing (and its placement, when relocated).  The version must NOT
        # change — every other fragment still lives under its original
        # versioned key.
        digests = entry.digests
        if digests:
            repaired = self._record_digest(
                self._fragment_key(path, failed_idx, entry.version), new_fragment
            )
            digests = (*digests[:failed_idx], repaired, *digests[failed_idx + 1 :])
        self.namespace.upsert(
            replace(
                entry,
                placements=tuple(
                    (target if prov == failed else prov, idx)
                    for prov, idx in entry.placements
                ),
                digests=digests,
                modified=self.clock.now,
            )
        )
        return charged * len(stored), len(new_fragment)
