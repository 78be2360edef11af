"""RACS: RAID5-style striping across all providers (baseline [1]).

*"RACS transparently stripes data across multiple cloud storage providers
with RAID-like techniques used by disks and file systems."*  Every object —
large file, small file, metadata group alike — is split into k = n-1 data
fragments plus one parity fragment, one per provider.  That buys parallel
transfer for large objects and 1.33x storage overhead, but:

- small objects pay n round-trips for k tiny fragments (RTT-bound);
- in-place updates are read-modify-write — the paper's "4 accesses";
- any read touching an out provider becomes a reconstruction that pulls
  fragments from *all* survivors (the degraded-read traffic of Figure 6).
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.erasure.codec import ErasureCodec
from repro.erasure.raid5 import Raid5Code
from repro.fs.namespace import FileEntry
from repro.schemes.base import Placement, Scheme
from repro.sim.clock import SimClock

__all__ = ["RacsScheme"]


class RacsScheme(Scheme):
    """RAID5 (k = n-1 data + 1 parity) over the whole Cloud-of-Clouds."""

    name = "racs"

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        if len(providers) < 3:
            raise ValueError(f"RACS RAID5 needs >= 3 providers, got {len(providers)}")
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.codec = Raid5Code(k=len(providers) - 1)
        self.stripe_providers = list(self.provider_names)

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        return Placement(
            providers=tuple(self.stripe_providers),
            klass="striped",
            codec=self.codec,
            codec_name="raid5",
            codec_params=(("k", self.codec.k),),
        )

    # ------------------------------------------------------------- metadata
    def _meta_codec(self) -> ErasureCodec | None:
        # RACS treats metadata like any other object: striped.
        return self.codec
