"""DuraCloud-style full replication across two providers (baseline [10]).

*"DuraCloud utilizes replication to copy user content onto several different
cloud storage providers ... and ensures that all copies of user content
remain synchronized."*  We reproduce the two-provider deployment the paper
prices in Figure 4: every object (data and metadata) is written to both
providers in parallel — the two uploads contend on the client's uplink,
which is exactly why DuraCloud's large writes are slow in Figure 6 and why
its *reads get faster during an outage* (no second copy to synchronise).

Synchronisation during outages uses the shared write-log / consistency-update
machinery from :mod:`repro.core.recovery`.
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.fs.namespace import FileEntry
from repro.schemes.base import Placement, Scheme
from repro.sim.clock import SimClock

__all__ = ["DuraCloudScheme"]


class DuraCloudScheme(Scheme):
    """Full 2x replication, reads served by the fastest available copy.

    Writes follow DuraCloud's synchronize-on-change discipline: the primary
    copy is written first and the second copy is a *sync step* that runs
    after it — so a write costs the sum of both transfers.  When one
    provider is inside an outage window the sync step fast-fails into the
    write log, which is why the paper observes DuraCloud's access latency
    *improving* during an outage ("no double writes or updates are
    performed").
    """

    name = "duracloud"
    sequential_replication = True

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        replication_level: int = 2,
        **kwargs: object,
    ) -> None:
        if len(providers) < replication_level:
            raise ValueError(
                f"DuraCloud needs >= {replication_level} providers, got {len(providers)}"
            )
        if replication_level < 2:
            raise ValueError("replication_level must be >= 2 for availability")
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        # DuraCloud pins content to a fixed replica set (the first
        # ``replication_level`` providers), mirroring its static configuration.
        self.replicas = self.provider_names[:replication_level]

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        return Placement(providers=tuple(self.replicas), klass="replicated")

    def _meta_write_targets(self) -> list[str]:
        return list(self.replicas)
