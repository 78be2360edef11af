"""DepSky-style quorum replication (baseline [7]).

DepSky-A replicates every object on all n clouds and uses Byzantine quorum
protocols: a write is acknowledged once ``n - f`` providers have it, a read
fetches the value from the fastest cloud while cross-checking version
metadata on ``f`` others.  We reproduce the availability/latency behaviour
of that protocol (f = 1 by default) on the shared substrate; the
cryptographic integrity machinery is out of scope for the paper's
comparison, which cites DepSky for its replication cost profile (Table I:
easy recovery, high cost, low performance for large accesses).

The quorum matters for latency: a write completes at the (n-f)-th fastest
upload — the straggler cloud finishes in the background — which is modelled
by advancing the clock to the quorum completion, not the phase maximum.
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.fs.namespace import FileEntry
from repro.schemes.base import CloudOp, DataUnavailable, Placement, Scheme
from repro.sim.clock import SimClock

__all__ = ["DepSkyScheme"]


class DepSkyScheme(Scheme):
    """n-way replication with (n - f) write quorums and verified reads."""

    name = "depsky"

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
                f"DepSky with f={f} needs >= {2 * f + 1} providers, got {len(providers)}"
            )
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.f = f
        self.replicas = list(self.provider_names)

    @property
    def write_quorum(self) -> int:
        """Successes the shared write path waits for before acknowledging."""
        return len(self.replicas) - self.f

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        return Placement(providers=tuple(self.replicas), klass="quorum")

    # ------------------------------------------------------ quorum protocol
    def _read_replicated(
        self,
        key_base: str,
        size: int,
        providers: list[str],
        version: int,
        digest: str | None = None,
    ) -> tuple[bytes, bool]:
        """Fetch from the fastest available cloud + verify f version probes."""
        key = self._version_key(key_base, version)
        ranked = self._rank_providers(list(providers), size, "down")
        degraded = False
        for name in ranked:
            if not self.provider(name).is_available() or self._is_stale(
                name, self.container, key
            ):
                degraded = True
                continue
            probes = [
                p
                for p in ranked
                if p != name and self.provider(p).is_available()
            ][: self.f]
            ops = [CloudOp(name, "get", self.container, key)] + [
                CloudOp(p, "head", self.container, key) for p in probes
            ]
            got = self._run_phase(ops)[0]
            if got.ok and got.response is not None:
                if digest is not None and self._digest(got.response) != digest:
                    degraded = True  # corrupt replica fails verification
                    continue
                if degraded:
                    self._mark_degraded()
                return got.response, degraded
            degraded = True
        raise DataUnavailable(key_base, f"no quorum replica reachable ({ranked})")
