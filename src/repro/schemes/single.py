"""Single-cloud baseline: one provider, no redundancy.

Figure 4 plots the cost of hosting the Internet Archive on each of the four
Table II providers individually, and Figure 6 normalises every latency to
single-cloud Amazon S3.  An outage of the one provider makes data plainly
unavailable — the vendor lock-in scenario motivating the whole paper.
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.fs.namespace import FileEntry
from repro.schemes.base import Placement, Scheme
from repro.sim.clock import SimClock

__all__ = ["SingleCloudScheme"]


class SingleCloudScheme(Scheme):
    """All objects (data and metadata) on exactly one provider."""

    name = "single"

    def __init__(
        self,
        provider: SimulatedProvider,
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        self.name = f"single-{provider.name}"
        self.primary = provider.name
        super().__init__([provider], clock, link, seed, **kwargs)  # type: ignore[arg-type]

    # ----------------------------------------------------------- placement
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        return Placement(providers=(self.primary,), klass="single")
