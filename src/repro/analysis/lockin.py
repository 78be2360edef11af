"""Vendor lock-in: the switching-cost analysis of §II-A, quantified.

§II-A: *"moving from one provider to another one may be very expensive
because the switching cost is proportional to the amount of data that has
been stored in the original provider."*  The Cloud-of-Clouds argument is
that redundancy makes abandoning any one provider cheap — the data needed
to re-establish redundancy elsewhere can come from the *other* providers,
or (with replication) costs nothing at all until a new replica is wanted.

:func:`switching_cost_report` computes, for every scheme, the dollar cost of
walking away from each provider it uses: egress charges for whatever must be
read to rebuild the departed provider's share, assuming data-in is free at
the destination (true for the whole Table II fleet).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.availability import SchemePlacement, standard_placements
from repro.cloud.pricing import GB, PRICE_PLANS
from repro.schemes import SINGLE_PROVIDERS

__all__ = ["SwitchingCost", "switching_cost_report", "single_cloud_exit_cost"]

#: the schemes priced, by their rows in
#: :func:`~repro.analysis.availability.standard_placements`
_PRICED = (*(f"single-{p}" for p in SINGLE_PROVIDERS), "duracloud", "racs", "hyrd")

#: share of the logical bytes each class holds where a scheme has two:
#: HyRD keeps 20 % of its capacity small and 80 % large (§II-B)
_CAPACITY_SHARE = {"hyrd": {"hyrd-small": 0.2, "hyrd-large": 0.8}}


@dataclass(frozen=True)
class SwitchingCost:
    """Cost of abandoning one provider under one scheme."""

    scheme: str
    departed: str
    bytes_read: float  # bytes fetched from surviving providers
    read_from: tuple[str, ...]
    egress_cost: float  # dollars at Table II data-out prices

    @property
    def cost_per_logical_gb(self) -> float:
        return self.egress_cost  # report is normalised to 1 logical GB


def _egress(provider: str, nbytes: float) -> float:
    return PRICE_PLANS[provider].data_out_cost(nbytes)


def single_cloud_exit_cost(provider: str, logical_bytes: float = GB) -> float:
    """Leaving a single cloud: every byte pays that provider's egress."""
    return _egress(provider, logical_bytes)


def _departure(
    scheme: str, departed: str, classes: list[tuple[SchemePlacement, float]]
) -> SwitchingCost:
    """What rebuilding ``departed``'s share of every class it holds reads."""
    bytes_read, cost = 0, 0.0
    sources: dict[str, None] = {}  # providers read, in first-read order
    for placement, class_bytes in classes:
        if departed not in placement.providers:
            continue
        survivors = [p for p in placement.providers if p != departed]
        if placement.k == 1:  # the first survivor's replica, else the one copy
            read, per_source = survivors[:1] or [departed], class_bytes
        else:
            read, per_source = survivors[: placement.k], class_bytes / placement.k
        bytes_read += class_bytes
        for source in read:
            cost += _egress(source, per_source)
            sources[source] = None
    return SwitchingCost(scheme, departed, bytes_read, tuple(sources), cost)


def switching_cost_report(logical_bytes: float = GB) -> list[SwitchingCost]:
    """Per-scheme, per-provider switching costs for one logical GB.

    Each scheme's classes are read off the scheme
    (:func:`~repro.analysis.availability.standard_placements`), and leaving
    a provider rebuilds its share of every class it holds (destination
    ingress is free everywhere):

    - a one-copy class (a single cloud) is read out of the departed
      provider itself;
    - a replicated class (DuraCloud, HyRD's small class) is re-seeded from
      its first survivor in placement order;
    - a coded class (RACS's RAID5 k=3, HyRD's large RAID5 k=2) reads
      ``class_bytes / k`` from each of k survivors.
    """
    table = standard_placements()
    out: list[SwitchingCost] = []
    for scheme in _PRICED:
        shares = _CAPACITY_SHARE.get(scheme, {scheme: 1})
        classes = [(table[row], share * logical_bytes) for row, share in shares.items()]
        for departed in SINGLE_PROVIDERS:
            if any(departed in placement.providers for placement, _ in classes):
                out.append(_departure(scheme, departed, classes))
    return out
