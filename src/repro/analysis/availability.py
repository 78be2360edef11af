"""Storage availability analysis — the paper's titular claim, quantified.

The paper argues Cloud-of-Clouds redundancy "improves storage availability"
but reports no availability numbers; this module supplies them two ways and
checks one against the other:

- **Analytic**: given each provider's steady-state availability
  ``a_i = MTBF / (MTBF + MTTR)``, a redundancy scheme's read availability is
  the probability that enough of its placement set is up — any replica for
  replication, any k of n for an (n, k) erasure code.  Computed exactly by
  enumerating provider-state subsets (n = 4 here, so 16 terms).
- **Monte-Carlo**: draw Poisson outage windows per provider
  (:func:`repro.faults.scenario.poisson_outages`), then integrate over
  simulated time the fraction in which each scheme's data is readable.

Both read each scheme's placement set and read quorum off the scheme itself
(:func:`placement_of`), never off a table kept beside it.  HyRD stores two
classes with different placements, so its availability is reported per
class and combined (a file-weighted workload mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults.scenario import poisson_outages
from repro.schemes import SINGLE_PROVIDERS, build_scheme
from repro.schemes.base import Scheme, min_needed
from repro.sim.clock import SimClock

__all__ = [
    "SchemePlacement",
    "availability_of_placement",
    "analytic_report",
    "hyrd_combined",
    "monte_carlo_report",
    "nines",
    "placement_of",
    "standard_placements",
]

HOUR = 3600.0
DAY = 24 * HOUR

#: fraction of accesses hitting HyRD's replicated (small/metadata) class
_SMALL_WEIGHT = 0.8


@dataclass(frozen=True)
class SchemePlacement:
    """A placement pattern: data is readable when >= ``k`` of ``providers``
    are simultaneously available."""

    name: str
    providers: tuple[str, ...]
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= len(self.providers)):
            raise ValueError(
                f"need 1 <= k <= {len(self.providers)}, got k={self.k}"
            )


#: the rows of :func:`standard_placements`: each Table II cloud alone, then
#: every Cloud-of-Clouds configuration of §IV
_STANDARD_SCHEMES = (
    *SINGLE_PROVIDERS, "duracloud", "racs", "depsky", "depsky-ca", "nccloud", "hyrd"
)


def placement_of(scheme: Scheme) -> tuple[SchemePlacement, ...]:
    """Where ``scheme`` puts its bytes, read off the scheme itself.

    Puts one 4 KiB and one 4 MiB probe object, reads each one's placements
    (in placement order) and ``min_needed`` back off its
    :class:`~repro.fs.namespace.FileEntry`, and removes it again.  One row
    per distinct class: HyRD yields ``hyrd-small`` and ``hyrd-large``, every
    other scheme one row under its own name.
    """
    classes: dict[str, tuple[tuple[str, ...], int]] = {}
    for size in (4 << 10, 4 << 20):  # either side of HyRD's 1 MB small/large line
        path = f"/placement-probe-{size}"
        scheme.put(path, bytes(size))
        entry = scheme.namespace.get(path)
        classes.setdefault(entry.klass, (entry.providers, min_needed(scheme._codec_for(entry))))
        scheme.remove(path)
    suffixed = len(classes) > 1
    return tuple(
        SchemePlacement(f"{scheme.name}-{klass}" if suffixed else scheme.name, *row)
        for klass, row in classes.items()
    )


@cache
def standard_placements() -> Mapping[str, SchemePlacement]:
    """The placements of every §IV configuration on the Table II fleet, each
    read off a freshly built scheme (once per process: the inputs are
    constants)."""
    rows: dict[str, SchemePlacement] = {}
    for name in _STANDARD_SCHEMES:
        clock = SimClock()
        scheme = build_scheme(name, make_table2_cloud_of_clouds(clock), clock)
        rows.update((placement.name, placement) for placement in placement_of(scheme))
    return MappingProxyType(rows)


def availability_of_placement(
    placement: SchemePlacement, provider_availability: dict[str, float]
) -> float:
    """Exact k-of-n availability with heterogeneous provider availabilities.

    Sums over all survivor subsets of size >= k:
    ``P = sum_S prod_{i in S} a_i * prod_{j not in S} (1 - a_j)``.
    """
    avail = []
    for name in placement.providers:
        a = provider_availability[name]
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"availability of {name} must be in [0,1], got {a}")
        avail.append(a)
    n = len(avail)
    total = 0.0
    for up_count in range(placement.k, n + 1):
        for up_set in combinations(range(n), up_count):
            p = 1.0
            for i in range(n):
                p *= avail[i] if i in up_set else 1.0 - avail[i]
            total += p
    return total


def hyrd_combined(
    small: float, large: float, small_weight: float = _SMALL_WEIGHT
) -> float:
    """HyRD availability over a workload mix of its two classes, where
    ``small_weight`` of the accesses hit the replicated (small/metadata)
    class — the paper's workload studies put most accesses there."""
    return small_weight * small + (1.0 - small_weight) * large


def _report(availability: Callable[[SchemePlacement], float]) -> dict[str, float]:
    """``availability`` of every standard placement, plus HyRD's blend."""
    report = {name: availability(p) for name, p in standard_placements().items()}
    report["hyrd"] = hyrd_combined(report["hyrd-small"], report["hyrd-large"])
    return report


def nines(availability: float) -> float:
    """Availability expressed as 'number of nines' (-log10 of downtime)."""
    if availability >= 1.0:
        return float("inf")
    return float(-np.log10(1.0 - availability))


def analytic_report(
    provider_availability: dict[str, float] | None = None,
    mtbf: float = 60 * DAY,
    mttr: float = 12 * HOUR,
) -> dict[str, float]:
    """Availability of every §IV configuration.

    With no explicit per-provider numbers, every provider gets the same
    steady-state availability ``mtbf / (mtbf + mttr)`` (defaults: an outage
    every two months lasting half a day — the magnitude of the 2013-2014
    incidents §I recounts).
    """
    if provider_availability is None:
        a = mtbf / (mtbf + mttr)
        provider_availability = {name: a for name in SINGLE_PROVIDERS}
    return _report(lambda p: availability_of_placement(p, provider_availability))


def monte_carlo_report(
    seed: int = 0,
    horizon: float = 400 * DAY,
    mtbf: float = 60 * DAY,
    mttr: float = 12 * HOUR,
    resolution: float = HOUR,
) -> dict[str, float]:
    """Simulated availability: Poisson outages, time-sampled readability.

    Independent outage processes per provider; at each sample instant a
    scheme's data is readable iff >= k of its providers are up.  Converges
    to :func:`analytic_report` as horizon grows (tested).
    """
    scenario = poisson_outages(SINGLE_PROVIDERS, horizon, mtbf, mttr, seed)
    times = np.arange(0.0, horizon, resolution)
    up: dict[str, np.ndarray] = {}
    for name, profile in scenario.profiles.items():
        mask = np.ones(len(times), dtype=bool)
        for a, b in profile.downtime_windows(0.0, horizon):
            mask &= ~((times >= a) & (times < b))
        up[name] = mask
    return _report(
        lambda p: float((np.vstack([up[q] for q in p.providers]).sum(axis=0) >= p.k).mean())
    )
