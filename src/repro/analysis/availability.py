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

HyRD stores two classes with different placements, so its availability is
reported per class and combined (a file-weighted workload mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.faults.scenario import poisson_outages

__all__ = [
    "SchemePlacement",
    "availability_of_placement",
    "analytic_report",
    "monte_carlo_report",
    "nines",
    "STANDARD_PLACEMENTS",
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


#: The placements of every §IV configuration on the Table II fleet.
STANDARD_PLACEMENTS: dict[str, SchemePlacement] = {
    "single-amazon_s3": SchemePlacement("single-amazon_s3", ("amazon_s3",), 1),
    "single-azure": SchemePlacement("single-azure", ("azure",), 1),
    "single-aliyun": SchemePlacement("single-aliyun", ("aliyun",), 1),
    "single-rackspace": SchemePlacement("single-rackspace", ("rackspace",), 1),
    "duracloud": SchemePlacement("duracloud", ("amazon_s3", "azure"), 1),
    "racs": SchemePlacement(
        "racs", ("amazon_s3", "azure", "aliyun", "rackspace"), 3
    ),
    "depsky": SchemePlacement(
        "depsky", ("amazon_s3", "azure", "aliyun", "rackspace"), 1
    ),
    "depsky-ca": SchemePlacement(
        "depsky-ca", ("amazon_s3", "azure", "aliyun", "rackspace"), 2
    ),
    "nccloud": SchemePlacement(
        "nccloud", ("amazon_s3", "azure", "aliyun", "rackspace"), 2
    ),
    "hyrd-small": SchemePlacement("hyrd-small", ("aliyun", "azure"), 1),
    "hyrd-large": SchemePlacement(
        "hyrd-large", ("rackspace", "aliyun", "amazon_s3"), 2
    ),
}


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
    provider_availability: dict[str, float], small_weight: float = _SMALL_WEIGHT
) -> float:
    """HyRD availability over a workload mix.

    ``small_weight`` is the fraction of accesses hitting the replicated
    (small/metadata) class — the paper's workload studies put most accesses
    there.
    """
    small = availability_of_placement(
        STANDARD_PLACEMENTS["hyrd-small"], provider_availability
    )
    large = availability_of_placement(
        STANDARD_PLACEMENTS["hyrd-large"], provider_availability
    )
    return small_weight * small + (1.0 - small_weight) * large


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
        provider_availability = {
            name: a for name in ("amazon_s3", "azure", "aliyun", "rackspace")
        }
    report = {
        name: availability_of_placement(p, provider_availability)
        for name, p in STANDARD_PLACEMENTS.items()
    }
    report["hyrd"] = hyrd_combined(provider_availability)
    return report


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
    scenario = poisson_outages(
        ("amazon_s3", "azure", "aliyun", "rackspace"), horizon, mtbf, mttr, seed
    )
    times = np.arange(0.0, horizon, resolution)
    up: dict[str, np.ndarray] = {}
    for name, profile in scenario.profiles.items():
        mask = np.ones(len(times), dtype=bool)
        for a, b in profile.downtime_windows(0.0, horizon):
            mask &= ~((times >= a) & (times < b))
        up[name] = mask

    report: dict[str, float] = {}
    for name, placement in STANDARD_PLACEMENTS.items():
        stacked = np.vstack([up[p] for p in placement.providers])
        readable = stacked.sum(axis=0) >= placement.k
        report[name] = float(readable.mean())
    w = _SMALL_WEIGHT
    report["hyrd"] = w * report["hyrd-small"] + (1.0 - w) * report["hyrd-large"]
    return report
