"""Scripted fault scenarios: named storms applied to a provider fleet.

A :class:`FaultScenario` maps provider names to :class:`FaultProfile`s and
installs them with one call, so an experiment reads as a script::

    scenario = make_fault_storm(t0=10.0, duration=600.0, seed=7)
    scenario.apply(providers)

:func:`make_fault_storm` builds the canonical mixed-mode storm used by the
resilience bench and acceptance tests: a latency brownout on the fastest
performance provider, a transient-error burst plus throttling on a second,
and a flapping outage on a third — all at once, which is exactly the regime
where fixed-count immediate retries fall over.  :func:`poisson_outages`
draws independent MTBF/MTTR outage processes, the availability analysis's
Monte-Carlo schedule, as a scenario the real schemes can run under.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.profile import (
    FaultProfile,
    FlappingOutage,
    LatencyBrownout,
    OutageWindow,
    SilentCorruption,
    TransientErrorBurst,
)
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (provider imports us)
    from repro.cloud.provider import SimulatedProvider

__all__ = ["FaultScenario", "make_fault_storm", "poisson_outages"]


class FaultScenario:
    """A named set of per-provider fault profiles."""

    def __init__(self, name: str, profiles: dict[str, FaultProfile]) -> None:
        self.name = name
        self.profiles = dict(profiles)

    def apply(self, providers: dict[str, SimulatedProvider]) -> None:
        """Install every profile onto its provider, replacing the one it had
        (unknown names raise)."""
        for pname, profile in self.profiles.items():
            if pname not in providers:
                raise KeyError(f"scenario {self.name!r}: no provider {pname!r}")
            providers[pname].faults = profile.bind(pname)

    def clear(self, providers: dict[str, SimulatedProvider]) -> None:
        """Remove the scenario's profiles (providers return to clean)."""
        for pname in self.profiles:
            if pname in providers:
                providers[pname].faults = FaultProfile().bind(pname)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultScenario({self.name!r}, providers={sorted(self.profiles)})"


def make_fault_storm(
    t0: float = 0.0,
    duration: float = 3600.0,
    seed: int = 0,
    brownout_provider: str = "aliyun",
    burst_provider: str = "azure",
    flapping_provider: str = "rackspace",
    corruption_provider: str | None = None,
) -> FaultScenario:
    """The canonical three-front storm over the Table II fleet.

    - ``brownout_provider`` answers 6x slower (RTT) at a third of its
      bandwidth — up, but degraded enough that a health tracker should
      demote it from the performance class;
    - ``burst_provider`` bounces 35% of requests (500s) and throttles
      another 15% — retries with backoff ride it out;
    - ``flapping_provider`` cycles 40 s down / 80 s up — the circuit-breaker
      stress case;
    - optionally ``corruption_provider`` silently corrupts 20% of Gets —
      digest verification must route around it.
    """
    end = t0 + duration
    profiles = {
        brownout_provider: FaultProfile(
            [LatencyBrownout(t0, end, rtt_factor=6.0, bw_factor=0.33)], seed=seed
        ),
        burst_provider: FaultProfile(
            [
                TransientErrorBurst(t0, end, rate=0.35),
                TransientErrorBurst(t0, end, rate=0.15),  # throttling
            ],
            seed=seed,
        ),
        flapping_provider: FaultProfile(
            [FlappingOutage(t0, end, period=120.0, downtime=40.0)], seed=seed
        ),
    }
    if corruption_provider is not None:
        profiles[corruption_provider] = FaultProfile(
            [SilentCorruption(t0, end, rate=0.2)], seed=seed
        )
    return FaultScenario("fault-storm", profiles)


def poisson_outages(
    providers: tuple[str, ...],
    horizon: float,
    mtbf: float,
    mttr: float,
    seed: int = 0,
) -> FaultScenario:
    """Independent Poisson outage processes, one profile per provider.

    Each provider's windows draw from ``make_rng(seed, "availability",
    name)``: exponential time-between-failures (mean ``mtbf``) alternating
    with exponential repair times (mean ``mttr``) until ``horizon`` — the
    availability analyses the paper cites (outages are rare but last hours
    to days), e.g. ``mtbf=90 days, mttr=8 hours``.
    """
    if mtbf <= 0 or mttr <= 0:
        raise ValueError("mtbf and mttr must be > 0")
    profiles: dict[str, FaultProfile] = {}
    for name in providers:
        rng = make_rng(seed, "availability", name)
        windows = []
        t = float(rng.exponential(mtbf))
        while t < horizon:
            duration = float(rng.exponential(mttr))
            windows.append(OutageWindow(t, t + duration))
            t = t + duration + float(rng.exponential(mtbf))
        profiles[name] = FaultProfile(windows, seed=seed)
    return FaultScenario("poisson-outages", profiles)
