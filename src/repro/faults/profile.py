"""Composable, seeded, sim-clock-driven fault profiles.

Every :class:`~repro.cloud.provider.SimulatedProvider` owns one
:class:`FaultProfile`, and that profile is its only source of misbehaviour:
outage windows (the paper's §III-C outage: unreachable, then back with its
data intact), transient-error bursts (HTTP 500s and throttling; a constant
rate is a burst over ``[0, inf)``), latency *brownouts* (the provider
answers, slowly), flapping outages and silent corruption.  The provider
consults one pipeline (:meth:`FaultProfile.is_out`,
:meth:`FaultProfile.extra_fault_rate`, :meth:`FaultProfile.latency_factors`,
:meth:`FaultProfile.maybe_corrupt`) so schemes never need to know which
effect fired.

Every effect is a frozen dataclass over *sim-time* windows, and every random
decision draws from a stream derived from the root seed — the same seed and
the same operation sequence reproduce the same faults, which is what makes
the resilience tests and benches assertable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.rng import make_rng

__all__ = [
    "FaultEffect",
    "OutageWindow",
    "TransientErrorBurst",
    "LatencyBrownout",
    "FlappingOutage",
    "SilentCorruption",
    "FaultProfile",
    "flip_byte",
]


@dataclass(frozen=True)
class FaultEffect:
    """Base class: one provider misbehaviour over a half-open time window."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"end must be > start, got [{self.start}, {self.end})")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end

    # Effect hooks; subclasses override the ones they implement. ------------
    def extra_fault_rate(self, t: float) -> float:
        """Additional per-request transient-failure probability at ``t``."""
        return 0.0

    def is_out(self, t: float) -> bool:
        """True when the effect makes the provider unreachable at ``t``."""
        return False

    def latency_factors(self, t: float) -> tuple[float, float]:
        """(rtt multiplier, bandwidth multiplier) contributed at ``t``."""
        return (1.0, 1.0)

    def corruption_rate(self, t: float) -> float:
        """Probability that a Get at ``t`` returns silently corrupted bytes."""
        return 0.0

    def downtime_windows(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Half-open ``[start, end)`` intervals in ``[t0, t1)`` where
        :meth:`is_out` is true — the ground truth the SLO tracker's observed
        MTBF/MTTR is checked against.

        The default derives the answer from :meth:`is_out` itself: an effect
        that overrides ``is_out`` is down for its whole active window (so new
        down-taking effects contribute truth without extra code), while
        effects that never take the provider down contribute nothing.  An
        effect whose ``is_out`` has a *duty cycle* inside the window must
        override this with the precise sub-intervals (FlappingOutage does).
        """
        if type(self).is_out is FaultEffect.is_out:
            return []
        lo, hi = max(t0, self.start), min(t1, self.end)
        return [(lo, hi)] if hi > lo else []


@dataclass(frozen=True)
class OutageWindow(FaultEffect):
    """The provider is unreachable over ``[start, end)``; ``end`` may be inf.

    This is the paper's outage (the provider returns with its data intact
    but stale) and equally a network partition: from the client's seat the
    two are indistinguishable, every request fails.  Its whole window is
    ``downtime_windows`` ground truth (via the base-class default).
    """

    end: float = math.inf

    def is_out(self, t: float) -> bool:
        return self.active(t)


@dataclass(frozen=True)
class TransientErrorBurst(FaultEffect):
    """A window where individual requests fail (HTTP 500s, throttling) at
    ``rate``; ``TransientErrorBurst(0, inf, rate)`` is a constant rate."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")

    def extra_fault_rate(self, t: float) -> float:
        return self.rate if self.active(t) else 0.0


@dataclass(frozen=True)
class LatencyBrownout(FaultEffect):
    """The provider stays up but slows down: RTT and bandwidth degrade.

    ``rtt_factor`` multiplies the request round trip; ``bw_factor``
    multiplies sustained throughput (use < 1.0 to shrink it).  This is the
    degradation mode the binary outage model cannot express, and the one the
    health tracker exists to catch.
    """

    rtt_factor: float = 1.0
    bw_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rtt_factor < 1.0:
            raise ValueError(f"rtt_factor must be >= 1, got {self.rtt_factor}")
        if not (0.0 < self.bw_factor <= 1.0):
            raise ValueError(f"bw_factor must be in (0, 1], got {self.bw_factor}")

    def latency_factors(self, t: float) -> tuple[float, float]:
        if not self.active(t):
            return (1.0, 1.0)
        return (self.rtt_factor, self.bw_factor)


@dataclass(frozen=True)
class FlappingOutage(FaultEffect):
    """The provider goes up and down on a deterministic duty cycle.

    Within ``[start, end)`` the provider is *down* for the first
    ``downtime`` seconds of every ``period``-second cycle.  Flapping is what
    stresses a circuit breaker's half-open logic: a plain outage window trips
    it once, a flapper trips it repeatedly.
    """

    period: float = 60.0
    downtime: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not (0.0 < self.downtime < self.period):
            raise ValueError(
                f"downtime must be in (0, period), got {self.downtime}"
            )

    def is_out(self, t: float) -> bool:
        if not self.active(t):
            return False
        return (t - self.start) % self.period < self.downtime

    def downtime_windows(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo, hi = max(t0, self.start), min(t1, self.end)
        if hi <= lo:
            return []
        windows: list[tuple[float, float]] = []
        # First cycle whose down phase could intersect [lo, hi).
        k = int((lo - self.start) // self.period)
        while True:
            down_start = self.start + k * self.period
            if down_start >= hi:
                break
            down_end = min(down_start + self.downtime, self.end)
            a, b = max(down_start, lo), min(down_end, hi)
            if b > a:
                windows.append((a, b))
            k += 1
        return windows


@dataclass(frozen=True)
class SilentCorruption(FaultEffect):
    """A window where Gets return bit-flipped payloads at ``rate``.

    The provider reports success; only end-to-end verification (the
    per-fragment digests, HAIL-style) can catch it.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def corruption_rate(self, t: float) -> float:
        return self.rate if self.active(t) else 0.0


class FaultProfile:
    """A provider's scripted misbehaviour: an ordered list of effects.

    One profile belongs to one provider (every provider owns one, empty by
    default, and effects are added to it); :meth:`bind` derives its RNG stream
    from ``(seed, "fault-profile", provider_name)`` so two providers given
    structurally identical profiles still fail independently.
    """

    def __init__(self, effects: list[FaultEffect] | None = None, seed: int = 0) -> None:
        self.effects: list[FaultEffect] = list(effects or [])
        self.seed = seed
        self.provider_name = "unbound"
        #: corruption draws, derived on first use: every provider owns a
        #: profile, and most never corrupt, so most never seed a generator
        self._rng: np.random.Generator | None = None
        #: optional ground-truth sink (:class:`repro.faults.ledger.CorruptionLedger`);
        #: when set, every corrupted Get is recorded as a ``served-corrupt`` event.
        self.ledger = None

    def bind(self, provider_name: str) -> "FaultProfile":
        """Attach the profile to a provider (re-keys the RNG stream)."""
        self._rng = None
        self.provider_name = provider_name
        return self

    def attach_ledger(self, ledger) -> "FaultProfile":
        """Record every corruption this profile inflicts into ``ledger``."""
        self.ledger = ledger
        return self

    def add(self, effect: FaultEffect) -> "FaultProfile":
        self.effects.append(effect)
        return self

    # ------------------------------------------------------ unified pipeline
    def is_out(self, t: float) -> bool:
        for e in self.effects:
            if e.is_out(t):
                return True
        return False

    def extra_fault_rate(self, t: float) -> float:
        """Combined transient-failure probability from every active effect.

        Independent failure sources compose as ``1 - prod(1 - r_i)``.
        """
        ok = 1.0
        for e in self.effects:
            ok *= 1.0 - e.extra_fault_rate(t)
        return 1.0 - ok

    def latency_factors(self, t: float) -> tuple[float, float]:
        """(rtt multiplier, bandwidth multiplier), compounded across effects."""
        rtt_f, bw_f = 1.0, 1.0
        for e in self.effects:
            r, b = e.latency_factors(t)
            rtt_f *= r
            bw_f *= b
        return rtt_f, bw_f

    def corruption_rate(self, t: float) -> float:
        ok = 1.0
        for e in self.effects:
            ok *= 1.0 - e.corruption_rate(t)
        return 1.0 - ok

    def downtime_windows(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Merged ``[start, end)`` intervals in ``[t0, t1)`` where any effect
        takes the provider down (union across effects, overlaps coalesced)."""
        raw = sorted(
            w for e in self.effects for w in e.downtime_windows(t0, t1)
        )
        merged: list[tuple[float, float]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return merged

    def maybe_corrupt(
        self, data: bytes, t: float, where: tuple[str, str] | None = None
    ) -> bytes:
        """Possibly bit-flip ``data`` for a Get at ``t`` (never in place).

        ``where`` is the (container, key) being served; when a ledger is
        attached (:meth:`attach_ledger`) and the draw corrupts, the event is
        recorded so detection can be scored against ground truth.
        """
        rate = self.corruption_rate(t)
        if rate <= 0.0 or not data:
            return data
        rng = self._rng
        if rng is None:
            rng = self._rng = make_rng(self.seed, "fault-profile", self.provider_name)
        if rng.random() >= rate:
            return data
        corrupted = flip_byte(data, rng)
        if self.ledger is not None and where is not None:
            from repro.faults.ledger import DamageEvent

            self.ledger.record(
                DamageEvent(self.provider_name, where[0], where[1], "served-corrupt", t)
            )
        return corrupted

    def __bool__(self) -> bool:
        return bool(self.effects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = [type(e).__name__ for e in self.effects]
        return f"FaultProfile({kinds})"


def flip_byte(data: bytes, rng: np.random.Generator) -> bytes:
    """A copy of ``data`` with one byte XORed by a non-zero mask; two draws
    from ``rng`` (the position, then the mask)."""
    corrupted = bytearray(data)
    pos = int(rng.integers(0, len(corrupted)))
    corrupted[pos] ^= 1 + int(rng.integers(0, 255))
    return bytes(corrupted)
