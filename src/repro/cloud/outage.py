"""Cloud service outage windows and schedules.

The paper distinguishes an *outage* from a disk failure: the provider is
unreachable for hours-to-days and then **returns with its data intact** (but
stale).  An :class:`OutageSchedule` is therefore just a set of time windows;
the recovery machinery in :mod:`repro.core.recovery` handles degraded reads
during a window and consistency updates at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OutageWindow", "OutageSchedule"]


@dataclass(frozen=True)
class OutageWindow:
    """Half-open unavailability interval ``[start, end)``; end may be inf."""

    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"end must be > start, got [{self.start}, {self.end})")

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


class OutageSchedule:
    """An ordered, non-overlapping set of outage windows for one provider."""

    def __init__(self, windows: list[OutageWindow] | None = None) -> None:
        self._windows: list[OutageWindow] = []
        for w in windows or []:
            self.add(w)

    def add(self, window: OutageWindow) -> None:
        for existing in self._windows:
            if window.start < existing.end and existing.start < window.end:
                raise ValueError(
                    f"outage window [{window.start}, {window.end}) overlaps "
                    f"[{existing.start}, {existing.end})"
                )
        self._windows.append(window)
        self._windows.sort(key=lambda w: w.start)

    @property
    def windows(self) -> tuple[OutageWindow, ...]:
        return tuple(self._windows)

    def is_out(self, t: float) -> bool:
        """True when the provider is unavailable at simulated time ``t``."""
        for w in self._windows:
            if w.covers(t):
                return True
        return False

    def next_return(self, t: float) -> float | None:
        """End of the window covering ``t`` (None when the provider is up)."""
        for w in self._windows:
            if w.covers(t):
                return w.end if math.isfinite(w.end) else None
        return None

    def next_outage_after(self, t: float) -> float | None:
        """Start of the first window strictly after ``t`` (None if none)."""
        for w in self._windows:
            if w.start > t:
                return w.start
        return None

    def total_downtime(self, horizon: float) -> float:
        """Seconds of unavailability in ``[0, horizon)``."""
        return sum(
            max(0.0, min(w.end, horizon) - min(w.start, horizon))
            for w in self._windows
        )

    @classmethod
    def poisson(
        cls,
        rng: np.random.Generator,
        horizon: float,
        mtbf: float,
        mttr: float,
    ) -> "OutageSchedule":
        """Random schedule: exponential time-between-failures and repair times.

        Mirrors the availability analyses the paper cites (outages are rare
        but last hours to days): e.g. ``mtbf=90 days, mttr=8 hours``.
        """
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be > 0")
        schedule = cls()
        t = float(rng.exponential(mtbf))
        while t < horizon:
            duration = float(rng.exponential(mttr))
            schedule.add(OutageWindow(t, t + duration))
            t = t + duration + float(rng.exponential(mtbf))
        return schedule
