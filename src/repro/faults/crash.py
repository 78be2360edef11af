"""Scripted client-crash injection.

The schemes are client-side middleware, so the client itself is a single
point of failure the paper's provider-outage model never covers: a process
that dies between two cloud requests of one scheme operation leaves torn
stripes, orphaned fragments and a namespace that was never published.  This
module gives that failure mode a deterministic vocabulary:

- a *step* is one :class:`~repro.schemes.base.CloudOp` processed by the
  scheme engine's phase executor (``Scheme._issue``) — the finest grain
  at which a real client can die between externally visible effects;
- a :class:`CrashPoint` names one step by its 1-based ordinal in the
  client's lifetime stream of cloud requests;
- a :class:`CrashSchedule` holds a sorted set of crash points and a
  monotone op counter.  Installed on a scheme
  (``scheme.install_crash_schedule``), the engine ticks the counter once
  per step and raises :class:`ClientCrash` *before* applying the scheduled
  step — everything before it happened, the step itself and everything
  after it did not.

Determinism: the schedule is pure counting — no RNG, no clock access — so
the same seed-derived ordinals kill the client at the same instruction
every run, which is what lets the chaos engine replay an episode
byte-for-byte and lets the property tests enumerate *every* crash point of
a write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["ClientCrash", "CrashPoint", "CrashSchedule"]


class ClientCrash(Exception):
    """The simulated client process died between two cloud requests.

    Raised by the scheme engine when an installed :class:`CrashSchedule`
    fires.  It is *not* a :class:`~repro.cloud.errors.CloudError`: no retry
    loop or degraded path may swallow it — the exception unwinds the whole
    operation, exactly like a SIGKILL unwinds a process.  Whoever drives the
    scheme (the chaos engine, a test) catches it, discards the dead client
    and builds a fresh one over the same providers.
    """

    def __init__(self, at_op: int, provider: str = "", kind: str = "") -> None:
        self.at_op = at_op
        self.provider = provider
        self.kind = kind
        where = f" (next step: {kind} @ {provider})" if provider else ""
        super().__init__(f"client crashed at cloud-op #{at_op}{where}")


@dataclass(frozen=True)
class CrashPoint:
    """Kill the client immediately before its ``at_op``-th cloud request."""

    at_op: int

    def __post_init__(self) -> None:
        if self.at_op < 1:
            raise ValueError(f"at_op must be >= 1, got {self.at_op}")


class CrashSchedule:
    """A deterministic kill list over the client's cloud-request stream.

    The counter is *owned by the schedule*, not the scheme: carrying the
    same schedule object across a client rebuild continues the count where
    the dead client left off, so one schedule can script several crashes
    into one episode.  Recovery code runs with the schedule disarmed
    (``scheme.install_crash_schedule(None)``) — a recovering client that
    kept dying at the same ordinal could never make progress.
    """

    def __init__(self, points: Iterable[int | CrashPoint] = ()) -> None:
        ordinals = sorted(
            {p.at_op if isinstance(p, CrashPoint) else int(p) for p in points}
        )
        for o in ordinals:
            if o < 1:
                raise ValueError(f"crash ordinals must be >= 1, got {o}")
        self._pending: list[int] = ordinals
        self._next = 0  # index into _pending
        #: cloud-op steps ticked so far (across client rebuilds)
        self.ops_seen = 0
        #: ordinals at which a crash actually fired
        self.fired: list[int] = []

    @property
    def pending(self) -> tuple[int, ...]:
        """Crash ordinals not yet reached."""
        return tuple(self._pending[self._next:])

    def tick(self) -> bool:
        """Count one engine step; True when this step is a scheduled kill."""
        self.ops_seen += 1
        hit = False
        while (
            self._next < len(self._pending)
            and self._pending[self._next] <= self.ops_seen
        ):
            self._next += 1
            hit = True
        if hit:
            self.fired.append(self.ops_seen)
        return hit

    def exhausted(self) -> bool:
        return self._next >= len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrashSchedule(ops_seen={self.ops_seen}, fired={self.fired}, "
            f"pending={list(self.pending)})"
        )
