"""Ground-truth damage ledger: what the fault layer *actually* injected.

The scrubber's claim is "I detect silent damage before a client read does".
That claim is only testable against ground truth, so every injection helper
here records a :class:`DamageEvent` into a :class:`CorruptionLedger`, and the
maintenance benchmarks score detection as ``found ∩ injected`` — the
acceptance bar is 100% of persistent damage detected, zero false positives
on clean providers.

Two families of damage:

- **Persistent** (this module's injectors): :func:`inject_bit_rot` flips a
  byte of the *stored* object via :meth:`ObjectStore.tamper
  <repro.cloud.objectstore.ObjectStore.tamper>` (optionally truncating
  instead), :func:`inject_loss` makes the stored object vanish.  Neither
  bumps versions nor leaves a metering trail — only end-to-end digest
  verification can see them.
- **Transient** (:class:`~repro.faults.profile.SilentCorruption`): per-Get
  corruption of the returned copy.  When a profile carries a ledger
  (:meth:`FaultProfile.attach_ledger
  <repro.faults.profile.FaultProfile.attach_ledger>`), each corrupted Get is
  recorded as a ``served-corrupt`` event with the key it hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.faults.profile import flip_byte
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import SimulatedProvider

__all__ = [
    "DamageEvent",
    "CorruptionLedger",
    "inject_bit_rot",
    "inject_loss",
]

#: Damage kinds that persist in the store (vs corrupting one served copy).
PERSISTENT_KINDS = frozenset({"corrupt", "truncated", "lost"})


@dataclass(frozen=True)
class DamageEvent:
    """One injected damage: where, what kind, when."""

    provider: str
    container: str
    key: str
    kind: str  # "corrupt" | "truncated" | "lost" | "served-corrupt"
    injected_at: float

    @property
    def site(self) -> tuple[str, str, str]:
        """(provider, container, key) — the unit detection is scored at."""
        return (self.provider, self.container, self.key)


class CorruptionLedger:
    """Append-only record of injected damage, queryable by kind and site."""

    def __init__(self) -> None:
        self._events: list[DamageEvent] = []

    def record(self, event: DamageEvent) -> None:
        self._events.append(event)

    def events(self, kind: str | None = None) -> list[DamageEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def sites(self, *, persistent_only: bool = True) -> set[tuple[str, str, str]]:
        """Distinct damaged (provider, container, key) triples.

        ``persistent_only`` (the default) excludes ``served-corrupt`` events:
        a corrupted served copy leaves the stored object intact, so a scrub
        pass has nothing persistent to find there.
        """
        return {
            e.site
            for e in self._events
            if not persistent_only or e.kind in PERSISTENT_KINDS
        }

    def score_detection(
        self, found: Iterable[tuple[str, str, str]]
    ) -> dict[str, object]:
        """Score a scrub pass against the injected ground truth.

        ``found`` is the set of (provider, container, key) sites the scrubber
        flagged.  Returns ``injected`` / ``detected`` / ``missed`` counts,
        the missed sites themselves, and ``rate`` (1.0 when nothing was
        injected — an empty claim is vacuously complete).
        """
        truth = self.sites()
        found_set = set(found)
        detected = truth & found_set
        missed = truth - found_set
        rate = 1.0 if not truth else len(detected) / len(truth)
        return {
            "injected": len(truth),
            "detected": len(detected),
            "missed": sorted(missed),
            "rate": rate,
        }

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)


def inject_bit_rot(
    provider: "SimulatedProvider",
    container: str,
    keys: Iterable[str],
    *,
    seed: int = 0,
    ledger: CorruptionLedger | None = None,
    now: float = 0.0,
    truncate: bool = False,
) -> list[DamageEvent]:
    """Persistently corrupt stored objects (one flipped byte each).

    With ``truncate=True`` the object is cut to half its length instead —
    the other persistent-corruption shape a digest audit must catch.  The
    RNG stream derives from ``(seed, "bit-rot", provider)`` so the same seed
    damages the same byte positions.  Empty objects are skipped (there is
    nothing to flip).  Returns the events (also recorded into ``ledger``).
    """
    rng = make_rng(seed, "bit-rot", provider.name)
    events: list[DamageEvent] = []
    for key in keys:
        data = bytes(provider.store.get(container, key).data)
        if not data:
            continue
        if truncate:
            damaged = data[: max(1, len(data) // 2)]
            if damaged == data:  # 1-byte objects cannot shrink; flip instead
                damaged, kind = flip_byte(data, rng), "corrupt"
            else:
                kind = "truncated"
        else:
            damaged, kind = flip_byte(data, rng), "corrupt"
        provider.store.tamper(container, key, damaged)
        event = DamageEvent(provider.name, container, key, kind, now)
        events.append(event)
        if ledger is not None:
            ledger.record(event)
    return events


def inject_loss(
    provider: "SimulatedProvider",
    container: str,
    keys: Iterable[str],
    *,
    ledger: CorruptionLedger | None = None,
    now: float = 0.0,
) -> list[DamageEvent]:
    """Silently delete stored objects (lost-fragment injection)."""
    events: list[DamageEvent] = []
    for key in keys:
        provider.store.vanish(container, key)
        event = DamageEvent(provider.name, container, key, "lost", now)
        events.append(event)
        if ledger is not None:
            ledger.record(event)
    return events
