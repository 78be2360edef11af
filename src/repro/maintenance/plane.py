"""The maintenance plane: one background control loop, three engines.

:class:`MaintenancePlane` ties the anti-entropy scrubber, the budgeted
repair scheduler and the live migration engine to a recurring tick on a
:class:`~repro.sim.events.EventLoop` sharing the scheme's clock.  Each tick:

1. *Targeted* scrub of providers whose circuit breaker just closed after an
   open spell — the paths placed there are the ones an outage may have left
   damaged or write-logged, so they are audited first, without waiting for
   the full namespace walk to come around.
2. A scrub of the whole namespace.
3. Damaged audits feed the repair priority queue (most-at-risk first);
   the queue drains under the token-bucket bandwidth budget.
4. One bounded slice of the live migration queue, same budget.
5. Durability-risk gauges are republished: how many objects currently sit
   below full redundancy, and their accumulated exposure seconds.

Attachment is strictly opt-in (``scheme.attach_maintenance()``) and the
detached default is zero-cost: no foreground code path consults the plane,
draws RNG for it, or moves the clock on its behalf.  ``stop()`` unhooks
everything, including the plane's breaker listeners (and only those: the
SLO tracker's stay, whichever was attached first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.events import EventLoop, RecurringEvent

from repro.maintenance.budget import TokenBucket
from repro.maintenance.gc import OrphanSweeper
from repro.maintenance.migration import LiveMigrationEngine
from repro.maintenance.repair import ProactiveRepairScheduler
from repro.maintenance.scrubber import AntiEntropyScrubber

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.ledger import CorruptionLedger
    from repro.schemes.base import ObjectAudit, Scheme

__all__ = ["MaintenanceConfig", "MaintenancePlane"]

#: orphaned keys garbage-collected per tick (crash-recovery hygiene)
_GC_KEYS_PER_CYCLE = 16


@dataclass(frozen=True)
class MaintenanceConfig:
    """Knobs for the background plane; defaults suit the benchmark fleets."""

    #: sim seconds between maintenance ticks
    scrub_interval: float = 600.0
    #: repair/migration byte budget per sim second (None = unthrottled)
    repair_rate_bytes_per_s: float | None = None
    #: token-bucket burst capacity in bytes
    repair_burst_bytes: float = 64 * 1024 * 1024
    #: live-migration keys re-placed per tick
    migration_keys_per_cycle: int = 4

    def __post_init__(self) -> None:
        if self.scrub_interval <= 0:
            raise ValueError(
                f"scrub_interval must be > 0, got {self.scrub_interval}"
            )


class MaintenancePlane:
    """Background scrub/repair/migration loop attached to one scheme."""

    def __init__(
        self,
        scheme: "Scheme",
        config: MaintenanceConfig | None = None,
        *,
        loop: EventLoop | None = None,
        ledger: "CorruptionLedger | None" = None,
    ) -> None:
        self.scheme = scheme
        self.config = config if config is not None else MaintenanceConfig()
        self.loop = loop if loop is not None else EventLoop(scheme.clock)
        if self.loop.clock is not scheme.clock:
            raise ValueError("maintenance loop must share the scheme's clock")
        self.ledger = ledger
        self.budget = TokenBucket(
            self.config.repair_rate_bytes_per_s,
            self.config.repair_burst_bytes,
            scheme.clock,
        )
        self.scrubber = AntiEntropyScrubber(scheme)
        self.repair = ProactiveRepairScheduler(scheme, self.budget)
        self.orphans = OrphanSweeper(scheme, self.budget)
        self.migration = LiveMigrationEngine(
            scheme,
            self.budget,
            keys_per_cycle=self.config.migration_keys_per_cycle,
        )
        if ledger is not None:
            for provider in scheme.api.providers():
                provider.faults.attach_ledger(ledger)
        self._timer: RecurringEvent | None = None
        self.ticks = 0
        #: providers currently in an open-breaker spell
        self._opened: set[str] = set()
        #: providers whose breaker closed since the last tick (outage edges)
        self._suspects: set[str] = set()
        #: path -> sim time it was first seen below full redundancy
        self._risk_since: dict[str, float] = {}

    # ------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return self._timer is not None and self._timer.active

    def start(self) -> None:
        """Hook breaker edges and begin the recurring tick schedule."""
        if self.running:
            return
        for breaker in self.scheme._breakers.values():
            breaker.listeners.append(self._on_breaker_transition)
        self._timer = self.loop.schedule_every(
            self.config.scrub_interval, self._on_tick
        )

    def stop(self) -> None:
        """Cancel the schedule and unhook the plane's breaker listeners."""
        if self._timer is None:
            return
        self._timer.cancel()
        self._timer = None
        for breaker in self.scheme._breakers.values():
            breaker.listeners.remove(self._on_breaker_transition)

    def _on_breaker_transition(self, provider: str, state: str, now: float) -> None:
        if state == "open":
            self._opened.add(provider)
        elif state == "closed" and provider in self._opened:
            self._opened.discard(provider)
            self._suspects.add(provider)

    # ------------------------------------------------------------------ ticks
    def _on_tick(self) -> None:
        # A tick can only fire mid-op if someone calls pump() from inside a
        # scheme operation; verify/repair are public ops themselves, so defer.
        if self.scheme._current is not None:
            return
        self.run_cycle()

    def run_cycle(self) -> list["ObjectAudit"]:
        """One full maintenance pass; returns the audits it took."""
        self.ticks += 1
        audits = []
        suspects = sorted(self._suspects)
        self._suspects.clear()
        if suspects:
            targeted: list[str] = []
            seen: set[str] = set()
            for provider in suspects:
                for path in self.scheme.placements_on(provider):
                    if path not in seen:
                        seen.add(path)
                        targeted.append(path)
            audits.extend(self.scrubber.audit_paths(targeted))
        audits.extend(self.scrubber.run_cycle())
        now = self.scheme.clock.now
        for audit in audits:
            if audit.ok:
                self._risk_since.pop(audit.path, None)
            else:
                self._risk_since.setdefault(audit.path, now)
                self.repair.enqueue_audit(audit)
        for result in self.repair.run_cycle():
            if result.complete:
                self._risk_since.pop(result.path, None)
        self.migration.run_cycle()
        # Orphan hygiene last: repairs outrank deletions for the shared
        # budget (redundancy first, housekeeping second).
        self.orphans.run_cycle(max_keys=_GC_KEYS_PER_CYCLE)
        self._publish_risk()
        return audits

    def _publish_risk(self) -> None:
        now = self.scheme.clock.now
        registry = self.scheme.registry
        registry.gauge("slo_stripes_at_risk").set(len(self._risk_since))
        registry.gauge("slo_durability_risk_seconds").set(
            sum(now - t0 for t0 in self._risk_since.values())
        )

    # ------------------------------------------------------------ scheduling
    def pump(self) -> None:
        """Fire maintenance ticks that came due; never advances the clock.

        Call between foreground operations: foreground traffic moves the
        shared clock, and any tick whose deadline it passed fires now.
        """
        self.loop.run_until(self.scheme.clock.now)

    def run_idle(self, until: float) -> None:
        """Advance the world to ``until`` with only maintenance running."""
        self.loop.run_until(until)

    # --------------------------------------------------------------- queries
    def detection_score(self) -> dict[str, float]:
        """Scrub findings scored against the fault ledger's ground truth."""
        if self.ledger is None:
            raise RuntimeError("no fault ledger attached to this plane")
        return self.ledger.score_detection(self.scrubber.found_sites)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"MaintenancePlane({state}, ticks={self.ticks}, "
            f"repair_queue={len(self.repair)}, migration_queue={len(self.migration)})"
        )
