"""Evaluator-driven live migration: re-stripe data the policy moved on.

HyRD's placement is a function of the cost/performance ranking (§III-B):
when :class:`~repro.core.evaluator.CostPerformanceEvaluator` re-ranks the
fleet — or the operator retires a provider — existing objects are suddenly
*misplaced*: their hot fragments sit on what is now a cold provider, or
worse, on one scheduled for decommission.  The original reproduction
migrated eagerly and synchronously, stalling the caller for the whole
namespace.  This engine makes migration a background workload instead:
a FIFO of misplaced paths drained a few keys per maintenance cycle under
the shared bandwidth budget, each key re-placed atomically through
:meth:`Scheme.migrate_object <repro.schemes.base.Scheme.migrate_object>`
(the namespace flips only after the new placement is fully written), so the
process is incremental, resumable, and safe to interrupt at any point.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro.cloud.errors import CloudError
from repro.schemes.base import DataUnavailable

from repro.maintenance.budget import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = ["LiveMigrationEngine"]


class LiveMigrationEngine:
    """Incremental re-placement queue drained under the bandwidth budget."""

    def __init__(
        self,
        scheme: "Scheme",
        budget: TokenBucket,
        *,
        keys_per_cycle: int = 4,
    ) -> None:
        if keys_per_cycle < 1:
            raise ValueError(f"keys_per_cycle must be >= 1, got {keys_per_cycle}")
        self.scheme = scheme
        self.budget = budget
        self.keys_per_cycle = keys_per_cycle
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self.migrated: list[str] = []

    # ---------------------------------------------------------------- planning
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending_paths(self) -> list[str]:
        return list(self._queue)

    def plan(self, paths: Iterable[str]) -> int:
        """Queue paths for re-placement (deduplicated); returns count added."""
        registry = self.scheme.registry
        added = 0
        for path in paths:
            if path in self._queued:
                continue
            self._queued.add(path)
            self._queue.append(path)
            registry.counter("migration_enqueued_total").inc()
            added += 1
        if added:
            self._publish_pending()
        return added

    def sync_policy(self) -> int:
        """Re-plan after an evaluator re-rank; returns paths newly queued.

        Schemes that know their own placement policy expose
        ``misplaced_paths()`` (HyRD does); schemes without a policy notion
        have nothing to migrate on a re-rank.
        """
        misplaced = getattr(self.scheme, "misplaced_paths", None)
        if misplaced is None:
            return 0
        return self.plan(misplaced())

    def plan_decommission(self, provider: str) -> int:
        """Queue everything with a placement on ``provider``."""
        return self.plan(self.scheme.placements_on(provider))

    def _publish_pending(self) -> None:
        self.scheme.registry.gauge("migration_pending").set(len(self._queue))

    # --------------------------------------------------------------- execution
    def run_cycle(self) -> int:
        """Migrate up to ``keys_per_cycle`` queued paths; returns completions.

        A path whose migration fails transiently (provider outage mid-write)
        goes back to the tail of the queue — progress already made is safe
        because the namespace only flips per completed key.
        """
        registry = self.scheme.registry
        done = 0
        attempts = 0
        while self._queue and attempts < self.keys_per_cycle:
            path = self._queue[0]
            entry = self.scheme.namespace.lookup(path)
            if entry is None:  # removed while queued
                self._queue.popleft()
                self._queued.discard(path)
                continue
            # Read + rewrite: ~2x the object's logical size, trued up below.
            estimate = 2 * entry.size
            if not self.budget.try_take(estimate):
                registry.counter("repair_budget_throttled_total").inc()
                break
            attempts += 1
            self._queue.popleft()
            try:
                report = self.scheme.migrate_object(path)
            except FileNotFoundError:
                self.budget.settle(estimate, 0)
                self._queued.discard(path)
                continue
            except (DataUnavailable, CloudError):
                self.budget.settle(estimate, 0)
                registry.counter("migration_failed_total").inc()
                self._queue.append(path)  # retry next cycle, keep dedupe mark
                continue
            self.budget.settle(estimate, report.bytes_up)
            self._queued.discard(path)
            registry.counter("migration_completed_total").inc()
            registry.counter("migration_bytes_total").inc(report.bytes_up)
            self.migrated.append(path)
            done += 1
        self._publish_pending()
        return done

    def drain(self, *, max_cycles: int = 10_000) -> int:
        """Run cycles until the queue empties or stops making progress."""
        total = 0
        for _ in range(max_cycles):
            if not self._queue:
                break
            done = self.run_cycle()
            total += done
            if done == 0:
                break  # throttled or everything failing; caller decides
        return total
