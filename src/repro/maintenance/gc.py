"""Budgeted orphan garbage collection.

Crash recovery (:meth:`Scheme.recover <repro.schemes.base.Scheme.recover>`)
discovers storage keys no namespace entry accounts for — fragments a dead
client scattered before its intent could commit, stale versions whose
cleanup never ran, forgotten hot copies.  Deleting them is pure background
hygiene: it competes with repair and migration traffic for the shared
:class:`~repro.maintenance.budget.TokenBucket`, never with foreground
reads.  The sweeper is a FIFO of ``(provider, container, key)`` deletions
drained one bounded slice per maintenance tick.

Deletes are control-plane requests (no payload), so the budget charge per
key is a nominal constant rather than object bytes — the bucket throttles
*request* pressure here, not bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.maintenance.budget import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = ["OrphanSweeper"]

#: nominal budget charge per orphan delete (control-plane request)
_DELETE_COST_BYTES = 4096


class OrphanSweeper:
    """FIFO orphan-deletion queue drained under the shared budget."""

    def __init__(self, scheme: "Scheme", budget: TokenBucket) -> None:
        self.scheme = scheme
        self.budget = budget
        self._queue: deque[tuple[str, str, str]] = deque()
        self._queued: set[tuple[str, str, str]] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, provider: str, container: str, key: str) -> bool:
        """Queue one orphan key for deletion; False if already queued."""
        item = (provider, container, key)
        if item in self._queued:
            return False
        self._queued.add(item)
        self._queue.append(item)
        self._publish_depth()
        return True

    def pending(self) -> list[tuple[str, str, str]]:
        return list(self._queue)

    def _publish_depth(self) -> None:
        self.scheme.registry.gauge("orphan_gc_pending").set(len(self._queue))

    def run_cycle(self, max_keys: int | None = None) -> int:
        """Delete queued orphans while the budget admits work.

        Returns the number of keys removed this cycle.  Keys whose provider
        is unreachable are re-queued at the back — the next cycle retries
        them once the outage passes.  Keys that vanished on their own (a
        concurrent remove, a provider-side loss) are simply dropped.
        """
        registry = self.scheme.registry
        removed = 0
        attempts = len(self._queue) if max_keys is None else max_keys
        for _ in range(attempts):
            if not self._queue:
                break
            if not self.budget.try_take(_DELETE_COST_BYTES):
                registry.counter("repair_budget_throttled_total").inc()
                break
            provider, container, key = self._queue.popleft()
            self._queued.discard((provider, container, key))
            p = self.scheme.provider(provider)
            if not p.is_available():
                # Outage: nothing deletable now; retry next cycle.
                self.budget.settle(_DELETE_COST_BYTES, 0)
                self.enqueue(provider, container, key)
                continue
            if not p.store.has(container, key):
                self.budget.settle(_DELETE_COST_BYTES, 0)
                continue  # already gone: nothing owed
            from repro.schemes.base import CloudOp

            with self.scheme._op("gc", key):
                (removal,) = self.scheme._run_phase(
                    [CloudOp(provider, "remove", container, key)]
                )
            ok = removal.ok
            self.budget.settle(_DELETE_COST_BYTES, _DELETE_COST_BYTES if ok else 0)
            if ok:
                removed += 1
                registry.counter(
                    "orphan_gc_removed_total", provider=provider
                ).inc()
            else:
                self.enqueue(provider, container, key)
        self._publish_depth()
        return removed
