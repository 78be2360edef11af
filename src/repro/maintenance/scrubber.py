"""Anti-entropy scrubbing: find silent damage before a client read does.

The paper's recovery story (§III-C) is reactive — degraded reads during an
outage, a consistency update afterwards.  Nothing in it notices a silently
corrupted or lost fragment until a foreground read trips over the digest
mismatch.  The scrubber closes that gap: it walks the namespace on a
recurring schedule, audits every placement of each object through
:meth:`Scheme.verify_object <repro.schemes.base.Scheme.verify_object>`
(always deep: fetch and digest-verify), and hands damaged objects to the
repair scheduler.

The walk is *resumable*: a cycle audits at most ``paths_per_cycle`` objects
and the cursor survives between cycles, so a huge namespace is scrubbed in
bounded slices rather than one unbounded burst of background reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.schemes.base import DataUnavailable, ObjectAudit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = ["AntiEntropyScrubber"]


class AntiEntropyScrubber:
    """Recurring namespace walker auditing placements per provider."""

    def __init__(
        self,
        scheme: "Scheme",
        *,
        paths_per_cycle: int = 0,
    ) -> None:
        if paths_per_cycle < 0:
            raise ValueError(f"paths_per_cycle must be >= 0, got {paths_per_cycle}")
        self.scheme = scheme
        #: 0 means "the whole namespace every cycle"
        self.paths_per_cycle = paths_per_cycle
        self._cursor: str | None = None  # last path audited (resumable walk)
        #: cumulative damaged sites seen, scored against the fault ledger:
        #: (provider, container, key) for every corrupt/missing finding
        self.found_sites: set[tuple[str, str, str]] = set()
        self.cycles = 0

    # ------------------------------------------------------------------ walk
    def _next_batch(self) -> list[str]:
        paths = self.scheme.namespace.paths()  # sorted
        if not paths:
            return []
        limit = self.paths_per_cycle or len(paths)
        if self._cursor is None:
            batch = paths[:limit]
        else:
            after = [p for p in paths if p > self._cursor]
            batch = after[:limit]
            if len(batch) < limit:  # wrap around
                batch += paths[: limit - len(batch)]
        return batch

    def audit_paths(self, paths: Iterable[str]) -> list[ObjectAudit]:
        """Audit specific paths now (targeted scrub after an outage edge)."""
        audits: list[ObjectAudit] = []
        registry = self.scheme.registry
        for path in paths:
            try:
                audit = self.scheme.verify_object(path)
            except FileNotFoundError:
                continue  # removed between listing and audit
            except DataUnavailable:
                continue  # nothing reachable to audit; next cycle retries
            audits.append(audit)
            registry.counter("scrub_objects_checked_total").inc()
            registry.counter("scrub_bytes_verified_total").inc(audit.bytes_verified)
            for f in audit.findings:
                registry.counter("scrub_findings_total", kind=f.kind).inc()
                if f.repairable:
                    self.found_sites.add(
                        (f.provider, self.scheme.container, f.key)
                    )
        return audits

    def run_cycle(self) -> list[ObjectAudit]:
        """Audit the next slice of the namespace; returns the audits."""
        batch = self._next_batch()
        audits = self.audit_paths(batch)
        if batch:
            self._cursor = batch[-1]
        self.cycles += 1
        self.scheme.registry.counter("scrub_cycles_total").inc()
        return audits

    def full_pass(self) -> list[ObjectAudit]:
        """Audit the entire namespace once, regardless of the cycle limit."""
        return self.audit_paths(self.scheme.namespace.paths())
