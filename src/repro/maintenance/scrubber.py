"""Anti-entropy scrubbing: find silent damage before a client read does.

The paper's recovery story (§III-C) is reactive — degraded reads during an
outage, a consistency update afterwards.  Nothing in it notices a silently
corrupted or lost fragment until a foreground read trips over the digest
mismatch.  The scrubber closes that gap: it walks the namespace on a
recurring schedule, audits every placement of each object through
:meth:`Scheme.verify_object <repro.schemes.base.Scheme.verify_object>`
(always deep: fetch and digest-verify), and hands damaged objects to the
repair scheduler.  Each cycle audits the whole namespace, in path order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.schemes.base import DataUnavailable, ObjectAudit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = ["AntiEntropyScrubber"]


class AntiEntropyScrubber:
    """Recurring namespace walker auditing placements per provider."""

    def __init__(self, scheme: "Scheme") -> None:
        self.scheme = scheme
        #: cumulative damaged sites seen, scored against the fault ledger:
        #: (provider, container, key) for every corrupt/missing finding
        self.found_sites: set[tuple[str, str, str]] = set()
        self.cycles = 0

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
        """One counted scrub cycle of the whole namespace; returns the audits."""
        audits = self.full_pass()
        self.cycles += 1
        self.scheme.registry.counter("scrub_cycles_total").inc()
        return audits

    def full_pass(self) -> list[ObjectAudit]:
        """Audit the entire namespace once, in path order."""
        return self.audit_paths(self.scheme.namespace.paths())
