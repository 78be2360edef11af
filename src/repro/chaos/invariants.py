"""Machine-verified invariants checked after every chaos episode.

An episode is only as trustworthy as the oracle that judges it, so the
oracle is deliberately dumb: five pure functions over observable world
state, each returning a list of JSON-serialisable violation records.  No
probabilities, no tolerances — after the faults clear, the logs drain and
recovery runs, either the system converged or it did not.

1. **no_acked_write_lost** — every path whose last mutation was
   acknowledged reads back; a path whose last mutation crashed mid-flight
   may read as the old value or the new one, but must read.
2. **no_torn_stripe_readable** — anything that *does* read back equals,
   byte for byte, one of the values the client was ever told it wrote.
   Partial stripes, mixed-version reconstructions and bit rot all fail
   this.
3. **journal_drained** — the intent journal holds no pending intents:
   every write either committed or was rolled forward/back by recovery.
4. **writelog_convergence** — every provider write log is empty: the
   consistency update finished once the faults cleared.
5. **namespace_provider_audit** — the namespace and the providers agree:
   every placement of every entry verifies (deep digest check), and no
   provider stores a key the namespace cannot account for (orphaned
   fragments, stale versions, forgotten hot copies).

The checkers take raw bytes but never emit them: payloads appear in
violation records as ``sha256:<prefix>/<len>B`` digests, which keeps
episode reports small and byte-stable.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.journal import IntentJournal
    from repro.schemes.base import ObjectAudit, Scheme

__all__ = [
    "INVARIANTS",
    "UNREACHABLE",
    "check_journal_drained",
    "check_namespace_provider_audit",
    "check_no_acked_write_lost",
    "check_no_torn_stripe_readable",
    "check_writelog_convergence",
    "describe_value",
    "run_all",
]

#: the five invariant names, in report order
INVARIANTS = (
    "no_acked_write_lost",
    "no_torn_stripe_readable",
    "journal_drained",
    "writelog_convergence",
    "namespace_provider_audit",
)

#: sentinel observation: the read-back raised after every fault cleared
UNREACHABLE = "unreachable"


def describe_value(value: bytes | str | None) -> str:
    """Compact, deterministic description of an observed/allowed value."""
    if value is None:
        return "absent"
    if isinstance(value, str):
        return value  # the UNREACHABLE sentinel
    digest = hashlib.sha256(value).hexdigest()[:16]
    return f"sha256:{digest}/{len(value)}B"


def _allowed_digests(allowed: list[bytes | None]) -> list[str]:
    return [describe_value(v) for v in allowed]


def check_no_acked_write_lost(
    observations: Mapping[str, dict],
) -> list[dict]:
    """Every path that must exist reads back as *something*."""
    violations: list[dict] = []
    for path in sorted(observations):
        obs = observations[path]
        allowed: list[bytes | None] = obs["allowed"]
        observed = obs["observed"]
        if any(value is None for value in allowed):
            continue  # absence is an acceptable outcome for this path
        if observed is None or observed == UNREACHABLE:
            violations.append(
                {
                    "path": path,
                    "observed": describe_value(observed),
                    "allowed": _allowed_digests(allowed),
                }
            )
    return violations


def check_no_torn_stripe_readable(
    observations: Mapping[str, dict],
) -> list[dict]:
    """Anything readable equals one complete value the client wrote."""
    violations: list[dict] = []
    for path in sorted(observations):
        obs = observations[path]
        allowed: list[bytes | None] = obs["allowed"]
        observed = obs["observed"]
        if observed is None or observed == UNREACHABLE:
            if observed is None and not any(v is None for v in allowed):
                continue  # the loss is no_acked_write_lost's finding
            continue
        if not any(v is not None and v == observed for v in allowed):
            violations.append(
                {
                    "path": path,
                    "observed": describe_value(observed),
                    "allowed": _allowed_digests(allowed),
                }
            )
    return violations


def check_journal_drained(journal: "IntentJournal") -> list[dict]:
    """No intent is still pending once recovery has run."""
    return [
        {"seq": intent.seq, "kind": intent.kind, "path": intent.path}
        for intent in journal.pending()
    ]


def check_writelog_convergence(scheme: "Scheme") -> list[dict]:
    """Every provider write log drained after the faults cleared."""
    violations: list[dict] = []
    for name in sorted(scheme._write_logs):
        log = scheme._write_logs[name]
        if log:
            violations.append(
                {
                    "provider": name,
                    "entries": len(log.peek()),
                    "pending_bytes": int(log.pending_bytes()),
                }
            )
    return violations


def check_namespace_provider_audit(
    scheme: "Scheme", audits: list["ObjectAudit"]
) -> list[dict]:
    """Namespace and providers agree: all placements verify, no strays."""
    violations: list[dict] = []
    for audit in audits:
        if audit.ok:
            continue
        violations.append(
            {
                "path": audit.path,
                "version": audit.version,
                "problems": sorted(f"{f.kind}:{f.provider}:{f.key}" for f in audit.findings),
            }
        )
    for name in sorted(scheme.provider_names):
        provider = scheme.provider(name)
        if not provider.is_available():
            violations.append({"provider": name, "error": "unreachable at audit"})
            continue
        for key in scheme.unaccounted_keys(sorted(provider.store.list(scheme.container))):
            violations.append({"provider": name, "orphan_key": key})
    return violations


def run_all(
    scheme: "Scheme",
    journal: "IntentJournal",
    observations: Mapping[str, dict],
    audits: list["ObjectAudit"],
) -> dict[str, list[dict]]:
    """Evaluate every invariant; returns ``{invariant: [violations]}``."""
    return {
        "no_acked_write_lost": check_no_acked_write_lost(observations),
        "no_torn_stripe_readable": check_no_torn_stripe_readable(observations),
        "journal_drained": check_journal_drained(journal),
        "writelog_convergence": check_writelog_convergence(scheme),
        "namespace_provider_audit": check_namespace_provider_audit(scheme, audits),
    }
