"""The reference model: one statement of what a correct client returns.

For every path the model holds the values a read may legitimately return:
the acknowledged value, or — for a mutation a client crash interrupted —
both sides of it, until recovery's verdict or a read settles it (``None``
stands for "absent").  Drivers (the chaos engine and the stateful test
over every scheme) apply operations through :meth:`ReferenceModel.put` /
``get`` / ``update`` / ``remove``, which call the scheme and record what
its answer means.  The model owns the one update splice and a
:class:`~repro.faults.ledger.CorruptionLedger` of the damage its driver
injected.  After settlement the world is judged by five invariants:

1. **no_acked_write_lost** — every path whose last mutation was
   acknowledged reads back; a path whose last mutation crashed mid-flight
   may read as the old value or the new one, but must read.
2. **no_torn_stripe_readable** — anything that *does* read back equals,
   byte for byte, one of the values the client was ever told it wrote.
   Partial stripes, mixed-version reconstructions and bit rot all fail
   this.
3. **journal_drained** — the intent journal holds no pending intents.
4. **writelog_convergence** — every provider write log is empty.
5. **namespace_provider_audit** — every placement of every entry verifies
   (deep digest check), and no provider stores a key the namespace cannot
   account for.

A read the model does not allow before settlement is filed under the
first invariant when the path was absent and under the second otherwise.
Violation records never carry raw bytes: payloads appear as
``sha256:<prefix>/<len>B`` digests, which keeps reports small and
byte-stable.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.cloud.errors import CloudError
from repro.faults.crash import ClientCrash
from repro.faults.ledger import CorruptionLedger, DamageEvent, inject_bit_rot, inject_loss
from repro.schemes.base import DataUnavailable, min_needed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.provider import SimulatedProvider
    from repro.fs.journal import IntentJournal
    from repro.fs.namespace import FileEntry
    from repro.schemes.base import ObjectAudit, Scheme

__all__ = [
    "INVARIANTS",
    "UNREACHABLE",
    "ReferenceModel",
    "check_journal_drained",
    "check_namespace_provider_audit",
    "check_no_acked_write_lost",
    "check_no_torn_stripe_readable",
    "check_writelog_convergence",
    "describe_value",
    "sites",
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


def _violation(path: str, observed, allowed: list, suffix: str = "") -> dict:
    return {
        "path": path,
        "observed": describe_value(observed) + suffix,
        "allowed": [describe_value(v) for v in allowed],
    }


def check_no_acked_write_lost(observations: Mapping[str, dict]) -> list[dict]:
    """Every path that must exist reads back as *something*."""
    return [
        _violation(path, obs["observed"], obs["allowed"])
        for path, obs in sorted(observations.items())
        if None not in obs["allowed"] and obs["observed"] in (None, UNREACHABLE)
    ]


def check_no_torn_stripe_readable(observations: Mapping[str, dict]) -> list[dict]:
    """Anything readable equals one complete value the client wrote."""
    return [
        _violation(path, observed, obs["allowed"])
        for path, obs in sorted(observations.items())
        if (observed := obs["observed"]) not in (None, UNREACHABLE)
        and not any(v is not None and v == observed for v in obs["allowed"])
    ]


def check_journal_drained(journal: "IntentJournal") -> list[dict]:
    """No intent is still pending once recovery has run."""
    return [
        {"seq": intent.seq, "kind": intent.kind, "path": intent.path}
        for intent in journal.pending()
    ]


def check_writelog_convergence(scheme: "Scheme") -> list[dict]:
    """Every provider write log drained after the faults cleared."""
    return [
        {"provider": name, "entries": len(log.peek()), "pending_bytes": int(log.pending_bytes())}
        for name in sorted(scheme.provider_names)
        if (log := scheme.pending_log(name))
    ]


def check_namespace_provider_audit(
    scheme: "Scheme", audits: list["ObjectAudit"]
) -> list[dict]:
    """Namespace and providers agree: all placements verify, no strays."""
    violations: list[dict] = [
        {
            "path": audit.path,
            "version": audit.version,
            "problems": sorted(f"{f.kind}:{f.provider}:{f.key}" for f in audit.findings),
        }
        for audit in audits
        if not audit.ok
    ]
    for name in sorted(scheme.provider_names):
        provider = scheme.provider(name)
        if not provider.is_available():
            violations.append({"provider": name, "error": "unreachable at audit"})
            continue
        for key in scheme.unaccounted_keys(sorted(provider.store.list(scheme.container))):
            violations.append({"provider": name, "orphan_key": key})
    return violations


def _held(store, container: str, key: str):
    return store.get(container, key).data if store.has(container, key) else None


def sites(scheme: "Scheme", entry: "FileEntry") -> list[tuple[str, str]]:
    """``(provider, storage key)`` of every placement of ``entry``."""
    return [(prov, scheme._placement_storage_key(entry, idx)) for prov, idx in entry.placements]


class ReferenceModel:
    """What every path may read as, and the damage its driver injected."""

    def __init__(self) -> None:
        #: path -> every value a read may legitimately return (None = absent)
        self._allowed: dict[str, list[bytes | None]] = {}
        #: the mutation a crash interrupted: (path, new value, values before)
        self._inflight: tuple[str, bytes | None, list[bytes | None]] | None = None
        self.ledger = CorruptionLedger()
        #: (provider, key) -> the object its latest damage left in the store
        #: (None: lost); a store holding anything else was rewritten since
        self._left: dict[tuple[str, str], object] = {}
        #: violations observed before settlement, by invariant
        self.findings: dict[str, list[dict]] = {name: [] for name in INVARIANTS}

    # ---------------------------------------------------------------- state
    def allowed(self, path: str) -> list[bytes | None]:
        return list(self._allowed.get(path, [None]))

    def paths(self) -> list[str]:
        """Every path the model has an opinion on, removed ones included."""
        return sorted(self._allowed)

    def live(self) -> list[str]:
        """Paths that may exist."""
        return sorted(p for p, values in self._allowed.items() if values != [None])

    def acked(self, path: str) -> bytes | None:
        """The one acknowledged content of ``path`` (None: absent or ambiguous)."""
        values = self._allowed.get(path, [None])
        return values[0] if len(values) == 1 else None

    def _resolve(self, path: str, values: list[bytes | None]) -> None:
        """Collapse a path's legitimate read-back set to ``values``."""
        deduped: list[bytes | None] = []
        for v in values:
            if not any(v is d or v == d for d in deduped):
                deduped.append(v)
        self._allowed[path] = deduped

    def observe(self, path: str, observed: bytes | None) -> None:
        """A read found ``observed`` (None: absent).  An allowed value
        settles the path; anything else is a finding."""
        allowed = self.allowed(path)
        if (None in allowed) if observed is None else any(
            v is not None and v == observed for v in allowed
        ):
            self._resolve(path, [observed])
        else:
            lost = "no_acked_write_lost" if observed is None else "no_torn_stripe_readable"
            self.findings[lost].append(_violation(path, observed, allowed, " (mid-episode)"))

    @staticmethod
    def splice(base: bytes, offset: int, patch: bytes) -> bytes:
        """``Scheme.update``'s result: ``patch`` over ``base`` at ``offset``,
        zero-filled when it starts past the end."""
        buf = bytearray(max(len(base), offset + len(patch)))
        buf[: len(base)] = base
        buf[offset : offset + len(patch)] = patch
        return bytes(buf)

    # ----------------------------------------------------------- operations
    @contextmanager
    def _mutation(self, path: str, new: bytes | None) -> Iterator[list[bytes | None]]:
        """Acknowledged: ``path`` holds ``new``.  Crashed: either side, until
        :meth:`recovered`.  Failed cleanly: the old state stands."""
        before = self.allowed(path)
        try:
            yield before
        except ClientCrash:
            self._inflight = (path, new, before)
            raise
        self._resolve(path, [new])

    def put(self, scheme: "Scheme", path: str, data: bytes) -> None:
        with self._mutation(path, data):
            scheme.put(path, data)

    def get(self, scheme: "Scheme", path: str) -> bytes:
        try:
            data, _ = scheme.get(path)
        except FileNotFoundError:
            self.observe(path, None)
            raise
        self.observe(path, data)
        return data

    def update(self, scheme: "Scheme", path: str, offset: int, patch: bytes) -> None:
        """Patch ``path``'s acknowledged content (see :meth:`base_for_update`)."""
        with self._mutation(path, self.splice(self.acked(path), offset, patch)):
            scheme.update(path, offset, patch)

    def remove(self, scheme: "Scheme", path: str) -> None:
        with self._mutation(path, None) as before:
            try:
                scheme.remove(path)
            except FileNotFoundError:
                if None in before:
                    self._resolve(path, [None])
                raise
            except CloudError:
                # Deletion state unknown: accept either outcome until observed.
                self._resolve(path, before + [None])
                raise

    def base_for_update(self, scheme: "Scheme", path: str) -> bytes | None:
        """The content an update of ``path`` would patch; a crash-ambiguous
        path is read first to settle it.  None: nothing predictable."""
        if len(self.allowed(path)) > 1:
            try:
                self.get(scheme, path)
            except (FileNotFoundError, CloudError):
                pass
        return self.acked(path)

    def recovered(self, summary: dict) -> None:
        """Apply recovery's verdict to the mutation a crash interrupted."""
        if self._inflight is None:
            return
        path, new, before = self._inflight
        self._inflight = None
        if any(d["path"] == path for d in summary["rolled_forward"]):
            self._resolve(path, [new])
        elif any(d["path"] == path for d in summary["removals_completed"]):
            self._resolve(path, [None])
        else:
            # Rolled back, or the crash came before the intent was planned:
            # no payload byte ever left the client, the old state stands.
            self._resolve(path, before)

    # --------------------------------------------------------------- damage
    def inject(self, provider: "SimulatedProvider", container: str, key: str, how: str, now: float) -> None:
        """Damage one stored object — ``rot`` (a flipped byte), ``truncate``,
        ``loss`` or ``empty-object`` (``{}``) — and ledger it."""
        if how == "loss":
            inject_loss(provider, container, [key], ledger=self.ledger, now=now)
        elif how == "empty-object":
            provider.store.tamper(container, key, b"{}")
            self.ledger.record(DamageEvent(provider.name, container, key, "corrupt", now))
        elif not inject_bit_rot(
            provider, container, [key], seed=len(self.ledger), ledger=self.ledger,
            now=now, truncate=how == "truncate",
        ):  # fmt: skip
            return  # an empty object has no byte to damage
        self._left[(provider.name, key)] = _held(provider.store, container, key)

    def damaged(self, scheme: "Scheme") -> set[tuple[str, str]]:
        """``(provider, key)`` sites of the ledger whose damage the store
        still holds; a rewrite (repair, replay, a new version) heals one."""
        return {
            (prov, key)
            for prov, container, key in self.ledger.sites()
            if _held(scheme.provider(prov).store, container, key) is self._left[(prov, key)]
        }

    def margin(self, scheme: "Scheme", entry: "FileEntry", reachable_only: bool = True) -> int:
        """Placements of ``entry`` a read can use, less the ``min_needed`` it
        must have.  Usable: undamaged and — with ``reachable_only`` — on a
        usable provider and not stale.  Below zero, a read may fail."""
        damaged, codec = self.damaged(scheme), scheme._codec_for(entry)
        usable = [
            (prov, key) not in damaged
            and not (reachable_only and not scheme._provider_usable(prov))
            and not (reachable_only and scheme._is_stale(prov, scheme.container, key))
            for prov, key in sites(scheme, entry)
        ]
        return sum(usable) - min_needed(codec)

    # ----------------------------------------------------------- settlement
    def settle(
        self, scheme: "Scheme", journal: "IntentJournal", clear_at: float
    ) -> tuple[dict, dict[str, list[dict]]]:
        """Wait until ``clear_at``, drain the write logs, recover, read every
        path back, audit (repairing what an audit flags) and judge.

        Read-backs come first (they may promote hot copies, which the
        orphan rule must then account for), audits second.  Returns the
        final recovery summary and ``{invariant: [violations]}``.
        """
        clock = scheme.clock
        scheme.install_crash_schedule(None)
        if clear_at > clock.now:
            clock.advance(clear_at - clock.now)
        for _ in range(60):
            scheme.heal_returned()
            if not any(scheme.pending_log(name) for name in scheme.provider_names):
                break
            clock.advance(30.0)
        recovery = scheme.recover()
        observations: dict[str, dict] = {}
        for path in self.paths():
            observed: bytes | str | None
            try:
                observed, _ = scheme.get(path)
            except FileNotFoundError:
                observed = None
            except CloudError:
                observed = UNREACHABLE
            observations[path] = {"allowed": self.allowed(path), "observed": observed}
        audits = []
        for path in sorted(scheme.namespace.paths()):
            audit = scheme.verify_object(path, deep=True)
            if not audit.ok:
                with suppress(DataUnavailable):  # lost: the re-audit reports it
                    scheme.repair_object(path, audit)
                audit = scheme.verify_object(path, deep=True)
            audits.append(audit)
        found = {
            "no_acked_write_lost": check_no_acked_write_lost(observations),
            "no_torn_stripe_readable": check_no_torn_stripe_readable(observations),
            "journal_drained": check_journal_drained(journal),
            "writelog_convergence": check_writelog_convergence(scheme),
            "namespace_provider_audit": check_namespace_provider_audit(scheme, audits),
        }
        return recovery, {name: found[name] + self.findings[name] for name in INVARIANTS}
