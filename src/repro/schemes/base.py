"""Scheme framework: the shared execution engine all schemes run on.

A scheme turns file-level operations (put/get/update/remove/stat/listdir)
into *phases* of concurrent provider requests.  The engine here:

- executes each phase against the simulated providers (state + billing),
- costs the phase through the fair-share client link (uploads contend with
  uploads, downloads with downloads) and advances the shared clock,
- logs mutations aimed at providers inside an outage window
  (:class:`repro.core.recovery.WriteLog`) and replays them when the provider
  returns (the paper's *consistency update*),
- write-through-persists directory metadata groups with the scheme's own
  redundancy, and charges metadata reads on client-cache misses,
- emits an :class:`repro.metrics.OpReport` per operation.

A concrete scheme declares a *placement policy* — :meth:`Scheme._place`
says where an object goes and with which redundancy — and the engine owns
the one data path: put / read / update / remove are implemented here once,
driven by the codec each :class:`~repro.fs.namespace.FileEntry` records.
"""

from __future__ import annotations

import hashlib
import math
import os
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from repro.cloud.errors import (
    CircuitOpenError,
    CloudError,
    NoSuchObject,
    ProviderUnavailable,
    TransientProviderError,
)
from repro.cloud.gcsapi import GcsApi
from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.core.recovery import LoggedWrite, WriteLog
from repro.core.resilience import CircuitBreaker, ProviderHealth, ResilienceConfig
from repro.erasure.codec import ErasureCodec, get_codec
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.fs.journal import IntentJournal
from repro.fs.metadata import MetadataStore, group_directory, group_key, is_group_key
from repro.fs.namespace import FileEntry, Namespace, dirname, normalize_path
from repro.metrics.collector import LatencyCollector, OpReport
from repro.metrics.registry import HeldInstruments, MetricsRegistry
from repro.obs.trace import NOOP_TRACER
from repro.sim.bandwidth import TransferSpec, simulate_transfers
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

__all__ = [
    "CloudOp",
    "DataUnavailable",
    "ObjectAudit",
    "Placement",
    "RepairResult",
    "Scheme",
    "VerifyFinding",
    "min_needed",
]

#: below this combined size, dispatching fragment hashing to threads costs
#: more than it saves; hash inline instead
_PARALLEL_DIGEST_MIN_BYTES = 256 << 10

#: hashlib releases the GIL for big buffers, so sibling fragments can hash on
#: real cores — but on a single-core box the pool is pure overhead, so it is
#: disabled there
_DIGEST_WORKERS = min(4, os.cpu_count() or 1)

_DIGEST_POOL = None


def _reset_digest_pool() -> None:
    # Pool threads do not survive fork; a child that inherited a live pool
    # would deadlock on its first digest, so drop the reference and let the
    # child lazily build its own (the parallel experiment runner forks
    # workers mid-session).
    global _DIGEST_POOL
    _DIGEST_POOL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_digest_pool)


def _digest_pool():
    """Shared lazy thread pool for fragment hashing (GIL-releasing work)."""
    global _DIGEST_POOL
    if _DIGEST_POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _DIGEST_POOL = ThreadPoolExecutor(
            max_workers=_DIGEST_WORKERS, thread_name_prefix="fragment-digest"
        )
    return _DIGEST_POOL


class DataUnavailable(CloudError):
    """Too many providers are down to serve the object at all.

    Raised when concurrent outages exceed the scheme's fault tolerance —
    the paper notes two concurrent cloud outages are extremely rare, but the
    simulator can and does produce them under injected failure storms.
    """

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"data unavailable for {path!r}: {detail}")
        self.path = path


class _DigestCache:
    """LRU of ``storage key -> (buffer id, sha256 hex)`` for verified reads.

    The simulated stores keep the exact buffer object a write handed them
    (zero-copy puts), so a read that returns the *same object* the scheme
    digested at write time is known-intact without re-hashing.  Identity is
    sound here: the recorded object stays alive inside a provider store (or a
    write log) for as long as its key maps to it, so its ``id`` cannot be
    recycled while the entry is current; every path that rebinds a key to a
    new buffer (put, read-modify-write) re-records the digest, and a
    fault-injected corrupt copy is always a fresh object, which misses the
    cache and falls back to a full hash.
    """

    __slots__ = ("_entries", "_capacity")

    def __init__(self, capacity: int = 4096) -> None:
        self._entries: OrderedDict[str, tuple[int, str]] = OrderedDict()
        self._capacity = capacity

    def record(self, key: str, data, digest: str) -> None:
        entries = self._entries
        entries[key] = (id(data), digest)
        entries.move_to_end(key)
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def matches(self, key: str, data, digest: str) -> bool:
        """True when ``data`` is the very buffer recorded for ``key``."""
        entry = self._entries.get(key)
        if entry is None or entry != (id(data), digest):
            return False
        self._entries.move_to_end(key)
        return True


class _PayloadCache:
    """``versioned key -> (fragment ids, payload)``, charged only for the
    payload bytes no stored fragment already pins.

    A striped read that fetches the *exact fragment objects* recorded at
    write time (identity check, same soundness argument as
    :class:`_DigestCache`: the stores pin those objects alive while the
    versioned keys exist) provably decodes to the payload that was encoded —
    so the decode + join can be skipped and the original payload returned.
    Any substituted fragment (corruption, reconstruction, a re-put) is a
    fresh object, misses by id, and falls through to a real decode.

    The unpadded data fragments of a systematic stripe are views of the
    payload (:func:`~repro.erasure.striping.split_views`), so the stores
    keep the payload alive whether or not an entry holds it: such an entry
    (RAID5, RS) costs nothing and lives until :meth:`discard`.  An entry
    whose fragments share no memory with the payload (FMSR, DepSky-CA
    bundles) costs the payload's length and is evicted least recently used
    once those costs pass ``budget``.
    """

    __slots__ = ("_entries", "_charged", "_budget", "_bytes")

    def __init__(self, budget: int = 256 << 20) -> None:
        self._entries: dict[str, tuple[tuple[int, ...], bytes]] = {}
        #: key -> cost of every entry that costs bytes, least recent first
        self._charged: OrderedDict[str, int] = OrderedDict()
        self._budget = budget
        self._bytes = 0

    def record(self, key: str, fragments, payload) -> None:
        """Replace ``key``'s entry by ``payload`` as what ``fragments``
        encode; only an immutable ``bytes`` payload is kept."""
        self.discard(key)
        if not isinstance(payload, bytes):
            return
        base = np.frombuffer(payload, dtype=np.uint8)
        pinned = any(
            np.may_share_memory(np.frombuffer(f, dtype=np.uint8), base)
            for f in fragments
        )
        cost = 0 if pinned else len(payload)
        if cost > self._budget:
            return
        self._entries[key] = (tuple(id(f) for f in fragments), payload)
        if not cost:
            return
        self._charged[key] = cost
        self._bytes += cost
        while self._bytes > self._budget:
            evicted, spent = self._charged.popitem(last=False)
            del self._entries[evicted]
            self._bytes -= spent

    def lookup(self, key: str, collected) -> bytes | None:
        """The cached payload iff every collected fragment matches by id."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        ids, payload = entry
        for idx, frag in collected.items():
            if idx >= len(ids) or id(frag) != ids[idx]:
                return None
        if key in self._charged:
            self._charged.move_to_end(key)
        return payload

    def discard(self, key: str) -> None:
        """Drop ``key``'s entry — required whenever its stored fragments are
        deleted or rebound, so recycled buffer ids can never false-match."""
        if self._entries.pop(key, None) is not None:
            self._bytes -= self._charged.pop(key, 0)


@dataclass(slots=True)
class CloudOp:
    """One provider request inside a phase, and once issued, its outcome.

    :meth:`Scheme._issue` fills in ``ok`` / ``response`` / ``error`` /
    ``finish`` in place, so a request is one record from build to read.
    Slotted and not frozen: a dozen are built per op and none is ever
    hashed, so a frozen ``__init__``'s per-field ``object.__setattr__``
    would buy nothing.
    """

    provider: str
    kind: str  # "put" | "get" | "remove" | "list" | "create" | "head"
    container: str
    key: str = ""
    #: payload for puts; any immutable bytes-like buffer (zero-copy views
    #: from the codecs flow through untouched — see docs/performance.md)
    data: bytes | memoryview | None = None
    ok: bool = False
    #: what a successful get / list returned
    response: bytes | None = None
    error: Exception | None = None
    #: completion instant relative to the phase start (0 for a client-side
    #: fast fail, which never went on the wire)
    finish: float = 0.0

    _KINDS = frozenset({"put", "get", "remove", "list", "create", "head"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "put" and self.data is None:
            raise ValueError("put op requires data")


def min_needed(codec: ErasureCodec | None) -> int:
    """Placements a read needs: any one replica (``codec`` None), else ``k``."""
    return 1 if codec is None else codec.k


@dataclass(frozen=True)
class Placement:
    """Where a new object version goes and with which redundancy.

    This is all a scheme decides (:meth:`Scheme._place`); the engine does
    the I/O.  ``codec`` is None for replication — one whole copy per
    provider — otherwise fragment ``i`` of the encoded object lands on
    ``providers[i]``.  ``codec_name`` / ``codec_params`` / ``klass`` are
    recorded verbatim on the :class:`~repro.fs.namespace.FileEntry`, so
    every later read, update, audit and repair rebuilds the codec from the
    entry alone (:meth:`Scheme._codec_for`), never from today's policy.
    """

    providers: tuple[str, ...]
    klass: str
    codec: ErasureCodec | None = None
    codec_name: str = "replication"
    codec_params: tuple[tuple[str, int], ...] = ()
    #: read count the new version starts from: HyRD carries the previous
    #: version's over (it drives hot-copy promotion); baselines restart at 0
    access_count: int = 0


@dataclass(frozen=True)
class VerifyFinding:
    """One damaged/suspect placement discovered by :meth:`Scheme.verify_object`.

    Kinds: ``corrupt`` (digest mismatch — bit rot and truncation alike),
    ``missing`` (the provider answered but the object is gone), ``stale``
    (a pending write-log entry supersedes the stored object; the consistency
    update owns it, not the repair queue) and ``unreachable`` (the provider
    could not be audited — counts against surviving redundancy, but there is
    nothing to rewrite while it is down).
    """

    path: str
    provider: str
    key: str
    kind: str  # "corrupt" | "missing" | "stale" | "unreachable"
    fragment: int

    _KINDS = frozenset({"corrupt", "missing", "stale", "unreachable"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}")

    @property
    def repairable(self) -> bool:
        """Damage a repair pass can rewrite right now (corrupt/missing)."""
        return self.kind in ("corrupt", "missing")

    @property
    def site(self) -> tuple[str, str]:
        return (self.provider, self.key)


@dataclass(frozen=True)
class ObjectAudit:
    """Result of auditing one object's placements.

    ``intact`` placements passed verification; ``min_needed`` is how many
    the scheme requires to reconstruct (``k`` for striped layouts, 1 for
    replication), so ``intact - min_needed`` is the object's remaining
    fault margin — the repair queue sorts ascending on it (most-at-risk
    stripes first).
    """

    path: str
    version: int
    findings: tuple[VerifyFinding, ...]
    checked: int
    bytes_verified: int
    total: int
    min_needed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def intact(self) -> int:
        return self.total - len(self.findings)

    @property
    def margin(self) -> int:
        """Surviving placements beyond the reconstruction minimum."""
        return self.intact - self.min_needed

    def by_kind(self, kind: str) -> tuple[VerifyFinding, ...]:
        return tuple(f for f in self.findings if f.kind == kind)


@dataclass(frozen=True)
class RepairResult:
    """Outcome of :meth:`Scheme.repair_object` for one object."""

    path: str
    repaired: tuple[VerifyFinding, ...]
    skipped_pending: tuple[VerifyFinding, ...]
    skipped_unreachable: tuple[VerifyFinding, ...]
    bytes_written: int

    @property
    def complete(self) -> bool:
        """True when nothing repairable remains outstanding."""
        return not self.skipped_pending and not self.skipped_unreachable


class _Op:
    """One scheme operation, opened and closed by a single ``with`` scope.

    Holds what belongs to the operation in flight and to nothing else: the
    traffic accumulator its phases add to, the root trace span, the journal
    context of a mutating op and the tenant it is attributed to (read once,
    at entry).  ``__exit__`` is the only place that turns this into an
    outcome.  On success it builds the
    :class:`~repro.metrics.collector.OpReport` (``report``), closes the span
    and feeds SLO tracker, observatory and collector; on an exception it
    aborts the span, flags a journaled intent aborted and records the
    failure under the ``kind`` a success would have reported.  Either way
    the scheme is disarmed first, so an op that raises — from whichever
    entry point — cannot get every later one rejected as "nested".
    """

    __slots__ = (
        "scheme", "kind", "path", "tenant", "t0", "span", "report",
        "bytes_up", "bytes_down", "cloud_ops", "providers", "degraded",
        "rtt_wait", "transfer_time", "retries", "hedged", "armed", "seq",
    )

    def __init__(self, scheme: "Scheme", kind: str, path: str) -> None:
        self.scheme = scheme
        self.kind = kind
        self.path = path
        self.span = None
        self.report: OpReport | None = None
        self.bytes_up = 0
        self.bytes_down = 0
        self.cloud_ops = 0
        self.providers: set[str] = set()
        self.degraded = False
        self.rtt_wait = 0.0
        self.transfer_time = 0.0
        self.retries = 0
        self.hedged = False
        #: journal context: ``(intent kind, previous entry, redo payload)``
        #: from :meth:`Scheme._journal_arm`; the placement plan — and with
        #: it the intent's ``seq`` — follows from :meth:`Scheme._journal_plan`
        #: just before the first fragment put
        self.armed: tuple[str, FileEntry | None, bytes | None] | None = None
        self.seq: int | None = None

    def __enter__(self) -> "_Op":
        scheme = self.scheme
        if scheme._current is not None:
            raise RuntimeError("nested scheme operations are not supported")
        scheme._current = self
        self.tenant = scheme._op_tenant
        self.t0 = scheme.clock.now
        if scheme.tracer.enabled:
            # Root span: opened now so every request / retry / heal span
            # recorded inside nests under it; named at exit.
            self.span = scheme.tracer.span("op")
            self.span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        scheme = self.scheme
        scheme._current = None
        span = self.span
        now = scheme.clock.now
        if exc is not None:
            if span is not None:
                span.record.name = "op.error"
                span.record.set(outcome="error")
                span.__exit__(None, None, None)
            # A ClientCrash models the process dying mid-op: nothing else
            # client-side runs, so the journal intent stays *pending* (the
            # evidence recovery consumes) and no failure is recorded.
            if not isinstance(exc, ClientCrash):
                if self.seq is not None and scheme.journal is not None:
                    # Clean failure with the client alive: keep the intent,
                    # flagged aborted, so recovery GCs whatever landed.
                    scheme.journal.mark_aborted(self.seq)
                    scheme._publish_journal_gauges()
                if scheme.slo is not None:
                    scheme.slo.record_failure(self.kind, now, tenant=self.tenant)
            return False
        report = self.report = OpReport(
            op=self.kind,
            path=self.path,
            elapsed=now - self.t0,
            bytes_up=self.bytes_up,
            bytes_down=self.bytes_down,
            providers=tuple(sorted(self.providers)),
            degraded=self.degraded,
            cloud_ops=self.cloud_ops,
            rtt_wait=self.rtt_wait,
            transfer_time=self.transfer_time,
            retries=self.retries,
            hedged=self.hedged,
            tenant=self.tenant,
        )
        trace_id = None
        if span is not None:
            trace_id = span.record.span_id
            # The root span carries the full OpReport so a JSON-lines trace
            # is self-contained: RunReport.from_trace rebuilds the report
            # stream from these attributes alone.
            span.record.name = f"op.{self.kind}"
            span.record.set(**report.to_span_attrs())
            span.__exit__(None, None, None)
        if scheme.slo is not None:
            scheme.slo.record_op(report, now)
        if scheme.observatory is not None:
            scheme.observatory.on_op(report, trace_id)
        scheme.collector.add(report)
        return False


class _TenantScope:
    """The ``with`` scope :meth:`Scheme.tenant_context` returns."""

    __slots__ = ("scheme", "tenant", "prev")

    def __init__(self, scheme: "Scheme", tenant: str | None) -> None:
        self.scheme = scheme
        self.tenant = tenant

    def __enter__(self) -> "Scheme":
        scheme = self.scheme
        self.prev = scheme._op_tenant
        scheme._op_tenant = self.tenant
        return scheme

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.scheme._op_tenant = self.prev
        return False


class Scheme(ABC):
    """Base class for every redundant data distribution scheme."""

    #: short identifier used in containers, reports and experiment tables
    name: str = "scheme"

    #: replication write discipline: parallel scatter (default) or one
    #: replica at a time (DuraCloud's synchronize-on-change model, where the
    #: second copy is a sync step after the primary write completes)
    sequential_replication: bool = False

    #: write acknowledgement: None (default) waits for every put of a
    #: version; an int acknowledges at that many successes and lets the
    #: stragglers finish in the background (DepSky's ``n - f`` quorum)
    write_quorum: int | None = None

    #: repair discipline: False (default) rewrites only the damaged
    #: placements in place; True re-puts the whole object as a new version
    #: instead — for schemes whose per-placement objects cannot be rebuilt
    #: in isolation (DepSky-CA bundles carry secret shares drawn fresh per
    #: sharing, and shares from two sharings do not combine).
    repair_by_rewrite: bool = False

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        metadata_cache_capacity: int = 256,
        resilience: ResilienceConfig | None = None,
        tracer=None,
    ) -> None:
        if not providers:
            raise ValueError("a scheme needs at least one provider")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate provider names: {names}")
        self.api = GcsApi(providers)
        self.clock = clock
        self.link = link if link is not None else ClientLink()
        self.seed = seed
        self.rng: np.random.Generator = make_rng(seed, "scheme", self.name)
        #: span tracer (no-op by default — see :mod:`repro.obs.trace`); never
        #: advances the clock or draws RNG, so attaching one cannot perturb
        #: a run's simulated timings
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: typed metric registry shared by the collector, the circuit
        #: breakers, the health trackers and the providers themselves
        self.registry = MetricsRegistry(tracer=self.tracer)
        self.collector = LatencyCollector(registry=self.registry)
        #: the instruments the per-phase sites mutate, each bound on first use
        self._held = HeldInstruments(self.registry)
        if self.tracer.enabled:
            self.tracer.meta(scheme=self.name, seed=seed)
        if resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.retry_policy = resilience.retry
        #: deterministic jitter stream for retry backoff (sim-time waits)
        self._retry_rng: np.random.Generator = make_rng(seed, "retry", self.name)
        self._breakers: dict[str, CircuitBreaker] = {
            p.name: resilience.make_breaker(p.name, metrics=self.registry)
            for p in providers
        }
        self.health: dict[str, ProviderHealth] = {
            p.name: resilience.make_health(p.name, metrics=self.registry)
            for p in providers
        }
        for p in providers:
            p.metrics = self.registry
        self.namespace = Namespace()
        self.meta = MetadataStore(self.namespace, metadata_cache_capacity)
        self.container = f"{self.name}-store"
        self._write_logs: dict[str, WriteLog] = {
            p.name: WriteLog(memory_limit_bytes=resilience.write_log_memory_limit)
            for p in providers
        }
        #: write-time fragment digests, reused to skip re-hashing on verified
        #: reads that return the identical stored buffer
        self._digest_cache = _DigestCache()
        self._payload_cache = _PayloadCache()
        #: codecs rebuilt from entries' recorded (name, params), see _codec_for
        self._codec_instances: dict[
            tuple[str, tuple[tuple[str, int], ...]], ErasureCodec
        ] = {}
        #: the operation in flight (see :meth:`_op`); None between operations
        self._current: _Op | None = None
        self._meta_sizes: dict[str, int] = {}
        #: tenant attribution for ops opened from now on — set via
        #: :meth:`tenant_context` by the service plane's frontend handlers;
        #: None (the default) keeps reports identical to a tenant-free build
        self._op_tenant: str | None = None
        #: optional :class:`repro.obs.slo.SloTracker` — see :meth:`attach_slo`
        self.slo = None
        #: optional :class:`repro.obs.attribution.ProviderLoadObservatory` —
        #: see :meth:`attach_observatory`; None (the default) keeps every
        #: path byte-identical to an observatory-free build
        self.observatory = None
        #: optional :class:`repro.maintenance.MaintenancePlane` — see
        #: :meth:`attach_maintenance`; None (the default) keeps every
        #: foreground path byte-identical to a maintenance-free build
        self.maintenance = None
        #: optional :class:`repro.core.scheduling.FragmentScheduler` — see
        #: :meth:`attach_scheduler`; None (the default) keeps striped reads
        #: on the static systematic-first ordering, byte-identical to a
        #: scheduler-free build
        self.scheduler = None
        #: optional :class:`repro.fs.journal.IntentJournal` — see
        #: :meth:`attach_journal`; None (the default) keeps the write path
        #: byte-identical to a journal-free build
        self.journal: IntentJournal | None = None
        #: optional :class:`repro.faults.crash.CrashSchedule` — see
        #: :meth:`install_crash_schedule`
        self._crash: CrashSchedule | None = None
        self._init_containers()

    # ------------------------------------------------------------- lifecycle
    def _init_containers(self) -> None:
        """Create the scheme's container on every provider.

        A provider that cannot create it — outage or exhausted transient
        retries alike — gets a ``create`` entry in its write log, so the
        consistency update repairs the container exactly like any missed
        mutation instead of leaving it silently absent.
        """
        for p in self.api.providers():
            for _ in range(self.retry_policy.max_attempts):
                try:
                    p.create(self.container, exist_ok=True)
                    break
                except TransientProviderError:
                    continue
                except ProviderUnavailable:
                    self._write_logs[p.name].log_create(self.container, self.clock.now)
                    self._note_write_log(p.name)
                    break
            else:
                # Exhausted transient retries: same missed-mutation path.
                self._write_logs[p.name].log_create(self.container, self.clock.now)
                self._note_write_log(p.name)

    def attach_slo(self, slo) -> None:
        """Hook an :class:`~repro.obs.slo.SloTracker` into this scheme.

        Binds the tracker to the scheme's registry and clock, and hangs it on
        every circuit breaker so open/closed transitions become observed
        downtime edges.  Like the tracer, the tracker is pure bookkeeping:
        no clock movement, no RNG draws — attaching it cannot change a run's
        simulated timings.
        """
        self.slo = slo
        slo.bind(self.registry, self.clock)
        for breaker in self._breakers.values():
            breaker.listeners.append(slo.on_breaker_transition)

    def attach_observatory(self, observatory) -> None:
        """Hook a :class:`~repro.obs.attribution.ProviderLoadObservatory` in.

        The observatory sees every executed phase's outcomes (per-provider
        in-flight, queue depth, service rate, latency-vs-load curve, pushed
        into :class:`~repro.core.resilience.ProviderHealth`) and every
        completed op (latency-bucket exemplar linking).  Pure bookkeeping on
        the same contract as the tracer and SLO tracker: no clock movement,
        no RNG draws — attaching it cannot change a run's simulated timings.
        """
        self.observatory = observatory
        observatory.bind(self.registry, self.clock, self.health)

    def attach_scheduler(self, scheduler) -> None:
        """Hook a :class:`~repro.core.scheduling.FragmentScheduler` in.

        Striped reads switch from the static systematic-first ordering to
        load-aware subset selection: every usable placement is scored from
        health, breakers, and (when attached) the load observatory, and the
        k cheapest fragments serve — parity included when a data fragment's
        provider is queued.  Unlike the observatory, attaching the
        scheduler *intentionally* changes routing; detaching restores the
        static path byte-for-byte (gated by
        ``benchmarks/test_read_scheduling.py``).
        """
        self.scheduler = scheduler
        scheduler.bind(self)

    def detach_scheduler(self):
        """Detach the read scheduler; striped reads return to the static
        ordering.  Returns the scheduler (counters intact) or None."""
        scheduler = self.scheduler
        if scheduler is not None:
            self.scheduler = None
            scheduler.unbind()
        return scheduler

    def tenant_context(self, tenant: str | None) -> "_TenantScope":
        """Attribute ops executed inside the block to ``tenant``.

        Used by the service plane's frontend handlers: every
        :class:`~repro.metrics.collector.OpReport` (and, when tracing, the
        root op span) produced inside the block carries the tenant id, and
        SLO failures recorded for public ops raised inside it roll up to the
        tenant too.  Pure attribution — no clock movement, no RNG draws —
        and with ``tenant=None`` (or outside any block) reports are
        byte-identical to a tenant-free build.  Not reentrant: scheme ops do
        not nest, and neither do their tenant contexts.
        """
        return _TenantScope(self, tenant)

    @property
    def provider_names(self) -> list[str]:
        return self.api.names()

    def provider(self, name: str) -> SimulatedProvider:
        return self.api.provider(name)

    # ------------------------------------------------------- phase execution
    def _estimate_latency(self, name: str, size: int, direction: str = "down") -> float:
        """Deterministic latency estimate used for provider ranking."""
        lat = self.provider(name).latency
        bw = lat.download_bw if direction == "down" else lat.upload_bw
        linkbw = self.link.downlink if direction == "down" else self.link.uplink
        return lat.rtt + size / min(bw, linkbw)

    def _rank_providers(
        self,
        names: list[str],
        size: int = 0,
        direction: str = "down",
        adaptive: bool = False,
    ) -> list[str]:
        """Names sorted fastest-first for a transfer of ``size`` bytes.

        With ``adaptive`` the static estimate is scaled by each provider's
        health penalty, so a browned-out or error-prone provider loses its
        preferred-replica slot even though its nominal latency model says it
        should be fastest.
        """

        def score(n: str) -> float:
            est = self._estimate_latency(n, size, direction)
            if adaptive:
                est *= self._health_penalty(n)
            return est

        return sorted(names, key=score)

    def _health_penalty(self, name: str) -> float:
        """``name``'s health penalty under the resilience config's error
        weight — the one weighting replica ranking and the read scheduler
        share."""
        return self.health[name].penalty(self.resilience.health_error_weight)

    def _provider_usable(self, name: str) -> bool:
        """Available right now and not fast-failed by its circuit breaker."""
        now = self.clock.now
        if not self.provider(name).is_available(now):
            return False
        return self._breakers[name].would_allow(now)

    def _is_stale(self, provider: str, container: str, key: str) -> bool:
        """True when the provider missed writes to this key during an outage."""
        log = self._write_logs.get(provider)
        if not log:
            return False
        return log.has_pending(container, key)

    def _expected_latency(self, op: CloudOp) -> float:
        """Clean-model latency expectation for one completed request.

        Uses the provider's *base* latency (never the brownout-degraded one):
        the health tracker compares what the client observed against what a
        healthy provider would have delivered, so brownouts register as
        slowdown even though no request errors.
        """
        lat = self.provider(op.provider).latency
        if op.kind == "put":
            size = len(op.data or b"")
            return lat.rtt + size / min(lat.upload_bw, self.link.uplink)
        if op.kind == "get":
            size = len(op.response or b"")
            return lat.rtt + size / min(lat.download_bw, self.link.downlink)
        return lat.rtt

    def _note_breaker(self, breaker: CircuitBreaker) -> None:
        """Count the state ``breaker`` just moved to."""
        self.collector.bump(f"breaker_{breaker.state}")

    def _op(self, kind: str, path: str) -> _Op:
        """Scope of one operation: ``with self._op("put", path) as op: ...``,
        then ``op.report``.  Every entry point that issues phases opens
        exactly one; phases account to it through ``self._current``.  The
        public ops validate their arguments inside it, so a rejected call
        counts against availability like any other failed one."""
        return _Op(self, kind, path)

    def _run_phase(self, ops: list[CloudOp], bypass_breakers: bool = False) -> list[CloudOp]:
        """Issue one phase of concurrent requests and wait for all of it."""
        ops, elapsed = self._issue(ops, bypass_breakers=bypass_breakers)
        self._settle(elapsed, ops)
        return ops

    def _settle(
        self,
        until: float,
        waited: list[CloudOp],
        cancelled: tuple[tuple[CloudOp, float], ...] = (),
    ) -> None:
        """Wait ``until`` seconds from now on requests already issued: the
        one place a phase moves the clock or feeds health.

        ``waited`` are the requests the client actually observed complete;
        their latency against the clean expectation is what surfaces a
        brownout in the health EWMAs.  ``cancelled`` pairs a hedge leg that
        lost its race with the seconds it spent on the wire before the
        winner answered.  Its completion time is counterfactual — feeding
        it would poison health ranking with a number nobody observed — so
        ``min(finish, seconds)`` is booked as wasted provider work instead
        (``hedge_wasted_seconds``, a ``hedge.wasted`` trace event).  That
        wait is also a *censored* latency sample, "still pending after this
        long", and the only signal health gets about a primary that keeps
        losing hedges; feeding the lower bound keeps the slowdown EWMA
        adapting to fresh brownouts without leaking the counterfactual.
        """
        for o in waited:
            if o.ok and o.finish > 0.0:
                self.health[o.provider].record_latency(
                    o.finish, self._expected_latency(o)
                )
        if until > 0:
            self.clock.advance(until)
        for o, seconds in cancelled:
            if not o.ok or o.finish <= 0.0 or seconds <= 0.0:
                continue
            wasted = min(o.finish, seconds)
            self._held["hedge_wasted_seconds", o.provider].observe(wasted)
            self.health[o.provider].record_latency(
                wasted, self._expected_latency(o)
            )
            if self.tracer.enabled:
                self.tracer.event("hedge.wasted", provider=o.provider, wasted=wasted)

    def _issue(
        self, ops: list[CloudOp], at: float = 0.0, bypass_breakers: bool = False
    ) -> tuple[list[CloudOp], float]:
        """Put one phase of concurrent provider requests on the wire; return
        them, their outcomes filled in, and the phase's elapsed time.

        State changes apply instantly; wire time is computed by batching all
        transfer specs through the client link, and each request's
        ``finish`` is relative to the issue instant — ``at`` seconds from
        now, so a delayed hedge leg's trace spans and observatory arrivals
        sit where the leg actually fired.  Mutations aimed at an unavailable
        provider are recorded in its write log.  Issuing accounts the
        requests to the op in flight but never moves the clock and never
        feeds latency to health: how long the client waits, and for which
        of the requests, is :meth:`_settle`'s call.

        Resilience hooks: each involved provider's circuit breaker is
        consulted once per phase — a denied provider fast-fails every op
        aimed at it (:class:`CircuitOpenError`, zero wire cost, mutations
        write-logged).  Transient failures retry under the scheme's
        :class:`~repro.core.resilience.RetryPolicy`, with backoff waits and
        failed-attempt round trips serialized into the op's transfer spec.
        ``bypass_breakers`` is set by the consistency update, whose forced
        replay is itself the half-open probe that re-admits a healed
        provider.
        """
        acc = self._current
        uploads: list[tuple[int, TransferSpec]] = []
        downloads: list[tuple[int, TransferSpec]] = []
        now = self.clock.now
        start = now + at
        policy = self.retry_policy
        # Per-op attempt counts for request spans; only kept while tracing.
        attempt_counts: dict[int, int] | None = (
            {} if self.tracer.enabled else None
        )

        # One breaker decision per provider per phase, so a half-open probe
        # admits the provider's whole phase (and its outcome settles the
        # breaker) rather than flip-flopping per request.  Providers are
        # gated in the order the phase first names them — never in set order,
        # which is salted per process — so transitions, their listeners and
        # their mirrored metric events replay exactly.
        allowed: dict[str, bool] = {}
        for op in ops:
            name = op.provider
            if name in allowed:
                continue
            if bypass_breakers:
                allowed[name] = True
                continue
            breaker = self._breakers[name]
            before = breaker.state
            allowed[name] = breaker.allow(now)
            if breaker.state != before:
                self._note_breaker(breaker)

        for i, op in enumerate(ops):
            # Scripted crash injection: die *between* cloud ops, before this
            # one applies — earlier ops in the phase already mutated provider
            # state (a torn write), nothing after this line runs, and the
            # clock never advances past the kill point.
            if self._crash is not None and self._crash.tick():
                raise ClientCrash(self._crash.ops_seen, op.provider, op.kind)
            provider = self.provider(op.provider)
            health = self.health[op.provider]
            # Bypass skips the *gate* only; outcomes still feed the breaker,
            # so a successful consistency-update replay closes it.
            breaker = self._breakers[op.provider]
            if not allowed[op.provider]:
                # Client-side fast fail: no request leaves the machine.
                self._log_missed_mutation(op)
                self.collector.bump("breaker_fast_fail")
                op.error = CircuitOpenError(op.provider, now)
                continue
            lat = provider.effective_latency()
            data: bytes | None = None
            error: Exception | None = None
            penalty = 0.0  # serialized failed-attempt RTTs + backoff waits
            backoff_spent = 0.0
            for attempt in range(policy.max_attempts):
                try:
                    data = self._apply_op(provider, op)
                    error = None
                    break
                except TransientProviderError as exc:
                    error = exc
                    health.record_attempt(False)
                    # Each failed attempt burns a round trip before the
                    # client can react; it serializes with the retry chain.
                    rtt = lat.sample_rtt(self.rng)
                    uploads.append(
                        (i, TransferSpec(start_delay=penalty + rtt, size_bytes=0.0))
                    )
                    penalty += rtt
                    if attempt + 1 >= policy.max_attempts:
                        break
                    if (
                        policy.op_deadline is not None
                        and penalty >= policy.op_deadline
                    ):
                        break  # whole-op budget already burnt by retries
                    wait = policy.backoff(attempt, self._retry_rng)
                    if backoff_spent + wait > policy.deadline:
                        break  # backoff budget exhausted: give up early
                    if (
                        policy.op_deadline is not None
                        and penalty + wait > policy.op_deadline
                    ):
                        break  # next wait would blow the per-op deadline
                    backoff_spent += wait
                    penalty += wait
                    self.collector.bump("retries")
                    acc.retries += 1
                    if attempt_counts is not None:
                        # The wait sits at the end of this op's serialized
                        # penalty chain, which starts at the phase start.
                        self.tracer.add(
                            "retry.wait",
                            start + penalty - wait,
                            start + penalty,
                            provider=op.provider,
                            attempt=attempt,
                        )
                except ProviderUnavailable as exc:
                    error = exc
                    health.record_attempt(False)
                    break
                except CloudError as exc:
                    error = exc
                    break
            if attempt_counts is not None:
                attempt_counts[i] = attempt + 1
            if error is not None:
                if isinstance(error, (ProviderUnavailable, TransientProviderError)):
                    # Mutations the provider missed — outage or exhausted
                    # retries alike — are logged for the consistency update.
                    self._log_missed_mutation(op)
                # NoSuchObject is a definitive answer from a healthy
                # provider (the scrubber probes keys that may be lost); it
                # must not push the breaker toward open.
                if not isinstance(error, NoSuchObject):
                    before = breaker.state
                    breaker.record_failure(now)
                    if breaker.state != before:
                        self._note_breaker(breaker)
                op.error = error
                # Failure detection costs one control round-trip.
                uploads.append((i, lat.control_spec(self.rng, penalty)))
                continue
            health.record_attempt(True)
            before = breaker.state
            breaker.record_success(now)
            if breaker.state != before:
                self._note_breaker(breaker)
            op.ok = True
            op.response = data
            if op.kind == "put":
                size = len(op.data or b"")
                uploads.append((i, lat.upload_spec(size, self.rng, penalty)))
                acc.bytes_up += size
            elif op.kind == "get":
                size = len(data or b"")
                downloads.append((i, lat.download_spec(size, self.rng, penalty)))
                acc.bytes_down += size
            else:  # control-plane request
                uploads.append((i, lat.control_spec(self.rng, penalty)))

        elapsed = 0.0
        critical_rtt = 0.0
        for direction, linkbw in ((uploads, self.link.uplink), (downloads, self.link.downlink)):
            if not direction:
                continue
            finishes = simulate_transfers([s for _, s in direction], linkbw)
            for (idx, spec), finish in zip(direction, finishes):
                op = ops[idx]
                op.finish = max(op.finish, finish)
                if finish > elapsed:
                    elapsed = finish
                    critical_rtt = spec.start_delay

        if self.observatory is not None:
            self.observatory.on_phase(start, ops)

        if attempt_counts is not None:
            # Backfilled per-request child spans: each request's finish is
            # only known once the whole phase's transfers are simulated.
            for i, o in enumerate(ops):
                if isinstance(o.error, CircuitOpenError):
                    self.tracer.add(
                        "breaker.fast_fail", start, start, provider=o.provider, kind=o.kind
                    )
                    continue
                attrs = {
                    "provider": o.provider,
                    "kind": o.kind,
                    "ok": o.ok,
                    "attempts": attempt_counts.get(i, 1),
                }
                if o.error is not None:
                    attrs["error"] = type(o.error).__name__
                self.tracer.add("request", start, start + o.finish, **attrs)

        acc.cloud_ops += len(ops)
        acc.providers.update(allowed)  # keyed by exactly the phase's providers
        # Critical-path attribution: the phase ends with its slowest
        # transfer; that transfer's RTT is waiting, the rest is bytes.
        acc.rtt_wait += min(critical_rtt, elapsed)
        acc.transfer_time += max(elapsed - critical_rtt, 0.0)
        return ops, elapsed

    @staticmethod
    def _apply_op(provider: SimulatedProvider, op: CloudOp) -> bytes | None:
        if op.kind == "put":
            provider.put(op.container, op.key, op.data or b"")
            return None
        if op.kind == "get":
            return provider.get(op.container, op.key)
        if op.kind == "remove":
            provider.remove(op.container, op.key)
            return None
        if op.kind == "list":
            listing = provider.list(op.container)
            return "\n".join(listing).encode()
        if op.kind == "create":
            provider.create(op.container, exist_ok=True)
            return None
        if op.kind == "head":
            provider.head(op.container, op.key)
            return None
        raise AssertionError(f"unreachable op kind {op.kind}")  # pragma: no cover

    def _log_missed_mutation(self, op: CloudOp) -> None:
        if op.kind == "put":
            self._write_logs[op.provider].log_put(
                op.container, op.key, op.data or b"", self.clock.now
            )
        elif op.kind == "remove":
            self._write_logs[op.provider].log_remove(
                op.container, op.key, self.clock.now
            )
        else:
            return
        self._note_write_log(op.provider)
        if self.tracer.enabled:
            self.tracer.event(
                "write_log.fallback",
                provider=op.provider,
                kind=op.kind,
                key=op.key,
            )

    def _note_write_log(self, provider: str) -> None:
        """Count one logged mutation and publish the provider's pending depth."""
        self._held["write_log_entries_total", provider].inc()
        self._publish_write_log(provider)

    def _publish_write_log(self, provider: str) -> None:
        """Gauges of what ``provider``'s write log still owes."""
        log, held = self._write_logs[provider], self._held
        held["write_log_pending", provider].set(len(log))
        held["writelog_pending_bytes", provider].set(log.pending_bytes())
        if log.memory_limit_bytes is not None:
            held["writelog_spilled_bytes", provider].set(log.spilled_bytes())

    # -------------------------------------------------------------- recovery
    def pending_log(self, provider: str) -> WriteLog:
        return self._write_logs[provider]

    def take_over(self, dead: "Scheme") -> IntentJournal:
        """Inherit a crashed predecessor's durable client-local state.

        The write logs and the intent journal survive the process.  A
        replacement client pointed at the same Cloud-of-Clouds adopts the
        logs, so the consistency update still owes every mutation the dead
        client logged, then attaches the journal (a fresh one when the dead
        client had none) for :meth:`recover`.  Entries this client already
        logged itself (container creates from ``__init__`` under an
        outage) are folded in on top, last-wins.  Everything the dead
        client held only in memory is lost.
        """
        for name, inherited in dead._write_logs.items():
            own = self._write_logs.get(name)
            if own is None or inherited is own:
                continue
            for e in own.peek():
                if e.kind == "create":
                    inherited.log_create(e.container, e.logged_at)
                elif e.kind == "put":
                    inherited.log_put(e.container, e.key, e.data or b"", e.logged_at)
                else:
                    inherited.log_remove(e.container, e.key, e.logged_at)
            self._write_logs[name] = inherited
            self._publish_write_log(name)
        return self.attach_journal(dead.journal)

    def heal_returned(self) -> list[OpReport]:
        """Replay write logs of every provider that has come back.

        This is the paper's consistency update.  Returns one ``heal`` report
        per healed provider; recovery for a provider is complete when its log
        is empty afterwards (a provider failing *again* mid-replay keeps the
        unreplayed tail logged).
        """
        reports: list[OpReport] = []
        for name, log in self._write_logs.items():
            if not log or not self.provider(name).is_available():
                continue
            with self._op("heal", f"provider:{name}") as op:
                self._heal_phase(name, log)
            reports.append(op.report)
        return reports

    def _heal_phase(self, name: str, log: WriteLog) -> None:
        """Replay one provider's write log inside the current accounting.

        Called from :meth:`heal_returned` under a ``heal`` op of its own, or
        inline from :meth:`_heal_before_touching`, where the replay cost is
        attributed to the foreground operation that forced it.
        """
        # Replay from a *peek*, discarding each entry only once its replay op
        # succeeded: a client crash mid-replay then leaves the unapplied tail
        # in the durable log (re-replaying an applied put/remove is
        # idempotent), instead of losing everything a drain() took out.
        entries = log.peek()
        ops: list[CloudOp] = [CloudOp(name, "create", self.container)]
        op_entries: list[LoggedWrite | None] = [None]
        for e in entries:
            if e.kind == "create":
                continue  # the leading create op already covers it
            if e.kind == "put":
                ops.append(CloudOp(name, "put", e.container, e.key, e.data))
                op_entries.append(e)
            else:
                # Removing a key the provider never saw is a no-op; only
                # issue the delete when the object exists there.
                if self.provider(name).store.has(e.container, e.key):
                    ops.append(CloudOp(name, "remove", e.container, e.key))
                    op_entries.append(e)
                else:
                    log.discard(e.container, e.key)
        # The replay ignores circuit breakers: it only runs once the provider
        # is available again, and its outcome is the decisive health probe —
        # a successful replay closes the breaker, a failure re-opens it.
        # Respecting an open breaker here would fast-fail the drained log
        # back into itself without advancing the clock (a livelock).
        with self.tracer.span("heal.replay", provider=name) as sp:
            self._run_phase(ops, bypass_breakers=True)
            replayed = 0
            for e, o in zip(op_entries, ops):
                if e is None:
                    if o.ok:
                        for ce in entries:
                            if ce.kind == "create":
                                log.discard(ce.container, ce.key)
                    continue
                if o.ok:
                    # A failed op already re-logged itself (last-wins on the
                    # same key), so only successes leave the log.
                    log.discard(e.container, e.key)
                    replayed += 1
            sp.set(entries=len(entries), replayed=replayed)
        if replayed:
            self._held["heal_replayed_total", name].inc(replayed)
        # A replay that failed partway re-logs the unreplayed tail, so the
        # pending gauges reflect whatever is still owed after this pass.
        self._publish_write_log(name)

    def _heal_before_touching(self, providers: Iterable[str]) -> None:
        """Consistency-update any returned-but-stale provider we are about to use.

        ``providers`` is ordered, duplicates allowed: each inline heal draws
        from the scheme's RNG and advances the clock, so providers heal in
        the caller's placement order (first mention), never in set order.
        """
        for name in dict.fromkeys(providers):
            log = self._write_logs.get(name)
            if log and self.provider(name).is_available():
                self._heal_phase(name, log)

    def _mark_degraded(self) -> None:
        self._current.degraded = True

    # ----------------------------------------------------- placement helpers
    @staticmethod
    def _version_key(path: str, version: int) -> str:
        """``path#vN``: the key replicas are stored under, and the stem of
        a coded version's fragment keys (and of its payload-cache entry)."""
        return f"{path}#v{version}"

    @classmethod
    def _fragment_key(cls, path: str, index: int, version: int) -> str:
        return f"{cls._version_key(path, version)}.{index}"

    def _placement_storage_key(self, entry: FileEntry, idx: int) -> str:
        """Storage key of ``entry``'s placement ``idx``: replicas share one
        key per version, coded fragments get one each."""
        if entry.codec == "replication":
            return self._version_key(entry.path, entry.version)
        return self._fragment_key(entry.path, idx, entry.version)

    @staticmethod
    def _digest(data: bytes) -> str:
        """Fragment integrity digest (HAIL-style verification, cited [8])."""
        return hashlib.sha256(data).hexdigest()

    def _record_digest(self, key: str, data) -> str:
        """Digest ``data`` once at write time and remember it for ``key``."""
        digest = self._digest(data)
        self._digest_cache.record(key, data, digest)
        return digest

    def _digest_fragments(self, keys: list[str], fragments) -> tuple[str, ...]:
        """Digest a fragment batch, hashing concurrently when it is large.

        ``hashlib`` releases the GIL for sizeable buffers, so sibling
        fragments of one striped write hash in parallel on real cores.  The
        result is order-preserving and value-identical to hashing serially;
        only wall-clock changes, never simulated time or digest content.
        """
        if (
            _DIGEST_WORKERS > 1
            and sum(len(f) for f in fragments) >= _PARALLEL_DIGEST_MIN_BYTES
        ):
            digests = list(_digest_pool().map(self._digest, fragments))
        else:
            digests = [self._digest(f) for f in fragments]
        for key, frag, digest in zip(keys, fragments, digests):
            self._digest_cache.record(key, frag, digest)
        return tuple(digests)

    def _verify_digest(self, key: str, data, expected: str) -> bool:
        """Check ``data`` against ``expected``, skipping the hash when the
        returned buffer is the exact object digested at write time."""
        if self._digest_cache.matches(key, data, expected):
            return True
        if self._digest(data) != expected:
            return False
        self._digest_cache.record(key, data, expected)
        return True

    def _quorum_phase(self, ops: list[CloudOp], quorum: int) -> list[CloudOp]:
        """Run ``ops`` and acknowledge at the ``quorum``-th fastest success.

        Stragglers complete in the background, so the clock advances to the
        quorum's completion, not the phase maximum; with fewer successes
        than ``quorum`` the op waits for the last one and is degraded.
        """
        self._issue(ops)
        finishes = sorted(o.finish for o in ops if o.ok)
        until = 0.0
        if len(finishes) >= quorum:
            until = finishes[quorum - 1]
        elif finishes:
            until = finishes[-1]
            self._mark_degraded()
        # Stragglers' latencies are observed too: they complete, just not on
        # the op's critical path.
        self._settle(until, ops)
        return ops

    def _read_replicated(
        self,
        key_base: str,
        size: int,
        providers: list[str],
        version: int,
        digest: str | None = None,
    ) -> tuple[bytes, bool]:
        """Read one replica, fastest-available first; degraded on fallback.

        When ``digest`` is given every fetched copy is verified; a corrupt
        replica is treated like an unavailable one and the next copy serves
        (HAIL's availability-through-verification behaviour).

        Ranking is health-adaptive (a browned-out replica loses its
        preferred slot) and, when
        :attr:`~repro.core.resilience.ResilienceConfig.hedge_reads` is on
        and two candidates exist, a backup request fires at the next-ranked
        replica once the primary overruns its estimated p95 latency — the
        first intact response wins.
        """
        key = self._version_key(key_base, version)
        ranked = self._rank_providers(list(providers), size, "down", adaptive=True)
        degraded = False
        last_error: Exception | None = None

        candidates = [
            n
            for n in ranked
            if self._provider_usable(n)
            and not self._is_stale(n, self.container, key)
        ]
        degraded = len(candidates) < len(ranked)
        # The filter above vetted every candidate at this instant; only a
        # phase moves the clock or a breaker, so a candidate is vetted again
        # only once one has run.
        vetted = True
        if self.resilience.hedge_reads and len(candidates) >= 2:
            hedged = self._hedged_replicated_get(key, size, candidates, digest)
            if hedged is not None:
                data, hedge_degraded = hedged
                degraded = degraded or hedge_degraded
                if degraded:
                    self._mark_degraded()
                return data, degraded
            # Both hedge legs failed; fall back to the remaining replicas.
            degraded = True
            candidates = candidates[2:]
            vetted = False

        for name in candidates:
            if not vetted and (
                not self._provider_usable(name)
                or self._is_stale(name, self.container, key)
            ):
                degraded = True
                continue
            vetted = False
            (got,) = self._run_phase([CloudOp(name, "get", self.container, key)])
            if got.ok and got.response is not None:
                if digest is not None and not self._verify_digest(
                    key, got.response, digest
                ):
                    degraded = True  # corrupt copy: fall through to the next
                    continue
                if degraded:
                    self._mark_degraded()
                return got.response, degraded
            degraded = True
            last_error = got.error
        detail = f" ({last_error})" if last_error is not None else ""
        raise DataUnavailable(
            key_base, f"no intact replica reachable on {providers}{detail}"
        )

    def _hedged_replicated_get(
        self, key: str, size: int, candidates: list[str], digest: str | None
    ) -> tuple[bytes, bool] | None:
        """Primary request plus a delayed backup; first intact response wins.

        Models request hedging on the sim clock: the primary is issued; if
        its response would land after the hedge trigger delay (estimated p95
        for this transfer) — or it failed — the backup is issued at that
        delay and the op settles at the *winner's* finish.  The
        loser is cancelled, so its wire time is never waited on, but both
        requests were issued: providers metered both, and both count as
        cloud ops (hedging's real cost).

        Returns ``(data, degraded)`` or ``None`` when both legs failed.
        """
        primary, backup = candidates[0], candidates[1]
        cfg = self.resilience
        factor = max(
            self.health[primary].p95_slowdown(cfg.hedge_quantile_dev),
            cfg.hedge_min_delay_factor,
        )
        hedge_delay = self._estimate_latency(primary, size, "down") * factor

        # Both legs are issued, then one settle per exit: only the race
        # *winner* is waited on, the loser is cancelled at its finish.
        (p,), p_elapsed = self._issue([CloudOp(primary, "get", self.container, key)])
        p_ok = (
            p.ok
            and p.response is not None
            and (digest is None or self._verify_digest(key, p.response, digest))
        )
        if p_ok and p_elapsed <= hedge_delay:
            self._settle(p_elapsed, [p])
            return p.response, False

        # Primary is slow, failed or corrupt: fire the backup.  A detected
        # failure releases the hedge immediately; a silently slow primary
        # only releases it at the trigger delay.
        self.collector.bump("hedged_reads")
        self._current.hedged = True
        if self.tracer.enabled:
            self.tracer.event(
                "hedge.fired", primary=primary, backup=backup, delay=hedge_delay
            )
        backup_start = hedge_delay if p_ok else min(hedge_delay, p_elapsed)
        (b,), b_elapsed = self._issue(
            [CloudOp(backup, "get", self.container, key)], at=backup_start
        )
        b_ok = (
            b.ok
            and b.response is not None
            and (digest is None or self._verify_digest(key, b.response, digest))
        )
        b_finish = backup_start + b_elapsed

        if p_ok and (not b_ok or p_elapsed <= b_finish):
            # The backup was on the wire from backup_start until the primary
            # answered; that slice is wasted provider work, not latency.
            self._settle(p_elapsed, [p], ((b, max(0.0, p_elapsed - backup_start)),))
            return p.response, False
        if b_ok:
            self.collector.bump("hedge_wins")
            if self.tracer.enabled:
                self.tracer.event("hedge.win", provider=backup)
            self._settle(b_finish, [b], ((p, b_finish),))
            # Degraded only when the primary actually failed — a hedge that
            # merely outran a slow-but-healthy primary is a normal read.
            return b.response, not p_ok
        # Both legs failed: charge the time burned finding out.
        self._settle(max(p_elapsed, b_finish), ())
        return None

    def _encode_fragments(
        self, codec: ErasureCodec, data: bytes
    ) -> list[bytes | memoryview]:
        """Every coded write, read-modify-write, repair and metadata-group
        write encodes here: a traced span plus the
        ``codec_encode_bytes_total`` counter.  Fragments are
        :meth:`~repro.erasure.codec.ErasureCodec.encode_views` results —
        zero-copy views where the codec allows."""
        with self.tracer.span(
            "codec.encode", codec=type(codec).__name__, size=len(data)
        ):
            fragments = codec.encode_views(data)
        self._held["codec_encode_bytes_total", type(codec).__name__].inc(len(data))
        return fragments

    def _read_striped(
        self,
        key_base: str,
        size: int,
        codec: ErasureCodec,
        placements: list[tuple[str, int]],
        version: int,
        digests: tuple[str, ...] | None = None,
    ) -> tuple[bytes, bool]:
        """Fetch k fragments and decode; reconstruct through parity when
        a preferred provider is out (the degraded read of §III-C).

        A systematic codec prefers its data fragments (a plain join); a
        non-systematic one (FMSR) decodes from any k, so it takes the k
        fastest.

        With ``digests``, every fetched fragment is verified and a corrupt
        one counts as an erasure — reconstruction routes around silent
        provider-side corruption exactly like an outage."""
        by_index = {idx: prov for prov, idx in placements}
        if len(by_index) < codec.k:
            raise DataUnavailable(key_base, "placement lost too many fragments")

        def usable(idx: int) -> bool:
            prov = by_index[idx]
            key = self._fragment_key(key_base, idx, version)
            return self._provider_usable(prov) and not self._is_stale(
                prov, self.container, key
            )

        def verified(idx: int, data: bytes) -> bool:
            if digests is None or idx >= len(digests):
                return True
            key = self._fragment_key(key_base, idx, version)
            return self._verify_digest(key, data, digests[idx])

        order = sorted(by_index)  # systematic data fragments first
        if not codec.systematic:
            order = self._rank_providers_by_index(by_index, size, codec)
        preferred = order[: codec.k]
        # Degraded means a fragment the static policy wanted was out of
        # reach — the scheduler routing around a *queued* provider is an
        # optimisation, not degradation, so the flag keeps its meaning.
        degraded = any(not usable(i) for i in preferred)
        decision = None
        if self.scheduler is not None:
            decision = self.scheduler.decide(key_base, by_index, size, codec, usable)
            if len(decision.order) >= codec.k:
                order = list(decision.order)
                self._note_sched_decision(decision, by_index)
            else:
                decision = None  # too few usable; static path raises below
        chosen = [i for i in order if usable(i)][: codec.k]
        if len(chosen) < codec.k:
            raise DataUnavailable(
                key_base,
                f"only {len(chosen)} of {codec.k} required fragments reachable",
            )
        fragments: dict[int, bytes] = {}
        rejected: set[int] = set()
        if decision is not None and decision.hedge is not None:
            fragments, rejected, hedge_degraded = self._striped_hedged_fetch(
                key_base, version, by_index, chosen, decision.hedge, verified
            )
            degraded = degraded or hedge_degraded
        else:
            ops = [
                CloudOp(
                    by_index[i], "get", self.container, self._fragment_key(key_base, i, version)
                )
                for i in chosen
            ]
            for idx, got in zip(chosen, self._run_phase(ops)):
                if got.ok and got.response is not None:
                    if verified(idx, got.response):
                        fragments[idx] = got.response
                    else:
                        rejected.add(idx)
        if len(fragments) < codec.k:
            # Outage-boundary races and corrupt fragments both land here:
            # top up from the remaining healthy placements.  Replacements
            # fetch in parallel batches sized to the shortfall — a read that
            # lost f fragments pays ceil(f / need) extra round trips, not f.
            remaining = [
                i
                for i in order
                if i not in fragments and i not in rejected and usable(i)
            ]
            while len(fragments) < codec.k and remaining:
                need = codec.k - len(fragments)
                batch, remaining = remaining[:need], remaining[need:]
                retry = self._run_phase(
                    [
                        CloudOp(
                            by_index[i],
                            "get",
                            self.container,
                            self._fragment_key(key_base, i, version),
                        )
                        for i in batch
                    ]
                )
                for i, got in zip(batch, retry):
                    data = got.response
                    if got.ok and data is not None and verified(i, data):
                        fragments[i] = data
            degraded = True
        if len(fragments) < codec.k:
            raise DataUnavailable(key_base, "lost fragments mid-read")
        if degraded:
            self._mark_degraded()
        cached = self._payload_cache.lookup(
            self._version_key(key_base, version), fragments
        )
        if cached is not None:
            # Every fetched fragment is the exact object encoded at write
            # time, so the decode result is provably the cached payload.
            return cached, degraded
        with self.tracer.span("codec.decode", codec=type(codec).__name__, size=size):
            data = codec.decode(fragments, size)
        self._held["codec_decode_bytes_total", type(codec).__name__].inc(size)
        return data, degraded

    def _rmw_striped(
        self,
        entry: FileEntry,
        offset: int,
        patch: bytes,
        new_content: bytes,
        codec: ErasureCodec,
    ) -> FileEntry:
        """In-place partial update of a striped object (same size).

        This is the erasure-code write-amplification the paper hammers on:
        updating a sub-fragment region requires reading the old affected data
        fragments plus every parity fragment, then writing them all back —
        for RAID5 and a small patch, *"a total of 4 accesses, including
        traffic of 2 reads and 2 writes over the network"*.

        The object's size (hence shard boundaries) must be unchanged;
        growth is handled by the caller as a full restripe.
        """
        if len(new_content) != entry.size:
            raise ValueError("_rmw_striped requires an in-place (same-size) update")
        by_index = dict(entry.placements)
        providers_by_index = {idx: prov for prov, idx in entry.placements}
        if len(by_index) != codec.n:
            raise ValueError(
                f"entry {entry.path!r} has {len(by_index)} placements, codec needs {codec.n}"
            )
        frag_len = codec.fragment_size(entry.size)
        if frag_len == 0:
            return entry
        lo = offset // frag_len
        hi = (offset + max(len(patch), 1) - 1) // frag_len
        affected = [i for i in range(codec.k) if lo <= i <= hi]
        parities = list(range(codec.k, codec.n))
        touched = affected + parities
        self._heal_before_touching([providers_by_index[i] for i in touched])
        # In-place RMW overwrites the *current* version's fragments, so a
        # crash mid-op can never be rolled back (the old bytes are partially
        # gone).  min_needed=0 pins recovery to roll forward from the
        # journaled post-update payload.
        self._journal_plan(
            version=entry.version,
            codec_name=type(codec).__name__,
            min_needed=0,
            sites=tuple(
                (
                    providers_by_index[i],
                    self._fragment_key(entry.path, i, entry.version),
                )
                for i in touched
            ),
        )

        # Phase 1: read old affected data fragments and old parities.
        read_ops = [
            CloudOp(
                providers_by_index[i],
                "get",
                self.container,
                self._fragment_key(entry.path, i, entry.version),
            )
            for i in touched
        ]
        if not all(o.ok for o in self._run_phase(read_ops)):
            self._mark_degraded()

        # Phase 2: write the new affected fragments + parities.  Fragment
        # content comes from re-encoding the composed object; unaffected data
        # fragments are bit-identical because size and boundaries are fixed.
        fragments = self._encode_fragments(codec, new_content)
        write_ops = [
            CloudOp(
                providers_by_index[i],
                "put",
                self.container,
                self._fragment_key(entry.path, i, entry.version),
                fragments[i],
            )
            for i in touched
        ]
        self._run_phase(write_ops)
        # Re-record digests for the rewritten keys only, as one batch like a
        # write's: their stores now hold the fresh buffers.  Untouched data
        # fragments keep their old stored object — and their old digest,
        # since size and boundaries are fixed.  (Recording a never-stored
        # buffer would let its id be recycled while the cache entry lives,
        # breaking the identity-skip soundness.)
        fresh = self._digest_fragments(
            [op.key for op in write_ops], [fragments[i] for i in touched]
        )
        rewritten = dict(zip(touched, fresh))
        new_digests = []
        for i, f in enumerate(fragments):
            if i in rewritten:
                new_digests.append(rewritten[i])
            elif entry.digests is not None and i < len(entry.digests):
                new_digests.append(entry.digests[i])
            else:
                new_digests.append(self._digest(f))
        # The rewritten keys freed their old objects, so the old payload
        # entry is stale either way.  It is re-recorded over the objects now
        # held at each index when every rewritten index holds its fresh
        # fragment (stored, or logged for an absent provider) and every
        # untouched one is still *the very object the old entry recorded*:
        # that object encodes the old payload's bytes at its index, which a
        # same-size update left unchanged.  A tampered, lost or unrecorded
        # untouched fragment fails the check, and the next read decodes
        # verified fragments instead.
        cache_key = self._version_key(entry.path, entry.version)
        held = {idx: data for idx, data, _ in self._held_placements(entry)}
        kept = {i: data for i, data in held.items() if i not in rewritten}
        if (
            len(held) == codec.n
            and all(held[i] is fragments[i] for i in rewritten)
            and (not kept or self._payload_cache.lookup(cache_key, kept) is not None)
        ):
            self._payload_cache.record(
                cache_key, [held[i] for i in range(codec.n)], new_content
            )
        else:
            self._payload_cache.discard(cache_key)
        return replace(entry, modified=self.clock.now, digests=tuple(new_digests))

    def _note_sched_decision(self, decision, by_index: dict[int, str]) -> None:
        """Account one scheduler routing decision (metrics + trace event)."""
        held = self._held
        held["sched_decisions_total"].inc()
        if decision.parity_picks:
            held["sched_parity_fragments_total"].inc(decision.parity_picks)
        if decision.rotated:
            held["sched_rotations_total"].inc()
        if decision.hedge is not None:
            held["sched_queue_wait_seconds", by_index[decision.hedge.gating]].observe(
                decision.hedge.wait
            )
        if self.tracer.enabled:
            self.tracer.event(
                "sched.decision",
                key=decision.key,
                chosen=list(decision.chosen),
                parity=decision.parity_picks,
                rotated=decision.rotated,
                hedge=(
                    None
                    if decision.hedge is None
                    else {
                        "backup": decision.hedge.backup,
                        "gating": decision.hedge.gating,
                        "wait": decision.hedge.wait,
                        "cost": decision.hedge.cost,
                    }
                ),
            )

    def _striped_hedged_fetch(
        self,
        key_base: str,
        version: int,
        by_index: dict[int, str],
        chosen: list[int],
        hedge,
        verified,
    ) -> tuple[dict[int, bytes], set[int], bool]:
        """Fetch ``chosen`` fragments plus a concurrent backup fragment;
        advance the clock only to the winning subset's finish.

        Capacity-aware hedging (see :mod:`repro.core.scheduling`): the
        scheduler already decided the gating provider's estimated queue
        wait exceeds the backup's wire+decode cost, so both legs fire at
        once and the first complete k-subset serves.  Mirrors
        :meth:`_hedged_replicated_get`'s accounting — only outcomes that
        were actually waited on feed the health EWMAs; the cancelled leg's
        wire time is recorded as hedge waste.

        Returns ``(fragments, rejected, degraded)``; a failed or corrupt
        fetch falls back to merged bookkeeping and lets the caller's top-up
        loop finish the read.
        """
        gating, backup = hedge.gating, hedge.backup
        main, main_done = self._issue(
            [
                CloudOp(
                    by_index[i],
                    "get",
                    self.container,
                    self._fragment_key(key_base, i, version),
                )
                for i in chosen
            ]
        )
        self.collector.bump("hedged_reads")
        self._held["sched_hedges_total"].inc()
        self._current.hedged = True
        if self.tracer.enabled:
            self.tracer.event(
                "hedge.fired",
                primary=by_index[gating],
                backup=by_index[backup],
                delay=0.0,
            )
        (b,), b_done = self._issue(
            [
                CloudOp(
                    by_index[backup],
                    "get",
                    self.container,
                    self._fragment_key(key_base, backup, version),
                )
            ]
        )
        outcomes = dict(zip(chosen, main))

        def good(i: int, o: CloudOp) -> bool:
            return o.ok and o.response is not None and verified(i, o.response)

        main_good = all(good(i, o) for i, o in outcomes.items())
        others_good = all(good(i, o) for i, o in outcomes.items() if i != gating)
        b_good = good(backup, b)
        if main_good or (b_good and others_good):
            others = max(
                (o.finish for i, o in outcomes.items() if i != gating),
                default=0.0,
            )
            alt_done = max(others, b_done) if b_good else math.inf
            if main_good and main_done <= alt_done:
                # The chosen subset answered first: normal read, backup leg
                # cancelled at the winner's finish.
                self._settle(main_done, main, ((b, main_done),))
                return {i: o.response for i, o in outcomes.items()}, set(), False
            # The backup subset completed first (or the gating fragment
            # failed outright): decode around the gating provider.
            self.collector.bump("hedge_wins")
            self._held["sched_hedge_wins_total"].inc()
            if self.tracer.enabled:
                self.tracer.event("hedge.win", provider=by_index[backup])
            self._settle(
                alt_done,
                [o for i, o in outcomes.items() if i != gating] + [b],
                ((outcomes[gating], alt_done),),
            )
            fragments = {i: o.response for i, o in outcomes.items() if i != gating}
            fragments[backup] = b.response
            # Degraded only when the gating fragment actually failed — a
            # backup that merely outran a queued provider is a normal read.
            return fragments, set(), not main_good
        # A non-gating fragment failed or was corrupt: no subset won.  Wait
        # out both legs, keep every intact fragment, and let the top-up
        # logic recover — same degraded semantics as the unhedged path.
        self._settle(max(main_done, b_done), main + [b])
        fragments, rejected = {}, set()
        for i, o in [*outcomes.items(), (backup, b)]:
            if o.ok and o.response is not None:
                if verified(i, o.response):
                    fragments[i] = o.response
                else:
                    rejected.add(i)
        return fragments, rejected, True

    def _rank_providers_by_index(
        self, by_index: dict[int, str], size: int, codec: ErasureCodec
    ) -> list[int]:
        """Fragment indices sorted by estimated fetch time, fastest first.

        Static (clean latency model only) by default; with a read
        scheduler attached the load-aware score takes over, so the same
        ranking DepSky-CA and FMSR reads use inherits queue awareness.
        """
        frag_size = codec.fragment_size(size)
        if self.scheduler is not None:
            return sorted(
                by_index,
                key=lambda i: (
                    self.scheduler.score_provider(by_index[i], frag_size),
                    i,
                ),
            )
        return sorted(
            by_index,
            key=lambda i: self._estimate_latency(by_index[i], frag_size, "down"),
        )

    def _remove_placements(self, entry: FileEntry) -> None:
        """Delete every stored object of ``entry``'s version."""
        self._heal_before_touching(entry.providers)
        self._run_phase(
            [
                CloudOp(
                    prov,
                    "remove",
                    self.container,
                    self._placement_storage_key(entry, idx),
                )
                for prov, idx in entry.placements
            ]
        )

    # --------------------------------------------------- metadata management
    def _meta_write_targets(self) -> list[str]:
        """Providers that receive directory metadata groups: all of them,
        unless the scheme pins metadata to a subset."""
        return self.provider_names

    def _meta_codec(self) -> ErasureCodec | None:
        """Codec for metadata groups; None means plain replication."""
        return None

    def _persist_metadata(self, directory: str) -> None:
        """Write-through the directory's metadata group (version = clock tick)."""
        blob = self.meta.encode_dir(directory)
        key_base = group_key(directory)
        targets = self._meta_write_targets()
        codec = self._meta_codec()
        # Journal the redo image before the group write scatters: a crash
        # mid-persist can tear a striped group beyond k-of-n reconstruction,
        # and recovery then reads this copy instead (see recover_namespace).
        if self.journal is not None and self._current.seq is not None:
            self.journal.attach_meta(self._current.seq, directory, blob)
        # Metadata groups are identified by key alone (no version suffix):
        # the newest write wins, exactly like the paper's metadata updates.
        self._heal_before_touching(targets)
        if codec is None:
            ops = [CloudOp(p, "put", self.container, key_base, blob) for p in targets]
        else:
            fragments = self._encode_fragments(codec, blob)
            ops = [
                CloudOp(p, "put", self.container, f"{key_base}.{i}", fragments[i])
                for i, p in enumerate(targets)
            ]
        if self.sequential_replication and codec is None:
            for op in ops:
                self._run_phase([op])
        else:
            self._run_phase(ops)
        self.meta.touch(directory)
        self._meta_sizes[directory] = len(blob)

    def _fetch_metadata(self, directory: str) -> None:
        """Charge a metadata-group read on a client-cache miss."""
        if self.meta.is_cached(directory):
            return
        size = self._meta_sizes.get(directory)
        if size is None:
            # Never persisted (empty directory): nothing to fetch.
            self.meta.touch(directory)
            return
        key_base = group_key(directory)
        targets = self._meta_write_targets()
        codec = self._meta_codec()
        try:
            if codec is None:
                self._read_replicated_meta(key_base, targets)
            else:
                placements = [(p, i) for i, p in enumerate(targets)]
                self._read_striped_meta(key_base, size, codec, placements)
        except DataUnavailable:
            # Metadata group unreachable in the cloud; the in-client
            # namespace remains authoritative, so degrade but continue.
            self._mark_degraded()
        self.meta.touch(directory)

    def _read_replicated_meta(self, key: str, providers: list[str]) -> None:
        ranked = self._rank_providers(list(providers), 0, "down", adaptive=True)
        for name in ranked:
            if not self._provider_usable(name) or self._is_stale(
                name, self.container, key
            ):
                self._mark_degraded()
                continue
            (got,) = self._run_phase([CloudOp(name, "get", self.container, key)])
            if got.ok:
                return
            self._mark_degraded()
        raise DataUnavailable(key, f"no metadata replica reachable on {providers}")

    def _read_striped_meta(
        self,
        key_base: str,
        size: int,
        codec: ErasureCodec,
        placements: list[tuple[str, int]],
    ) -> None:
        by_index = {idx: prov for prov, idx in placements}
        order = sorted(by_index)
        usable = [
            i
            for i in order
            if self._provider_usable(by_index[i])
            and not self._is_stale(by_index[i], self.container, f"{key_base}.{i}")
        ]
        if any(i not in usable for i in order[: codec.k]):
            self._mark_degraded()
        chosen = usable[: codec.k]
        if len(chosen) < codec.k:
            raise DataUnavailable(key_base, "metadata stripe unreachable")
        ops = [
            CloudOp(by_index[i], "get", self.container, f"{key_base}.{i}")
            for i in chosen
        ]
        self._run_phase(ops)

    # ------------------------------------------------- namespace recovery
    def recover_namespace(self) -> OpReport:
        """Rebuild the in-client namespace from the cloud metadata groups.

        This is what a restarted client (or a second machine pointed at the
        same Cloud-of-Clouds) runs before serving: list the metadata-group
        objects, fetch each through the scheme's own redundancy, and merge
        the entries.  Everything is charged like normal traffic.

        Returns a ``recover`` report; afterwards :attr:`namespace` holds
        every file a previous client persisted metadata for.
        """
        with self._op("recover", "namespace") as op:
            codec = self._meta_codec()
            targets = self._meta_write_targets()
            # Consistency-update any returned-but-stale metadata provider first:
            # a replica that missed group writes during an outage must not serve
            # the recovery read (its blob predates the writes its log owes).
            self._heal_before_touching(targets)
            group_keys = self._list_meta_group_keys(targets, striped=codec is not None)
            for base_key in sorted(group_keys):
                blob, entries = self._apply_meta_group(base_key, codec, targets)
                if entries:
                    directory = group_directory(base_key)
                    self._meta_sizes[directory] = len(blob)
                    self.meta.touch(directory)
        return op.report

    def _apply_meta_group(
        self, base_key: str, codec: ErasureCodec | None, targets: list[str]
    ) -> tuple[bytes, list[FileEntry]]:
        """Merge one metadata group from the first copy that decodes.

        Returns ``(blob, entries)``.  A listed group with no copy in reach
        raises ``DataUnavailable``: recovering it as an empty directory
        would drop every file it lists.  Copies are fetched lazily
        (:meth:`_meta_copies`), so an intact first copy costs one fetch.  A
        copy that does not decode — a codec or
        group ``ValueError`` — was torn by a crash mid-persist (fragments of
        two generations, or bytes that are not a metadata group) or damaged
        in place.  The redo image a pending intent journaled for the
        directory is then the one consistent version and wins; without one
        the next copy is tried, and ``ValueError`` is raised only when none
        decodes.
        """
        fallback = self._journaled_meta_blob(group_directory(base_key))
        error: ValueError | None = None
        for copy in self._meta_copies(base_key, codec, targets):
            try:
                blob = copy if codec is None else self._join_meta(codec, copy)
                return blob, self.meta.apply_group(blob)
            except ValueError as exc:
                if fallback is not None:
                    break
                error = exc
        if error is not None:
            raise error
        if fallback is None:
            raise DataUnavailable(base_key, "no copy of the metadata group in reach")
        return fallback, self.meta.apply_group(fallback)

    def _journaled_meta_blob(self, directory: str) -> bytes | None:
        """Redo image of ``directory``'s group from a pending intent, if any."""
        if self.journal is None:
            return None
        for intent in self.journal.pending():
            blob = intent.meta_blobs.get(directory)
            if blob is not None:
                return blob
        return None

    def _list_meta_group_keys(self, targets: list[str], striped: bool) -> set[str]:
        """Metadata-group base keys, from the first listable provider.

        Group writes still owed to *unreachable* providers sit in their
        write logs; those keys are unioned in so a group whose publish never
        reached any listable provider is still recovered (from the durable
        log) rather than silently dropped.
        """
        logged: set[str] = set()
        for log in self._write_logs.values():
            for e in log.peek():
                if e.kind == "put" and is_group_key(e.key):
                    logged.add(self._meta_base_key(e.key, striped))
        for name in self._rank_providers(list(targets), 0, "down"):
            if not self.provider(name).is_available():
                continue
            keys = self._list_container(name)
            if keys is None:
                continue
            groups: set[str] = set(logged)
            for key in keys:
                if not is_group_key(key):
                    continue
                groups.add(self._meta_base_key(key, striped))
            return groups
        if logged:
            return logged
        raise DataUnavailable("namespace", f"no metadata provider listable in {targets}")

    def _list_container(self, provider: str) -> list[str] | None:
        """One ``list`` request: the keys ``provider`` holds for this scheme,
        or None when the request failed."""
        (got,) = self._run_phase([CloudOp(provider, "list", self.container)])
        if not got.ok or got.response is None:
            return None
        return got.response.decode().split("\n") if got.response else []

    @staticmethod
    def _meta_base_key(key: str, striped: bool) -> str:
        if striped:
            base, dot, _idx = key.rpartition(".")
            return base if dot else key
        return key

    def _meta_copies(
        self, base_key: str, codec: ErasureCodec | None, targets: list[str]
    ) -> Iterator[bytes | dict[int, bytes]]:
        """Candidate copies of one metadata group, fetched only as consumed.

        Replicated: each stored replica in rank order, then the newest
        *logged* publish — the durable client-local record of an unreplayed
        write.  Striped: the first k fragments in placement order, then
        every k-subset that takes in one more fragment.  A replica or
        fragment whose provider is unreachable, or stale (a pending
        write-log entry supersedes what it stores), is never fetched; a
        stale fragment's logged payload is the current one and serves.
        """
        if codec is None:
            for name in self._rank_providers(list(targets), 0, "down"):
                if not self.provider(name).is_available() or self._is_stale(
                    name, self.container, base_key
                ):
                    continue
                (got,) = self._run_phase([CloudOp(name, "get", self.container, base_key)])
                if got.ok and got.response is not None:
                    yield got.response
            logged = self._newest_logged_meta(base_key, targets)
            if logged is not None:
                yield logged
            return
        fragments: dict[int, bytes] = {}
        for i, name in enumerate(targets):
            key = f"{base_key}.{i}"
            if self._is_stale(name, self.container, key) or not self.provider(
                name
            ).is_available():
                data = self._logged_payload(name, key)
            else:
                (got,) = self._run_phase([CloudOp(name, "get", self.container, key)])
                data = got.response if got.ok else None
            if data is None:
                continue
            for rest in combinations(fragments, codec.k - 1):
                yield {**{j: fragments[j] for j in rest}, i: data}
            fragments[i] = data

    @staticmethod
    def _join_meta(codec: ErasureCodec, fragments: dict[int, bytes]) -> bytes:
        """Decode a k-subset of a striped group's fragments into its blob."""
        frag_len = len(next(iter(fragments.values())))
        # Group blobs are JSON: decode at full capacity and strip the zero
        # padding (JSON never ends in NUL bytes).
        return codec.decode(fragments, frag_len * codec.k).rstrip(b"\x00")

    def _newest_logged_meta(self, key: str, targets: list[str]) -> bytes | None:
        """Most recently logged (unreplayed) publish of a replicated group."""
        best: LoggedWrite | None = None
        for name in targets:
            log = self._write_logs.get(name)
            e = log.pending(self.container, key) if log else None
            if e is not None and e.kind == "put" and (
                best is None or e.logged_at >= best.logged_at
            ):
                best = e
        return None if best is None else best.data

    # ------------------------------------------------------------ public API
    def put(self, path: str, data: bytes) -> OpReport:
        """Create or overwrite a whole file."""
        with self._op("put", path) as op:
            path = op.path = normalize_path(path)
            prev = self.namespace.lookup(path)
            data = bytes(data)
            self._journal_arm("put", prev, data)
            self._publish(prev, self._write_object(path, data, prev))
        return op.report

    def get(self, path: str) -> tuple[bytes, OpReport]:
        """Read a whole file (degraded reconstruction during outages)."""
        with self._op("get", path) as op:
            path = op.path = normalize_path(path)
            self._fetch_metadata(dirname(path))
            entry = self.namespace.get(path)
            data, _degraded = self._read_object(entry)
            if not isinstance(data, bytes):
                data = bytes(data)  # materialize zero-copy buffers at the API edge
            if len(data) != entry.size:
                raise AssertionError(
                    f"scheme returned {len(data)} bytes for {path}, expected {entry.size}"
                )
            self.namespace.upsert(entry.touched())
        return data, op.report

    def update(self, path: str, offset: int, patch: bytes) -> OpReport:
        """Partial write at ``offset`` (the paper's small-update case)."""
        with self._op("update", path) as op:
            path = op.path = normalize_path(path)
            if offset < 0:
                raise ValueError(f"offset must be >= 0, got {offset}")
            entry = self.namespace.get(path)
            old = memoryview(self._peek_content(entry))
            # One copy: old bytes around the patch, zero-filled when the
            # patch starts past the current end.
            new_content = b"".join(
                (
                    old[:offset],
                    bytes(max(0, offset - len(old))),
                    patch,
                    old[offset + len(patch) :],
                )
            )
            self._journal_arm("update", entry, new_content)
            self._publish(entry, self._update_object(entry, offset, patch, new_content))
        return op.report

    def remove(self, path: str) -> OpReport:
        """Delete a file everywhere."""
        with self._op("remove", path) as op:
            path = op.path = normalize_path(path)
            entry = self.namespace.remove(path)
            self._journal_arm("remove", entry, None)
            # Removes know their plan up front: the keys being deleted.  A
            # crashed remove always rolls forward (the client already acked
            # nothing, and half-deleted redundancy is worthless).
            self._journal_plan(
                version=entry.version,
                codec_name=entry.codec,
                min_needed=0,
                sites=tuple(
                    (prov, self._placement_storage_key(entry, idx))
                    for prov, idx in entry.placements
                ),
            )
            self._payload_cache.discard(self._version_key(path, entry.version))
            self._remove_placements(entry)
            self._forget(path)
            self._persist_metadata(dirname(path))
            self._journal_commit()
        return op.report

    def stat(self, path: str) -> tuple[FileEntry, OpReport]:
        """Metadata lookup (the access type dominating real workloads)."""
        with self._op("stat", path) as op:
            path = op.path = normalize_path(path)
            self._fetch_metadata(dirname(path))
            entry = self.namespace.get(path)
        return entry, op.report

    def listdir(self, directory: str) -> tuple[list[str], OpReport]:
        """Directory listing through the metadata group."""
        with self._op("list", directory) as op:
            self._fetch_metadata(directory if directory == "/" else normalize_path(directory))
            names = self.namespace.list_dir(directory)
        return names, op.report

    # ------------------------------------------------- content introspection
    def _peek_content(self, entry: FileEntry) -> bytes:
        """The client's own view of current file content (no wire cost).

        Used by ``update`` to compose the post-update object: the writer
        already holds the file it is modifying, so materialising it from the
        simulator's stores is bookkeeping, not a billed transfer — but what
        the stores hand back is trusted no further than a read trusts it.
        When every held fragment is the very object encoded at write time
        (the identity rule of :meth:`_read_striped`) the recorded payload
        is returned without decoding; otherwise only objects that pass
        their write-time digest are decoded, so a silently corrupted
        fragment can never be baked into the next version.
        """
        codec = self._codec_for(entry)
        if codec is None:
            for idx, data, trusted in self._held_placements(entry):
                if trusted or self._placement_intact(entry, idx, data):
                    return data
            raise DataUnavailable(entry.path, "no intact replica content found")
        held = list(self._held_placements(entry))
        if len(held) >= codec.k:
            cached = self._payload_cache.lookup(
                self._version_key(entry.path, entry.version),
                {idx: data for idx, data, _ in held},
            )
            if cached is not None:
                return cached
        intact = {
            idx: data
            for idx, data, trusted in held
            if trusted or self._placement_intact(entry, idx, data)
        }
        if len(intact) < codec.k:
            raise DataUnavailable(
                entry.path,
                f"only {len(intact)} of {codec.k} required fragments intact",
            )
        return codec.decode(intact, entry.size)

    def _held_placements(
        self, entry: FileEntry
    ) -> Iterator[tuple[int, bytes, bool]]:
        """``(index, object, trusted)`` for each placement still in reach.

        A pending write-log payload supersedes whatever the provider
        currently stores (the stored object is stale until the consistency
        update replays the log) and is trusted: it never left the client.
        A stored object is not — callers verify it.
        """
        for prov, idx in entry.placements:
            key = self._placement_storage_key(entry, idx)
            logged = self._logged_payload(prov, key)
            if logged is not None:
                yield idx, logged, True
                continue
            store = self.provider(prov).store
            if store.has(self.container, key):
                yield idx, store.get(self.container, key).data, False

    def _placement_intact(self, entry: FileEntry, idx: int, data) -> bool:
        """``data`` matches the digest recorded for placement ``idx`` (an
        entry without digests has nothing to check against)."""
        expected = self._expected_digest(entry, idx)
        return expected is None or self._verify_digest(
            self._placement_storage_key(entry, idx), data, expected
        )

    def _logged_payload(self, provider: str, key: str) -> bytes | memoryview | None:
        """The payload of a put ``provider`` still owes for ``key``, if any
        (a logged remove carries none)."""
        log = self._write_logs.get(provider)
        e = log.pending(self.container, key) if log else None
        return None if e is None else e.data

    @staticmethod
    def _placement_changed(old: FileEntry, new: FileEntry) -> bool:
        return (
            old.version != new.version
            or old.placements != new.placements
            or old.codec != new.codec
        )

    def _remove_stale_fragments(self, old: FileEntry) -> None:
        """Garbage-collect the previous version's objects."""
        self._payload_cache.discard(self._version_key(old.path, old.version))
        self._remove_placements(old)

    def _publish(self, prev: FileEntry | None, entry: FileEntry) -> None:
        """Flip the namespace to ``entry``: collect the version it
        supersedes, persist the directory group, fulfil the journal intent."""
        self.namespace.upsert(entry)
        if prev is not None and self._placement_changed(prev, entry):
            self._remove_stale_fragments(prev)
        self._persist_metadata(dirname(entry.path))
        self._journal_commit()

    # --------------------------------------------------------- scheme policy
    @abstractmethod
    def _place(self, path: str, size: int, prev: FileEntry | None) -> Placement:
        """Where the next version of ``path`` (``size`` bytes, superseding
        ``prev``) goes, and with which redundancy."""

    def _forget(self, path: str) -> None:
        """``path`` was removed: drop any per-object client state the
        scheme keeps beside the namespace (hot copies, evolved codecs)."""

    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        """Codec the entry was *written* with (None = replication).

        Rebuilt from the entry's recorded name and parameters, never from
        the scheme's current policy: after a re-evaluation or a provider
        decommission new objects may stripe differently, but existing ones
        must keep decoding with their original geometry.
        """
        if entry.codec == "replication":
            return None
        key = (entry.codec, entry.codec_params)
        codec = self._codec_instances.get(key)
        if codec is None:
            params = dict(entry.codec_params)
            k = params["k"]
            if entry.codec == "raid5":
                codec = get_codec("raid5", k=k)
            elif entry.codec == "rs":
                codec = get_codec("rs", k=k, m=params["m"])
            elif entry.codec == "fmsr":
                codec = get_codec("fmsr", n=k + params["m"], k=k)
            else:
                raise ValueError(f"unknown codec {entry.codec!r} on {entry.path!r}")
            self._codec_instances[key] = codec
        return codec

    # -------------------------------------------------------- the data path
    def _write_object(
        self, path: str, data: bytes, prev: FileEntry | None
    ) -> FileEntry:
        """Place and write a new version of ``path``; returns its entry."""
        placement = self._place(path, len(data), prev)
        version = prev.version + 1 if prev else 1
        placements, digests = self._write_placement(path, data, placement, version)
        now = self.clock.now
        return FileEntry(
            path=path,
            size=len(data),
            version=version,
            codec=placement.codec_name,
            codec_params=placement.codec_params,
            placements=tuple(placements),
            klass=placement.klass,
            created=prev.created if prev else now,
            modified=now,
            access_count=placement.access_count,
            digests=digests,
        )

    def _write_placement(
        self, path: str, data: bytes, placement: Placement, version: int
    ) -> tuple[list[tuple[str, int]], tuple[str, ...]]:
        """Scatter one object version: the only place one is written.

        Replicas share the key ``path#vN``; fragment ``i`` of a coded
        object goes to ``providers[i]`` under ``path#vN.i``.  Returns
        ``(placements, digests)`` — one digest per slot, so reads can detect
        provider-side corruption.  Puts go out in parallel (replicas
        contend on the uplink — the DuraCloud effect) unless the scheme
        replicates sequentially, and are acknowledged at
        :attr:`write_quorum` when the scheme sets one.  Unavailable
        providers are write-logged, so the placement list always covers
        every intended slot.
        """
        codec, providers = placement.codec, placement.providers
        if codec is not None and len(providers) != codec.n:
            raise ValueError(
                f"{codec!r} needs {codec.n} providers, got {len(providers)}"
            )
        version_key = self._version_key(path, version)
        keys = [
            version_key if codec is None else self._fragment_key(path, i, version)
            for i in range(len(providers))
        ]
        self._heal_before_touching(providers)
        self._journal_plan(
            version=version,
            codec_name="replication" if codec is None else type(codec).__name__,
            min_needed=min_needed(codec),
            sites=tuple(zip(providers, keys)),
        )
        bodies = (
            [data] * len(providers)
            if codec is None
            else self._encode_fragments(codec, data)
        )
        ops = [
            CloudOp(p, "put", self.container, key, body)
            for p, key, body in zip(providers, keys, bodies)
        ]
        quorum = self.write_quorum
        if quorum is not None:
            self._quorum_phase(ops, quorum)
        elif codec is None and self.sequential_replication:
            for op in ops:
                self._run_phase([op])
        else:
            self._run_phase(ops)
        if codec is None:
            digests = (self._record_digest(version_key, data),) * len(providers)
        else:
            digests = self._digest_fragments(keys, bodies)
            self._payload_cache.record(version_key, bodies, data)
        return [(p, i) for i, p in enumerate(providers)], digests

    def _read_object(self, entry: FileEntry) -> tuple[bytes, bool]:
        """Fetch and reconstruct content; returns (data, degraded)."""
        codec = self._codec_for(entry)
        if codec is None:
            return self._read_replicated(
                entry.path,
                entry.size,
                list(entry.providers),
                entry.version,
                digest=entry.digests[0] if entry.digests else None,
            )
        return self._read_striped(
            entry.path,
            entry.size,
            codec,
            list(entry.placements),
            entry.version,
            digests=entry.digests or None,
        )

    def _update_object(
        self, entry: FileEntry, offset: int, patch: bytes, new_content: bytes
    ) -> FileEntry:
        """Partial write: patch the stripe in place when the codec allows
        it, otherwise re-put the composed object as a new version.

        In-place read-modify-write needs fixed shard boundaries (same size)
        and a systematic layout (a patch maps to the data fragments it
        touches plus parity); a non-systematic stripe, a replicated object
        or a size change all re-put — and a re-put re-places, so a small
        file growing past a threshold migrates.
        """
        codec = self._codec_for(entry)
        if codec is not None and codec.systematic and len(new_content) == entry.size:
            return self._rmw_striped(entry, offset, patch, new_content, codec)
        return self._write_object(entry.path, new_content, entry)

    # ------------------------------------------------------- maintenance plane
    def attach_maintenance(self, config=None, *, loop=None, ledger=None):
        """Attach a background :class:`~repro.maintenance.MaintenancePlane`.

        Builds the plane (anti-entropy scrubber, budgeted repair scheduler,
        live migration engine) on this scheme's clock and starts its
        recurring scrub schedule.  Detached (the default), every foreground
        path is byte-identical to a maintenance-free build: no extra RNG
        draws, no clock movement, no metric emissions — the same zero-cost
        bar the tracer and SLO tracker meet.  Returns the plane.
        """
        from repro.maintenance.plane import MaintenancePlane

        if self.maintenance is not None:
            raise RuntimeError("a maintenance plane is already attached")
        plane = MaintenancePlane(self, config=config, loop=loop, ledger=ledger)
        self.maintenance = plane
        plane.start()
        return plane

    def detach_maintenance(self):
        """Stop and unhook the maintenance plane (returns it, or None)."""
        plane = self.maintenance
        if plane is not None:
            plane.stop()
            self.maintenance = None
        return plane

    # ------------------------------------------- crash consistency (journal)
    def attach_journal(self, journal: IntentJournal | None = None) -> IntentJournal:
        """Attach a write-ahead :class:`~repro.fs.journal.IntentJournal`.

        With a journal attached, every mutating public op records an intent
        before its first fragment put and commits it after the namespace
        publish, giving :meth:`recover` the evidence to roll a crashed op
        forward or back.  The journal is pure bookkeeping — attaching one
        leaves simulated timings byte-identical (no RNG draws, no clock
        movement).  Pass an existing journal to model a durable client-local
        log surviving a crash (:meth:`take_over` hands the dead client's
        journal to its replacement).
        """
        if self.journal is not None:
            raise RuntimeError("a journal is already attached")
        self.journal = journal if journal is not None else IntentJournal()
        self._publish_journal_gauges()
        return self.journal

    def install_crash_schedule(self, schedule: CrashSchedule | None) -> None:
        """Arm (or, with None, disarm) scripted crash injection.

        The schedule's op counter ticks once per cloud op entering
        :meth:`_issue`; a matching crash point raises
        :class:`~repro.faults.crash.ClientCrash` *before* that op applies.
        The schedule object is owned by the caller so the counter survives
        client rebuilds.
        """
        self._crash = schedule

    def _journal_arm(
        self, kind: str, prev: FileEntry | None, payload: bytes | None
    ) -> None:
        """Open the journal context of the mutating op now in flight."""
        if self.journal is not None:
            self._current.armed = (kind, prev, payload)

    def _journal_plan(
        self,
        *,
        version: int,
        codec_name: str,
        min_needed: int,
        sites: tuple[tuple[str, str], ...],
    ) -> None:
        """Record the armed op's placement plan as a pending intent.

        Called once sites are known, immediately before the first put (or
        delete).  A no-op unless the op is armed, which takes an attached
        journal; an armed op plans exactly once — it reaches one of
        :meth:`_write_placement`, :meth:`_rmw_striped` or :meth:`remove`,
        and the metadata-group write that follows never plans.
        """
        op = self._current
        if op.armed is None:
            return
        kind, prev, payload = op.armed
        intent = self.journal.begin(
            kind=kind,
            path=op.path,
            version=version,
            codec=codec_name,
            min_needed=min_needed,
            sites=sites,
            payload=payload,
            prev=prev,
            logged_at=self.clock.now,
        )
        op.seq = intent.seq
        self._held["journal_intents_total", kind].inc()
        self._publish_journal_gauges()

    def _journal_commit(self) -> None:
        """The op published its namespace entry: fulfil the intent."""
        op = self._current
        seq, op.armed, op.seq = op.seq, None, None
        if seq is None or self.journal is None:
            return
        self.journal.commit(seq)
        self._held["journal_commits_total"].inc()
        self._publish_journal_gauges()

    def _publish_journal_gauges(self) -> None:
        if self.journal is None:
            return
        self._held["journal_pending"].set(len(self.journal))
        self._held["journal_payload_bytes"].set(self.journal.payload_bytes())

    def recover(self) -> dict:
        """Crash recovery: resolve pending journal intents, sweep orphans.

        Run by a restarted client after :meth:`recover_namespace`.  For each
        unresolved intent, recovery counts how many planned placements
        landed and decides:

        - **roll forward** (``landed >= min_needed``, pending put/update):
          redo the op from the journaled payload via :meth:`put` — the new
          version becomes authoritative and is fully redundant;
        - **roll back** (too few landed): restore the pre-op namespace entry
          (or absence) and republish the directory's metadata group;
        - **remove intents** always complete the removal (``min_needed=0``);
        - **aborted** intents (op failed cleanly before the crash) need no
          namespace action — their stray fragments are orphans.

        Afterwards a full orphan sweep lists every reachable provider and
        deletes keys no namespace entry (nor metadata group, nor
        scheme-private key via :meth:`_extra_expected_keys`) accounts for —
        routed through the maintenance plane's budgeted scheduler when one
        is attached, inline otherwise.  The journal drains to empty.

        Returns a JSON-friendly summary of the actions taken.
        """
        if self.journal is None:
            raise RuntimeError("recover() requires an attached journal")
        # Recovery itself must not trip scripted crash points: the schedule
        # counts foreground ops, and a recovery that died mid-flight would
        # simply run again from the same journal.
        schedule, self._crash = self._crash, None
        summary: dict = {
            "rolled_forward": [],
            "rolled_back": [],
            "removals_completed": [],
            "aborted_gc": [],
            "orphans_removed": {},
        }
        try:
            for intent in self.journal.pending():
                action = self._recover_intent(intent)
                summary[action].append(intent.describe())
                self.journal.resolve(intent.seq)
                if action == "rolled_forward":
                    self.registry.counter("journal_rollforward_total").inc()
                elif action == "rolled_back":
                    self.registry.counter("journal_rollback_total").inc()
            summary["orphans_removed"] = self._sweep_orphans()
            self._publish_journal_gauges()
        finally:
            self._crash = schedule
        return summary

    def _recover_intent(self, intent) -> str:
        """Resolve one journaled intent; returns the summary bucket name."""
        if intent.state == "aborted":
            # The op already failed in front of its caller; nothing to redo.
            # Whatever it scattered is swept as orphans.
            return "aborted_gc"
        if intent.kind == "remove":
            # A crashed remove always completes: the file was already gone
            # from the client's namespace when the plan was journaled.
            current = self.namespace.lookup(intent.path)
            if current is not None and current.version <= intent.version:
                self.remove(intent.path)
            else:
                # The crash came mid-persist: some copies of the directory's
                # group may still list the path.  Republish it whole.
                with self._op("recover", intent.path):
                    self._persist_metadata(dirname(intent.path))
            return "removals_completed"
        landed = self._count_landed(intent)
        if landed >= intent.min_needed:
            # Enough of the new version exists that redoing the op from the
            # journaled payload is the cheaper truth (and for in-place RMW,
            # min_needed=0, the only correct one).
            self.put(intent.path, intent.payload)
            return "rolled_forward"
        self._rollback_intent(intent)
        return "rolled_back"

    def _count_landed(self, intent) -> int:
        """Planned placements that durably left the client before the crash.

        A placement counts when the provider's store holds the planned key
        (a client-side peek, no wire cost) **or** the provider's durable
        write log retains the put awaiting replay — a logged fragment is as
        committed as a landed one, since the log survives the crash and the
        consistency update will deliver it.  Counting logged placements is
        what makes the roll-forward/back decision safe: once a scheme op
        finishes scattering, every site is landed-or-logged, so a crash in
        the later windows (stale-fragment removal, metadata persist — where
        the *previous* version is already being destroyed) always resolves
        forward.  Unreachable providers with nothing logged count as not
        landed — recovery cannot lean on bytes it cannot fetch.
        """
        landed = 0
        for prov, key in intent.sites:
            try:
                provider = self.provider(prov)
            except KeyError:
                continue
            if self._logged_payload(prov, key) is not None:
                landed += 1
            elif provider.is_available() and provider.store.has(self.container, key):
                landed += 1
        return landed

    def _rollback_intent(self, intent) -> None:
        """Restore the pre-op namespace entry and republish its group."""
        with self._op("recover", intent.path):
            if intent.prev is not None:
                self.namespace.upsert(intent.prev)
            else:
                try:
                    self.namespace.remove(intent.path)
                except FileNotFoundError:
                    pass
            self._persist_metadata(dirname(intent.path))

    def _extra_expected_keys(self) -> set[str]:
        """Scheme-private storage keys the orphan sweep must not touch."""
        return set()

    def unaccounted_keys(self, keys: Iterable[str]) -> list[str]:
        """The listed storage ``keys`` nothing accounts for, in order.

        The one statement of what an orphan is: a key that is neither a
        metadata group, nor a placement of a current namespace entry, nor a
        scheme-private key (:meth:`_extra_expected_keys`).  The recovery
        sweep deletes these; the chaos oracle reports them.
        """
        expected = self._extra_expected_keys()
        for path in self.namespace.paths():
            entry = self.namespace.lookup(path)
            if entry is None:
                continue
            for _prov, idx in entry.placements:
                expected.add(self._placement_storage_key(entry, idx))
        return [k for k in keys if not is_group_key(k) and k not in expected]

    def _sweep_orphans(self) -> dict[str, int]:
        """Delete unaccounted keys from every reachable provider.

        Keys with a pending write-log entry are skipped (the consistency
        update owns them).  With a maintenance plane attached the deletions
        are enqueued on its budgeted orphan sweeper instead of issued
        inline.
        """
        removed: dict[str, int] = {}
        plane = self.maintenance
        for p in self.api.providers():
            name = p.name
            if not p.is_available():
                continue
            with self._op("recover", f"orphan-sweep:{name}"):
                log = self._write_logs.get(name)
                orphans = [
                    k
                    for k in self.unaccounted_keys(self._list_container(name) or ())
                    if k and not (log is not None and log.has_pending(self.container, k))
                ]
                if orphans and plane is not None and plane.orphans is not None:
                    for k in orphans:
                        plane.orphans.enqueue(name, self.container, k)
                elif orphans:
                    removes = self._run_phase(
                        [CloudOp(name, "remove", self.container, k) for k in orphans]
                    )
                    ok = sum(1 for o in removes if o.ok)
                    if ok:
                        removed[name] = ok
                        self.registry.counter(
                            "orphan_gc_removed_total", provider=name
                        ).inc(ok)
        return removed

    def _expected_digest(self, entry: FileEntry, idx: int) -> str | None:
        if entry.digests and idx < len(entry.digests):
            return entry.digests[idx]
        return None

    def verify_object(self, path: str, deep: bool = True) -> ObjectAudit:
        """Audit every placement of ``path`` (one ``scrub`` op).

        Deep verification fetches each fragment/replica and checks it against
        the write-time digest, so silent corruption and truncation surface as
        ``corrupt`` findings; ``deep=False`` only probes existence (``head``),
        which is cheaper but blind to bit rot.  Placements on unavailable
        providers are reported ``unreachable``; keys superseded by a pending
        write-log entry are ``stale`` (the consistency update owns them).
        All traffic is charged like any other operation.
        """
        path = normalize_path(path)
        with self._op("scrub", path):
            return self._audit_entry(self.namespace.get(path), deep)

    def _audit_entry(self, entry: FileEntry, deep: bool) -> ObjectAudit:
        """Audit one entry inside the current op accounting."""
        codec = self._codec_for(entry)
        findings: list[VerifyFinding] = []
        probe_sites: list[tuple[str, int, str]] = []
        for prov, idx in entry.placements:
            key = self._placement_storage_key(entry, idx)
            if self._is_stale(prov, self.container, key):
                findings.append(VerifyFinding(entry.path, prov, key, "stale", idx))
            elif not self._provider_usable(prov):
                findings.append(
                    VerifyFinding(entry.path, prov, key, "unreachable", idx)
                )
            else:
                probe_sites.append((prov, idx, key))
        checked = 0
        bytes_verified = 0
        if probe_sites:
            kind = "get" if deep else "head"
            probes = self._run_phase(
                [CloudOp(prov, kind, self.container, key) for prov, _, key in probe_sites]
            )
            for (prov, idx, key), got in zip(probe_sites, probes):
                checked += 1
                if not got.ok:
                    found = "missing" if isinstance(got.error, NoSuchObject) else "unreachable"
                    findings.append(VerifyFinding(entry.path, prov, key, found, idx))
                    continue
                if deep and got.response is not None:
                    bytes_verified += len(got.response)
                    if not self._placement_intact(entry, idx, got.response):
                        findings.append(
                            VerifyFinding(entry.path, prov, key, "corrupt", idx)
                        )
        if findings:
            self._mark_degraded()
        return ObjectAudit(
            path=entry.path,
            version=entry.version,
            findings=tuple(findings),
            checked=checked,
            bytes_verified=bytes_verified,
            total=len(entry.placements),
            min_needed=min_needed(codec),
        )

    def repair_object(self, path: str, audit: ObjectAudit | None = None) -> RepairResult:
        """Restore full redundancy for ``path`` (one ``repair`` op).

        Re-reads the object through the scheme's own degraded-read path
        (digest-verified, so persistent corruption cannot poison the source),
        then rewrites only the damaged placements — a replica re-put, or a
        re-encode of exactly the affected fragments.  A stale ``audit`` (from
        an earlier scrub of a different version) is re-taken in place.

        Two classes of placement are deliberately *skipped*:

        - keys with a pending write-log entry — replay draining and a repair
          of the same key would race to double-write, so the consistency
          update keeps ownership (see :meth:`WriteLog.has_pending
          <repro.core.recovery.WriteLog.has_pending>`);
        - placements on currently unreachable providers — nothing can be
          written there; the scheduler re-queues the object.

        Raises :class:`DataUnavailable` when too few intact placements
        remain to reconstruct the payload (genuine data loss).
        """
        path = normalize_path(path)
        with self._op("repair", path):
            entry = self.namespace.get(path)
            if audit is None or audit.version != entry.version:
                audit = self._audit_entry(entry, deep=True)
            codec = self._codec_for(entry)
            targets: list[VerifyFinding] = []
            skipped_pending: list[VerifyFinding] = []
            skipped_unreachable: list[VerifyFinding] = []
            for f in audit.findings:
                if f.kind == "stale":
                    skipped_pending.append(f)
                    continue
                if f.kind == "unreachable" or not self._provider_usable(f.provider):
                    skipped_unreachable.append(f)
                    continue
                # Re-check at repair time: a foreground write may have landed
                # in the provider's log between the scrub and this repair.
                if self._write_logs[f.provider].has_pending(self.container, f.key):
                    skipped_pending.append(f)
                    continue
                targets.append(f)
            bytes_written = 0
            repaired: tuple[VerifyFinding, ...] = ()
            if targets and self.repair_by_rewrite:
                bytes_written = self._rewrite_object(entry)
                repaired = tuple(targets)
                # The rewrite supersedes the old version wholesale, pending
                # write-log entries for it included.
                skipped_pending = []
                skipped_unreachable = []
            elif targets:
                data, _degraded = self._read_object(entry)
                # A replica re-put, or a re-encode of the affected fragments.
                fragments = None if codec is None else self._encode_fragments(codec, data)
                up_before = self._current.bytes_up
                puts = self._run_phase(
                    [
                        CloudOp(
                            f.provider,
                            "put",
                            self.container,
                            f.key,
                            data if fragments is None else fragments[f.fragment],
                        )
                        for f in targets
                    ]
                )
                bytes_written = self._current.bytes_up - up_before
                if fragments is not None:
                    # The rewritten keys rebound to fresh buffers: the stale
                    # payload-cache entry must go before ids can be recycled.
                    self._payload_cache.discard(self._version_key(path, entry.version))
                for f, put in zip(targets, puts):
                    if put.ok:
                        self._record_digest(f.key, put.data)
                # A put that failed mid-repair was write-logged by the phase
                # and will land via the consistency update; it still counts as
                # owed to that path, not to this repair.
                repaired = tuple(f for f, o in zip(targets, puts) if o.ok)
                skipped_unreachable.extend(f for f, o in zip(targets, puts) if not o.ok)
        return RepairResult(
            path=path,
            repaired=repaired,
            skipped_pending=tuple(skipped_pending),
            skipped_unreachable=tuple(skipped_unreachable),
            bytes_written=bytes_written,
        )

    def migrate_object(self, path: str) -> OpReport:
        """Re-place one object under the scheme's *current* placement policy.

        Read through the old placement (degraded reconstruction if needed),
        write through :meth:`_write_object` — which consults whatever placement
        the scheme would choose for a fresh write today — then garbage-collect
        the old fragments.  Atomic per key: the namespace flips to the new
        entry only after the new placement is fully written, so a crash
        mid-migration leaves the old (intact) version authoritative.
        """
        path = normalize_path(path)
        with self._op("migrate", path) as op:
            self._rewrite_object(self.namespace.get(path))
        return op.report

    def _rewrite_object(self, entry: FileEntry) -> int:
        """Read ``entry`` back and write it whole as a new version under the
        current placement policy; returns the bytes the write uploaded."""
        data, _degraded = self._read_object(entry)
        op = self._current
        up_before = op.bytes_up
        data = bytes(data)
        self._journal_arm("put", entry, data)
        self._publish(entry, self._write_object(entry.path, data, entry))
        return op.bytes_up - up_before

    # --------------------------------------------------------------- queries
    def placements_on(self, provider: str) -> list[str]:
        """Paths that currently keep a fragment/replica on ``provider``."""
        return [
            p
            for p in self.namespace.paths()
            if provider in self.namespace.get(p).providers
        ]

    def stored_bytes_by_provider(self) -> dict[str, int]:
        """Physical bytes currently stored per provider (space-overhead view)."""
        return {p.name: p.store.total_bytes() for p in self.api.providers()}

    def total_stored_bytes(self) -> int:
        return sum(self.stored_bytes_by_provider().values())

    def space_overhead(self) -> float:
        """Physical bytes / logical bytes (1.0 = no redundancy)."""
        logical = self.namespace.total_bytes()
        if logical == 0:
            return 0.0
        return self.total_stored_bytes() / logical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(providers={self.provider_names})"
